//! Real UDP transport for end-to-end examples.

#![allow(
    clippy::disallowed_methods,
    reason = "real sockets run on the wall clock by design"
)]

use super::{Datagram, Transport};
use crate::clock::{Clock, SystemClock};
use bytes::Bytes;
use rfd_core::ProcessId;
use std::net::{SocketAddr, UdpSocket};

/// A UDP datagram transport: one socket per node, a static peer table.
///
/// Heartbeats and suspicions flow over genuine OS sockets; useful for
/// the runnable examples (`examples/udp_detector.rs`) and for sanity
/// checks that the stack is not simulation-bound.
#[derive(Debug)]
pub struct UdpTransport {
    me: ProcessId,
    socket: UdpSocket,
    peers: Vec<SocketAddr>,
    clock: SystemClock,
}

impl UdpTransport {
    /// Binds node `me`'s socket to `peers[me]` and records the peer
    /// table. The socket is set non-blocking.
    ///
    /// # Errors
    ///
    /// Returns any socket bind/configuration error.
    pub fn bind(me: ProcessId, peers: Vec<SocketAddr>) -> std::io::Result<Self> {
        let addr = peers.get(me.index()).copied().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "me out of range")
        })?;
        let socket = UdpSocket::bind(addr)?;
        socket.set_nonblocking(true)?;
        Ok(Self {
            me,
            socket,
            peers,
            clock: SystemClock::new(),
        })
    }

    /// The local socket address actually bound (useful with port 0).
    ///
    /// # Errors
    ///
    /// Returns the socket error, if any.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    fn peer_of(&self, addr: SocketAddr) -> Option<ProcessId> {
        self.peers
            .iter()
            .position(|p| *p == addr)
            .map(ProcessId::new)
    }
}

impl Transport for UdpTransport {
    fn me(&self) -> ProcessId {
        self.me
    }

    fn send(&self, to: ProcessId, payload: Bytes) {
        if let Some(addr) = self.peers.get(to.index()) {
            // Best-effort: UDP loss is part of the model.
            let _ = self.socket.send_to(&payload, addr);
        }
    }

    fn recv(&self) -> Option<Datagram> {
        let mut buf = [0u8; 2048];
        loop {
            match self.socket.recv_from(&mut buf) {
                Ok((len, addr)) => {
                    let Some(from) = self.peer_of(addr) else {
                        continue; // stranger datagram: drop
                    };
                    let Some(bytes) = buf.get(..len) else {
                        continue; // cannot happen: recv_from bounds len
                    };
                    return Some(Datagram {
                        from,
                        to: self.me,
                        payload: Bytes::copy_from_slice(bytes),
                        delivered_at: self.clock.now(),
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return None,
                Err(_) => return None,
            }
        }
    }
}

/// Builds a loopback peer table of `n` sockets on ephemeral ports and
/// binds every node.
///
/// # Errors
///
/// Returns the first socket error encountered.
/// Fails with [`std::io::ErrorKind::InvalidInput`] if `n` exceeds
/// [`rfd_core::MAX_PROCESSES`].
pub fn loopback_cluster(n: usize) -> std::io::Result<Vec<UdpTransport>> {
    // First bind everyone on port 0 to discover addresses...
    let sockets: Vec<UdpSocket> = (0..n)
        .map(|_| UdpSocket::bind("127.0.0.1:0"))
        .collect::<std::io::Result<_>>()?;
    let peers: Vec<SocketAddr> = sockets
        .iter()
        .map(UdpSocket::local_addr)
        .collect::<std::io::Result<_>>()?;
    // ...then wrap them as transports.
    sockets
        .into_iter()
        .enumerate()
        .map(|(ix, socket)| {
            socket.set_nonblocking(true)?;
            let me = ProcessId::try_new(ix, n).ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "cluster size exceeds MAX_PROCESSES",
                )
            })?;
            Ok(UdpTransport {
                me,
                socket,
                peers: peers.clone(),
                clock: SystemClock::new(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_roundtrip() {
        let nodes = loopback_cluster(2).expect("bind loopback");
        nodes[0].send(ProcessId::new(1), Bytes::from_static(b"hb"));
        // Give the kernel a moment.
        let mut got = None;
        for _ in 0..100 {
            if let Some(dg) = nodes[1].recv() {
                got = Some(dg);
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let dg = got.expect("datagram should arrive on loopback");
        assert_eq!(dg.from, ProcessId::new(0));
        assert_eq!(&dg.payload[..], b"hb");
    }

    #[test]
    fn stranger_datagrams_are_dropped() {
        let nodes = loopback_cluster(2).expect("bind loopback");
        let stranger = UdpSocket::bind("127.0.0.1:0").unwrap();
        let target = nodes[1].local_addr().unwrap();
        stranger.send_to(b"noise", target).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(nodes[1].recv().is_none(), "unknown senders are ignored");
    }
}
