//! The heartbeat failure-detection service: one estimator per monitored
//! peer, a suspect-set view, and a transport-driven node loop.

use crate::clock::{Clock, Nanos};
use crate::codec::{encode_batch_into, encode_into, for_each_frame, Heartbeat, WireMsg, WireView};
use crate::estimator::ArrivalEstimator;
use crate::transport::{Datagram, Transport};
use bytes::{Bytes, BytesMut};
use rfd_core::{ProcessId, ProcessSet};
use std::collections::VecDeque;
use std::ops::ControlFlow;

/// Per-node heartbeat detector: monitors every peer with its own clone
/// of an estimator prototype.
///
/// Each peer's freshness point is fixed when its heartbeat lands
/// ([`on_heartbeat`](Self::on_heartbeat) asks the estimator for its
/// deadline once and keeps the answer), so the questions asked on every
/// poll — [`suspects`](Self::suspects), [`deadline`](Self::deadline) —
/// read stored values instead of re-deriving them from the arrival
/// window.
///
/// # Examples
///
/// ```
/// use rfd_core::{ProcessId, ProcessSet};
/// use rfd_net::clock::Nanos;
/// use rfd_net::detector::HeartbeatDetector;
/// use rfd_net::estimator::FixedTimeout;
///
/// let mut d = HeartbeatDetector::new(
///     ProcessId::new(0),
///     3,
///     FixedTimeout::new(Nanos::from_millis(100)),
/// );
/// d.on_heartbeat(ProcessId::new(1), Nanos::from_millis(0));
/// d.on_heartbeat(ProcessId::new(2), Nanos::from_millis(0));
/// let s = d.suspects(Nanos::from_millis(150));
/// assert_eq!(s.len(), 2, "both peers timed out");
/// ```
#[derive(Debug)]
pub struct HeartbeatDetector<E> {
    me: ProcessId,
    monitors: Vec<Option<E>>,
    /// `monitors[ix].deadline()` as of the peer's latest arrival (or of
    /// the prototype, for a peer not heard yet).
    deadlines: Vec<Option<Nanos>>,
}

impl<E: ArrivalEstimator + Clone> HeartbeatDetector<E> {
    /// Creates a detector at `me` over `n` processes, cloning
    /// `prototype` for each monitored peer.
    #[must_use]
    pub fn new(me: ProcessId, n: usize, prototype: E) -> Self {
        let monitors: Vec<Option<E>> = (0..n)
            .map(|ix| (ix != me.index()).then(|| prototype.clone()))
            .collect();
        // A prototype that has already observed arrivals hands every
        // clone the same freshness point.
        let inherited = prototype.deadline();
        let deadlines = monitors
            .iter()
            .map(|est| est.as_ref().and(inherited))
            .collect();
        Self {
            me,
            monitors,
            deadlines,
        }
    }

    /// This node's identity.
    #[must_use]
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Records a heartbeat from `from` at `now`.
    pub fn on_heartbeat(&mut self, from: ProcessId, now: Nanos) {
        if let (Some(Some(est)), Some(deadline)) = (
            self.monitors.get_mut(from.index()),
            self.deadlines.get_mut(from.index()),
        ) {
            est.observe(now);
            *deadline = est.deadline();
        }
    }

    /// The suspected set at `now`. Peers that never sent a heartbeat are
    /// *not* suspected (no evidence either way yet — detectors begin
    /// trusting, matching the paper's accuracy-first reading).
    #[must_use]
    pub fn suspects(&self, now: Nanos) -> ProcessSet {
        let mut s = ProcessSet::empty();
        for (ix, (est, deadline)) in self.monitors.iter().zip(&self.deadlines).enumerate() {
            if let (Some(est), Some(pid)) = (est, ProcessId::try_new(ix, self.monitors.len())) {
                if est.is_suspect_given(*deadline, now) {
                    s.insert(pid);
                }
            }
        }
        s
    }

    /// The freshness point `peer`'s latest heartbeat fixed: its
    /// estimator's [`deadline`](ArrivalEstimator::deadline), read from
    /// the stored value (`None` for self/unknown/never heard).
    #[must_use]
    pub fn deadline(&self, peer: ProcessId) -> Option<Nanos> {
        self.deadlines.get(peer.index()).copied().flatten()
    }

    /// The suspicion level of one peer at `now` (0 for self/unknown).
    #[must_use]
    pub fn suspicion_level(&self, peer: ProcessId, now: Nanos) -> f64 {
        self.monitors
            .get(peer.index())
            .and_then(Option::as_ref)
            .map_or(0.0, |e| e.suspicion_level(now))
    }

    /// Access one peer's estimator (e.g. for its deadline).
    #[must_use]
    pub fn monitor(&self, peer: ProcessId) -> Option<&E> {
        self.monitors.get(peer.index()).and_then(Option::as_ref)
    }
}

/// How many buffers a [`SendRing`] keeps at most.
const SEND_RING_CAP: usize = 64;

/// Recycled send buffers, one ring per sending node: a payload is
/// encoded into the ring's oldest buffer once the transport has
/// dropped every clone of what it last carried (the
/// `freeze`/`try_into_mut` cycle), so a warmed sender encodes without
/// allocating. The ring grows by one buffer only when its oldest is
/// still in flight — its length is the sender's in-flight high-water
/// mark — up to [`SEND_RING_CAP`]; past that the oldest is left to its
/// receivers and replaced.
#[derive(Debug, Default)]
pub(crate) struct SendRing {
    /// Oldest first; each holds the ring's own handle to a payload.
    buffers: VecDeque<Bytes>,
}

impl SendRing {
    /// `msg`, encoded into a recycled buffer.
    pub(crate) fn encode(&mut self, msg: &WireMsg) -> Bytes {
        self.fill(|buf| encode_into(msg, buf))
    }

    /// A [`Batch`](WireMsg::Batch) of `frames`, encoded into a recycled
    /// buffer ([`encode_batch_into`]).
    pub(crate) fn encode_batch(&mut self, frames: &[WireMsg]) -> Bytes {
        self.fill(|buf| encode_batch_into(frames, buf))
    }

    fn fill(&mut self, write: impl FnOnce(&mut BytesMut)) -> Bytes {
        let mut buf = match self.buffers.pop_front().map(Bytes::try_into_mut) {
            Some(Ok(free)) => free,
            Some(Err(in_flight)) => {
                if self.buffers.len() + 1 < SEND_RING_CAP {
                    self.buffers.push_front(in_flight);
                }
                BytesMut::new()
            }
            None => BytesMut::new(),
        };
        write(&mut buf);
        let payload = buf.freeze();
        self.buffers.push_back(payload.clone());
        payload
    }
}

/// A complete failure-detector node: emits heartbeats on a period and
/// folds received heartbeats into a [`HeartbeatDetector`].
///
/// The node loop is allocation-free in steady state: datagrams drain
/// through a reusable receive buffer, frames decode through the
/// borrowed-view codec, and the heartbeat payload is encoded into a
/// recycled send buffer. A detector-only node owes each peer exactly one
/// frame per period, so there is nothing to coalesce on the send side;
/// [`Batch`](WireMsg::Batch) datagrams from richer peers (e.g. the
/// membership layer) are unpacked by the shared receive loop, so their
/// heartbeats are observed like any other.
#[derive(Debug)]
pub struct DetectorNode<E, T, C> {
    detector: HeartbeatDetector<E>,
    transport: T,
    clock: C,
    period: Nanos,
    next_beat: Nanos,
    seq: u64,
    n: usize,
    /// Reusable receive buffer for [`Transport::recv_batch`].
    rx_buf: Vec<Datagram>,
    /// Recycled heartbeat payloads.
    tx: SendRing,
    /// Datagrams dropped because they failed to decode or carried an
    /// out-of-range sender index.
    malformed_frames: u64,
}

impl<E, T, C> DetectorNode<E, T, C>
where
    E: ArrivalEstimator + Clone,
    T: Transport,
    C: Clock,
{
    /// Creates a node that heartbeats every `period`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn new(n: usize, prototype: E, transport: T, clock: C, period: Nanos) -> Self {
        assert!(period > Nanos::ZERO, "heartbeat period must be positive");
        let me = transport.me();
        Self {
            detector: HeartbeatDetector::new(me, n, prototype),
            transport,
            clock,
            period,
            next_beat: Nanos::ZERO,
            seq: 0,
            n,
            rx_buf: Vec::new(),
            tx: SendRing::default(),
            malformed_frames: 0,
        }
    }

    /// Datagrams dropped as malformed: undecodable bytes, or a frame
    /// whose claimed sender index falls outside the fleet. Well-formed
    /// frames of other protocol layers are *not* counted — ignoring
    /// them is routine multiplexing, not damage.
    #[must_use]
    pub fn malformed_frames(&self) -> u64 {
        self.malformed_frames
    }

    /// Folds one decoded heartbeat into the detector. A corrupt or
    /// foreign datagram can claim any sender index, so the id is built
    /// with the checked constructor; out-of-range frames are dropped
    /// and counted.
    fn note_heartbeat(&mut self, hb: &Heartbeat, delivered_at: Nanos) {
        match ProcessId::try_new(usize::from(hb.sender), self.n) {
            Some(from) => self.detector.on_heartbeat(from, delivered_at),
            None => self.malformed_frames += 1,
        }
    }

    /// One iteration of the node loop: drain received datagrams, then
    /// emit a heartbeat if the period elapsed. Returns the current
    /// suspect set.
    pub fn poll(&mut self) -> ProcessSet {
        let now = self.clock.now();
        let mut rx = std::mem::take(&mut self.rx_buf);
        self.transport.recv_batch(&mut rx);
        self.malformed_frames += for_each_frame(&mut rx, |_, delivered_at, frame| {
            if let WireView::Heartbeat(hb) = frame {
                self.note_heartbeat(hb, delivered_at);
            }
            ControlFlow::Continue(())
        });
        self.rx_buf = rx;
        if now >= self.next_beat {
            let hb = WireMsg::Heartbeat(Heartbeat {
                #[allow(clippy::cast_possible_truncation)]
                sender: self.transport.me().index() as u16,
                seq: self.seq,
                sent_at: now,
            });
            self.seq += 1;
            let payload = self.tx.encode(&hb);
            for to in ProcessSet::full(self.n) {
                if to != self.transport.me() {
                    self.transport.send(to, payload.clone());
                }
            }
            self.next_beat = now.saturating_add(self.period);
        }
        self.detector.suspects(now)
    }

    /// The inner detector.
    #[must_use]
    pub fn detector(&self) -> &HeartbeatDetector<E> {
        &self.detector
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::codec::encode;
    use crate::estimator::FixedTimeout;
    use crate::transport::{InMemoryNetwork, NetworkConfig};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn send_ring_reuses_free_buffers_and_grows_only_while_the_oldest_is_in_flight() {
        let hb = |seq| {
            WireMsg::Heartbeat(Heartbeat {
                sender: 1,
                seq,
                sent_at: Nanos::ZERO,
            })
        };
        let mut ring = SendRing::default();
        // Each payload delivered (dropped) before the next send: one
        // buffer serves them all.
        for seq in 0..10 {
            drop(ring.encode(&hb(seq)));
        }
        assert_eq!(ring.buffers.len(), 1);
        // Payloads still in flight are never overwritten: the ring grows
        // instead, up to its cap, past which it hands them off.
        let in_flight: Vec<_> = (0..100).map(|seq| ring.encode(&hb(seq))).collect();
        assert_eq!(ring.buffers.len(), SEND_RING_CAP);
        for (seq, payload) in (0..).zip(&in_flight) {
            assert_eq!(crate::codec::decode(payload), Ok(hb(seq)));
        }
        drop(in_flight);
        for seq in 0..200 {
            drop(ring.encode(&hb(seq)));
        }
        assert_eq!(
            ring.buffers.len(),
            SEND_RING_CAP,
            "a delivered ring recycles"
        );
    }

    #[test]
    fn self_is_never_monitored() {
        let mut d = HeartbeatDetector::new(p(1), 3, FixedTimeout::new(Nanos::from_millis(10)));
        d.on_heartbeat(p(1), Nanos::from_millis(0));
        assert!(!d.suspects(Nanos::from_millis(1_000)).contains(p(1)));
        assert!(d.monitor(p(1)).is_none());
    }

    #[test]
    fn silent_peers_become_suspects_and_recover() {
        let mut d = HeartbeatDetector::new(p(0), 2, FixedTimeout::new(Nanos::from_millis(50)));
        d.on_heartbeat(p(1), Nanos::from_millis(0));
        assert!(d.suspects(Nanos::from_millis(60)).contains(p(1)));
        d.on_heartbeat(p(1), Nanos::from_millis(60));
        assert!(d.suspects(Nanos::from_millis(100)).is_empty());
    }

    #[test]
    fn two_nodes_monitor_each_other_over_the_virtual_network() {
        let clock = VirtualClock::new();
        let net = InMemoryNetwork::new(2, NetworkConfig::default(), clock.clone());
        let proto = FixedTimeout::new(Nanos::from_millis(50));
        let mut a = DetectorNode::new(
            2,
            proto.clone(),
            net.endpoint(p(0)),
            clock.clone(),
            Nanos::from_millis(10),
        );
        let mut b = DetectorNode::new(
            2,
            proto,
            net.endpoint(p(1)),
            clock.clone(),
            Nanos::from_millis(10),
        );
        // Run 200 ms: nobody suspected.
        for _ in 0..20 {
            a.poll();
            b.poll();
            clock.advance(Nanos::from_millis(10));
        }
        assert!(a.poll().is_empty());
        assert!(b.poll().is_empty());
        // Take b down: a suspects it within the timeout.
        net.take_down(p(1));
        for _ in 0..20 {
            a.poll();
            clock.advance(Nanos::from_millis(10));
        }
        assert!(a.poll().contains(p(1)));
    }

    #[test]
    fn heartbeats_inside_a_batch_frame_are_observed() {
        let clock = VirtualClock::new();
        let net = InMemoryNetwork::new(3, NetworkConfig::default(), clock.clone());
        let mut a = DetectorNode::new(
            3,
            FixedTimeout::new(Nanos::from_millis(50)),
            net.endpoint(p(0)),
            clock.clone(),
            Nanos::from_millis(10),
        );
        let sender = net.endpoint(p(1));
        let batch = WireMsg::Batch(vec![WireMsg::Heartbeat(Heartbeat {
            sender: 1,
            seq: 0,
            sent_at: clock.now(),
        })]);
        sender.send(p(0), encode(&batch));
        clock.advance(Nanos::from_millis(1));
        a.poll();
        // p1 beat via the batch; p2 never did. Only never-heard p2 stays
        // unsuspected after the timeout window by the trusting-start
        // rule, and p1's batched beat must have registered.
        clock.advance(Nanos::from_millis(60));
        let suspects = a.poll();
        assert!(
            suspects.contains(p(1)),
            "batched beat was observed, then timed out"
        );
        assert!(!suspects.contains(p(2)), "never-heard peers start trusted");
    }
}
