//! Fault injection over *real* sockets.
//!
//! The virtual [`InMemoryNetwork`](super::InMemoryNetwork) can crash,
//! recover and partition nodes because it *is* the medium, and it
//! carries the weather planes too. A
//! [`UdpTransport`](super::UdpTransport) cluster has no such control
//! plane — the kernel delivers whatever it delivers. [`FaultyTransport`]
//! restores what a UDP fleet lacks in user space: every node's
//! transport is wrapped, and a shared [`FaultInjector`] handle mutes
//! crashed nodes and drops datagrams crossing a partition boundary, so
//! the online churn drivers run the *same*
//! [`FaultSchedule`](crate::online::FaultSchedule) crashes and
//! partitions over genuine OS sockets that they run over the simulator.
//! Weather directives are declined: they belong to the simulated
//! medium.
//!
//! Semantics, chosen to mirror the virtual network:
//!
//! * **Crash-by-muting** — a downed node's sends are swallowed and its
//!   inbound traffic is discarded; datagrams already in its socket
//!   buffer are flushed at the first receive after recovery so stale
//!   pre-crash heartbeats cannot masquerade as fresh ones. The flush is
//!   lazy, so a datagram landing in the brief window between
//!   [`ChurnableTransport::bring_up`] and that first receive is
//!   discarded with the stale ones — at most one heartbeat of extra
//!   best-effort loss at recovery, charged to the drop counter.
//! * **Address-set partitions** — a [`ProcessSet`] side; datagrams whose
//!   endpoints straddle the boundary are dropped at send *and* receive
//!   (the receive check catches datagrams in flight when the partition
//!   lands).
//!
//! Received datagrams are re-stamped with the cluster's shared clock, so
//! every arrival time an estimator sees is coherent with the driver's
//! clock regardless of what the inner transport recorded.

use super::{lock, ChurnableTransport, Datagram, Transport};
use crate::clock::Clock;
use bytes::Bytes;
use rfd_core::{ProcessId, ProcessSet};
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct InjectorState {
    down: ProcessSet,
    /// Nodes whose next `recv` must flush the inner transport: set on
    /// [`ChurnableTransport::bring_up`] so datagrams queued during the
    /// outage are discarded instead of surfacing as fresh arrivals.
    flush: ProcessSet,
    partition: Option<ProcessSet>,
    forwarded: u64,
    dropped: u64,
}

impl InjectorState {
    /// Whether the active partition separates `a` from `b`.
    fn cut(&self, a: ProcessId, b: ProcessId) -> bool {
        self.partition
            .is_some_and(|side| side.contains(a) != side.contains(b))
    }
}

/// The shared control plane of a [`FaultyTransport`] cluster: the
/// [`ChurnableTransport`] handle the churn drivers act on, plus
/// accounting.
///
/// Cloning is cheap and every clone controls the same cluster.
#[derive(Clone, Debug, Default)]
pub struct FaultInjector {
    state: Arc<Mutex<InjectorState>>,
}

impl FaultInjector {
    /// A fresh control plane: every node up, no partition.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `node` is currently muted (crashed).
    #[must_use]
    pub fn is_down(&self, node: ProcessId) -> bool {
        lock(&self.state).down.contains(node)
    }

    /// The active partition side, if any.
    #[must_use]
    pub fn partition(&self) -> Option<ProcessSet> {
        lock(&self.state).partition
    }

    /// `(forwarded, dropped)` datagram counters across the cluster
    /// (drops include muting and partition crossings).
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        let g = lock(&self.state);
        (g.forwarded, g.dropped)
    }

    /// Whether a send from `from` to `to` passes the fault plane right
    /// now, charging the counters.
    fn admits_send(&self, from: ProcessId, to: ProcessId) -> bool {
        let mut g = lock(&self.state);
        if g.down.contains(from) || g.down.contains(to) || g.cut(from, to) {
            g.dropped += 1;
            return false;
        }
        g.forwarded += 1;
        true
    }
}

impl ChurnableTransport for FaultInjector {
    fn take_down(&self, node: ProcessId) {
        lock(&self.state).down.insert(node);
    }

    fn bring_up(&self, node: ProcessId) {
        let mut g = lock(&self.state);
        if g.down.remove(node) {
            g.flush.insert(node);
        }
    }

    fn set_partition(&self, side: ProcessSet) {
        lock(&self.state).partition = Some(side);
    }

    fn heal_partition(&self) {
        lock(&self.state).partition = None;
    }
}

/// One node's fault-injected view of an inner [`Transport`], controlled
/// by the cluster's shared [`FaultInjector`].
///
/// Build a whole cluster with [`faulty_cluster`]. The wrapper is
/// transport-generic: wrap [`UdpTransport`](super::UdpTransport)s for
/// real-socket churn, or [`Endpoint`](super::Endpoint)s of a reliable
/// [`InMemoryNetwork`](super::InMemoryNetwork) to test the fault plane
/// itself deterministically.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use rfd_core::ProcessId;
/// use rfd_net::clock::{Nanos, VirtualClock};
/// use rfd_net::transport::{
///     faulty_cluster, ChurnableTransport, InMemoryNetwork, NetworkConfig, Transport,
/// };
///
/// let clock = VirtualClock::new();
/// let net = InMemoryNetwork::new(2, NetworkConfig::default(), clock.clone());
/// let endpoints = (0..2).map(|ix| net.endpoint(ProcessId::new(ix))).collect();
/// let (nodes, injector) = faulty_cluster(endpoints, clock.clone());
///
/// nodes[0].send(ProcessId::new(1), Bytes::from_static(b"hb"));
/// clock.advance(Nanos::from_millis(10));
/// assert!(nodes[1].recv().is_some(), "traffic flows while healthy");
///
/// injector.take_down(ProcessId::new(0)); // crash-by-muting
/// nodes[0].send(ProcessId::new(1), Bytes::from_static(b"hb"));
/// clock.advance(Nanos::from_millis(10));
/// assert!(nodes[1].recv().is_none(), "a muted node's sends are swallowed");
/// ```
#[derive(Debug)]
pub struct FaultyTransport<T, C> {
    inner: T,
    injector: FaultInjector,
    clock: C,
}

impl<T: Transport, C: Clock> FaultyTransport<T, C> {
    /// Wraps one node's transport under `injector`, re-stamping received
    /// datagrams with `clock`. Prefer [`faulty_cluster`] to wrap a whole
    /// fleet under one injector.
    #[must_use]
    pub fn new(inner: T, injector: FaultInjector, clock: C) -> Self {
        Self {
            inner,
            injector,
            clock,
        }
    }

    /// The cluster's shared control plane.
    #[must_use]
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// The wrapped transport.
    #[must_use]
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: Transport, C: Clock> Transport for FaultyTransport<T, C> {
    fn me(&self) -> ProcessId {
        self.inner.me()
    }

    fn send(&self, to: ProcessId, payload: Bytes) {
        if self.injector.admits_send(self.inner.me(), to) {
            self.inner.send(to, payload);
        }
    }

    fn recv(&self) -> Option<Datagram> {
        let me = self.inner.me();
        let mut g = lock(&self.injector.state);
        if g.down.contains(me) || g.flush.remove(me) {
            // Muted, or freshly recovered: discard everything buffered
            // during the outage. Holding the lock is fine — the inner
            // recv is non-blocking by contract.
            while self.inner.recv().is_some() {
                g.dropped += 1;
            }
            return None;
        }
        loop {
            let dg = self.inner.recv()?;
            if g.cut(dg.from, me) {
                g.dropped += 1;
                continue;
            }
            return Some(Datagram {
                delivered_at: self.clock.now(),
                ..dg
            });
        }
    }
}

/// Wraps a fleet of per-node transports under one fresh
/// [`FaultInjector`], re-stamping arrivals with clones of `clock`.
/// Returns the wrapped nodes and the shared control handle.
///
/// This is the real-socket analogue of
/// [`InMemoryNetwork::new`](super::InMemoryNetwork::new) +
/// [`endpoint`](super::InMemoryNetwork::endpoint): pair it with
/// [`loopback_cluster`](super::udp::loopback_cluster) and a shared
/// [`SystemClock`](crate::clock::SystemClock) to put a live UDP fleet
/// under schedule-driven churn (see `examples/udp_churn.rs`).
///
/// # Examples
///
/// A detector fleet over loopback UDP, paced in wall time:
///
/// ```no_run
/// use rfd_net::clock::{Nanos, SystemClock};
/// use rfd_net::estimator::ChenEstimator;
/// use rfd_net::online::{OnlineRunner, OnlineScenario};
/// use rfd_net::transport::{faulty_cluster, udp::loopback_cluster};
///
/// # fn main() -> std::io::Result<()> {
/// let scenario = OnlineScenario::default();
/// let estimator = ChenEstimator::new(Nanos::from_millis(150), 16, Nanos::from_millis(600));
/// let clock = SystemClock::new();
/// let (nodes, injector) = faulty_cluster(loopback_cluster(scenario.n)?, clock.clone());
/// let mut runner = OnlineRunner::over(estimator, scenario, nodes, injector, clock);
/// runner.run_to_end(); // sleeps between ticks: wall-clock pacing
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn faulty_cluster<T: Transport, C: Clock + Clone>(
    transports: Vec<T>,
    clock: C,
) -> (Vec<FaultyTransport<T, C>>, FaultInjector) {
    let injector = FaultInjector::new();
    let nodes = transports
        .into_iter()
        .map(|t| FaultyTransport::new(t, injector.clone(), clock.clone()))
        .collect();
    (nodes, injector)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Nanos, VirtualClock};
    use crate::transport::{InMemoryNetwork, NetworkConfig};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// A 3-node faulty cluster over a reliable in-memory medium: the
    /// inner transport never loses anything, so every drop observed is
    /// the injector's doing.
    fn cluster() -> (
        VirtualClock,
        Vec<FaultyTransport<super::super::Endpoint, VirtualClock>>,
        FaultInjector,
    ) {
        let clock = VirtualClock::new();
        let config = NetworkConfig::reliable(Nanos::from_millis(1), Nanos::from_millis(2));
        let net = InMemoryNetwork::new(3, config, clock.clone());
        let endpoints = (0..3).map(|ix| net.endpoint(p(ix))).collect();
        let (nodes, injector) = faulty_cluster(endpoints, clock.clone());
        (clock, nodes, injector)
    }

    fn pump(clock: &VirtualClock) {
        clock.advance(Nanos::from_millis(5));
    }

    #[test]
    fn healthy_cluster_forwards_and_restamps() {
        let (clock, nodes, injector) = cluster();
        nodes[0].send(p(1), Bytes::from_static(b"hb"));
        pump(&clock);
        let dg = nodes[1].recv().expect("delivered");
        assert_eq!(dg.from, p(0));
        assert_eq!(
            dg.delivered_at,
            clock.now(),
            "arrivals are re-stamped with the shared clock"
        );
        assert_eq!(injector.stats(), (1, 0));
    }

    #[test]
    fn muted_node_neither_sends_nor_receives() {
        let (clock, nodes, injector) = cluster();
        injector.take_down(p(0));
        assert!(injector.is_down(p(0)));
        nodes[0].send(p(1), Bytes::from_static(b"dead"));
        pump(&clock);
        assert!(nodes[1].recv().is_none(), "sends from a muted node vanish");
        nodes[1].send(p(0), Bytes::from_static(b"hello"));
        pump(&clock);
        assert!(nodes[0].recv().is_none(), "muted nodes receive nothing");
    }

    #[test]
    fn recovery_flushes_datagrams_buffered_during_the_outage() {
        let (clock, nodes, injector) = cluster();
        // The datagram leaves p1 before p0 is muted, so the inner medium
        // buffers it for p0.
        nodes[1].send(p(0), Bytes::from_static(b"stale"));
        injector.take_down(p(0));
        pump(&clock);
        injector.bring_up(p(0));
        assert!(!injector.is_down(p(0)));
        assert!(
            nodes[0].recv().is_none(),
            "pre-recovery traffic is flushed, not delivered late"
        );
        // Fresh traffic after the flush flows normally.
        nodes[1].send(p(0), Bytes::from_static(b"fresh"));
        pump(&clock);
        assert_eq!(&nodes[0].recv().expect("delivered").payload[..], b"fresh");
    }

    #[test]
    fn partition_blocks_cross_traffic_both_ways_until_healed() {
        let (clock, nodes, injector) = cluster();
        let side = ProcessSet::singleton(p(2));
        injector.set_partition(side);
        assert_eq!(injector.partition(), Some(side));
        nodes[0].send(p(2), Bytes::from_static(b"cross"));
        nodes[0].send(p(1), Bytes::from_static(b"within"));
        pump(&clock);
        assert!(nodes[2].recv().is_none(), "cross-partition sends drop");
        assert!(nodes[1].recv().is_some(), "same-side traffic flows");
        injector.heal_partition();
        nodes[2].send(p(0), Bytes::from_static(b"healed"));
        pump(&clock);
        assert!(nodes[0].recv().is_some());
    }

    #[test]
    fn in_flight_datagrams_are_caught_at_receive_when_the_partition_lands() {
        let (clock, nodes, injector) = cluster();
        nodes[0].send(p(2), Bytes::from_static(b"in flight"));
        // The partition lands while the datagram is crossing.
        injector.set_partition(ProcessSet::singleton(p(2)));
        pump(&clock);
        assert!(nodes[2].recv().is_none(), "receive-side check catches it");
        let (_, dropped) = injector.stats();
        assert_eq!(dropped, 1);
    }
}
