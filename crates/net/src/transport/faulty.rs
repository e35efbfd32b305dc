//! Fault injection over *real* transports.
//!
//! The virtual [`InMemoryNetwork`](super::InMemoryNetwork) can crash,
//! recover and partition nodes because it *is* the medium. A
//! [`UdpTransport`](super::UdpTransport) cluster has no such control
//! plane — the kernel delivers whatever it delivers. [`FaultyTransport`]
//! restores the control plane in user space: every node's transport is
//! wrapped, and a shared [`FaultInjector`] handle mutes crashed nodes,
//! drops datagrams crossing a partition boundary, and injects seeded
//! random loss — so the online churn drivers run the *same*
//! [`FaultSchedule`](crate::online::FaultSchedule) over genuine OS
//! sockets that they run over the simulator.
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
//! * **Injected loss** — independent per-datagram drops with a seeded
//!   RNG, so loss pressure exists even on a lossless loopback.
//!
//! On top of the crash/partition/loss base, the injector carries the
//! adversarial **weather planes** driven by
//! [`WeatherDirective`]s (see
//! [`crate::weather`]):
//!
//! * **one-way blocks** — a directed `(from, to)` link set, checked at
//!   send *and* receive like partitions, but asymmetric;
//! * **duplication** — a forwarded datagram is sent twice with seeded
//!   probability;
//! * **bounded reordering** — an arrival is held back until `depth`
//!   younger datagrams have overtaken it or a hold timer fires;
//! * **gray failure / latency spikes** — arrivals from a gray sender
//!   (or, under a spike, from anyone) are held for the configured extra
//!   latency: slow-but-alive, never lost.
//!
//! Held datagrams live in a per-node queue inside the wrapper and are
//! still "in flight": a partition or block landing while they wait
//! catches them at release, and a crash of the receiver purges them
//! like any other buffered traffic. A plane that is switched off draws
//! nothing from the RNG, so a calm injector consumes exactly the seed
//! stream of its loss plane alone.
//!
//! Received datagrams are re-stamped with the cluster's shared clock, so
//! every arrival time an estimator sees is coherent with the driver's
//! clock regardless of what the inner transport recorded.

use super::{ChurnableTransport, Datagram, Transport};
use crate::clock::{Clock, Nanos};
use crate::weather::WeatherDirective;
use bytes::Bytes;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfd_core::{ProcessId, ProcessSet};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Datagram counters of the weather planes, cluster-wide (see
/// [`FaultInjector::weather_stats`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct WeatherStats {
    /// Forwarded datagrams that were sent twice.
    pub duplicated: u64,
    /// Arrivals held back by the reordering plane.
    pub reordered: u64,
    /// Arrivals held back by gray failure or a latency spike.
    pub delayed: u64,
    /// Datagrams dropped by one-way link blocks.
    pub link_dropped: u64,
}

#[derive(Debug)]
struct InjectorState {
    down: ProcessSet,
    /// Nodes whose next `recv` must flush the inner transport: set on
    /// [`ChurnableTransport::bring_up`] so datagrams queued during the
    /// outage are discarded instead of surfacing as fresh arrivals.
    flush: ProcessSet,
    partition: Option<ProcessSet>,
    drop_probability: f64,
    rng: StdRng,
    forwarded: u64,
    dropped: u64,
    /// Directed links currently blocked (one-way partitions).
    blocked: BTreeSet<(ProcessId, ProcessId)>,
    /// Duplication probability, in per-mille (0 = plane off).
    dup_per_mille: u16,
    /// Reordering hold-back probability, in per-mille (0 = plane off).
    reorder_per_mille: u16,
    /// How many younger datagrams may overtake a held one.
    reorder_depth: u8,
    /// Maximum extra latency the reordering plane holds a datagram.
    reorder_hold: Nanos,
    /// Gray (slow-but-alive) senders and their extra one-way latency.
    gray: BTreeMap<ProcessId, Nanos>,
    /// Cluster-wide extra latency (a spike), `ZERO` when calm.
    spike: Nanos,
    weather: WeatherStats,
}

/// What the receive-side fault plane decided about one arrival.
enum RecvFate {
    /// Discard (partition crossing or blocked link), already charged.
    Drop,
    /// Deliver now.
    Deliver,
    /// Hold back: release after `extra` latency, or — when `depth` is
    /// set (reordering) — once that many younger datagrams have been
    /// delivered past it, whichever comes first.
    Hold {
        /// Extra latency before a time-based release.
        extra: Nanos,
        /// Overtake bound for a count-based release (reordering only).
        depth: Option<u8>,
    },
}

/// The shared control plane of a [`FaultyTransport`] cluster: the
/// [`ChurnableTransport`] handle the churn drivers act on, plus loss
/// injection and accounting.
///
/// Cloning is cheap and every clone controls the same cluster.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    state: Arc<Mutex<InjectorState>>,
}

impl FaultInjector {
    /// A fresh control plane with independent per-datagram loss
    /// `drop_probability`, drawn from an RNG seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `drop_probability` is outside `0.0..=1.0`.
    #[must_use]
    pub fn new(drop_probability: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&drop_probability),
            "drop probability must be in [0,1]"
        );
        Self {
            state: Arc::new(Mutex::new(InjectorState {
                down: ProcessSet::empty(),
                flush: ProcessSet::empty(),
                partition: None,
                drop_probability,
                rng: StdRng::seed_from_u64(seed),
                forwarded: 0,
                dropped: 0,
                blocked: BTreeSet::new(),
                dup_per_mille: 0,
                reorder_per_mille: 0,
                reorder_depth: 0,
                reorder_hold: Nanos::ZERO,
                gray: BTreeMap::new(),
                spike: Nanos::ZERO,
                weather: WeatherStats::default(),
            })),
        }
    }

    /// Whether `node` is currently muted (crashed).
    #[must_use]
    pub fn is_down(&self, node: ProcessId) -> bool {
        self.state.lock().down.contains(node)
    }

    /// The active partition side, if any.
    #[must_use]
    pub fn partition(&self) -> Option<ProcessSet> {
        self.state.lock().partition
    }

    /// `(forwarded, dropped)` datagram counters across the cluster
    /// (drops include muting, partition crossings and injected loss).
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        let g = self.state.lock();
        (g.forwarded, g.dropped)
    }

    /// The per-plane weather counters (duplicates, holds, one-way
    /// drops) across the cluster.
    #[must_use]
    pub fn weather_stats(&self) -> WeatherStats {
        self.state.lock().weather
    }

    /// How many copies of a send from `from` to `to` pass the fault
    /// plane right now (0 = dropped, 2 = duplicated), charging the
    /// counters. RNG draws happen only for planes that are switched on.
    fn copies_for_send(&self, from: ProcessId, to: ProcessId) -> usize {
        let mut g = self.state.lock();
        if g.down.contains(from) || g.down.contains(to) {
            g.dropped += 1;
            return 0;
        }
        if let Some(side) = g.partition {
            if side.contains(from) != side.contains(to) {
                g.dropped += 1;
                return 0;
            }
        }
        if g.blocked.contains(&(from, to)) {
            g.dropped += 1;
            g.weather.link_dropped += 1;
            return 0;
        }
        if g.drop_probability > 0.0 {
            let p = g.drop_probability;
            if g.rng.gen_bool(p) {
                g.dropped += 1;
                return 0;
            }
        }
        g.forwarded += 1;
        if g.dup_per_mille > 0 {
            let p = per_mille_probability(g.dup_per_mille);
            if g.rng.gen_bool(p) {
                g.weather.duplicated += 1;
                return 2;
            }
        }
        1
    }

    /// The receive-side fault plane's verdict on an arrival from `from`
    /// at node `me`, charging drop counters.
    fn fate_of_arrival(&self, from: ProcessId, me: ProcessId) -> RecvFate {
        let mut g = self.state.lock();
        if g.partition
            .is_some_and(|side| side.contains(from) != side.contains(me))
        {
            g.dropped += 1;
            return RecvFate::Drop;
        }
        if g.blocked.contains(&(from, me)) {
            g.dropped += 1;
            g.weather.link_dropped += 1;
            return RecvFate::Drop;
        }
        let extra = g
            .gray
            .get(&from)
            .copied()
            .unwrap_or(Nanos::ZERO)
            .saturating_add(g.spike);
        if extra > Nanos::ZERO {
            g.weather.delayed += 1;
            return RecvFate::Hold { extra, depth: None };
        }
        if g.reorder_per_mille > 0 {
            let p = per_mille_probability(g.reorder_per_mille);
            if g.rng.gen_bool(p) {
                g.weather.reordered += 1;
                return RecvFate::Hold {
                    extra: g.reorder_hold,
                    depth: Some(g.reorder_depth),
                };
            }
        }
        RecvFate::Deliver
    }

    /// Whether a previously held datagram from `from` may still reach
    /// `me` — held datagrams are in flight, so a partition or one-way
    /// block landing during the hold catches them at release (charged
    /// like any other receive-side drop).
    fn still_admissible(&self, from: ProcessId, me: ProcessId) -> bool {
        let mut g = self.state.lock();
        if g.partition
            .is_some_and(|side| side.contains(from) != side.contains(me))
        {
            g.dropped += 1;
            return false;
        }
        if g.blocked.contains(&(from, me)) {
            g.dropped += 1;
            g.weather.link_dropped += 1;
            return false;
        }
        true
    }
}

/// A per-mille knob as a [`Rng::gen_bool`] probability.
fn per_mille_probability(per_mille: u16) -> f64 {
    f64::from(per_mille.min(1000)) / 1000.0
}

impl ChurnableTransport for FaultInjector {
    fn take_down(&self, node: ProcessId) {
        self.state.lock().down.insert(node);
    }

    fn bring_up(&self, node: ProcessId) {
        let mut g = self.state.lock();
        if g.down.remove(node) {
            g.flush.insert(node);
        }
    }

    fn set_partition(&self, side: ProcessSet) {
        self.state.lock().partition = Some(side);
    }

    fn heal_partition(&self) {
        self.state.lock().partition = None;
    }

    fn apply_weather(&self, directive: &WeatherDirective) -> bool {
        let mut g = self.state.lock();
        match *directive {
            WeatherDirective::BlockLink { from, to } => {
                g.blocked.insert((from, to));
            }
            WeatherDirective::UnblockLink { from, to } => {
                g.blocked.remove(&(from, to));
            }
            WeatherDirective::Duplicate { per_mille } => g.dup_per_mille = per_mille,
            WeatherDirective::Reorder {
                per_mille,
                depth,
                hold,
            } => {
                g.reorder_per_mille = per_mille;
                g.reorder_depth = depth;
                g.reorder_hold = hold;
            }
            WeatherDirective::Gray { node, extra } => {
                g.gray.insert(node, extra);
            }
            WeatherDirective::Ungray { node } => {
                g.gray.remove(&node);
            }
            WeatherDirective::Spike { extra } => g.spike = extra,
            WeatherDirective::Calm => g.spike = Nanos::ZERO,
        }
        true
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
/// let (nodes, injector) = faulty_cluster(endpoints, 0.0, 7, clock.clone());
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
    /// This node's weather hold-back queue (gray/spike/reordering).
    held: Mutex<HeldQueue>,
}

/// Datagrams the weather planes are holding back for one node, plus the
/// delivery counter the reordering release bound is measured against.
#[derive(Debug, Default)]
struct HeldQueue {
    /// Held arrivals in arrival order (oldest first).
    entries: Vec<HeldEntry>,
    /// Datagrams delivered to this node so far.
    delivered: u64,
    /// Reused drain buffer for the batch path.
    scratch: Vec<Datagram>,
}

#[derive(Debug)]
struct HeldEntry {
    /// Time-based release bound.
    due: Nanos,
    /// Count-based release bound: released once `delivered` reaches
    /// this (`u64::MAX` for pure-latency holds).
    release_after: u64,
    dg: Datagram,
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
            held: Mutex::new(HeldQueue::default()),
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

    /// If this node is muted (or freshly recovered), discards everything
    /// the inner transport buffered *and* everything the weather planes
    /// were holding for it, charging the drop counter; returns whether
    /// the caller should report an empty receive.
    fn purge_if_muted(&self, me: ProcessId) -> bool {
        let mut g = self.injector.state.lock();
        if g.down.contains(me) || g.flush.contains(me) {
            // Muted, or freshly recovered: discard everything buffered
            // during the outage. Holding the lock is fine — the inner
            // recv is non-blocking by contract.
            let mut purged = 0u64;
            while self.inner.recv().is_some() {
                purged += 1;
            }
            let mut h = self.held.lock();
            purged += h.entries.len() as u64;
            h.entries.clear();
            drop(h);
            g.dropped += purged;
            g.flush.remove(me);
            return true;
        }
        false
    }

    /// Releases the oldest held datagram whose time or overtake bound
    /// has passed, re-stamped at `now`.
    fn pop_released(&self, now: Nanos) -> Option<Datagram> {
        let mut h = self.held.lock();
        let delivered = h.delivered;
        let pos = h
            .entries
            .iter()
            .position(|e| e.due <= now || delivered >= e.release_after)?;
        let entry = h.entries.remove(pos);
        h.delivered += 1;
        Some(Datagram {
            delivered_at: now,
            ..entry.dg
        })
    }

    /// Holds an arrival back per a [`RecvFate::Hold`] verdict.
    fn stash(&self, dg: Datagram, now: Nanos, extra: Nanos, depth: Option<u8>) {
        let mut h = self.held.lock();
        let release_after = depth.map_or(u64::MAX, |d| h.delivered.saturating_add(u64::from(d)));
        h.entries.push(HeldEntry {
            due: now.saturating_add(extra),
            release_after,
            dg,
        });
    }

    /// The batch path: release due holds, then run every fresh arrival
    /// through the receive-side fault plane.
    fn recv_batch_weather(&self, into: &mut Vec<Datagram>, me: ProcessId) -> usize {
        let start = into.len();
        let now = self.clock.now();
        while let Some(dg) = self.pop_released(now) {
            if self.injector.still_admissible(dg.from, me) {
                into.push(dg);
            }
        }
        let mut fresh = std::mem::take(&mut self.held.lock().scratch);
        fresh.clear();
        self.inner.recv_batch(&mut fresh);
        for dg in fresh.drain(..) {
            match self.injector.fate_of_arrival(dg.from, me) {
                RecvFate::Drop => {}
                RecvFate::Deliver => {
                    self.held.lock().delivered += 1;
                    into.push(Datagram {
                        delivered_at: now,
                        ..dg
                    });
                }
                RecvFate::Hold { extra, depth } => self.stash(dg, now, extra, depth),
            }
        }
        self.held.lock().scratch = fresh;
        into.len() - start
    }
}

impl<T: Transport, C: Clock> Transport for FaultyTransport<T, C> {
    fn me(&self) -> ProcessId {
        self.inner.me()
    }

    fn send(&self, to: ProcessId, payload: Bytes) {
        let copies = self.injector.copies_for_send(self.inner.me(), to);
        for _ in 0..copies {
            // `Bytes::clone` is a refcount bump, so the duplication
            // plane costs no copy of the payload.
            self.inner.send(to, payload.clone());
        }
    }

    fn recv(&self) -> Option<Datagram> {
        let me = self.inner.me();
        loop {
            if self.purge_if_muted(me) {
                return None;
            }
            let now = self.clock.now();
            if let Some(dg) = self.pop_released(now) {
                if self.injector.still_admissible(dg.from, me) {
                    return Some(dg);
                }
                continue;
            }
            let dg = self.inner.recv()?;
            match self.injector.fate_of_arrival(dg.from, me) {
                RecvFate::Drop => {}
                RecvFate::Deliver => {
                    self.held.lock().delivered += 1;
                    return Some(Datagram {
                        delivered_at: now,
                        ..dg
                    });
                }
                RecvFate::Hold { extra, depth } => self.stash(dg, now, extra, depth),
            }
        }
    }

    fn recv_batch(&self, into: &mut Vec<Datagram>) -> usize {
        let me = self.inner.me();
        if self.purge_if_muted(me) {
            return 0;
        }
        self.recv_batch_weather(into, me)
    }
}

/// Wraps a fleet of per-node transports under one fresh
/// [`FaultInjector`] (independent datagram loss `drop_probability`,
/// RNG seeded with `seed`), re-stamping arrivals with clones of `clock`.
/// Returns the wrapped nodes and the shared control handle.
///
/// This is the real-socket analogue of
/// [`InMemoryNetwork::new`](super::InMemoryNetwork::new) +
/// [`endpoint`](super::InMemoryNetwork::endpoint): pair it with
/// [`loopback_cluster`](super::udp::loopback_cluster) and a shared
/// [`SystemClock`](crate::clock::SystemClock) to put a live UDP fleet
/// under schedule-driven churn (see `examples/udp_churn.rs`).
///
/// # Panics
///
/// Panics if `drop_probability` is outside `0.0..=1.0`.
#[must_use]
pub fn faulty_cluster<T: Transport, C: Clock + Clone>(
    transports: Vec<T>,
    drop_probability: f64,
    seed: u64,
    clock: C,
) -> (Vec<FaultyTransport<T, C>>, FaultInjector) {
    let injector = FaultInjector::new(drop_probability, seed);
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
    fn cluster(
        drop_probability: f64,
        seed: u64,
    ) -> (
        VirtualClock,
        Vec<FaultyTransport<super::super::Endpoint, VirtualClock>>,
        FaultInjector,
    ) {
        let clock = VirtualClock::new();
        let config = NetworkConfig::reliable(Nanos::from_millis(1), Nanos::from_millis(2));
        let net = InMemoryNetwork::new(3, config, clock.clone());
        let endpoints = (0..3).map(|ix| net.endpoint(p(ix))).collect();
        let (nodes, injector) = faulty_cluster(endpoints, drop_probability, seed, clock.clone());
        (clock, nodes, injector)
    }

    fn pump(clock: &VirtualClock) {
        clock.advance(Nanos::from_millis(5));
    }

    #[test]
    fn healthy_cluster_forwards_and_restamps() {
        let (clock, nodes, injector) = cluster(0.0, 1);
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
        let (clock, nodes, injector) = cluster(0.0, 2);
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
        let (clock, nodes, injector) = cluster(0.0, 3);
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
        let (clock, nodes, injector) = cluster(0.0, 4);
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
        let (clock, nodes, injector) = cluster(0.0, 5);
        nodes[0].send(p(2), Bytes::from_static(b"in flight"));
        // The partition lands while the datagram is crossing.
        injector.set_partition(ProcessSet::singleton(p(2)));
        pump(&clock);
        assert!(nodes[2].recv().is_none(), "receive-side check catches it");
        let (_, dropped) = injector.stats();
        assert_eq!(dropped, 1);
    }

    #[test]
    fn injected_loss_is_seeded_and_proportionate() {
        let count = |seed: u64| {
            let (clock, nodes, _) = cluster(0.5, seed);
            for _ in 0..400 {
                nodes[0].send(p(1), Bytes::from_static(b"x"));
            }
            pump(&clock);
            let mut got = 0;
            while nodes[1].recv().is_some() {
                got += 1;
            }
            got
        };
        let a = count(9);
        assert!((100..300).contains(&a), "got {a} of 400 at 50% loss");
        assert_eq!(a, count(9), "same seed, same drop pattern");
    }
}
