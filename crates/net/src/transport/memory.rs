//! A deterministic in-memory network driven by a virtual clock.

use super::{lock, ChurnableTransport, Datagram, Transport};
use crate::clock::{Clock, ClockSkew, Nanos, VirtualClock};
use crate::weather::WeatherDirective;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfd_core::{ProcessId, ProcessSet};
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::sync::{Arc, Mutex};

/// The datagram loss process.
#[derive(Clone, Debug, PartialEq)]
pub enum LossModel {
    /// Independent per-datagram loss with the given probability.
    Bernoulli(f64),
    /// Gilbert–Elliott two-state burst model: the channel alternates
    /// between a *good* state (lossless) and a *bad* state, transitioning
    /// per datagram; in the bad state each datagram is lost with
    /// `loss_in_burst`. Burst losses are what actually separate adaptive
    /// estimators in practice (E7's ablation).
    GilbertElliott {
        /// Probability of entering the bad state per good-state datagram.
        p_enter: f64,
        /// Probability of leaving the bad state per bad-state datagram.
        p_exit: f64,
        /// Loss probability while in the bad state.
        loss_in_burst: f64,
    },
}

impl LossModel {
    fn validate(&self) {
        match self {
            LossModel::Bernoulli(p) => {
                assert!((0.0..=1.0).contains(p), "loss must be a probability");
            }
            LossModel::GilbertElliott {
                p_enter,
                p_exit,
                loss_in_burst,
            } => {
                for p in [p_enter, p_exit, loss_in_burst] {
                    assert!((0.0..=1.0).contains(p), "probabilities must be in [0,1]");
                }
            }
        }
    }
}

/// Loss/delay parameters of the virtual network.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// The loss process.
    pub loss: LossModel,
    /// Minimum one-way delay.
    pub min_delay: Nanos,
    /// Maximum one-way delay.
    pub max_delay: Nanos,
    /// RNG seed (loss and delay draws).
    pub seed: u64,
}

impl NetworkConfig {
    /// A lossless network with the given delay range.
    #[must_use]
    pub fn reliable(min_delay: Nanos, max_delay: Nanos) -> Self {
        Self {
            loss: LossModel::Bernoulli(0.0),
            min_delay,
            max_delay,
            seed: 0,
        }
    }

    /// Sets independent per-datagram loss (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is outside `0.0..=1.0`.
    #[must_use]
    pub fn with_loss(mut self, loss: f64) -> Self {
        let model = LossModel::Bernoulli(loss);
        model.validate();
        self.loss = model;
        self
    }

    /// Sets a Gilbert–Elliott burst-loss process (builder style).
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `0.0..=1.0`.
    #[must_use]
    pub fn with_burst_loss(mut self, p_enter: f64, p_exit: f64, loss_in_burst: f64) -> Self {
        let model = LossModel::GilbertElliott {
            p_enter,
            p_exit,
            loss_in_burst,
        };
        model.validate();
        self.loss = model;
        self
    }

    /// Sets the RNG seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self::reliable(Nanos::from_millis(1), Nanos::from_millis(5))
    }
}

#[derive(Debug)]
struct InFlight {
    due: Nanos,
    seq: u64,
    datagram: Datagram,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest-due first.
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

/// The weather planes of the medium (see [`crate::weather`]). Each one
/// acts on a datagram's fate at send, where loss and delay are drawn.
#[derive(Debug, Default)]
struct Planes {
    /// Directed links currently blocked (one-way partitions).
    blocked: BTreeSet<(ProcessId, ProcessId)>,
    /// Duplication probability, in per-mille (0 = plane off).
    dup_per_mille: u16,
    /// Reordering probability, in per-mille (0 = plane off).
    reorder_per_mille: u16,
    /// Extra latency of a datagram the reordering plane holds back.
    reorder_hold: Nanos,
    /// Gray (slow-but-alive) senders and their extra one-way latency.
    gray: BTreeMap<ProcessId, Nanos>,
    /// Cluster-wide extra latency (a spike), `ZERO` when calm.
    spike: Nanos,
}

impl Planes {
    fn is_calm(&self) -> bool {
        self.blocked.is_empty()
            && self.dup_per_mille == 0
            && self.reorder_per_mille == 0
            && self.gray.is_empty()
            && self.spike == Nanos::ZERO
    }

    fn apply(&mut self, directive: WeatherDirective) {
        match directive {
            WeatherDirective::BlockLink { from, to } => {
                self.blocked.insert((from, to));
            }
            WeatherDirective::UnblockLink { from, to } => {
                self.blocked.remove(&(from, to));
            }
            WeatherDirective::Duplicate { per_mille } => self.dup_per_mille = per_mille,
            WeatherDirective::Reorder { per_mille, hold } => {
                self.reorder_per_mille = per_mille;
                self.reorder_hold = hold;
            }
            WeatherDirective::Gray { node, extra } => {
                self.gray.insert(node, extra);
            }
            WeatherDirective::Ungray { node } => {
                self.gray.remove(&node);
            }
            WeatherDirective::Spike { extra } => self.spike = extra,
            WeatherDirective::Calm => self.spike = Nanos::ZERO,
        }
    }

    /// The weather's verdict on a send `from → to`: `None` if a blocked
    /// link drops it, else how many copies enter the medium (2 when
    /// duplicated) and the extra latency they carry. Only a plane that
    /// is on draws from `rng`.
    fn fate(&self, from: ProcessId, to: ProcessId, rng: &mut StdRng) -> Option<(usize, Nanos)> {
        if self.blocked.contains(&(from, to)) {
            return None;
        }
        let drawn = |per_mille: u16, rng: &mut StdRng| {
            per_mille > 0 && rng.gen_bool(f64::from(per_mille.min(1000)) / 1000.0)
        };
        let copies = if drawn(self.dup_per_mille, rng) { 2 } else { 1 };
        let mut extra = self
            .gray
            .get(&from)
            .copied()
            .unwrap_or(Nanos::ZERO)
            .saturating_add(self.spike);
        if drawn(self.reorder_per_mille, rng) {
            extra = extra.saturating_add(self.reorder_hold);
        }
        Some((copies, extra))
    }
}

#[derive(Debug)]
struct NetInner {
    config: NetworkConfig,
    rng: StdRng,
    /// Gilbert–Elliott channel state: `true` = bad (burst) state.
    in_burst: bool,
    /// Every datagram in flight, delivered in `(due, seq)` order:
    /// earliest due first, ties in send order.
    in_flight: BinaryHeap<InFlight>,
    inboxes: Vec<VecDeque<Datagram>>,
    /// Nodes taken down (crashed): they neither send nor receive.
    down: ProcessSet,
    /// Active network partition: datagrams crossing the boundary between
    /// this set and its complement are dropped (counted as lost).
    partition: Option<ProcessSet>,
    /// The weather planes, `None` while every plane is off — so a calm
    /// send pays one branch and no RNG draw for them.
    weather: Option<Planes>,
    seq: u64,
    sent: u64,
    lost: u64,
    delivered: u64,
}

/// A deterministic in-memory datagram network.
///
/// All endpoints share the [`VirtualClock`]; messages become receivable
/// once the clock passes their delivery time. Every datagram in flight
/// waits in one queue and leaves it earliest delivery time first, equal
/// times in send order.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use rfd_core::ProcessId;
/// use rfd_net::clock::{Nanos, VirtualClock};
/// use rfd_net::transport::{InMemoryNetwork, NetworkConfig, Transport};
///
/// let clock = VirtualClock::new();
/// let net = InMemoryNetwork::new(2, NetworkConfig::default(), clock.clone());
/// let a = net.endpoint(ProcessId::new(0));
/// let b = net.endpoint(ProcessId::new(1));
/// a.send(ProcessId::new(1), Bytes::from_static(b"ping"));
/// clock.advance(Nanos::from_millis(10));
/// let dg = b.recv().expect("delivered after the delay");
/// assert_eq!(&dg.payload[..], b"ping");
/// ```
#[derive(Clone, Debug)]
pub struct InMemoryNetwork {
    inner: Arc<Mutex<NetInner>>,
    clock: VirtualClock,
    n: usize,
}

impl InMemoryNetwork {
    /// Creates a network of `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize, config: NetworkConfig, clock: VirtualClock) -> Self {
        assert!(n > 0, "need at least one node");
        let seed = config.seed;
        Self {
            inner: Arc::new(Mutex::new(NetInner {
                config,
                rng: StdRng::seed_from_u64(seed),
                in_burst: false,
                in_flight: BinaryHeap::new(),
                inboxes: (0..n).map(|_| VecDeque::new()).collect(),
                down: ProcessSet::empty(),
                partition: None,
                weather: None,
                seq: 0,
                sent: 0,
                lost: 0,
                delivered: 0,
            })),
            clock,
            n,
        }
    }

    /// A handle for node `me`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range.
    #[must_use]
    pub fn endpoint(&self, me: ProcessId) -> Endpoint {
        self.skewed_endpoint(me, ClockSkew::IDENTITY)
    }

    /// A handle for node `me` whose arrivals are stamped in that node's
    /// local time: `skew.apply(due)`. The identity skew stamps `due`
    /// exactly, as [`InMemoryNetwork::endpoint`] does.
    pub(crate) fn skewed_endpoint(&self, me: ProcessId, skew: ClockSkew) -> Endpoint {
        assert!(me.index() < self.n, "{me} out of range (n={})", self.n);
        Endpoint {
            net: self.clone(),
            me,
            skew,
        }
    }

    /// Takes a node down (crash): pending and future traffic to and from
    /// it is dropped, and so is whatever already sat in its inbox — a
    /// process that returns is a new one and hears nothing addressed to
    /// its previous life. Like traffic that comes due while it is down,
    /// the discarded inbox is charged to no counter.
    pub fn take_down(&self, node: ProcessId) {
        let mut g = lock(&self.inner);
        g.down.insert(node);
        if let Some(inbox) = g.inboxes.get_mut(node.index()) {
            inbox.clear();
        }
    }

    /// Brings a downed node back up (churn): its traffic flows again.
    /// Datagrams addressed to it that came due while it was down stay
    /// dropped.
    pub fn bring_up(&self, node: ProcessId) {
        lock(&self.inner).down.remove(node);
    }

    /// Whether a node is down.
    #[must_use]
    pub fn is_down(&self, node: ProcessId) -> bool {
        lock(&self.inner).down.contains(node)
    }

    /// Installs a network partition: datagrams between `side` and its
    /// complement are dropped (and counted as lost) until
    /// [`InMemoryNetwork::heal_partition`]. Traffic within either side is
    /// unaffected. Replaces any previous partition.
    pub fn set_partition(&self, side: ProcessSet) {
        lock(&self.inner).partition = Some(side);
    }

    /// Heals the active partition, if any.
    pub fn heal_partition(&self) {
        lock(&self.inner).partition = None;
    }

    /// The active partition side, if any.
    #[must_use]
    pub fn partition(&self) -> Option<ProcessSet> {
        lock(&self.inner).partition
    }

    /// `(sent, lost, delivered)` counters. A duplicated datagram is one
    /// send and up to two deliveries.
    #[must_use]
    pub fn stats(&self) -> (u64, u64, u64) {
        let g = lock(&self.inner);
        (g.sent, g.lost, g.delivered)
    }

    /// Moves due in-flight messages to inboxes in `(due, seq)` order
    /// (lock already held).
    fn pump_locked(g: &mut NetInner, now: Nanos) {
        while let Some(next) = g.in_flight.peek_mut() {
            if next.due > now {
                break;
            }
            let m = PeekMut::pop(next);
            if g.down.contains(m.datagram.to) {
                continue;
            }
            g.delivered += 1;
            if let Some(inbox) = g.inboxes.get_mut(m.datagram.to.index()) {
                inbox.push_back(m.datagram);
            }
        }
    }

    fn send_from(&self, from: ProcessId, to: ProcessId, payload: Bytes) {
        let now = self.clock.now();
        let mut g = lock(&self.inner);
        let g = &mut *g; // split the guard so disjoint fields borrow freely
        if g.down.contains(from) || g.down.contains(to) {
            return;
        }
        g.sent += 1;
        if let Some(side) = g.partition {
            if side.contains(from) != side.contains(to) {
                g.lost += 1;
                return;
            }
        }
        let (copies, extra) = match &g.weather {
            None => (1, Nanos::ZERO),
            Some(planes) => {
                let Some(fate) = planes.fate(from, to, &mut g.rng) else {
                    g.lost += 1;
                    return;
                };
                fate
            }
        };
        let dropped = match &g.config.loss {
            LossModel::Bernoulli(p) => *p > 0.0 && g.rng.gen_bool(*p),
            LossModel::GilbertElliott {
                p_enter,
                p_exit,
                loss_in_burst,
            } => {
                // Advance the channel state per datagram, then draw.
                if g.in_burst {
                    if *p_exit > 0.0 && g.rng.gen_bool(*p_exit) {
                        g.in_burst = false;
                    }
                } else if *p_enter > 0.0 && g.rng.gen_bool(*p_enter) {
                    g.in_burst = true;
                }
                g.in_burst && *loss_in_burst > 0.0 && g.rng.gen_bool(*loss_in_burst)
            }
        };
        if dropped {
            g.lost += 1;
            return;
        }
        let lo = g.config.min_delay.as_nanos();
        let hi = g.config.max_delay.as_nanos().max(lo);
        let delay = if hi > lo {
            g.rng.gen_range(lo..=hi)
        } else {
            lo
        };
        let due = now
            .saturating_add(Nanos::from_nanos(delay))
            .saturating_add(extra);
        if copies == 2 {
            // A refcount bump: the duplicate shares the payload.
            Self::enqueue(g, due, from, to, payload.clone());
        }
        Self::enqueue(g, due, from, to, payload);
    }

    /// Puts one datagram in flight, due at `due`.
    fn enqueue(g: &mut NetInner, due: Nanos, from: ProcessId, to: ProcessId, payload: Bytes) {
        let seq = g.seq;
        g.seq += 1;
        g.in_flight.push(InFlight {
            due,
            seq,
            datagram: Datagram {
                from,
                to,
                payload,
                delivered_at: due,
            },
        });
    }

    fn recv_for(&self, me: ProcessId) -> Option<Datagram> {
        let now = self.clock.now();
        let mut g = lock(&self.inner);
        Self::pump_locked(&mut g, now);
        if g.down.contains(me) {
            return None;
        }
        g.inboxes.get_mut(me.index()).and_then(VecDeque::pop_front)
    }

    /// Drains every datagram currently deliverable to `me` into `into`
    /// under a single lock acquisition (the batch analogue of
    /// [`InMemoryNetwork::recv_for`]).
    fn recv_all_for(&self, me: ProcessId, into: &mut Vec<Datagram>) -> usize {
        let now = self.clock.now();
        let mut g = lock(&self.inner);
        Self::pump_locked(&mut g, now);
        if g.down.contains(me) {
            return 0;
        }
        let Some(inbox) = g.inboxes.get_mut(me.index()) else {
            return 0;
        };
        let count = inbox.len();
        into.extend(inbox.drain(..));
        count
    }
}

/// The churn surface delegates to the inherent methods: faults act on
/// the simulated medium itself, deterministically per seed. The medium
/// is also the one substrate that carries the weather planes.
impl ChurnableTransport for InMemoryNetwork {
    fn take_down(&self, node: ProcessId) {
        InMemoryNetwork::take_down(self, node);
    }

    fn bring_up(&self, node: ProcessId) {
        InMemoryNetwork::bring_up(self, node);
    }

    fn set_partition(&self, side: ProcessSet) {
        InMemoryNetwork::set_partition(self, side);
    }

    fn heal_partition(&self) {
        InMemoryNetwork::heal_partition(self);
    }

    /// Every plane acts at send: a blocked link drops the datagram like
    /// a partition, duplication enqueues a second copy, and gray
    /// failure, spikes and reordering holds add to its due time — so a
    /// later send overtakes a held one. A directive that leaves every
    /// plane off returns the medium to its calm send path.
    fn apply_weather(&self, directive: &WeatherDirective) -> bool {
        let mut g = lock(&self.inner);
        let planes = g.weather.get_or_insert_with(Planes::default);
        planes.apply(*directive);
        if planes.is_calm() {
            g.weather = None;
        }
        true
    }
}

/// A node-side handle to an [`InMemoryNetwork`].
#[derive(Clone, Debug)]
pub struct Endpoint {
    net: InMemoryNetwork,
    me: ProcessId,
    /// The rate of this node's clock: arrivals are stamped in its local
    /// time.
    skew: ClockSkew,
}

impl Transport for Endpoint {
    fn me(&self) -> ProcessId {
        self.me
    }

    fn send(&self, to: ProcessId, payload: Bytes) {
        self.net.send_from(self.me, to, payload);
    }

    fn recv(&self) -> Option<Datagram> {
        let mut datagram = self.net.recv_for(self.me)?;
        self.stamp_local(std::slice::from_mut(&mut datagram));
        Some(datagram)
    }

    fn recv_batch(&self, into: &mut Vec<Datagram>) -> usize {
        let start = into.len();
        let count = self.net.recv_all_for(self.me, into);
        self.stamp_local(into.get_mut(start..).unwrap_or_default());
        count
    }
}

impl Endpoint {
    /// Restamps arrivals from driver time to this node's local time (a
    /// no-op at the identity skew).
    fn stamp_local(&self, arrivals: &mut [Datagram]) {
        if !self.skew.is_identity() {
            for datagram in arrivals {
                datagram.delivered_at = self.skew.apply(datagram.delivered_at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn setup(loss: f64, seed: u64) -> (VirtualClock, InMemoryNetwork) {
        let clock = VirtualClock::new();
        let config = NetworkConfig::reliable(Nanos::from_millis(1), Nanos::from_millis(4))
            .with_loss(loss)
            .with_seed(seed);
        let net = InMemoryNetwork::new(3, config, clock.clone());
        (clock, net)
    }

    #[test]
    fn delivery_waits_for_the_delay() {
        let (clock, net) = setup(0.0, 1);
        let a = net.endpoint(p(0));
        let b = net.endpoint(p(1));
        a.send(p(1), Bytes::from_static(b"x"));
        assert!(b.recv().is_none(), "not yet due");
        clock.advance(Nanos::from_millis(5));
        assert!(b.recv().is_some());
    }

    #[test]
    fn loss_drops_a_fraction_of_traffic() {
        let (clock, net) = setup(0.5, 7);
        let a = net.endpoint(p(0));
        let b = net.endpoint(p(1));
        for _ in 0..1000 {
            a.send(p(1), Bytes::from_static(b"x"));
        }
        clock.advance(Nanos::from_millis(100));
        let mut got = 0;
        while b.recv().is_some() {
            got += 1;
        }
        assert!((300..700).contains(&got), "got {got} of 1000 at 50% loss");
        let (sent, lost, delivered) = net.stats();
        assert_eq!(sent, 1000);
        assert_eq!(lost + delivered, 1000);
    }

    #[test]
    fn down_nodes_neither_send_nor_receive() {
        let (clock, net) = setup(0.0, 2);
        let a = net.endpoint(p(0));
        let b = net.endpoint(p(1));
        net.take_down(p(0));
        a.send(p(1), Bytes::from_static(b"dead"));
        clock.advance(Nanos::from_millis(10));
        assert!(b.recv().is_none(), "messages from a downed node vanish");
        b.send(p(0), Bytes::from_static(b"hello"));
        clock.advance(Nanos::from_millis(10));
        assert!(a.recv().is_none(), "downed nodes receive nothing");
    }

    #[test]
    fn in_flight_messages_to_downed_node_are_dropped() {
        let (clock, net) = setup(0.0, 3);
        let a = net.endpoint(p(0));
        a.send(p(1), Bytes::from_static(b"late"));
        net.take_down(p(1));
        clock.advance(Nanos::from_millis(10));
        assert!(net.endpoint(p(1)).recv().is_none());
    }

    #[test]
    fn brought_up_node_rejoins_traffic() {
        let (clock, net) = setup(0.0, 4);
        let a = net.endpoint(p(0));
        let b = net.endpoint(p(1));
        net.take_down(p(1));
        a.send(p(1), Bytes::from_static(b"during outage"));
        clock.advance(Nanos::from_millis(10));
        assert!(b.recv().is_none());
        net.bring_up(p(1));
        a.send(p(1), Bytes::from_static(b"after recovery"));
        clock.advance(Nanos::from_millis(10));
        let dg = b.recv().expect("recovered node receives again");
        assert_eq!(&dg.payload[..], b"after recovery");
        b.send(p(0), Bytes::from_static(b"and sends"));
        clock.advance(Nanos::from_millis(10));
        assert!(a.recv().is_some());
    }

    #[test]
    fn recovery_discards_what_sat_in_the_crashed_nodes_inbox() {
        let (clock, net) = setup(0.0, 6);
        let a = net.endpoint(p(0));
        let b = net.endpoint(p(1));
        let c = net.endpoint(p(2));
        a.send(p(1), Bytes::from_static(b"before the crash"));
        clock.advance(Nanos::from_millis(10));
        // Another node's receive pumps the due datagram into p1's inbox.
        assert!(c.recv().is_none());
        net.take_down(p(1));
        clock.advance(Nanos::from_millis(1_000));
        net.bring_up(p(1));
        assert!(
            b.recv().is_none(),
            "a pre-crash datagram must not surface after recovery"
        );
        let (_, lost, delivered) = net.stats();
        assert_eq!(
            (lost, delivered),
            (0, 1),
            "the discard is charged to no counter"
        );
    }

    #[test]
    fn a_skewed_endpoint_stamps_arrivals_in_its_local_time() {
        let clock = VirtualClock::new();
        let config = NetworkConfig::reliable(Nanos::from_millis(3), Nanos::from_millis(3));
        let net = InMemoryNetwork::new(3, config, clock.clone());
        let a = net.endpoint(p(0));
        let fast = ClockSkew::ratio(3, 2);
        let skewed = net.skewed_endpoint(p(1), fast);
        let exact = net.skewed_endpoint(p(2), ClockSkew::IDENTITY);
        clock.advance(Nanos::from_nanos(1_000_001));
        let due = clock.now().saturating_add(Nanos::from_millis(3));
        for to in [p(1), p(2)] {
            a.send(to, Bytes::from_static(b"x"));
            a.send(to, Bytes::from_static(b"y"));
        }
        clock.advance(Nanos::from_millis(10));
        assert_eq!(
            skewed.recv().expect("delivered").delivered_at,
            fast.apply(due),
            "recv stamps skew.apply(due)"
        );
        let mut batch = Vec::new();
        assert_eq!(skewed.recv_batch(&mut batch), 1);
        assert_eq!(batch[0].delivered_at, fast.apply(due), "so does recv_batch");
        assert_eq!(exact.recv().expect("delivered").delivered_at, due);
        assert_eq!(exact.recv_batch(&mut batch), 1);
        assert_eq!(batch[1].delivered_at, due, "the identity skew stamps due");
    }

    #[test]
    fn partition_blocks_cross_traffic_only() {
        let (clock, net) = setup(0.0, 5);
        let a = net.endpoint(p(0));
        let b = net.endpoint(p(1));
        let c = net.endpoint(p(2));
        let mut side = ProcessSet::empty();
        side.insert(p(0));
        side.insert(p(1));
        net.set_partition(side);
        a.send(p(2), Bytes::from_static(b"cross"));
        a.send(p(1), Bytes::from_static(b"within"));
        clock.advance(Nanos::from_millis(10));
        assert!(c.recv().is_none(), "cross-partition traffic is dropped");
        assert!(b.recv().is_some(), "same-side traffic flows");
        net.heal_partition();
        a.send(p(2), Bytes::from_static(b"healed"));
        clock.advance(Nanos::from_millis(10));
        assert!(c.recv().is_some());
        let (sent, lost, delivered) = net.stats();
        assert_eq!(sent, 3);
        assert_eq!(lost, 1, "the partitioned datagram counts as lost");
        assert_eq!(delivered, 2);
    }

    #[test]
    fn deterministic_under_seed() {
        for _ in 0..2 {
            let (clock, net) = setup(0.3, 42);
            let a = net.endpoint(p(0));
            for _ in 0..100 {
                a.send(p(1), Bytes::from_static(b"x"));
            }
            clock.advance(Nanos::from_millis(50));
            let (_, lost, _) = net.stats();
            // Same seed → same loss pattern.
            assert_eq!(lost, {
                let (clock2, net2) = setup(0.3, 42);
                let a2 = net2.endpoint(p(0));
                for _ in 0..100 {
                    a2.send(p(1), Bytes::from_static(b"x"));
                }
                clock2.advance(Nanos::from_millis(50));
                net2.stats().1
            });
        }
    }
}
