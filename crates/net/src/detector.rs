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
/// of an estimator prototype, and learns from all of the peer's
/// traffic, not only its heartbeats.
///
/// Each peer's freshness point is fixed when its heartbeat lands
/// ([`on_heartbeat`](Self::on_heartbeat) asks the estimator for its
/// deadline once and keeps the answer, and with it the *margin*
/// `deadline − arrival`), so the questions asked on every poll —
/// [`suspects`](Self::suspects), [`deadline`](Self::deadline) — read
/// stored values instead of re-deriving them from the arrival window.
///
/// Any other frame from a peer is evidence it was alive when the frame
/// arrived — the paper's `T_{D⇒P}` reading of a message as an is-alive
/// tag. [`on_evidence`](Self::on_evidence) raises the peer's
/// *alive-until* instant to arrival + margin. The peer's trusted-until
/// instant, [`deadline`](Self::deadline), is the later of the freshness
/// point and the alive-until instant, and it is the whole suspicion
/// rule: [`suspects`](Self::suspects) names a peer exactly when `now`
/// has passed it, for every estimator — the paper's "suspected, i.e.,
/// timed-out". Evidence never feeds the estimator, so its arrival
/// statistics stay heartbeat-only, and a detector that never hears
/// evidence answers exactly as a heartbeat-only one.
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
/// // p2's heartbeats stop, but another of its frames lands at 120 ms.
/// d.on_evidence(ProcessId::new(2), Nanos::from_millis(120));
/// let s = d.suspects(Nanos::from_millis(150));
/// assert_eq!(s, ProcessSet::singleton(ProcessId::new(1)), "p1 timed out");
/// assert_eq!(d.deadline(ProcessId::new(2)), Some(Nanos::from_millis(220)));
/// ```
#[derive(Debug)]
pub struct HeartbeatDetector<E> {
    me: ProcessId,
    /// One entry per process, `None` on this node's own index.
    monitors: Vec<Option<Monitor<E>>>,
}

/// What the detector keeps about one peer.
#[derive(Debug)]
struct Monitor<E> {
    est: E,
    /// `est.deadline()` as of the peer's latest heartbeat (or of the
    /// prototype, for a peer not heard yet).
    deadline: Option<Nanos>,
    /// `deadline − arrival` as of the peer's latest heartbeat; `None`
    /// before its first one, or when that deadline was `None`.
    margin: Option<Nanos>,
    /// The latest evidence arrival plus the margin in force then.
    alive_until: Option<Nanos>,
}

impl<E> Monitor<E> {
    /// The later of the stored freshness point and the alive-until
    /// instant; `None` while the freshness point is.
    fn trusted_until(&self) -> Option<Nanos> {
        self.deadline.map(|d| d.max(self.alive_until.unwrap_or(d)))
    }

    /// The one suspicion rule: suspected exactly when `now` is past the
    /// trusted-until instant.
    fn is_suspect(&self, now: Nanos) -> bool {
        self.trusted_until().is_some_and(|d| now > d)
    }
}

impl<E: ArrivalEstimator + Clone> HeartbeatDetector<E> {
    /// Creates a detector at `me` over `n` processes, cloning
    /// `prototype` for each monitored peer.
    #[must_use]
    pub fn new(me: ProcessId, n: usize, prototype: E) -> Self {
        // A prototype that has already observed arrivals hands every
        // clone the same freshness point.
        let inherited = prototype.deadline();
        let monitors = (0..n)
            .map(|ix| {
                (ix != me.index()).then(|| Monitor {
                    est: prototype.clone(),
                    deadline: inherited,
                    margin: None,
                    alive_until: None,
                })
            })
            .collect();
        Self { me, monitors }
    }

    /// This node's identity.
    #[must_use]
    pub fn me(&self) -> ProcessId {
        self.me
    }

    fn monitor_mut(&mut self, peer: ProcessId) -> Option<&mut Monitor<E>> {
        self.monitors.get_mut(peer.index()).and_then(Option::as_mut)
    }

    /// Records a heartbeat from `from` at `now`.
    pub fn on_heartbeat(&mut self, from: ProcessId, now: Nanos) {
        if let Some(m) = self.monitor_mut(from) {
            m.est.observe(now);
            m.deadline = m.est.deadline();
            m.margin = m.deadline.map(|d| d.saturating_sub(now));
        }
    }

    /// Records that some other frame from `from` arrived at `at`: the
    /// peer is trusted until at least `at` plus the margin its latest
    /// heartbeat fixed. Ignored before the peer's first heartbeat (there
    /// is no margin yet), and never moves the alive-until instant
    /// earlier.
    pub fn on_evidence(&mut self, from: ProcessId, at: Nanos) {
        if let Some(m) = self.monitor_mut(from) {
            if let Some(margin) = m.margin {
                m.alive_until = m.alive_until.max(Some(at.saturating_add(margin)));
            }
        }
    }

    /// The suspected set at `now`: every peer whose
    /// [`deadline`](Self::deadline) has passed, one integer comparison
    /// each. Peers that never sent a heartbeat are *not* suspected (no
    /// evidence either way yet — detectors begin trusting, matching the
    /// paper's accuracy-first reading), nor are peers whose estimator
    /// has no deadline.
    #[must_use]
    pub fn suspects(&self, now: Nanos) -> ProcessSet {
        let mut s = ProcessSet::empty();
        for (ix, m) in self.monitors.iter().enumerate() {
            if let (Some(m), Some(pid)) = (m, ProcessId::try_new(ix, self.monitors.len())) {
                if m.is_suspect(now) {
                    s.insert(pid);
                }
            }
        }
        s
    }

    /// The instant until which `peer` is trusted: the later of the
    /// freshness point its latest heartbeat fixed (its estimator's
    /// [`deadline`](ArrivalEstimator::deadline), read from the stored
    /// value) and its alive-until instant from other traffic. `None` for
    /// self/unknown/never heard, and wherever the estimator's own
    /// deadline is `None`.
    #[must_use]
    pub fn deadline(&self, peer: ProcessId) -> Option<Nanos> {
        self.monitors
            .get(peer.index())
            .and_then(Option::as_ref)
            .and_then(Monitor::trusted_until)
    }

    /// The suspicion level of one peer at `now` (0 for self/unknown).
    #[must_use]
    pub fn suspicion_level(&self, peer: ProcessId, now: Nanos) -> f64 {
        self.monitor(peer).map_or(0.0, |e| e.suspicion_level(now))
    }

    /// Access one peer's estimator (e.g. for its deadline).
    #[must_use]
    pub fn monitor(&self, peer: ProcessId) -> Option<&E> {
        self.monitors
            .get(peer.index())
            .and_then(Option::as_ref)
            .map(|m| &m.est)
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
/// It is also the heartbeat half of every richer node: a
/// [`MembershipNode`](crate::membership::MembershipNode) owns one and
/// adds views, and a [`DecisionService`](crate::service::DecisionService)
/// reads its transport, clock, period, receive buffer and malformed
/// counter through its membership. The beat schedule and the
/// checked-sender rule live here alone.
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
    pub(crate) detector: HeartbeatDetector<E>,
    pub(crate) transport: T,
    pub(crate) clock: C,
    pub(crate) period: Nanos,
    next_beat: Nanos,
    seq: u64,
    pub(crate) n: usize,
    /// Reusable receive buffer for [`Transport::recv_batch`].
    pub(crate) rx_buf: Vec<Datagram>,
    /// Recycled heartbeat payloads (and, under a membership, view
    /// announcements and the batches coalescing them).
    pub(crate) tx: SendRing,
    /// The node's one count of frames dropped as malformed, whichever
    /// layer dropped them: see [`malformed_frames`](Self::malformed_frames).
    pub(crate) malformed_frames: u64,
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
    /// them is routine multiplexing, not damage. A node has one such
    /// counter: the membership and the decision service layered on this
    /// node add their own rejections to it.
    #[must_use]
    pub fn malformed_frames(&self) -> u64 {
        self.malformed_frames
    }

    /// The sender of a decoded heartbeat. A corrupt or foreign datagram
    /// can claim any sender index, so the id is built with the checked
    /// constructor; an out-of-range sender is counted as malformed and
    /// yields `None`.
    pub(crate) fn heartbeat_sender(&mut self, hb: &Heartbeat) -> Option<ProcessId> {
        let from = ProcessId::try_new(usize::from(hb.sender), self.n);
        if from.is_none() {
            self.malformed_frames += 1;
        }
        from
    }

    /// The heartbeat owed at `now`, if a period has elapsed since the
    /// last one: numbered in sequence, with the next one scheduled a
    /// period from `now`.
    pub(crate) fn due_heartbeat(&mut self, now: Nanos) -> Option<WireMsg> {
        if now < self.next_beat {
            return None;
        }
        let hb = WireMsg::Heartbeat(Heartbeat {
            #[allow(clippy::cast_possible_truncation)]
            sender: self.transport.me().index() as u16,
            seq: self.seq,
            sent_at: now,
        });
        self.seq += 1;
        self.next_beat = now.saturating_add(self.period);
        Some(hb)
    }

    /// Sends `payload` to every process of `targets` except this one.
    pub(crate) fn fan_out(&self, targets: ProcessSet, payload: &Bytes) {
        for to in targets {
            if to != self.transport.me() {
                self.transport.send(to, payload.clone());
            }
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
                if let Some(from) = self.heartbeat_sender(hb) {
                    self.detector.on_heartbeat(from, delivered_at);
                }
            }
            ControlFlow::Continue(())
        });
        self.rx_buf = rx;
        if let Some(hb) = self.due_heartbeat(now) {
            let payload = self.tx.encode(&hb);
            self.fan_out(ProcessSet::full(self.n), &payload);
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
    fn evidence_before_any_heartbeat_is_ignored() {
        let mut d = HeartbeatDetector::new(p(0), 2, FixedTimeout::new(Nanos::from_millis(50)));
        // No heartbeat yet, so no margin: the frame leaves no trace.
        d.on_evidence(p(1), Nanos::from_millis(10));
        assert_eq!(d.deadline(p(1)), None);
        d.on_heartbeat(p(1), Nanos::from_millis(20));
        assert_eq!(d.deadline(p(1)), Some(Nanos::from_millis(70)));
        assert!(d.suspects(Nanos::from_millis(71)).contains(p(1)));
    }

    #[test]
    fn evidence_never_moves_a_deadline_earlier() {
        let mut d = HeartbeatDetector::new(p(0), 2, FixedTimeout::new(Nanos::from_millis(50)));
        d.on_heartbeat(p(1), Nanos::from_millis(100));
        // A frame that arrived before the heartbeat (reordered on the
        // wire) would trust only to 90 ms: the 150 ms deadline holds.
        d.on_evidence(p(1), Nanos::from_millis(40));
        assert_eq!(d.deadline(p(1)), Some(Nanos::from_millis(150)));
        d.on_evidence(p(1), Nanos::from_millis(120));
        d.on_evidence(p(1), Nanos::from_millis(110));
        assert_eq!(d.deadline(p(1)), Some(Nanos::from_millis(170)));
        // Nor does a later heartbeat whose own freshness point
        // (115 + 50 ms) falls short of the evidence.
        d.on_heartbeat(p(1), Nanos::from_millis(115));
        assert_eq!(d.deadline(p(1)), Some(Nanos::from_millis(170)));
    }

    #[test]
    fn a_peer_is_trusted_one_margin_past_its_last_frame_and_no_longer() {
        let margin = Nanos::from_millis(50);
        let mut d = HeartbeatDetector::new(p(0), 2, FixedTimeout::new(margin));
        d.on_heartbeat(p(1), Nanos::ZERO);
        let t = Nanos::from_millis(130);
        d.on_evidence(p(1), t);
        let trusted_until = t.saturating_add(margin);
        assert_eq!(d.deadline(p(1)), Some(trusted_until));
        assert!(d.suspects(trusted_until).is_empty());
        let one_ns_later = trusted_until.saturating_add(Nanos::from_nanos(1));
        assert!(d.suspects(one_ns_later).contains(p(1)));
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
