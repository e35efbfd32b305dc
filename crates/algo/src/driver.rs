//! Step-driver adapters: running [`ConsensusCore`]s *outside* the
//! simulator.
//!
//! The cores in [`crate::consensus`] are engine-independent state
//! machines — the simulator drives them through
//! [`crate::ConsensusAutomaton`], and a long-running service drives them
//! through this module. A replicated log runs one consensus instance per
//! index, exactly the paper's §1.1 consensus-sequence construction of
//! atomic broadcast, and runs them strictly one after another: instance
//! `k + 1` starts when `k` has settled. [`SlotDriver`] is that sequence's
//! one live member — the instance of the **tail**, the first unsettled
//! slot — plus the plumbing a live runtime needs around it:
//!
//! * slot-scoped message routing, with one buffer of **early traffic**
//!   for instances the local process has not opened yet (a faster peer
//!   may already be deciding index `k+1` while this process still fills
//!   index `k`), replayed in arrival order when the slot opens;
//! * λ-steps ([`SlotDriver::tick_into`]) so suspicion-driven progress — e.g.
//!   the rotating coordinator's nack-and-advance escape — happens even
//!   when no message arrives;
//! * external resolution ([`SlotDriver::resolve`]) for decisions learned
//!   out of band (a decision relay, post-heal state transfer), dropping
//!   the instance's core.
//!
//! Settling a slot — a deciding step, a resolution, or wholesale
//! [`SlotDriver::advance_base`] — moves the tail past it for good: the
//! driver keeps nothing per settled slot, so two open instances, or a
//! settled one reopened, are not representable. What it does keep is
//! the retired core, which the next [`SlotDriver::open`] renews
//! ([`ConsensusCore::renew`]) instead of building a new one.
//!
//! The driver never talks to a transport: every call writes the
//! `(destination, slot, message)` sends it produced into a sink the
//! caller owns (the `_into` forms; the plain forms collect into a fresh
//! `Vec`), and the caller owns encoding and delivery — the same
//! inversion as [`super::Outbox`], one level up. With a reused sink a
//! warmed driver steps without allocating.

use crate::consensus::{ConsensusCore, Outbox};
use rfd_core::{ProcessId, ProcessSet};

/// One outgoing message of a [`SlotDriver`]: destination, slot, payload.
pub type SlotSend<M> = (ProcessId, u64, M);

/// A step-driven consensus sequence: the [`ConsensusCore`] of the one
/// live replicated-log slot, and the early traffic of the slots after
/// it.
///
/// # Examples
///
/// A single-process "cluster" decides its own proposal:
///
/// ```
/// use rfd_algo::consensus::RotatingConsensus;
/// use rfd_algo::driver::SlotDriver;
/// use rfd_core::{ProcessId, ProcessSet};
///
/// let me = ProcessId::new(0);
/// let mut driver: SlotDriver<RotatingConsensus<u64>> = SlotDriver::new(me, 1);
/// // The sends go into a queue the caller owns and reuses.
/// let mut queue = std::collections::VecDeque::new();
/// let decided = driver.open_into(0, 7, ProcessSet::empty(), &mut queue);
/// assert!(decided.is_none());
/// // Deliver the self-addressed traffic, in send order, until the slot
/// // decides — the order the live service's loop-back uses. (FIFO
/// // matters: draining newest-first would starve the round-0 ack
/// // behind the round-chasing estimates and spin through the core's
/// // round cap before deciding.)
/// while let Some((to, slot, msg)) = queue.pop_front() {
///     assert_eq!(to, me);
///     driver.on_message_into(slot, me, &msg, ProcessSet::empty(), &mut queue);
/// }
/// assert_eq!(driver.decision(0), Some(&7));
/// ```
pub struct SlotDriver<C: ConsensusCore> {
    me: ProcessId,
    n: usize,
    /// The first unsettled slot. Everything below it is decided,
    /// resolved or retired; it only ever grows.
    tail: u64,
    /// The tail's instance while `live`; once its slot settles, the
    /// retired core that the next [`SlotDriver::open`] renews.
    core: Option<C>,
    /// Whether `core` is the tail's open instance.
    live: bool,
    /// What slot `tail − 1` settled with (`None` before the first
    /// decision and after a wholesale [`SlotDriver::advance_base`]).
    last: Option<C::Val>,
    /// Early traffic, in arrival order: frames for the unopened tail
    /// and for the slots above it. The driver does not bound it — the
    /// caller gates how far ahead a slot may point and how many frames
    /// ([`SlotDriver::buffered`]) it lets accumulate.
    early: Vec<(u64, ProcessId, C::Msg)>,
    /// The buffer every core call queues its sends into, kept across
    /// calls ([`Outbox::reuse`]).
    outbox: Vec<(ProcessId, C::Msg)>,
}

impl<C: ConsensusCore> std::fmt::Debug for SlotDriver<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotDriver")
            .field("me", &self.me)
            .field("n", &self.n)
            .field("tail", &self.tail)
            .field("open", &self.live)
            .field("early", &self.early.len())
            .finish()
    }
}

/// Runs a sink form into a fresh `Vec`: the body of every plain form.
fn collected<S, R>(call: impl FnOnce(&mut Vec<S>) -> R) -> (Vec<S>, R) {
    let mut sends = Vec::new();
    let result = call(&mut sends);
    (sends, result)
}

impl<C: ConsensusCore> SlotDriver<C> {
    /// A driver for process `me` of `n`.
    #[must_use]
    pub fn new(me: ProcessId, n: usize) -> Self {
        Self {
            me,
            n,
            tail: 0,
            core: None,
            live: false,
            last: None,
            early: Vec::new(),
            outbox: Vec::new(),
        }
    }

    /// The one way a slot settles: the tail moves up to `tail`, the
    /// live core retires and every buffered frame below the new tail
    /// goes, and `last` is what slot `tail − 1` settled with, if known.
    fn settle(&mut self, tail: u64, last: Option<C::Val>) {
        self.tail = tail;
        self.live = false;
        self.last = last;
        self.early.retain(|(slot, ..)| *slot >= tail);
    }

    /// Retires every slot below `floor`: the live core and buffered
    /// traffic below it are gone, [`SlotDriver::decision`] for them
    /// returns `None`, and incoming traffic for them is dropped. Called
    /// on snapshot install, where the decisions below the snapshot
    /// boundary are summarised externally. No-op if `floor` is at or
    /// below the tail.
    pub fn advance_base(&mut self, floor: u64) {
        if floor > self.tail {
            self.settle(floor, None);
        }
    }

    /// The first unsettled slot: the only one that can be open, and the
    /// lowest one whose traffic is still accepted.
    #[must_use]
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Whether `slot` currently has a live (open, undecided) core —
    /// true for the tail at most.
    #[must_use]
    pub fn is_open(&self, slot: u64) -> bool {
        slot == self.tail && self.live
    }

    /// How many early frames are buffered.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.early.len()
    }

    /// Writes into `sends` the peer-addressed retransmissions of
    /// `slot`'s stalled conversations, derived from the core's current
    /// state ([`ConsensusCore::retransmit`]) — what a retransmission
    /// plane sends when the slot's timer fires. Self-addressed
    /// re-emissions are dropped: local delivery is synchronous and
    /// lossless, so the local copy was already consumed. Writes nothing
    /// for a slot that is not open.
    pub fn retransmit_into(&mut self, slot: u64, sends: &mut impl Extend<SlotSend<C::Msg>>) {
        if self.is_open(slot) {
            self.harvest(false, sends, |core, out| core.retransmit(out));
        }
    }

    /// The decision of `slot`, if it is the newest settled slot and
    /// settled with a value (locally decided or externally resolved) —
    /// what a caller needs between a deciding step and its own append.
    /// `None` for every older slot: their decisions are the caller's
    /// log.
    #[must_use]
    pub fn decision(&self, slot: u64) -> Option<&C::Val> {
        self.last
            .as_ref()
            .filter(|_| slot.checked_add(1) == Some(self.tail))
    }

    /// [`SlotDriver::open_into`], collected into a fresh `Vec`: the
    /// produced sends and, if the replayed backlog already forced a
    /// decision, the decided value.
    pub fn open(
        &mut self,
        slot: u64,
        proposal: C::Val,
        suspects: ProcessSet,
    ) -> (Vec<SlotSend<C::Msg>>, Option<C::Val>) {
        collected(|sends| self.open_into(slot, proposal, suspects, sends))
    }

    /// Opens the consensus instance of `slot` with this process's
    /// `proposal` — renewing the retired core, or building the first —
    /// and replays any traffic buffered for it in arrival order. No-op
    /// if the slot is already open or settled; opening a slot above the
    /// tail retires everything below it first.
    ///
    /// Writes the produced sends into `sends` and returns the decided
    /// value if the replayed backlog already forced a decision.
    pub fn open_into(
        &mut self,
        slot: u64,
        proposal: C::Val,
        suspects: ProcessSet,
        sends: &mut impl Extend<SlotSend<C::Msg>>,
    ) -> Option<C::Val> {
        if slot < self.tail || self.is_open(slot) {
            return None;
        }
        self.advance_base(slot);
        if let Some(core) = self.core.as_mut() {
            core.renew(self.me, self.n, proposal);
        } else {
            self.core = Some(C::new(self.me, self.n, proposal));
        }
        self.live = true;
        let mut decision = self.step(None, suspects, sends);
        // Replay in place: the slot's frames leave the buffer (stepped
        // until one decides, dropped after), higher slots' frames stay,
        // and the buffer keeps its allocation.
        let mut early = std::mem::take(&mut self.early);
        early.retain(|(s, from, msg)| {
            if *s == slot && decision.is_none() {
                decision = self.step(Some((*from, msg)), suspects, sends);
            }
            *s != slot
        });
        self.early = early;
        decision
    }

    /// [`SlotDriver::on_message_into`], collected into a fresh `Vec`.
    pub fn on_message(
        &mut self,
        slot: u64,
        from: ProcessId,
        msg: &C::Msg,
        suspects: ProcessSet,
    ) -> (Vec<SlotSend<C::Msg>>, Option<C::Val>) {
        collected(|sends| self.on_message_into(slot, from, msg, suspects, sends))
    }

    /// Routes one incoming slot-scoped message. Traffic for a settled
    /// slot is dropped; traffic for the open tail steps its core,
    /// writing the sends into `sends` and returning the decision if the
    /// step decided; everything else is buffered until
    /// [`SlotDriver::open`] replays it.
    pub fn on_message_into(
        &mut self,
        slot: u64,
        from: ProcessId,
        msg: &C::Msg,
        suspects: ProcessSet,
        sends: &mut impl Extend<SlotSend<C::Msg>>,
    ) -> Option<C::Val> {
        if self.is_open(slot) {
            return self.step(Some((from, msg)), suspects, sends);
        }
        if slot >= self.tail {
            self.early.push((slot, from, msg.clone()));
        }
        None
    }

    /// λ-steps the open slot with the current detector value, so
    /// suspicion-driven progress (round advancement past a suspected
    /// coordinator) happens between messages. Writes the produced sends
    /// into `sends` and returns the decision, if the step decided.
    pub fn tick_into(
        &mut self,
        suspects: ProcessSet,
        sends: &mut impl Extend<SlotSend<C::Msg>>,
    ) -> Option<C::Val> {
        self.step(None, suspects, sends)
    }

    /// Records a decision learned out of band (decision relay, state
    /// transfer), retiring the live core and dropping any buffered
    /// traffic up to and including `slot`. No-op if the slot is already
    /// settled: a decision is never overwritten.
    pub fn resolve(&mut self, slot: u64, value: C::Val) {
        if slot >= self.tail {
            self.settle(slot.saturating_add(1), Some(value));
        }
    }

    /// Steps the open core, harvesting sends; a deciding step settles
    /// the slot.
    fn step(
        &mut self,
        input: Option<(ProcessId, &C::Msg)>,
        suspects: ProcessSet,
        sends: &mut impl Extend<SlotSend<C::Msg>>,
    ) -> Option<C::Val> {
        let decided = self
            .harvest(true, sends, |core, out| core.step(input, suspects, out))
            .flatten()?;
        self.settle(self.tail.saturating_add(1), Some(decided.clone()));
        Some(decided)
    }

    /// Runs `call` on the live core with the reused outbox and moves what
    /// it queued into `sends`, tagged with the tail slot — self-addressed
    /// messages only if `to_self`. `None` if no slot is open.
    fn harvest<R>(
        &mut self,
        to_self: bool,
        sends: &mut impl Extend<SlotSend<C::Msg>>,
        call: impl FnOnce(&mut C, &mut Outbox<C::Msg>) -> R,
    ) -> Option<R> {
        let core = self.core.as_mut().filter(|_| self.live)?;
        let mut out = Outbox::reuse(self.me, self.n, std::mem::take(&mut self.outbox));
        let result = call(core, &mut out);
        let (me, slot) = (self.me, self.tail);
        let mut queued = out.drain();
        sends.extend(
            queued
                .drain(..)
                .filter(|(to, _)| to_self || *to != me)
                .map(|(to, msg)| (to, slot, msg)),
        );
        self.outbox = queued;
        Some(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::{RotatingConsensus, RotatingMsg};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    type Driver = SlotDriver<RotatingConsensus<u64>>;

    /// Delivers every pending send into the matching driver — in send
    /// order — until the network drains: a lock-step mini-cluster.
    fn run_to_quiescence(
        drivers: &mut [Driver],
        wire: Vec<(
            ProcessId,
            u64,
            ProcessId,
            <RotatingConsensus<u64> as ConsensusCore>::Msg,
        )>,
    ) {
        let mut wire: std::collections::VecDeque<_> = wire.into();
        let mut budget = 10_000;
        while let Some((to, slot, from, msg)) = wire.pop_front() {
            budget -= 1;
            assert!(budget > 0, "mini-cluster failed to quiesce");
            let (sends, _) = drivers[to.index()].on_message(slot, from, &msg, ProcessSet::empty());
            for (dest, s, m) in sends {
                wire.push_back((dest, s, to, m));
            }
        }
    }

    #[test]
    fn three_drivers_decide_a_common_value_per_slot() {
        let n = 3;
        let mut drivers: Vec<Driver> = (0..n).map(|ix| SlotDriver::new(p(ix), n)).collect();
        let mut wire = Vec::new();
        for (ix, driver) in drivers.iter_mut().enumerate() {
            let (sends, _) = driver.open(0, 10 + ix as u64, ProcessSet::empty());
            for (dest, s, m) in sends {
                wire.push((dest, s, p(ix), m));
            }
        }
        run_to_quiescence(&mut drivers, wire);
        let d0 = drivers[0].decision(0).copied().expect("slot 0 decided");
        for driver in &drivers {
            assert_eq!(driver.decision(0), Some(&d0));
            assert!(!driver.is_open(0), "decided slots retire their core");
        }
        assert!((10..13).contains(&d0), "validity: a proposed value");
    }

    #[test]
    fn traffic_ahead_of_the_local_slot_is_buffered_then_replayed() {
        let n = 3;
        let mut a: Driver = SlotDriver::new(p(0), n);
        let mut b: Driver = SlotDriver::new(p(1), n);
        // a coordinates round 0 of every slot: opening slot 3 broadcasts
        // its proposal, which reaches b before b has opened the slot.
        let (sends, _) = a.open(3, 8, ProcessSet::empty());
        let to_b: Vec<_> = sends.into_iter().filter(|(to, _, _)| *to == p(1)).collect();
        assert_eq!(
            to_b,
            vec![(p(1), 3, RotatingMsg::Propose { r: 0, v: 8 })],
            "round 0 opens with the coordinator's proposal"
        );
        for (_, slot, msg) in &to_b {
            let (sends, decided) = b.on_message(*slot, p(0), msg, ProcessSet::empty());
            assert!(
                sends.is_empty() && decided.is_none(),
                "buffered, not stepped"
            );
        }
        // Opening the slot replays the backlog: b acks the proposal and
        // moves on to round 1 — and never sends a round-0 estimate.
        let (sends, _) = b.open(3, 9, ProcessSet::empty());
        assert!(sends.contains(&(p(0), 3, RotatingMsg::Ack { r: 0 })));
        assert!(sends
            .iter()
            .all(|(_, _, m)| !matches!(m, RotatingMsg::Estimate { r: 0, .. })));
    }

    #[test]
    fn resolve_retires_a_spinning_instance() {
        let mut d: Driver = SlotDriver::new(p(1), 4);
        let (_, none) = d.open(0, 5, ProcessSet::empty());
        assert!(none.is_none());
        assert!(d.is_open(0));
        d.resolve(0, 6);
        assert_eq!(d.decision(0), Some(&6));
        assert!(!d.is_open(0));
        // A late message for the resolved slot is dropped quietly.
        let (sends, decided) =
            d.on_message(0, p(0), &RotatingMsg::Ack { r: 0 }, ProcessSet::empty());
        assert!(sends.is_empty() && decided.is_none());
        // And resolve never overwrites an existing decision.
        d.resolve(0, 99);
        assert_eq!(d.decision(0), Some(&6));
    }

    #[test]
    fn advance_base_retires_a_prefix_without_allocating_for_it() {
        let mut d: Driver = SlotDriver::new(p(1), 4);
        let _ = d.open(0, 5, ProcessSet::empty());
        assert!(d.is_open(0));
        // The log is a prefix: a decision for slot 1 settles slot 0 too.
        d.resolve(1, 7);
        assert!(!d.is_open(0));
        assert_eq!(d.tail(), 2);
        assert_eq!(d.decision(1), Some(&7));

        // A snapshot install at a huge absolute slot: nothing is kept
        // for the retired prefix.
        d.advance_base(1_000_000_000);
        assert_eq!(d.tail(), 1_000_000_000);
        assert_eq!(d.decision(1), None, "retired decisions are gone");

        // Traffic for retired slots is dropped quietly...
        let (sends, decided) =
            d.on_message(3, p(0), &RotatingMsg::Ack { r: 0 }, ProcessSet::empty());
        assert!(sends.is_empty() && decided.is_none());
        assert_eq!(d.buffered(), 0);
        d.resolve(5, 9);
        assert_eq!(d.decision(5), None);

        // ...while the slot at the new tail works as any other.
        let (_, none) = d.open(1_000_000_000, 42, ProcessSet::empty());
        assert!(none.is_none());
        assert!(d.is_open(1_000_000_000));
        d.resolve(1_000_000_000, 42);
        assert_eq!(d.decision(1_000_000_000), Some(&42));

        // The tail never moves back.
        d.advance_base(0);
        assert_eq!(d.tail(), 1_000_000_001);
    }

    #[test]
    fn retiring_a_prefix_drops_its_early_traffic_and_keeps_the_rest() {
        let mut d: Driver = SlotDriver::new(p(1), 3);
        let early = [
            (2, RotatingMsg::Propose { r: 0, v: 20 }),
            (5, RotatingMsg::Propose { r: 0, v: 50 }),
        ];
        for (slot, msg) in &early {
            let (sends, decided) = d.on_message(*slot, p(0), msg, ProcessSet::empty());
            assert!(sends.is_empty() && decided.is_none());
        }
        assert_eq!(d.buffered(), 2);
        d.advance_base(3);
        assert_eq!(d.buffered(), 1, "slot 2's frame went with its slot");
        // Opening slot 5 replays its proposal — acked — and nothing of
        // slot 2's.
        let (sends, _) = d.open(5, 9, ProcessSet::empty());
        assert!(sends.contains(&(p(0), 5, RotatingMsg::Ack { r: 0 })));
        assert!(sends.iter().all(|(_, slot, _)| *slot == 5));
        assert_eq!(d.buffered(), 0);
    }

    #[test]
    fn a_settled_slot_is_neither_reopened_nor_stepped() {
        let mut d: Driver = SlotDriver::new(p(1), 3);
        let _ = d.open(0, 5, ProcessSet::empty());
        let (_, decided) = d.on_message(0, p(0), &RotatingMsg::Decide(6), ProcessSet::empty());
        assert_eq!(decided, Some(6));
        assert_eq!((d.tail(), d.decision(0)), (1, Some(&6)));
        let (sends, decided) = d.open(0, 7, ProcessSet::empty());
        assert!(sends.is_empty() && decided.is_none() && !d.is_open(0));
        let (sends, decided) = d.on_message(0, p(2), &RotatingMsg::Decide(8), ProcessSet::empty());
        assert!(sends.is_empty() && decided.is_none());
        let (sends, decided) = collected(|s| d.tick_into(ProcessSet::singleton(p(0)), s));
        assert!(sends.is_empty() && decided.is_none());
        d.resolve(0, 9);
        assert_eq!(d.decision(0), Some(&6), "the first value stands");
        assert_eq!((d.tail(), d.buffered()), (1, 0));
    }

    #[test]
    fn a_backlog_that_decides_drops_its_rest_and_keeps_higher_slots() {
        let mut d: Driver = SlotDriver::new(p(1), 3);
        let early = [
            (0, RotatingMsg::Propose { r: 0, v: 4 }),
            (1, RotatingMsg::Propose { r: 0, v: 14 }),
            (0, RotatingMsg::Decide(4)),
            (0, RotatingMsg::Decide(99)),
            (1, RotatingMsg::Decide(14)),
        ];
        for (slot, msg) in &early {
            let _ = d.on_message(*slot, p(0), msg, ProcessSet::empty());
        }
        assert_eq!(d.buffered(), 5);
        let (sends, decided) = d.open(0, 5, ProcessSet::empty());
        assert_eq!(decided, Some(4), "the replay stops at the first decision");
        assert!(sends.contains(&(p(0), 0, RotatingMsg::Ack { r: 0 })));
        assert_eq!(d.buffered(), 2, "slot 1's frames outlive slot 0");
        let (sends, decided) = d.open(1, 6, ProcessSet::empty());
        assert_eq!(decided, Some(14));
        assert!(sends.contains(&(p(0), 1, RotatingMsg::Ack { r: 0 })));
        assert_eq!((d.tail(), d.buffered()), (2, 0));
    }

    /// The retransmission contract: the open slot can re-derive its
    /// stalled peer-addressed frames from core state at any time, and
    /// deciding (or resolving) the slot silences it.
    #[test]
    fn open_slots_rederive_their_stalled_sends_until_retired() {
        let mut d: Driver = SlotDriver::new(p(0), 3);
        assert!(!d.is_open(0));
        assert!(
            collected(|s| d.retransmit_into(0, s)).0.is_empty(),
            "unopened slots are silent"
        );
        let (sends, _) = d.open(0, 5, ProcessSet::empty());
        assert!(d.is_open(0));
        // p0 coordinates round 0 and proposed on open; until a majority
        // answers, a stalled instance re-sends that proposal to both
        // peers, as often as asked.
        let peer_sends: Vec<_> = sends.iter().filter(|(to, _, _)| *to != p(0)).collect();
        assert_eq!(peer_sends.len(), 2);
        for _ in 0..2 {
            let retx = collected(|s| d.retransmit_into(0, s)).0;
            assert_eq!(retx.len(), peer_sends.len());
            assert!(retx.iter().all(|(to, slot, m)| *to != p(0)
                && *slot == 0
                && *m == RotatingMsg::Propose { r: 0, v: 5 }));
        }
        // A participant still in round 0 owes nobody anything: there is
        // no round-0 estimate to re-send.
        let mut q: Driver = SlotDriver::new(p(1), 3);
        let (sends, _) = q.open(0, 6, ProcessSet::empty());
        assert!(sends.is_empty() && collected(|s| q.retransmit_into(0, s)).0.is_empty());
        // A quiet step changes nothing.
        let (_, _) = collected(|s| d.tick_into(ProcessSet::empty(), s));
        assert!(!collected(|s| d.retransmit_into(0, s)).0.is_empty());
        // Resolution silences the slot with the core.
        d.resolve(0, 9);
        assert!(collected(|s| d.retransmit_into(0, s)).0.is_empty());
        assert!(!d.is_open(0));
    }

    /// The wedge the send-once service actually hit: a coordinator whose
    /// `Propose` broadcast was lost re-broadcasts it from state — its
    /// *later* participant-role emission (the next round's estimate) must
    /// not shadow the unresolved proposal.
    #[test]
    fn a_stalled_coordinator_rebroadcasts_its_unresolved_proposal() {
        let n = 4;
        let mut c: Driver = SlotDriver::new(p(0), n);
        // p0 coordinates round 0 and proposes as it opens the slot.
        let (sends, none) = c.open(0, 7, ProcessSet::empty());
        assert!(none.is_none());
        let mut selfloop: std::collections::VecDeque<_> = sends.into();
        // Deliver the self-addressed traffic (the service loops it back
        // synchronously): p0 acks its own proposal and moves to round 1.
        while let Some((to, slot, msg)) = selfloop.pop_front() {
            if to != p(0) {
                continue;
            }
            let (more, _) = c.on_message(slot, to, &msg, ProcessSet::empty());
            selfloop.extend(more);
        }
        // The self-delivered proposal moved p0 on to round 1 as a
        // participant. Pretend every peer copy of `Propose(0)` was lost:
        // the retransmission must still carry it (alongside the round-1
        // estimate), or the group wedges forever.
        let retx = collected(|s| c.retransmit_into(0, s)).0;
        let proposes: Vec<_> = retx
            .iter()
            .filter(|(_, _, m)| matches!(m, RotatingMsg::Propose { r: 0, .. }))
            .collect();
        assert_eq!(
            proposes.len(),
            n - 1,
            "the unresolved Propose(0) goes back out to every peer: {retx:?}"
        );
    }

    /// `open` renews the retired core instead of building one, so a
    /// renewed core must be a new one in every respect: same sends, same
    /// decision, same state (`Hash` covers all of it) at every step.
    #[test]
    fn a_renewed_core_is_indistinguishable_from_a_fresh_one() {
        use std::hash::{Hash, Hasher};
        type Core = RotatingConsensus<u64>;
        fn fingerprint(core: &Core) -> u64 {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            core.hash(&mut hasher);
            hasher.finish()
        }
        fn step(
            core: &mut Core,
            input: Option<(ProcessId, &RotatingMsg<u64>)>,
            suspects: ProcessSet,
        ) -> (Vec<(ProcessId, RotatingMsg<u64>)>, Option<u64>) {
            let mut out = Outbox::new(p(1), 3);
            let decided = core.step(input, suspects, &mut out);
            (out.drain(), decided)
        }
        // p1 of 3 coordinates round 1. Drive it through an instance that
        // fills both round lists — a proposal buffered for a later
        // round, a coordinated round with estimates and acks — and then
        // decides.
        let mut used = Core::new(p(1), 3, 5);
        let history = [
            (p(2), RotatingMsg::Propose { r: 2, v: 8 }),
            (p(0), RotatingMsg::Estimate { r: 1, ts: 0, v: 3 }),
            (p(2), RotatingMsg::Estimate { r: 1, ts: 1, v: 4 }),
            (p(0), RotatingMsg::Ack { r: 1 }),
            (p(0), RotatingMsg::Decide(4)),
        ];
        for (from, msg) in &history {
            step(&mut used, Some((*from, msg)), ProcessSet::empty());
        }
        assert_eq!(used.decision(), Some(&4));

        used.renew(p(1), 3, 9);
        let mut fresh = Core::new(p(1), 3, 9);
        assert_eq!(fingerprint(&used), fingerprint(&fresh));
        // The same inputs from here on: a suspicion-driven round change,
        // then a full round 1 that p1 coordinates and decides.
        let nobody = ProcessSet::empty();
        let script = [
            (None, ProcessSet::singleton(p(0))),
            (
                Some((p(1), RotatingMsg::Estimate { r: 1, ts: 0, v: 9 })),
                nobody,
            ),
            (
                Some((p(2), RotatingMsg::Estimate { r: 1, ts: 0, v: 6 })),
                nobody,
            ),
            (Some((p(1), RotatingMsg::Propose { r: 1, v: 6 })), nobody),
            (Some((p(1), RotatingMsg::Ack { r: 1 })), nobody),
            (Some((p(2), RotatingMsg::Ack { r: 1 })), nobody),
            (Some((p(1), RotatingMsg::Decide(6))), nobody),
        ];
        let mut decided = None;
        for (input, suspects) in &script {
            let input = input.as_ref().map(|(from, msg)| (*from, msg));
            let a = step(&mut used, input, *suspects);
            let b = step(&mut fresh, input, *suspects);
            assert_eq!(a, b);
            assert_eq!(fingerprint(&used), fingerprint(&fresh));
            decided = decided.or(a.1);
            let mut retx = (Outbox::new(p(1), 3), Outbox::new(p(1), 3));
            used.retransmit(&mut retx.0);
            fresh.retransmit(&mut retx.1);
            assert_eq!(retx.0.drain(), retx.1.drain());
        }
        assert_eq!((decided, used.decision()), (Some(6), Some(&6)));
    }

    #[test]
    fn tick_advances_past_a_suspected_coordinator() {
        let mut d: Driver = SlotDriver::new(p(1), 3);
        let _ = d.open(0, 5, ProcessSet::empty());
        // Suspecting round 0's coordinator p0 nacks and re-estimates.
        let (sends, decision) = collected(|s| d.tick_into(ProcessSet::singleton(p(0)), s));
        assert!(decision.is_none());
        assert!(
            sends.iter().any(|(to, _, _)| *to == p(0)),
            "a nack goes back to the suspected coordinator: {sends:?}"
        );
    }
}
