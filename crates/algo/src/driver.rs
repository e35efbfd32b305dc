//! Step-driver adapters: running [`ConsensusCore`]s *outside* the
//! simulator.
//!
//! The cores in [`crate::consensus`] are engine-independent state
//! machines — the simulator drives them through
//! [`crate::ConsensusAutomaton`], and a long-running service drives them
//! through this module. [`SlotDriver`] manages one core per **log slot**
//! (a replicated log runs one consensus instance per index, exactly the
//! paper's §1.1 consensus-sequence construction of atomic broadcast) and
//! takes care of the plumbing a live runtime needs:
//!
//! * slot-scoped message routing, with buffering for instances the local
//!   process has not opened yet (a faster peer may already be deciding
//!   index `k+1` while this process still fills index `k`);
//! * λ-steps ([`SlotDriver::tick`]) so suspicion-driven progress — e.g.
//!   the rotating coordinator's nack-and-advance escape — happens even
//!   when no message arrives;
//! * external resolution ([`SlotDriver::resolve`]) for decisions learned
//!   out of band (a decision relay, post-heal state transfer), dropping
//!   the instance's core.
//!
//! The driver never talks to a transport: every call returns the
//! `(destination, slot, message)` sends it produced, and the caller owns
//! encoding and delivery — the same inversion as [`super::Outbox`], one
//! level up.

use crate::consensus::{ConsensusCore, Outbox};
use rfd_core::{ProcessId, ProcessSet};

/// One outgoing message of a [`SlotDriver`]: destination, slot, payload.
pub type SlotSend<M> = (ProcessId, u64, M);

/// A slot-tagged decision, as returned by [`SlotDriver::tick`].
pub type SlotDecision<V> = (u64, V);

/// The effects of one [`SlotDriver::tick`]: the produced sends and the
/// slots that decided on it.
pub type TickEffects<M, V> = (Vec<SlotSend<M>>, Vec<SlotDecision<V>>);

/// A multi-instance, step-driven consensus driver: one
/// [`ConsensusCore`] per replicated-log slot.
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
/// let (sends, decided) = driver.open(0, 7, ProcessSet::empty());
/// assert!(decided.is_none());
/// // Deliver the self-addressed traffic, in send order, until the slot
/// // decides — the order the live service's loop-back uses. (FIFO
/// // matters: draining newest-first would starve the round-0 ack
/// // behind the round-chasing estimates and spin through the core's
/// // round cap before deciding.)
/// let mut queue: std::collections::VecDeque<_> = sends.into();
/// while let Some((to, slot, msg)) = queue.pop_front() {
///     assert_eq!(to, me);
///     let (more, _) = driver.on_message(slot, me, &msg, ProcessSet::empty());
///     queue.extend(more);
/// }
/// assert_eq!(driver.decision(0), Some(&7));
/// ```
pub struct SlotDriver<C: ConsensusCore> {
    me: ProcessId,
    n: usize,
    /// Grow-only slot arena, indexed by log position. Slots of a
    /// replicated log are dense by construction (every index is
    /// eventually opened or resolved), so a flat `Vec` replaces the
    /// former three `BTreeMap`s: O(1) slot access with no per-slot tree
    /// nodes, and the one allocation amortizes over the log's lifetime.
    slots: Vec<SlotState<C>>,
    /// Indices of currently open slots, kept sorted ascending so
    /// [`SlotDriver::tick`] visits them in the same order the old
    /// `BTreeMap` iteration did.
    open_slots: Vec<u64>,
    /// First slot the arena covers: `slots[0]` is slot `base`. Raised
    /// by [`SlotDriver::advance_base`] when a snapshot install retires
    /// a whole prefix at once — keeping the arena sized by the *live*
    /// window rather than by absolute log position, so installing a
    /// snapshot at slot 10⁶ does not allocate 10⁶ arena entries.
    base: u64,
}

/// One arena entry: the lifecycle of a log slot.
enum SlotState<C: ConsensusCore> {
    /// Not opened locally; holds early traffic from faster peers.
    Pending(Vec<(ProcessId, C::Msg)>),
    /// A live consensus core.
    Open(C),
    /// Decided (core dropped on decision).
    Decided(C::Val),
}

impl<C: ConsensusCore> std::fmt::Debug for SlotDriver<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotDriver")
            .field("me", &self.me)
            .field("n", &self.n)
            .field("slots", &self.slots.len())
            .field("open", &self.open_slots)
            .finish()
    }
}

impl<C: ConsensusCore> SlotDriver<C> {
    /// A driver for process `me` of `n`.
    #[must_use]
    pub fn new(me: ProcessId, n: usize) -> Self {
        Self {
            me,
            n,
            slots: Vec::new(),
            open_slots: Vec::new(),
            base: 0,
        }
    }

    /// The arena index of `slot`, or `None` if it fell below the base
    /// (retired wholesale by [`SlotDriver::advance_base`]).
    fn index_of(&self, slot: u64) -> Option<usize> {
        let off = slot.checked_sub(self.base)?;
        usize::try_from(off).ok()
    }

    /// Grows the arena to cover `slot` and returns its index; `None`
    /// for slots below the base.
    fn ensure(&mut self, slot: u64) -> Option<usize> {
        let ix = self.index_of(slot)?;
        if ix >= self.slots.len() {
            self.slots
                .resize_with(ix + 1, || SlotState::Pending(Vec::new()));
        }
        Some(ix)
    }

    /// Retires every slot below `floor` in O(dropped): their cores and
    /// buffered traffic are gone, [`SlotDriver::decision`] for them
    /// returns `None`, and incoming traffic for them is dropped. Called
    /// on snapshot install, where the decisions below the snapshot
    /// boundary are summarised externally. No-op if `floor` is at or
    /// below the current base.
    pub fn advance_base(&mut self, floor: u64) {
        let Some(drop) = floor.checked_sub(self.base) else {
            return;
        };
        if drop == 0 {
            return;
        }
        let drop = usize::try_from(drop)
            .unwrap_or(usize::MAX)
            .min(self.slots.len());
        self.slots.drain(..drop);
        self.open_slots.retain(|&s| s >= floor);
        self.base = floor;
    }

    /// The first slot the arena still covers; slots below it were
    /// retired by [`SlotDriver::advance_base`].
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Whether `slot` currently has a live (open, undecided) core.
    #[must_use]
    pub fn is_open(&self, slot: u64) -> bool {
        self.index_of(slot)
            .and_then(|ix| self.slots.get(ix))
            .is_some_and(|s| matches!(s, SlotState::Open(_)))
    }

    /// The currently open (undecided) slots, ascending.
    #[must_use]
    pub fn open_slots(&self) -> &[u64] {
        &self.open_slots
    }

    /// The peer-addressed retransmissions of `slot`'s stalled
    /// conversations, derived from the core's current state
    /// ([`ConsensusCore::retransmit`]) — what a retransmission plane
    /// sends when the slot's timer fires. Self-addressed re-emissions
    /// are dropped: local delivery is synchronous and lossless, so the
    /// local copy was already consumed. Empty for slots that are not
    /// open.
    #[must_use]
    pub fn retransmit(&self, slot: u64) -> Vec<SlotSend<C::Msg>> {
        let Some(SlotState::Open(core)) = self.index_of(slot).and_then(|ix| self.slots.get(ix))
        else {
            return Vec::new();
        };
        let mut out = Outbox::new(self.me, self.n);
        core.retransmit(&mut out);
        let me = self.me;
        out.drain()
            .into_iter()
            .filter(|(to, _)| *to != me)
            .map(|(to, msg)| (to, slot, msg))
            .collect()
    }

    /// The decision of `slot`, if it has one (locally decided or
    /// externally resolved) and the slot has not been retired below the
    /// base.
    #[must_use]
    pub fn decision(&self, slot: u64) -> Option<&C::Val> {
        match self.index_of(slot).and_then(|ix| self.slots.get(ix)) {
            Some(SlotState::Decided(v)) => Some(v),
            _ => None,
        }
    }

    /// Opens the consensus instance of `slot` with this process's
    /// `proposal`, replaying any traffic buffered for it. No-op (empty
    /// sends) if the slot is already open or decided.
    ///
    /// Returns the produced sends and, if the replayed backlog already
    /// forced a decision, the decided value.
    pub fn open(
        &mut self,
        slot: u64,
        proposal: C::Val,
        suspects: ProcessSet,
    ) -> (Vec<SlotSend<C::Msg>>, Option<C::Val>) {
        let Some(ix) = self.ensure(slot) else {
            return (Vec::new(), None);
        };
        let SlotState::Pending(backlog) = &mut self.slots[ix] else {
            return (Vec::new(), None);
        };
        let backlog = std::mem::take(backlog);
        self.slots[ix] = SlotState::Open(C::new(self.me, self.n, proposal));
        match self.open_slots.binary_search(&slot) {
            Ok(_) => unreachable!("slot was pending, not open"),
            Err(pos) => self.open_slots.insert(pos, slot),
        }
        let mut sends = Vec::new();
        let mut decision = self.step_slot(slot, None, suspects, &mut sends);
        for (from, msg) in backlog {
            if decision.is_some() {
                break;
            }
            decision = self.step_slot(slot, Some((from, msg)), suspects, &mut sends);
        }
        (sends, decision)
    }

    /// Routes one incoming slot-scoped message. Traffic for a decided
    /// or base-retired slot is dropped; traffic for a slot not opened
    /// locally is buffered until [`SlotDriver::open`] replays it.
    pub fn on_message(
        &mut self,
        slot: u64,
        from: ProcessId,
        msg: &C::Msg,
        suspects: ProcessSet,
    ) -> (Vec<SlotSend<C::Msg>>, Option<C::Val>) {
        let Some(ix) = self.ensure(slot) else {
            return (Vec::new(), None);
        };
        match &mut self.slots[ix] {
            SlotState::Decided(_) => (Vec::new(), None),
            SlotState::Pending(backlog) => {
                backlog.push((from, msg.clone()));
                (Vec::new(), None)
            }
            SlotState::Open(_) => {
                let mut sends = Vec::new();
                let decision =
                    self.step_slot(slot, Some((from, msg.clone())), suspects, &mut sends);
                (sends, decision)
            }
        }
    }

    /// λ-steps every open slot with the current detector value, so
    /// suspicion-driven progress (round advancement past a suspected
    /// coordinator) happens between messages. Returns the produced sends
    /// and the slots that decided on this tick.
    pub fn tick(&mut self, suspects: ProcessSet) -> TickEffects<C::Msg, C::Val> {
        let mut sends = Vec::new();
        let mut decisions = Vec::new();
        // A deciding step removes its own entry from `open_slots` (and
        // shifts the tail left), so only advance past survivors.
        let mut pos = 0;
        while pos < self.open_slots.len() {
            let slot = self.open_slots[pos];
            if let Some(v) = self.step_slot(slot, None, suspects, &mut sends) {
                decisions.push((slot, v));
            } else {
                pos += 1;
            }
        }
        (sends, decisions)
    }

    /// Records a decision learned out of band (decision relay, state
    /// transfer), dropping the slot's core and any buffered traffic.
    /// No-op if the slot already holds a decision or fell below the
    /// base.
    pub fn resolve(&mut self, slot: u64, value: C::Val) {
        let Some(ix) = self.ensure(slot) else {
            return;
        };
        if matches!(self.slots[ix], SlotState::Decided(_)) {
            return;
        }
        if let Ok(pos) = self.open_slots.binary_search(&slot) {
            self.open_slots.remove(pos);
        }
        self.slots[ix] = SlotState::Decided(value);
    }

    /// Steps one open slot, harvesting sends; on decision, retires the
    /// core in place.
    fn step_slot(
        &mut self,
        slot: u64,
        input: Option<(ProcessId, C::Msg)>,
        suspects: ProcessSet,
        sends: &mut Vec<SlotSend<C::Msg>>,
    ) -> Option<C::Val> {
        let ix = self.index_of(slot)?;
        let Some(SlotState::Open(core)) = self.slots.get_mut(ix) else {
            return None;
        };
        let mut out = Outbox::new(self.me, self.n);
        let decided = core.step(
            input.as_ref().map(|(from, msg)| (*from, msg)),
            suspects,
            &mut out,
        );
        sends.extend(out.drain().into_iter().map(|(to, msg)| (to, slot, msg)));
        if let Some(v) = &decided {
            self.slots[ix] = SlotState::Decided(v.clone());
            if let Ok(pos) = self.open_slots.binary_search(&slot) {
                self.open_slots.remove(pos);
            }
        }
        decided
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
        d.resolve(1, 7);
        assert!(d.is_open(0));
        assert_eq!(d.decision(1), Some(&7));

        // A snapshot install at a huge absolute slot: the arena must
        // not grow to cover the retired prefix.
        d.advance_base(1_000_000_000);
        assert_eq!(d.base(), 1_000_000_000);
        assert!(!d.is_open(0), "open core below the base is dropped");
        assert_eq!(d.decision(1), None, "retired decisions are gone");

        // Traffic for retired slots is dropped quietly...
        let (sends, decided) =
            d.on_message(3, p(0), &RotatingMsg::Ack { r: 0 }, ProcessSet::empty());
        assert!(sends.is_empty() && decided.is_none());
        d.resolve(5, 9);
        assert_eq!(d.decision(5), None);

        // ...while slots at the new base work in O(live window).
        let (_, none) = d.open(1_000_000_000, 42, ProcessSet::empty());
        assert!(none.is_none());
        assert!(d.is_open(1_000_000_000));
        d.resolve(1_000_000_000, 42);
        assert_eq!(d.decision(1_000_000_000), Some(&42));

        // Lowering the base is a no-op.
        d.advance_base(0);
        assert_eq!(d.base(), 1_000_000_000);
    }

    /// The retransmission contract: an open slot can re-derive its
    /// stalled peer-addressed frames from core state at any time, and
    /// deciding (or resolving) the slot silences it.
    #[test]
    fn open_slots_rederive_their_stalled_sends_until_retired() {
        let mut d: Driver = SlotDriver::new(p(0), 3);
        assert!(d.open_slots().is_empty());
        assert!(d.retransmit(0).is_empty(), "unopened slots are silent");
        let (sends, _) = d.open(0, 5, ProcessSet::empty());
        assert_eq!(d.open_slots(), &[0]);
        // p0 coordinates round 0 and proposed on open; until a majority
        // answers, a stalled instance re-sends that proposal to both
        // peers, as often as asked.
        let peer_sends: Vec<_> = sends.iter().filter(|(to, _, _)| *to != p(0)).collect();
        assert_eq!(peer_sends.len(), 2);
        for _ in 0..2 {
            let retx = d.retransmit(0);
            assert_eq!(retx.len(), peer_sends.len());
            assert!(retx.iter().all(|(to, slot, m)| *to != p(0)
                && *slot == 0
                && *m == RotatingMsg::Propose { r: 0, v: 5 }));
        }
        // A participant still in round 0 owes nobody anything: there is
        // no round-0 estimate to re-send.
        let mut q: Driver = SlotDriver::new(p(1), 3);
        let (sends, _) = q.open(0, 6, ProcessSet::empty());
        assert!(sends.is_empty() && q.retransmit(0).is_empty());
        // A quiet step changes nothing.
        let (_, _) = d.tick(ProcessSet::empty());
        assert!(!d.retransmit(0).is_empty());
        // Resolution silences the slot with the core.
        d.resolve(0, 9);
        assert!(d.retransmit(0).is_empty());
        assert!(d.open_slots().is_empty());
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
        let retx = c.retransmit(0);
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

    #[test]
    fn tick_advances_past_a_suspected_coordinator() {
        let mut d: Driver = SlotDriver::new(p(1), 3);
        let _ = d.open(0, 5, ProcessSet::empty());
        // Suspecting round 0's coordinator p0 nacks and re-estimates.
        let (sends, decisions) = d.tick(ProcessSet::singleton(p(0)));
        assert!(decisions.is_empty());
        assert!(
            sends.iter().any(|(to, _, _)| *to == p(0)),
            "a nack goes back to the suspected coordinator: {sends:?}"
        );
    }
}
