//! The Chandra–Toueg `◇S` rotating-coordinator consensus algorithm.
//!
//! The paper's baseline (§1.2): `◇S` solves consensus **only** with a
//! majority of correct processes, and the algorithm is **not total**
//! (footnote 4: "only a majority needs to be consulted, even if all
//! processes are correct") — which is why `◇S` escapes the `T_{D⇒P}`
//! reduction, and why it stops terminating once `f ≥ ⌈n/2⌉` (experiment
//! E9's crossover).
//!
//! Structure (Chandra & Toueg, JACM 1996, Fig. 6), per round `r` with
//! coordinator `c = r mod n`:
//!
//! 1. `r ≥ 1`: everyone sends its timestamped estimate to `c`;
//! 2. `r ≥ 1`: `c` collects `⌈(n+1)/2⌉` estimates and proposes the one
//!    with the highest timestamp. `r = 0`: `c` proposes its own estimate
//!    in its first step — phases 1 and 2 exist so that a value a
//!    majority adopted in an *earlier* round is the one proposed, and
//!    round 0 has no earlier round; `c`'s estimate is its proposal, so
//!    validity holds too;
//! 3. participants wait for `c`'s proposal **or** suspect `c`: adopt +
//!    ack, or nack;
//! 4. `c` collects `⌈(n+1)/2⌉` replies; if all are acks it reliably
//!    broadcasts the decision.
//!
//! A failure-free instance therefore decides at `c` two message delays
//! after `c`'s first step. Rounds are numbered from 0 and timestamps
//! from 1: an estimate adopted in round `r` carries `ts = r + 1`, and
//! `ts = 0` means "never adopted" (the paper numbers rounds from 1 for
//! the same reason — a round-0 lock must outrank an initial estimate).

use super::{ConsensusCore, Outbox};
use rfd_core::{ProcessId, ProcessSet};

/// Messages of the `◇S` rotating-coordinator algorithm.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RotatingMsg<V> {
    /// Phase-1 estimate sent to the round's coordinator (`r ≥ 1`; round
    /// 0 has no phase 1).
    Estimate {
        /// Round number.
        r: u64,
        /// Timestamp: one past the round in which the estimate was last
        /// adopted, 0 if it is still the sender's own proposal.
        ts: u64,
        /// The estimate.
        v: V,
    },
    /// Phase-2 coordinator proposal.
    Propose {
        /// Round number.
        r: u64,
        /// Proposed value.
        v: V,
    },
    /// Phase-3 positive reply.
    Ack {
        /// Round number.
        r: u64,
    },
    /// Phase-3 negative reply (the coordinator was suspected).
    Nack {
        /// Round number.
        r: u64,
    },
    /// Phase-4 decision announcement (reliably relayed).
    Decide(V),
}

/// Per-round coordinator bookkeeping.
///
/// Quorums are counted over **distinct senders**: the retransmission
/// plane of the decision service re-delivers phase messages at will, so
/// a duplicated `Estimate`/`Ack`/`Nack` must never inflate a majority —
/// receipt is idempotent by construction.
#[derive(Clone, Debug, Default, Hash)]
struct CoordRound<V> {
    /// Processes whose estimate was already counted.
    heard: ProcessSet,
    /// The highest-timestamped estimate heard — all that phase 2 reads.
    /// On a tie the one heard last holds it.
    best: Option<(u64, V)>,
    proposed: Option<V>,
    /// Processes that acked this round's proposal.
    acks: ProcessSet,
    /// Processes that nacked this round's proposal.
    nacks: ProcessSet,
    resolved: bool,
}

impl<V> CoordRound<V> {
    fn empty() -> Self {
        Self {
            heard: ProcessSet::empty(),
            best: None,
            proposed: None,
            acks: ProcessSet::empty(),
            nacks: ProcessSet::empty(),
            resolved: false,
        }
    }
}

/// The entry for round `r` in a list sorted by round, inserted in
/// order (made by `empty`) if absent.
fn round_entry<T>(rounds: &mut Vec<(u64, T)>, r: u64, empty: impl FnOnce() -> T) -> &mut T {
    let ix = rounds
        .binary_search_by_key(&r, |(round, _)| *round)
        .unwrap_or_else(|ix| {
            rounds.insert(ix, (r, empty()));
            ix
        });
    &mut rounds[ix].1
}

/// Chandra–Toueg `◇S` rotating-coordinator consensus state machine.
///
/// `Hash` covers the whole state, so a model checker can memoise on it
/// (`tests/explore_rotating.rs`).
#[derive(Clone, Debug, Hash)]
pub struct RotatingConsensus<V> {
    me: ProcessId,
    n: usize,
    majority: usize,
    round: u64,
    estimate: V,
    /// One past the round in which `estimate` was last adopted; 0 while
    /// it is still this process's proposal. (Not the bare round: a value
    /// adopted in round 0 must outrank one never adopted.)
    ts: u64,
    /// Whether this process has opened the current round: sent its
    /// estimate (`round ≥ 1`), or — in round 0, which has no phase 1 —
    /// proposed, if it coordinates it.
    sent_estimate: bool,
    /// Buffered coordinator proposals for rounds ahead of us, sorted by
    /// round.
    pending_proposals: Vec<(u64, V)>,
    /// Coordinator state for rounds this process coordinates, sorted by
    /// round. A calm instance touches a round or two, so both lists are
    /// plain sorted vectors, whose capacity [`ConsensusCore::renew`]
    /// keeps for the next instance.
    coord: Vec<(u64, CoordRound<V>)>,
    decision: Option<V>,
    announced: bool,
    /// Hard cap on rounds to keep non-terminating runs (f ≥ n/2) bounded.
    max_round: u64,
}

impl<V: Clone + Eq + Ord> RotatingConsensus<V> {
    /// The coordinator of round `r`.
    #[must_use]
    pub fn coordinator(&self, r: u64) -> ProcessId {
        ProcessId::new((r % self.n as u64) as usize)
    }

    /// The round this process is currently in (diagnostic).
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    fn coordinate(&mut self, r: u64, out: &mut Outbox<RotatingMsg<V>>) {
        let majority = self.majority;
        let state = round_entry(&mut self.coord, r, CoordRound::empty);
        if state.resolved {
            return;
        }
        if state.proposed.is_none() && state.heard.len() >= majority {
            let (_, v) = state.best.clone().expect("a majority was heard");
            state.proposed = Some(v.clone());
            out.broadcast(RotatingMsg::Propose { r, v });
        }
        if state.proposed.is_some() && state.acks.len() + state.nacks.len() >= majority {
            state.resolved = true;
            if state.nacks.is_empty() {
                let v = state.proposed.clone().expect("proposed above");
                if self.decision.is_none() && !self.announced {
                    self.announced = true;
                    out.broadcast(RotatingMsg::Decide(v));
                }
            }
        }
    }

    fn advance_round(&mut self, out: &mut Outbox<RotatingMsg<V>>) {
        self.round += 1;
        self.sent_estimate = false;
        self.participate(out);
    }

    fn participate(&mut self, out: &mut Outbox<RotatingMsg<V>>) {
        if self.round > self.max_round || self.decision.is_some() {
            return;
        }
        if self.sent_estimate {
            return;
        }
        self.sent_estimate = true;
        let c = self.coordinator(self.round);
        if self.round > 0 {
            out.send(
                c,
                RotatingMsg::Estimate {
                    r: self.round,
                    ts: self.ts,
                    v: self.estimate.clone(),
                },
            );
        } else if c == self.me {
            // Round 0 needs no phase 1: nothing can be locked yet, so
            // the coordinator's own estimate is as good as any.
            let state = round_entry(&mut self.coord, 0, CoordRound::empty);
            state.proposed = Some(self.estimate.clone());
            out.broadcast(RotatingMsg::Propose {
                r: 0,
                v: self.estimate.clone(),
            });
        }
    }

    fn handle_proposal(&mut self, r: u64, v: V, out: &mut Outbox<RotatingMsg<V>>) {
        use core::cmp::Ordering;
        match r.cmp(&self.round) {
            Ordering::Equal => {
                self.estimate = v;
                self.ts = r + 1;
                out.send(self.coordinator(r), RotatingMsg::Ack { r });
                self.advance_round(out);
            }
            Ordering::Greater => {
                let pending = &mut self.pending_proposals;
                match pending.binary_search_by_key(&r, |(round, _)| *round) {
                    Ok(ix) => pending[ix].1 = v,
                    Err(ix) => pending.insert(ix, (r, v)),
                }
            }
            Ordering::Less => {}
        }
    }
}

impl<V: Clone + Eq + Ord> ConsensusCore for RotatingConsensus<V> {
    type Msg = RotatingMsg<V>;
    type Val = V;

    fn new(me: ProcessId, n: usize, proposal: V) -> Self {
        assert!(n >= 1, "need at least one process");
        Self {
            me,
            n,
            majority: n / 2 + 1,
            round: 0,
            estimate: proposal,
            ts: 0,
            sent_estimate: false,
            pending_proposals: Vec::new(),
            coord: Vec::new(),
            decision: None,
            announced: false,
            max_round: 1_000_000,
        }
    }

    /// Clears the round lists in place, keeping their capacity, and
    /// takes everything else from [`ConsensusCore::new`].
    fn renew(&mut self, me: ProcessId, n: usize, proposal: V) {
        let mut pending_proposals = std::mem::take(&mut self.pending_proposals);
        let mut coord = std::mem::take(&mut self.coord);
        pending_proposals.clear();
        coord.clear();
        *self = Self {
            pending_proposals,
            coord,
            ..Self::new(me, n, proposal)
        };
    }

    fn step(
        &mut self,
        input: Option<(ProcessId, &RotatingMsg<V>)>,
        suspects: ProcessSet,
        out: &mut Outbox<RotatingMsg<V>>,
    ) -> Option<V> {
        match input {
            Some((_, RotatingMsg::Decide(v))) => {
                if self.decision.is_none() {
                    self.decision = Some(v.clone());
                    if !self.announced {
                        self.announced = true;
                        out.broadcast(RotatingMsg::Decide(v.clone()));
                    }
                    return Some(v.clone());
                }
                return None;
            }
            Some((from, RotatingMsg::Estimate { r, ts, v }))
                if *r > 0 && self.coordinator(*r) == self.me =>
            {
                let state = round_entry(&mut self.coord, *r, CoordRound::empty);
                // `>=`: on equal timestamps the estimate heard last wins.
                if state.heard.insert(from) && state.best.as_ref().map_or(true, |(b, _)| ts >= b) {
                    state.best = Some((*ts, v.clone()));
                }
                self.coordinate(*r, out);
            }
            // Only from the round's coordinator: the proposal is adopted
            // and acked on sight, so one from anybody else (misrouted,
            // forged) must not pass for it.
            Some((from, RotatingMsg::Propose { r, v })) if from == self.coordinator(*r) => {
                let (r, v) = (*r, v.clone());
                self.handle_proposal(r, v, out);
            }
            Some((from, RotatingMsg::Ack { r })) if self.coordinator(*r) == self.me => {
                let state = round_entry(&mut self.coord, *r, CoordRound::empty);
                if !state.nacks.contains(from) {
                    state.acks.insert(from);
                }
                self.coordinate(*r, out);
            }
            Some((from, RotatingMsg::Nack { r })) if self.coordinator(*r) == self.me => {
                let state = round_entry(&mut self.coord, *r, CoordRound::empty);
                if !state.acks.contains(from) {
                    state.nacks.insert(from);
                }
                self.coordinate(*r, out);
            }
            _ => {}
        }
        if self.decision.is_some() {
            return None;
        }
        self.participate(out);
        // Apply a buffered proposal for the (new) current round, if any.
        let round = self.round;
        if let Ok(ix) = self
            .pending_proposals
            .binary_search_by_key(&round, |(r, _)| *r)
        {
            let (_, v) = self.pending_proposals.remove(ix);
            self.handle_proposal(round, v, out);
        } else {
            // Phase 3 escape hatch: suspect the coordinator → nack and
            // move on.
            let c = self.coordinator(self.round);
            if c != self.me && suspects.contains(c) && self.sent_estimate {
                out.send(c, RotatingMsg::Nack { r: self.round });
                self.advance_round(out);
            }
        }
        None
    }

    fn decision(&self) -> Option<&V> {
        self.decision.as_ref()
    }

    /// Re-emits every stalled conversation of this process:
    ///
    /// * **participant** — an estimate for **every visited round from 1
    ///   on** (round 0 has no phase 1), so any coordinator that missed
    ///   one can still reach its phase-1 quorum. Rounds advance one at a
    ///   time, so this process entered — and owes an estimate to — every
    ///   `1 ≤ r ≤ round`, and under the quasi-reliable channels the
    ///   paper assumes each of those sends would eventually arrive.
    ///   Re-sending only the current round is not enough: under loss,
    ///   processes scatter across rounds with each stuck as the
    ///   coordinator of its *own* current round (`r mod n = me`), whose
    ///   retransmitted estimate is a filtered self-send — a fixed point
    ///   that emits nothing. The visited-round sweep breaks it: the
    ///   minimal round among undecided processes has been visited by
    ///   everyone, so its coordinator's phase-1 quorum eventually fills
    ///   and the whole group cascades forward.
    /// * **coordinator** — every proposed-but-unresolved round's
    ///   `Propose`, so participants that missed it can still ack and
    ///   advance (the coordinator has already moved on as a participant,
    ///   so no later step re-emits these on its own). When the minimal
    ///   round is 0 this is the whole argument: its quorum is trivial,
    ///   the coordinator proposed in its first step, and the unresolved
    ///   `Propose` is what the processes still in round 0 are waiting
    ///   for.
    ///
    /// Re-sent estimates carry the **current** `(ts, v)`, which may be
    /// fresher than what the original round-`r` send carried. Safety is
    /// preserved: the locking lemma only requires that an estimate
    /// tagged `r` was produced while its sender's round was `≥ r` — so
    /// that any sender that acked an all-ack round `d < r` had already
    /// set `ts := d + 1` — and a *later* state only raises `ts`, never
    /// lowers it; any estimate with `ts > d` carries the decided value.
    /// Receipt stays idempotent: the coordinator counts the first
    /// estimate per sender and drops duplicates.
    fn retransmit(&self, out: &mut Outbox<RotatingMsg<V>>) {
        if self.decision.is_some() || self.round > self.max_round {
            return;
        }
        for r in 1..=self.round {
            if r == self.round && !self.sent_estimate {
                continue;
            }
            let c = self.coordinator(r);
            if c == self.me {
                // Our own coordinated rounds heard us via the self-loop
                // when we first participated; nothing to re-send.
                continue;
            }
            out.send(
                c,
                RotatingMsg::Estimate {
                    r,
                    ts: self.ts,
                    v: self.estimate.clone(),
                },
            );
        }
        for (r, state) in &self.coord {
            if let (Some(v), false) = (&state.proposed, state.resolved) {
                out.broadcast(RotatingMsg::Propose {
                    r: *r,
                    v: v.clone(),
                });
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

    #[test]
    fn coordinator_rotates_modulo_n() {
        let c: RotatingConsensus<u64> = RotatingConsensus::new(p(0), 3, 1);
        assert_eq!(c.coordinator(0), p(0));
        assert_eq!(c.coordinator(1), p(1));
        assert_eq!(c.coordinator(3), p(0));
    }

    #[test]
    fn solo_round_zero_coordinator_decides_with_majority_one() {
        // n = 1: the single process is coordinator with majority 1.
        let mut c: RotatingConsensus<u64> = RotatingConsensus::new(p(0), 1, 7);
        let mut decided = None;
        let mut queue: Vec<(ProcessId, RotatingMsg<u64>)> = Vec::new();
        for _ in 0..50 {
            let input = queue.pop();
            let mut out = Outbox::new(p(0), 1);
            if let Some(v) = c.step(
                input.as_ref().map(|(f, m)| (*f, m)),
                ProcessSet::empty(),
                &mut out,
            ) {
                decided = Some(v);
                break;
            }
            for (to, m) in out.drain() {
                assert_eq!(to, p(0));
                queue.insert(0, (p(0), m));
            }
        }
        assert_eq!(decided, Some(7));
    }

    #[test]
    fn decide_message_is_adopted_and_relayed_once() {
        let mut c: RotatingConsensus<u64> = RotatingConsensus::new(p(2), 5, 9);
        let mut out = Outbox::new(p(2), 5);
        let d = c.step(
            Some((p(0), &RotatingMsg::Decide(4))),
            ProcessSet::empty(),
            &mut out,
        );
        assert_eq!(d, Some(4));
        assert_eq!(out.drain().len(), 5);
        let mut out2 = Outbox::new(p(2), 5);
        assert_eq!(
            c.step(
                Some((p(1), &RotatingMsg::Decide(4))),
                ProcessSet::empty(),
                &mut out2
            ),
            None
        );
        assert!(out2.drain().is_empty());
    }

    /// Round 0 has no phase 1: its coordinator proposes its own value in
    /// its first step, and a participant's first step sends nothing.
    #[test]
    fn round_zero_opens_with_the_coordinators_proposal_and_no_estimates() {
        let mut c: RotatingConsensus<u64> = RotatingConsensus::new(p(0), 5, 11);
        let mut out = Outbox::new(p(0), 5);
        c.step(None, ProcessSet::empty(), &mut out);
        let msgs = out.drain();
        assert_eq!(msgs.len(), 5, "{msgs:?}");
        assert!(msgs
            .iter()
            .all(|(_, m)| *m == RotatingMsg::Propose { r: 0, v: 11 }));
        // A second λ-step does not propose again.
        let mut out = Outbox::new(p(0), 5);
        c.step(None, ProcessSet::empty(), &mut out);
        assert!(out.drain().is_empty());

        let mut q: RotatingConsensus<u64> = RotatingConsensus::new(p(3), 5, 14);
        let mut out = Outbox::new(p(3), 5);
        q.step(None, ProcessSet::empty(), &mut out);
        assert!(out.drain().is_empty(), "nobody sends a round-0 estimate");
        // The proposal is adopted with a timestamp that outranks "never
        // adopted", acked, and the next round's estimate carries it.
        let mut out = Outbox::new(p(3), 5);
        q.step(
            Some((p(0), &RotatingMsg::Propose { r: 0, v: 11 })),
            ProcessSet::empty(),
            &mut out,
        );
        assert_eq!(
            out.drain(),
            vec![
                (p(0), RotatingMsg::Ack { r: 0 }),
                (p(1), RotatingMsg::Estimate { r: 1, ts: 1, v: 11 }),
            ]
        );
    }

    /// A proposal is adopted and acked on sight, so it counts only when
    /// the round's coordinator sent it; `Decide` is relayed and counts
    /// from anyone.
    #[test]
    fn a_proposal_from_anyone_but_the_rounds_coordinator_is_dropped() {
        let mut c: RotatingConsensus<u64> = RotatingConsensus::new(p(2), 5, 9);
        for (from, r) in [(p(1), 0), (p(3), 0), (p(0), 1), (p(2), 0)] {
            let mut out = Outbox::new(p(2), 5);
            c.step(
                Some((from, &RotatingMsg::Propose { r, v: 66 })),
                ProcessSet::empty(),
                &mut out,
            );
            assert!(out.drain().is_empty(), "{from} is not round {r}'s");
            assert_eq!(c.round(), 0);
        }
        // Not buffered either: entering round 1 does not replay p0's
        // round-1 "proposal".
        let mut out = Outbox::new(p(2), 5);
        c.step(None, ProcessSet::singleton(p(0)), &mut out);
        assert_eq!(c.round(), 1);
        assert!(out
            .drain()
            .iter()
            .all(|(_, m)| !matches!(m, RotatingMsg::Ack { .. })));
        // The coordinator's own is taken.
        let mut out = Outbox::new(p(2), 5);
        c.step(
            Some((p(1), &RotatingMsg::Propose { r: 1, v: 7 })),
            ProcessSet::empty(),
            &mut out,
        );
        assert!(out.drain().contains(&(p(1), RotatingMsg::Ack { r: 1 })));
        let mut out = Outbox::new(p(2), 5);
        assert_eq!(
            c.step(
                Some((p(4), &RotatingMsg::Decide(7))),
                ProcessSet::empty(),
                &mut out
            ),
            Some(7)
        );
    }

    /// The retransmission plane re-delivers phase messages at will:
    /// duplicated `Estimate`s and `Ack`s from the same sender must not
    /// inflate the coordinator's quorum counts.
    #[test]
    fn duplicated_phase_messages_never_inflate_a_quorum() {
        // p1 coordinates round 1 of a 5-process group (majority 3) —
        // the first round with a phase 1.
        let mut c: RotatingConsensus<u64> = RotatingConsensus::new(p(1), 5, 1);
        let est = |v: u64| RotatingMsg::Estimate { r: 1, ts: 0, v };
        // Two distinct estimates plus three duplicates: still below the
        // majority of three distinct senders — no proposal may go out.
        for from in [p(2), p(3), p(2), p(3), p(2)] {
            let mut out = Outbox::new(p(1), 5);
            c.step(Some((from, &est(7))), ProcessSet::empty(), &mut out);
            assert!(
                out.drain()
                    .iter()
                    .all(|(_, m)| !matches!(m, RotatingMsg::Propose { .. })),
                "duplicate estimates must not reach a majority"
            );
        }
        // A third distinct estimate completes the quorum.
        let mut out = Outbox::new(p(1), 5);
        c.step(Some((p(4), &est(7))), ProcessSet::empty(), &mut out);
        assert!(out
            .drain()
            .iter()
            .any(|(_, m)| matches!(m, RotatingMsg::Propose { r: 1, .. })));
        // Two distinct acks plus duplicates: below the majority — the
        // coordinator must not decide.
        for from in [p(2), p(3), p(2), p(2), p(3)] {
            let mut out = Outbox::new(p(1), 5);
            c.step(
                Some((from, &RotatingMsg::Ack { r: 1 })),
                ProcessSet::empty(),
                &mut out,
            );
            assert!(
                out.drain()
                    .iter()
                    .all(|(_, m)| !matches!(m, RotatingMsg::Decide(_))),
                "duplicate acks must not complete a quorum"
            );
        }
        let mut out = Outbox::new(p(1), 5);
        c.step(
            Some((p(4), &RotatingMsg::Ack { r: 1 })),
            ProcessSet::empty(),
            &mut out,
        );
        assert!(out
            .drain()
            .iter()
            .any(|(_, m)| matches!(m, RotatingMsg::Decide(7))));
    }

    /// Phase 2 proposes the highest-timestamped estimate, and among
    /// equal highest timestamps the one heard last.
    #[test]
    fn equal_highest_timestamps_propose_the_estimate_heard_last() {
        // p1 coordinates round 1 of 5 (majority 3).
        let mut c: RotatingConsensus<u64> = RotatingConsensus::new(p(1), 5, 1);
        let heard = [(p(2), 1, 20), (p(4), 1, 40), (p(3), 0, 30)];
        let mut proposals = Vec::new();
        for (from, ts, v) in heard {
            let mut out = Outbox::new(p(1), 5);
            c.step(
                Some((from, &RotatingMsg::Estimate { r: 1, ts, v })),
                ProcessSet::empty(),
                &mut out,
            );
            proposals.extend(
                out.drain()
                    .into_iter()
                    .filter(|(_, m)| matches!(m, RotatingMsg::Propose { .. })),
            );
        }
        assert_eq!(proposals.len(), 5, "one broadcast: {proposals:?}");
        assert!(
            proposals
                .iter()
                .all(|(_, m)| *m == RotatingMsg::Propose { r: 1, v: 40 }),
            "p4's estimate ties p2's timestamp and was heard later; p3's is older: {proposals:?}"
        );
    }

    #[test]
    fn suspecting_the_coordinator_triggers_nack_and_round_advance() {
        let mut c: RotatingConsensus<u64> = RotatingConsensus::new(p(1), 3, 5);
        let mut out = Outbox::new(p(1), 3);
        // First step: round 0 has no phase 1, so p1 just waits for p0.
        c.step(None, ProcessSet::empty(), &mut out);
        assert_eq!(c.round(), 0);
        assert!(out.drain().is_empty());
        // Suspect p0: nack + advance to round 1 (coordinator p1 = self).
        let mut out2 = Outbox::new(p(1), 3);
        c.step(None, ProcessSet::singleton(p(0)), &mut out2);
        assert_eq!(c.round(), 1);
        let msgs = out2.drain();
        assert!(msgs
            .iter()
            .any(|(to, m)| *to == p(0) && matches!(m, RotatingMsg::Nack { r: 0 })));
        // The new estimate goes to round 1's coordinator (itself).
        assert!(msgs
            .iter()
            .any(|(to, m)| *to == p(1) && matches!(m, RotatingMsg::Estimate { r: 1, .. })));
    }
}
