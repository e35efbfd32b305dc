//! The Chandra–Toueg `S`-based consensus algorithm.
//!
//! The paper's sufficiency argument for Proposition 4.3 cites this
//! algorithm: it solves **uniform** consensus with any Strong failure
//! detector *even if the number of faulty processes is unbounded*, and —
//! run with a realistic detector — it is *total* (footnote 4: "the
//! S-based consensus algorithm of \[1\] would be total with a realistic
//! failure detector").
//!
//! Structure (Chandra & Toueg, JACM 1996, Fig. 5):
//!
//! 1. **Phase 1** — `n − 1` asynchronous rounds. In round `r`, process
//!    `p` sends the proposals it learned in round `r − 1` (its Δ) to all,
//!    then waits for a round-`r` message from every process it does not
//!    suspect.
//! 2. **Phase 2** — `p` sends its full proposal vector `V_p`; waits as
//!    above; intersects all received vectors.
//! 3. **Phase 3** — `p` decides the first non-⊥ entry of the
//!    intersection.
//!
//! Weak accuracy provides a process `c` never suspected: `c`'s proposal
//! survives in every vector, so intersections are non-empty and equal.

use super::{ConsensusCore, Outbox};
use rfd_core::{ProcessId, ProcessSet};

/// Messages of the `S`-based algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StrongMsg<V> {
    /// Phase-1 round message carrying newly learned `(proposer, value)`
    /// pairs.
    Round {
        /// Round number `1..=n-1`.
        r: u32,
        /// Entries learned by the sender in the previous round.
        delta: Vec<(u16, V)>,
    },
    /// Phase-2 full-vector exchange.
    Vector {
        /// The sender's proposal vector (entry `i` = `pᵢ`'s proposal, if
        /// known).
        v: Vec<Option<V>>,
    },
    /// Decision announcement (adopted and relayed once).
    Decided(V),
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Phase {
    Rounds,
    Vectors,
    Done,
}

/// A round-phase message buffered for later: `(round, sender, Δ)`.
type BufferedRound<V> = (u32, ProcessId, Vec<(u16, V)>);

/// Chandra–Toueg `S`-based consensus state machine.
#[derive(Clone, Debug)]
pub struct StrongConsensus<V> {
    n: usize,
    phase: Phase,
    round: u32,
    last_round: u32,
    v: Vec<Option<V>>,
    /// Entries learned during the current round (next round's Δ).
    fresh: Vec<(u16, V)>,
    /// Δ to send at the start of the current round.
    delta_out: Vec<(u16, V)>,
    sent_this_round: bool,
    received: ProcessSet,
    buffered_rounds: Vec<BufferedRound<V>>,
    /// Phase-2 bookkeeping.
    vectors_received: ProcessSet,
    intersection: Vec<Option<V>>,
    buffered_vectors: Vec<(ProcessId, Vec<Option<V>>)>,
    decision: Option<V>,
    announced: bool,
}

impl<V: Clone + Eq + Ord> StrongConsensus<V> {
    fn learn(&mut self, proposer: u16, value: V) {
        let ix = proposer as usize;
        if self.v[ix].is_none() {
            self.v[ix] = Some(value.clone());
            self.fresh.push((proposer, value));
        }
    }

    fn wait_satisfied(&self, received: ProcessSet, suspects: ProcessSet) -> bool {
        (0..self.n).all(|ix| {
            let q = ProcessId::new(ix);
            received.contains(q) || suspects.contains(q)
        })
    }

    fn begin_round(&mut self) {
        self.sent_this_round = false;
        self.received = ProcessSet::empty();
        self.delta_out = std::mem::take(&mut self.fresh);
        let round = self.round;
        let pending = std::mem::take(&mut self.buffered_rounds);
        for (r, from, delta) in pending {
            if r == round {
                self.received.insert(from);
                for (p, val) in delta {
                    self.learn(p, val);
                }
            } else if r > round {
                self.buffered_rounds.push((r, from, delta));
            }
        }
    }

    fn begin_vectors(&mut self, out: &mut Outbox<StrongMsg<V>>) {
        self.phase = Phase::Vectors;
        self.intersection = self.v.clone();
        out.broadcast(StrongMsg::Vector { v: self.v.clone() });
        let pending = std::mem::take(&mut self.buffered_vectors);
        for (from, vector) in pending {
            self.absorb_vector(from, &vector);
        }
    }

    fn absorb_vector(&mut self, from: ProcessId, vector: &[Option<V>]) {
        if self.vectors_received.insert(from) {
            for (ix, entry) in vector.iter().enumerate() {
                if entry.is_none() {
                    self.intersection[ix] = None;
                }
            }
        }
    }

    fn decide(&mut self, out: &mut Outbox<StrongMsg<V>>) -> Option<V> {
        let v = self
            .intersection
            .iter()
            .flatten()
            .next()
            .expect("weak accuracy keeps at least one entry in the intersection")
            .clone();
        self.phase = Phase::Done;
        self.decision = Some(v.clone());
        self.announced = true;
        out.broadcast(StrongMsg::Decided(v.clone()));
        Some(v)
    }
}

impl<V: Clone + Eq + Ord> ConsensusCore for StrongConsensus<V> {
    type Msg = StrongMsg<V>;
    type Val = V;

    fn new(me: ProcessId, n: usize, proposal: V) -> Self {
        assert!(n >= 1, "need at least one process");
        let mut v: Vec<Option<V>> = vec![None; n];
        v[me.index()] = Some(proposal.clone());
        Self {
            n,
            phase: Phase::Rounds,
            round: 1,
            last_round: (n as u32).saturating_sub(1).max(1),
            v,
            fresh: Vec::new(),
            delta_out: vec![(me.index() as u16, proposal)],
            sent_this_round: false,
            received: ProcessSet::empty(),
            buffered_rounds: Vec::new(),
            vectors_received: ProcessSet::empty(),
            intersection: Vec::new(),
            buffered_vectors: Vec::new(),
            decision: None,
            announced: false,
        }
    }

    fn step(
        &mut self,
        input: Option<(ProcessId, &StrongMsg<V>)>,
        suspects: ProcessSet,
        out: &mut Outbox<StrongMsg<V>>,
    ) -> Option<V> {
        match input {
            Some((_, StrongMsg::Decided(v))) => {
                if self.decision.is_none() {
                    self.phase = Phase::Done;
                    self.decision = Some(v.clone());
                    if !self.announced {
                        self.announced = true;
                        out.broadcast(StrongMsg::Decided(v.clone()));
                    }
                    return Some(v.clone());
                }
                return None;
            }
            Some((from, StrongMsg::Round { r, delta })) => match self.phase {
                Phase::Rounds => {
                    if *r == self.round {
                        self.received.insert(from);
                        for (p, val) in delta.clone() {
                            self.learn(p, val);
                        }
                    } else if *r > self.round {
                        self.buffered_rounds.push((*r, from, delta.clone()));
                    }
                }
                Phase::Vectors | Phase::Done => {}
            },
            Some((from, StrongMsg::Vector { v })) => match self.phase {
                Phase::Vectors => self.absorb_vector(from, v),
                Phase::Rounds => self.buffered_vectors.push((from, v.clone())),
                Phase::Done => {}
            },
            None => {}
        }
        match self.phase {
            Phase::Rounds => {
                if !self.sent_this_round {
                    self.sent_this_round = true;
                    out.broadcast(StrongMsg::Round {
                        r: self.round,
                        delta: self.delta_out.clone(),
                    });
                }
                if self.wait_satisfied(self.received, suspects) {
                    if self.round >= self.last_round {
                        self.begin_vectors(out);
                    } else {
                        self.round += 1;
                        self.begin_round();
                    }
                }
                None
            }
            Phase::Vectors => {
                if self.wait_satisfied(self.vectors_received, suspects) {
                    return self.decide(out);
                }
                None
            }
            Phase::Done => None,
        }
    }

    fn decision(&self) -> Option<&V> {
        self.decision.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// Drives two in-memory cores to completion by hand-delivering
    /// messages synchronously (no simulator).
    #[test]
    fn two_processes_agree_without_failures() {
        let mut a: StrongConsensus<u64> = StrongConsensus::new(p(0), 2, 10);
        let mut b: StrongConsensus<u64> = StrongConsensus::new(p(1), 2, 20);
        let mut queues: Vec<Vec<(ProcessId, StrongMsg<u64>)>> = vec![Vec::new(), Vec::new()];
        let mut decisions: Vec<Option<u64>> = vec![None, None];
        for _ in 0..200 {
            for ix in 0..2 {
                let input = queues[ix].pop();
                let core: &mut StrongConsensus<u64> = if ix == 0 { &mut a } else { &mut b };
                let mut out = Outbox::new(p(ix), 2);
                let d = core.step(
                    input.as_ref().map(|(f, m)| (*f, m)),
                    ProcessSet::empty(),
                    &mut out,
                );
                if let Some(v) = d {
                    decisions[ix].get_or_insert(v);
                }
                for (to, msg) in out.drain() {
                    queues[to.index()].insert(0, (p(ix), msg));
                }
            }
            if decisions.iter().all(Option::is_some) {
                break;
            }
        }
        assert_eq!(decisions[0], decisions[1]);
        assert!(decisions[0] == Some(10) || decisions[0] == Some(20));
    }

    #[test]
    fn learning_tracks_fresh_entries() {
        let mut c: StrongConsensus<u64> = StrongConsensus::new(p(0), 3, 1);
        c.learn(1, 2);
        c.learn(1, 99); // duplicate proposer: ignored
        assert_eq!(c.v[1], Some(2));
        assert_eq!(c.fresh, vec![(1, 2)]);
    }

    #[test]
    fn intersection_drops_entries_missing_from_any_vector() {
        let mut c: StrongConsensus<u64> = StrongConsensus::new(p(0), 3, 1);
        c.learn(1, 2);
        c.learn(2, 3);
        let mut out = Outbox::new(p(0), 3);
        c.begin_vectors(&mut out);
        c.absorb_vector(p(1), &[Some(1), Some(2), None]);
        assert_eq!(c.intersection, vec![Some(1), Some(2), None]);
    }

    #[test]
    fn decided_relay_is_adopted() {
        let mut c: StrongConsensus<u64> = StrongConsensus::new(p(2), 3, 30);
        let mut out = Outbox::new(p(2), 3);
        let d = c.step(
            Some((p(0), &StrongMsg::Decided(10))),
            ProcessSet::empty(),
            &mut out,
        );
        assert_eq!(d, Some(10));
        assert_eq!(c.decision(), Some(&10));
    }
}
