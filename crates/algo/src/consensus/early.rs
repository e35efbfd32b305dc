//! Early-deciding flood-set consensus over `P`.
//!
//! The plain [`super::FloodSetConsensus`] always runs `n` rounds — the
//! worst case for `f = n − 1`. In failure-light runs that is wasteful:
//! the classic early-stopping rule decides as soon as the participant
//! set has been **stable for two consecutive rounds** (the `min(f+2, n)`
//! flavor: one stable round proves everyone converged on the same value
//! set; the second guards *uniform* agreement against a decider that
//! crashes immediately after deciding while slower processes still
//! observe churn).
//!
//! This is a design-choice ablation: experiment E9b
//! (`docs/EXPERIMENTS.md`) compares its decision latency against the
//! fixed-round version as `f` varies.

use super::{ConsensusCore, Outbox};
use rfd_core::{ProcessId, ProcessSet};
use std::collections::BTreeSet;

/// Messages of the early-deciding flood-set algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EarlyFloodSetMsg<V> {
    /// Round-`r` flood of the sender's value set.
    Round {
        /// Round number, `1..`.
        r: u32,
        /// The sender's value set at the start of its round `r`.
        values: Vec<V>,
    },
    /// Decision announcement.
    Decided(V),
}

/// Early-deciding flood-set consensus state machine (class `P`).
#[derive(Clone, Debug)]
pub struct EarlyFloodSetConsensus<V> {
    n: usize,
    round: u32,
    values: BTreeSet<V>,
    sent_this_round: bool,
    received: ProcessSet,
    /// Participant set of the previous completed round.
    prev_participants: Option<ProcessSet>,
    /// Consecutive rounds with an unchanged participant set.
    stable_streak: u32,
    buffered: Vec<(u32, ProcessId, Vec<V>)>,
    decision: Option<V>,
    announced: bool,
}

impl<V: Clone + Eq + Ord> EarlyFloodSetConsensus<V> {
    /// The round this process is currently in (diagnostic; the ablation
    /// reads it to compare round counts).
    #[must_use]
    pub fn round(&self) -> u32 {
        self.round
    }

    fn absorb(&mut self, from: ProcessId, values: Vec<V>) {
        self.received.insert(from);
        self.values.extend(values);
    }

    fn enter_round(&mut self) {
        self.sent_this_round = false;
        self.received = ProcessSet::empty();
        let round = self.round;
        let pending: Vec<(u32, ProcessId, Vec<V>)> = std::mem::take(&mut self.buffered);
        for (r, from, values) in pending {
            if r == round {
                self.absorb(from, values);
            } else if r > round {
                self.buffered.push((r, from, values));
            }
        }
    }

    fn wait_satisfied(&self, suspects: ProcessSet) -> bool {
        (0..self.n).all(|ix| {
            let q = ProcessId::new(ix);
            self.received.contains(q) || suspects.contains(q)
        })
    }

    fn decide(&mut self, out: &mut Outbox<EarlyFloodSetMsg<V>>) -> Option<V> {
        let v = self
            .values
            .iter()
            .next()
            .expect("own proposal present")
            .clone();
        self.decision = Some(v.clone());
        self.announced = true;
        out.broadcast(EarlyFloodSetMsg::Decided(v.clone()));
        Some(v)
    }
}

impl<V: Clone + Eq + Ord> ConsensusCore for EarlyFloodSetConsensus<V> {
    type Msg = EarlyFloodSetMsg<V>;
    type Val = V;

    fn new(_me: ProcessId, n: usize, proposal: V) -> Self {
        assert!(n >= 1, "need at least one process");
        let mut values = BTreeSet::new();
        values.insert(proposal);
        Self {
            n,
            round: 1,
            values,
            sent_this_round: false,
            received: ProcessSet::empty(),
            prev_participants: None,
            stable_streak: 0,
            buffered: Vec::new(),
            decision: None,
            announced: false,
        }
    }

    fn step(
        &mut self,
        input: Option<(ProcessId, &EarlyFloodSetMsg<V>)>,
        suspects: ProcessSet,
        out: &mut Outbox<EarlyFloodSetMsg<V>>,
    ) -> Option<V> {
        match input {
            Some((_, EarlyFloodSetMsg::Decided(v))) => {
                if self.decision.is_none() {
                    self.decision = Some(v.clone());
                    if !self.announced {
                        self.announced = true;
                        out.broadcast(EarlyFloodSetMsg::Decided(v.clone()));
                    }
                    return Some(v.clone());
                }
                return None;
            }
            Some((from, EarlyFloodSetMsg::Round { r, values })) if self.decision.is_none() => {
                if *r == self.round {
                    self.absorb(from, values.clone());
                } else if *r > self.round {
                    self.buffered.push((*r, from, values.clone()));
                }
            }
            _ => {}
        }
        if self.decision.is_some() {
            return None;
        }
        if !self.sent_this_round {
            self.sent_this_round = true;
            out.broadcast(EarlyFloodSetMsg::Round {
                r: self.round,
                values: self.values.iter().cloned().collect(),
            });
        }
        if self.wait_satisfied(suspects) {
            // Round completed: compare the participant set with the
            // previous round's.
            if self.prev_participants == Some(self.received) {
                self.stable_streak += 1;
            } else {
                self.stable_streak = 0;
            }
            self.prev_participants = Some(self.received);
            // Two consecutive stable rounds, or the exhaustive bound.
            if self.stable_streak >= 2 || self.round as usize >= self.n {
                return self.decide(out);
            }
            self.round += 1;
            self.enter_round();
        }
        None
    }

    fn decision(&self) -> Option<&V> {
        self.decision.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_consensus;
    use crate::consensus::ConsensusAutomaton;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rfd_core::oracles::{Oracle, PerfectOracle};
    use rfd_core::{FailurePattern, Time};
    use rfd_sim::{run, ticks_for_rounds, SimConfig, StopCondition};

    const ROUNDS: u64 = 700;

    #[test]
    fn early_floodset_is_uniform_consensus_random_sweep() {
        let mut rng = StdRng::seed_from_u64(0xEF);
        let oracle = PerfectOracle::new(6, 3);
        for n in [3usize, 5, 7] {
            for seed in 0..15u64 {
                let pattern = FailurePattern::random(n, n - 1, Time::new(ROUNDS), &mut rng);
                let history = oracle.generate(&pattern, ticks_for_rounds(n, ROUNDS), seed);
                let props: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
                let automata = ConsensusAutomaton::<EarlyFloodSetConsensus<u64>>::fleet(&props);
                let config =
                    SimConfig::new(seed, ROUNDS).with_stop(StopCondition::EachCorrectOutput(1));
                let result = run(&pattern, &history, automata, &config);
                let v = check_consensus(&pattern, &result.trace, &props);
                assert!(
                    v.is_uniform_consensus(),
                    "n={n} seed={seed} pattern={pattern:?}: {v:?}"
                );
            }
        }
    }

    #[test]
    fn early_decider_finishes_before_the_exhaustive_bound_when_failure_free() {
        let n = 8;
        let pattern = FailurePattern::new(n);
        let oracle = PerfectOracle::new(6, 3);
        let history = oracle.generate(&pattern, ticks_for_rounds(n, ROUNDS), 0);
        let props: Vec<u64> = (0..n as u64).collect();
        let automata = ConsensusAutomaton::<EarlyFloodSetConsensus<u64>>::fleet(&props);
        let config = SimConfig::new(1, ROUNDS).with_stop(StopCondition::EachCorrectOutput(1));
        let result = run(&pattern, &history, automata, &config);
        // The first decider must have stopped well before n rounds.
        let max_round = result
            .automata
            .iter()
            .map(|a| a.core().round())
            .max()
            .unwrap();
        assert!(
            max_round < n as u32,
            "early stopping should beat the n-round bound (saw round {max_round})"
        );
    }

    #[test]
    fn early_floodset_is_total() {
        let oracle = PerfectOracle::new(6, 3);
        let mut rng = StdRng::seed_from_u64(0xEE);
        for seed in 0..10u64 {
            let n = 5;
            let pattern = FailurePattern::random(n, n - 1, Time::new(ROUNDS), &mut rng);
            let history = oracle.generate(&pattern, ticks_for_rounds(n, ROUNDS), seed);
            let props: Vec<u64> = (0..n as u64).collect();
            let automata = ConsensusAutomaton::<EarlyFloodSetConsensus<u64>>::fleet(&props);
            let config =
                SimConfig::new(seed, ROUNDS).with_stop(StopCondition::EachCorrectOutput(1));
            let result = run(&pattern, &history, automata, &config);
            assert_eq!(result.trace.check_totality(&pattern), Ok(()), "seed={seed}");
        }
    }
}
