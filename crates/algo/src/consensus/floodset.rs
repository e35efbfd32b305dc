//! Flood-set consensus over a Perfect failure detector.
//!
//! The sufficiency half of Proposition 4.3: `P` solves uniform consensus
//! no matter how many processes crash. The algorithm floods known values
//! for `n` asynchronous rounds, each round waiting for a round-`r` message
//! from every process not currently suspected. With at most `n − 1`
//! crashes, some round is crash-free, after which all participants hold
//! the same value set; deciding `min` of the set after round `n` is then
//! uniform.
//!
//! The algorithm is **total** (Lemma 4.1): with a strongly accurate
//! detector, every round's wait covers every non-crashed process, so the
//! decision's causal chain contains a message from each of them.
//!
//! Always running `n` rounds is the worst case for `f = n − 1`. The
//! early-stopping variant, [`EarlyFloodSetConsensus`], differs in one
//! stopping rule: it also decides once the participant set has been
//! **stable for two consecutive rounds** (the `min(f+2, n)` flavor: one
//! stable round proves everyone converged on the same value set; the
//! second guards *uniform* agreement against a decider that crashes
//! immediately after deciding while slower processes still observe
//! churn). It is a design-choice ablation: experiment E9b
//! (`docs/EXPERIMENTS.md`) compares its decision latency against the
//! fixed-round version as `f` varies.

use super::{ConsensusCore, Outbox};
use rfd_core::{ProcessId, ProcessSet};
use std::collections::BTreeSet;

/// Messages of the flood-set algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FloodSetMsg<V> {
    /// Round-`r` flood of the sender's value set.
    Round {
        /// Round number, `1..=n`.
        r: u32,
        /// The sender's value set at the start of its round `r`.
        values: Vec<V>,
    },
    /// Decision announcement (received values are adopted and relayed).
    Decided(V),
}

/// Flood-set consensus state machine (class `P`). With `EARLY` it also
/// decides after two participant-stable rounds.
#[derive(Clone, Debug)]
pub struct FloodSetConsensus<V, const EARLY: bool = false> {
    n: usize,
    round: u32,
    values: BTreeSet<V>,
    sent_this_round: bool,
    received: ProcessSet,
    /// Participant set of the previous completed round (early rule only).
    prev_participants: Option<ProcessSet>,
    /// Consecutive rounds with an unchanged participant set (early rule
    /// only).
    stable_streak: u32,
    /// Round-`r` messages for rounds we have not reached yet.
    buffered: Vec<(u32, ProcessId, Vec<V>)>,
    decision: Option<V>,
    announced: bool,
}

/// Early-deciding flood-set consensus (class `P`): decides after two
/// participant-stable rounds, or after `n` rounds at the latest.
pub type EarlyFloodSetConsensus<V> = FloodSetConsensus<V, true>;

impl<V: Clone + Eq + Ord, const EARLY: bool> FloodSetConsensus<V, EARLY> {
    /// The round this process is currently in (diagnostic; the ablation
    /// reads it to compare round counts).
    #[must_use]
    pub fn round(&self) -> u32 {
        self.round
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

    fn absorb(&mut self, from: ProcessId, values: Vec<V>) {
        self.received.insert(from);
        self.values.extend(values);
    }

    fn wait_satisfied(&self, suspects: ProcessSet) -> bool {
        (0..self.n).all(|ix| {
            let q = ProcessId::new(ix);
            self.received.contains(q) || suspects.contains(q)
        })
    }

    /// Records a completed round's participant set and says whether the
    /// early rule lets the process decide now: two consecutive rounds
    /// with an unchanged participant set. Always `false` without `EARLY`.
    fn stable_twice(&mut self) -> bool {
        if !EARLY {
            return false;
        }
        if self.prev_participants == Some(self.received) {
            self.stable_streak += 1;
        } else {
            self.stable_streak = 0;
        }
        self.prev_participants = Some(self.received);
        self.stable_streak >= 2
    }

    fn decide(&mut self, out: &mut Outbox<FloodSetMsg<V>>) -> Option<V> {
        let v = self
            .values
            .iter()
            .next()
            .expect("own proposal is always present")
            .clone();
        self.decision = Some(v.clone());
        self.announced = true;
        out.broadcast(FloodSetMsg::Decided(v.clone()));
        Some(v)
    }
}

impl<V: Clone + Eq + Ord, const EARLY: bool> ConsensusCore for FloodSetConsensus<V, EARLY> {
    type Msg = FloodSetMsg<V>;
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
        input: Option<(ProcessId, &FloodSetMsg<V>)>,
        suspects: ProcessSet,
        out: &mut Outbox<FloodSetMsg<V>>,
    ) -> Option<V> {
        // Handle the received message.
        match input {
            Some((_, FloodSetMsg::Decided(v))) => {
                if self.decision.is_none() {
                    self.decision = Some(v.clone());
                    if !self.announced {
                        self.announced = true;
                        out.broadcast(FloodSetMsg::Decided(v.clone()));
                    }
                    return Some(v.clone());
                }
                return None;
            }
            Some((from, FloodSetMsg::Round { r, values })) if self.decision.is_none() => {
                if *r == self.round {
                    self.absorb(from, values.clone());
                } else if *r > self.round {
                    self.buffered.push((*r, from, values.clone()));
                }
                // Older rounds are stale: discard (crucial for
                // uniformity — late floods from crashed processes must
                // not contaminate settled value sets).
            }
            _ => {}
        }
        if self.decision.is_some() {
            return None;
        }
        // Send this round's flood once.
        if !self.sent_this_round {
            self.sent_this_round = true;
            out.broadcast(FloodSetMsg::Round {
                r: self.round,
                values: self.values.iter().cloned().collect(),
            });
        }
        // Advance when every non-suspected process has been heard;
        // decide after the exhaustive bound (or the early rule).
        if self.wait_satisfied(suspects) {
            if self.stable_twice() || self.round as usize >= self.n {
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

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn single_process_decides_its_own_value() {
        let mut c: FloodSetConsensus<u64> = FloodSetConsensus::new(p(0), 1, 42);
        let mut out = Outbox::new(p(0), 1);
        // First step sends the flood; own message not yet delivered.
        assert_eq!(c.step(None, ProcessSet::empty(), &mut out), None);
        // Deliver own round-1 message: the wait closes and round 1 = n,
        // so the process decides.
        let msg = FloodSetMsg::Round {
            r: 1,
            values: vec![42],
        };
        let mut out2 = Outbox::new(p(0), 1);
        assert_eq!(
            c.step(Some((p(0), &msg)), ProcessSet::empty(), &mut out2),
            Some(42)
        );
        assert_eq!(c.decision(), Some(&42));
    }

    #[test]
    fn suspected_processes_are_not_waited_for() {
        let mut c: FloodSetConsensus<u64> = FloodSetConsensus::new(p(0), 2, 5);
        let everyone_else = ProcessSet::singleton(p(1));
        let mut out = Outbox::new(p(0), 2);
        c.step(None, everyone_else, &mut out);
        // p1 suspected; own message still outstanding.
        assert_eq!(c.decision(), None);
        let own = FloodSetMsg::Round {
            r: 1,
            values: vec![5],
        };
        let mut out2 = Outbox::new(p(0), 2);
        c.step(Some((p(0), &own)), everyone_else, &mut out2);
        // Round 2 of 2 still pending: need own round-2 message.
        let own2 = FloodSetMsg::Round {
            r: 2,
            values: vec![5],
        };
        let mut out3 = Outbox::new(p(0), 2);
        let d = c.step(Some((p(0), &own2)), everyone_else, &mut out3);
        assert_eq!(d, Some(5));
    }

    #[test]
    fn decided_message_short_circuits() {
        let mut c: FloodSetConsensus<u64> = FloodSetConsensus::new(p(1), 3, 9);
        let mut out = Outbox::new(p(1), 3);
        let d = c.step(
            Some((p(0), &FloodSetMsg::Decided(3))),
            ProcessSet::empty(),
            &mut out,
        );
        assert_eq!(d, Some(3));
        // The decision is relayed exactly once.
        assert_eq!(out.drain().len(), 3);
        let mut out2 = Outbox::new(p(1), 3);
        let again = c.step(
            Some((p(2), &FloodSetMsg::Decided(3))),
            ProcessSet::empty(),
            &mut out2,
        );
        assert_eq!(again, None);
        assert!(out2.drain().is_empty());
    }

    #[test]
    fn future_round_messages_are_buffered_not_lost() {
        let mut c: FloodSetConsensus<u64> = FloodSetConsensus::new(p(0), 2, 7);
        let mut out = Outbox::new(p(0), 2);
        // p1 races ahead: its round-2 message arrives while we are in
        // round 1.
        let future = FloodSetMsg::Round {
            r: 2,
            values: vec![1],
        };
        c.step(Some((p(1), &future)), ProcessSet::empty(), &mut out);
        assert!(!c.values.contains(&1), "future values must not merge early");
        // Round-1 messages from both close round 1.
        let r1_own = FloodSetMsg::Round {
            r: 1,
            values: vec![7],
        };
        let r1_p1 = FloodSetMsg::Round {
            r: 1,
            values: vec![1],
        };
        let mut o = Outbox::new(p(0), 2);
        c.step(Some((p(0), &r1_own)), ProcessSet::empty(), &mut o);
        let mut o = Outbox::new(p(0), 2);
        c.step(Some((p(1), &r1_p1)), ProcessSet::empty(), &mut o);
        // Entering round 2 replays the buffered message.
        assert_eq!(c.round, 2);
        assert!(c.received.contains(p(1)));
        assert!(c.values.contains(&1));
    }

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
