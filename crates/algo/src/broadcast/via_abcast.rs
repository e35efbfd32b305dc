//! Consensus from atomic broadcast — the easy direction of the §1.1
//! equivalence.
//!
//! "Solving [atomic broadcast] is known to be equivalent to solving the
//! consensus problem" (§1.1, after Chandra–Toueg). The transformation in
//! this direction is one line of protocol: **propose** by atomically
//! broadcasting your value, **decide** the first value A-delivered.
//! Total order makes everyone's "first" identical; validity follows from
//! the broadcast's no-creation property. Together with
//! [`super::AtomicBroadcast`] (consensus → atomic broadcast) this closes
//! the equivalence loop executable both ways.

use super::atomic::{AbDelivery, AbMsg, AtomicBroadcast};
use rfd_core::ProcessId;
use rfd_sim::{Automaton, Envelope, StepContext};

/// Consensus automaton built on an embedded [`AtomicBroadcast`].
#[derive(Debug)]
pub struct ConsensusViaAbcast<V: Clone + Eq + Ord> {
    inner: AtomicBroadcast<V>,
    decision: Option<V>,
}

impl<V: Clone + Eq + Ord> ConsensusViaAbcast<V> {
    /// Creates the process `me` of `n` proposing `proposal`.
    #[must_use]
    pub fn new(me: ProcessId, n: usize, proposal: V) -> Self {
        Self {
            inner: AtomicBroadcast::new(me, n, vec![proposal]),
            decision: None,
        }
    }

    /// Builds the fleet from a proposal vector.
    #[must_use]
    pub fn fleet(proposals: &[V]) -> Vec<Self> {
        let n = proposals.len();
        proposals
            .iter()
            .enumerate()
            .map(|(ix, v)| Self::new(ProcessId::new(ix), n, v.clone()))
            .collect()
    }

    /// The decision, if reached.
    #[must_use]
    pub fn decision(&self) -> Option<&V> {
        self.decision.as_ref()
    }
}

impl<V: Clone + Eq + Ord> Automaton for ConsensusViaAbcast<V> {
    type Msg = AbMsg<V>;
    type Output = V;

    fn on_step(
        &mut self,
        input: Option<&Envelope<Self::Msg>>,
        ctx: &mut StepContext<Self::Msg, Self::Output>,
    ) {
        // Drive the inner broadcast, capturing its deliveries.
        let mut carrier: StepContext<AbMsg<V>, AbDelivery<V>> =
            StepContext::new_for_embedding(ctx.me(), ctx.num_processes(), ctx.suspects());
        self.inner.on_step(input, &mut carrier);
        let (sends, deliveries) = carrier.into_effects();
        for (to, msg) in sends {
            ctx.send(to, msg);
        }
        for d in deliveries {
            if self.decision.is_none() {
                // Decide the FIRST A-delivered value.
                self.decision = Some(d.value.clone());
                ctx.output(d.value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_consensus;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rfd_core::oracles::{Oracle, PerfectOracle};
    use rfd_core::{FailurePattern, Time};
    use rfd_sim::{run, ticks_for_rounds, SimConfig, StopCondition};

    #[test]
    fn consensus_via_abcast_is_uniform_consensus() {
        let mut rng = StdRng::seed_from_u64(0xAB2);
        let oracle = PerfectOracle::new(6, 3);
        let rounds = 2_000u64;
        for seed in 0..10u64 {
            let n = 4;
            let pattern = FailurePattern::random(n, n - 1, Time::new(300), &mut rng);
            let history = oracle.generate(&pattern, ticks_for_rounds(n, rounds), seed);
            let props: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
            let automata = ConsensusViaAbcast::fleet(&props);
            let config =
                SimConfig::new(seed, rounds).with_stop(StopCondition::EachCorrectOutput(1));
            let result = run(&pattern, &history, automata, &config);
            let v = check_consensus(&pattern, &result.trace, &props);
            assert!(
                v.is_uniform_consensus(),
                "seed={seed} pattern={pattern:?}: {v:?}"
            );
        }
    }

    #[test]
    fn decides_exactly_once() {
        let n = 3;
        let pattern = FailurePattern::new(n);
        let oracle = PerfectOracle::new(6, 3);
        let rounds = 2_000u64;
        let history = oracle.generate(&pattern, ticks_for_rounds(n, rounds), 1);
        let props: Vec<u64> = vec![1, 2, 3];
        let automata = ConsensusViaAbcast::fleet(&props);
        let config = SimConfig::new(1, rounds).with_stop(StopCondition::EachCorrectOutput(1));
        let result = run(&pattern, &history, automata, &config);
        for ix in 0..n {
            assert!(
                result.trace.outputs_of(ProcessId::new(ix)).count() <= 1,
                "p{ix} decided more than once"
            );
        }
    }
}
