//! E9b — ablation: early-stopping vs exhaustive flood-set consensus.
//!
//! The exhaustive flood-set always runs `n` rounds; the early-stopping
//! variant decides after two participant-stable rounds. Expected shape:
//! large latency savings when failures are few (the common case), and
//! convergence of the two as `f → n − 1` (churn keeps resetting the
//! stability streak), at identical correctness.

use crate::table::{pct, Table};
use rfd_algo::check::check_consensus;
use rfd_algo::consensus::{
    ConsensusAutomaton, ConsensusCore, EarlyFloodSetConsensus, FloodSetConsensus,
};
use rfd_core::oracles::{Oracle, PerfectOracle};
use rfd_core::{FailurePattern, ProcessId, Time};
use rfd_sim::campaign::{Campaign, RunPlan};
use rfd_sim::{ticks_for_rounds, SimConfig, StopCondition};

const ROUNDS: u64 = 800;

struct Row {
    terminated: usize,
    latency_sum: u64,
    latency_count: u64,
}

fn sweep<C: ConsensusCore<Val = u64>>(n: usize, f: usize, seeds: u64) -> Row {
    let oracle = PerfectOracle::new(6, 3);
    let horizon = ticks_for_rounds(n, ROUNDS);
    let props: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
    let mut pattern = FailurePattern::new(n);
    for k in 0..f {
        pattern.set_crash(ProcessId::new(k), Time::new(20 + 30 * k as u64));
    }
    let base = SimConfig::new(0, ROUNDS).with_stop(StopCondition::EachCorrectOutput(1));
    let per_seed: Vec<Option<u64>> = Campaign::new(base).seeds(0..seeds).run(
        |seed, config| RunPlan {
            pattern: pattern.clone(),
            oracle: oracle.generate(&pattern, horizon, seed),
            automata: ConsensusAutomaton::<C>::fleet(&props),
            config,
        },
        |seed, pattern, result| {
            let verdict = check_consensus(pattern, &result.trace, &props);
            assert!(
                verdict.uniform_agreement.is_ok() && verdict.validity.is_ok(),
                "ablation must preserve safety: n={n} f={f} seed={seed}: {verdict:?}"
            );
            verdict.termination.is_ok().then(|| {
                result
                    .trace
                    .first_outputs(n)
                    .into_iter()
                    .flatten()
                    .filter(|e| pattern.correct().contains(e.process))
                    .map(|e| e.time.ticks())
                    .max()
                    .unwrap_or(0)
            })
        },
    );
    let mut row = Row {
        terminated: 0,
        latency_sum: 0,
        latency_count: 0,
    };
    for last in per_seed.into_iter().flatten() {
        row.terminated += 1;
        row.latency_sum += last;
        row.latency_count += 1;
    }
    row
}

/// Runs E9b and returns the result table.
#[must_use]
pub fn run_experiment() -> Table {
    let seeds = 20;
    let n = 8;
    let mut table = Table::new(
        "E9b — early-stopping ablation (flood-set, n=8, P oracle)",
        &[
            "f",
            "exhaustive: latency",
            "early: latency",
            "speedup",
            "both terminated",
        ],
    );
    for f in [0usize, 1, 2, 4, 7] {
        let full = sweep::<FloodSetConsensus<u64>>(n, f, seeds);
        let early = sweep::<EarlyFloodSetConsensus<u64>>(n, f, seeds);
        let mean = |r: &Row| {
            if r.latency_count > 0 {
                r.latency_sum as f64 / r.latency_count as f64
            } else {
                f64::NAN
            }
        };
        let (mf, me) = (mean(&full), mean(&early));
        table.push(vec![
            f.to_string(),
            format!("{mf:.0} ticks"),
            format!("{me:.0} ticks"),
            format!("{:.2}×", mf / me),
            pct(full.terminated.min(early.terminated), seeds as usize),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9b_early_stopping_wins_when_failure_free() {
        let full = sweep::<FloodSetConsensus<u64>>(8, 0, 5);
        let early = sweep::<EarlyFloodSetConsensus<u64>>(8, 0, 5);
        assert_eq!(full.terminated, 5);
        assert_eq!(early.terminated, 5);
        assert!(
            early.latency_sum < full.latency_sum,
            "early {} vs full {}",
            early.latency_sum,
            full.latency_sum
        );
    }

    #[test]
    fn e9b_table_is_complete() {
        let table = run_experiment();
        assert_eq!(table.len(), 5);
    }
}
