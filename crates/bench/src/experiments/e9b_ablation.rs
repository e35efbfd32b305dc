//! E9b — ablation: early-stopping vs exhaustive flood-set consensus.
//!
//! The exhaustive flood-set always runs `n` rounds; the early-stopping
//! variant decides after two participant-stable rounds. Expected shape:
//! large latency savings when failures are few (the common case), and
//! convergence of the two as `f → n − 1` (churn keeps resetting the
//! stability streak), at identical correctness.

use super::e9_crossover::{sweep, Row, ROUNDS};
use crate::table::{pct, Table};
use rfd_algo::consensus::{ConsensusCore, EarlyFloodSetConsensus, FloodSetConsensus};
use rfd_core::oracles::{Oracle, PerfectOracle};
use rfd_sim::ticks_for_rounds;

/// E9's sweep over the `P` oracle: its crash schedule, its round budget
/// and its per-seed safety assertion.
fn sweep_p<C: ConsensusCore<Val = u64>>(n: usize, f: usize, seeds: u64) -> Row {
    let oracle = PerfectOracle::new(6, 3);
    let horizon = ticks_for_rounds(n, ROUNDS);
    sweep::<C>(n, f, |p, s| oracle.generate(p, horizon, s), seeds)
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
        let full = sweep_p::<FloodSetConsensus<u64>>(n, f, seeds);
        let early = sweep_p::<EarlyFloodSetConsensus<u64>>(n, f, seeds);
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
        let full = sweep_p::<FloodSetConsensus<u64>>(8, 0, 5);
        let early = sweep_p::<EarlyFloodSetConsensus<u64>>(8, 0, 5);
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
