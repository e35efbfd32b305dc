//! E9 — who wins where: the `f` sweep and the `◇S` crossover.
//!
//! Decision latency (global ticks until the last correct process
//! decides), message cost, and termination rate for the three consensus
//! stacks as `f` grows from 0 to `n − 1`. The paper's prediction: the
//! `◇S`-based stack is competitive while `f < ⌈n/2⌉` and stops
//! terminating at the majority boundary, while the realistic-`P` stacks
//! keep terminating all the way to `f = n − 1` — the collapse in action.

use crate::table::{pct, Table};
use rfd_algo::check::check_consensus;
use rfd_algo::consensus::{
    ConsensusAutomaton, ConsensusCore, FloodSetConsensus, RotatingConsensus, StrongConsensus,
};
use rfd_core::oracles::{EventuallyStrongOracle, Oracle, PerfectOracle};
use rfd_core::{FailurePattern, ProcessId, Time};
use rfd_sim::campaign::{Campaign, RunPlan};
use rfd_sim::{ticks_for_rounds, SimConfig, StopCondition};

pub(super) const ROUNDS: u64 = 800;

/// One sweep cell: how many seeds terminated, and the sums their means
/// are taken over.
pub(super) struct Row {
    pub(super) terminated: usize,
    runs: usize,
    pub(super) latency_sum: u64,
    pub(super) latency_count: u64,
    msgs_sum: u64,
}

/// Runs `seeds` seeds of `C` at `n` with `f` staggered crashes, asserting
/// on every seed that uniform agreement and validity hold (terminated or
/// not); E9b runs its ablation through it too.
pub(super) fn sweep<C: ConsensusCore<Val = u64>>(
    n: usize,
    f: usize,
    history_of: impl Fn(&FailurePattern, u64) -> rfd_core::History<rfd_core::ProcessSet> + Sync,
    seeds: u64,
) -> Row {
    let props: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
    // f crashes staggered over the early run.
    let mut pattern = FailurePattern::new(n);
    for k in 0..f {
        pattern.set_crash(ProcessId::new(k), Time::new(20 + 30 * k as u64));
    }
    let base = SimConfig::new(0, ROUNDS).with_stop(StopCondition::EachCorrectOutput(1));
    // Per seed: None if not terminated, else (last decision tick, msgs).
    let per_seed: Vec<Option<(u64, u64)>> = Campaign::new(base).seeds(0..seeds).run(
        |seed, config| RunPlan {
            pattern: pattern.clone(),
            oracle: history_of(&pattern, seed),
            automata: ConsensusAutomaton::<C>::fleet(&props),
            config,
        },
        |seed, pattern, result| {
            let verdict = check_consensus(pattern, &result.trace, &props);
            assert!(
                verdict.uniform_agreement.is_ok() && verdict.validity.is_ok(),
                "consensus must stay safe: n={n} f={f} seed={seed}: {verdict:?}"
            );
            verdict.termination.is_ok().then(|| {
                let last_decision = result
                    .trace
                    .first_outputs(n)
                    .into_iter()
                    .flatten()
                    .filter(|e| pattern.correct().contains(e.process))
                    .map(|e| e.time.ticks())
                    .max()
                    .unwrap_or(0);
                (last_decision, result.trace.messages_sent)
            })
        },
    );
    let mut row = Row {
        terminated: 0,
        runs: seeds as usize,
        latency_sum: 0,
        latency_count: 0,
        msgs_sum: 0,
    };
    for (latency, msgs) in per_seed.into_iter().flatten() {
        row.terminated += 1;
        row.latency_sum += latency;
        row.latency_count += 1;
        row.msgs_sum += msgs;
    }
    row
}

/// Runs E9 and returns the result table.
#[must_use]
pub fn run_experiment() -> Table {
    let seeds = 20;
    let n = 6;
    let mut table = Table::new(
        "E9 — consensus under the f sweep (n=6): the ◇S majority crossover",
        &[
            "algorithm",
            "detector",
            "f",
            "terminated",
            "mean latency (ticks)",
            "mean msgs",
        ],
    );
    let perfect = PerfectOracle::new(6, 3);
    let evs = EventuallyStrongOracle::new(8);
    let horizon = ticks_for_rounds(n, ROUNDS);
    for f in 0..n {
        for (name, detector, row) in [
            (
                "floodset",
                "P",
                sweep::<FloodSetConsensus<u64>>(
                    n,
                    f,
                    |p, s| perfect.generate(p, horizon, s),
                    seeds,
                ),
            ),
            (
                "ct-strong",
                "S∩R (=P)",
                sweep::<StrongConsensus<u64>>(n, f, |p, s| perfect.generate(p, horizon, s), seeds),
            ),
            (
                "ct-rotating",
                "◇S",
                sweep::<RotatingConsensus<u64>>(n, f, |p, s| evs.generate(p, horizon, s), seeds),
            ),
        ] {
            let latency = if row.latency_count > 0 {
                format!("{:.0}", row.latency_sum as f64 / row.latency_count as f64)
            } else {
                "—".into()
            };
            let msgs = if row.latency_count > 0 {
                format!("{:.0}", row.msgs_sum as f64 / row.latency_count as f64)
            } else {
                "—".into()
            };
            table.push(vec![
                name.into(),
                detector.into(),
                f.to_string(),
                pct(row.terminated, row.runs),
                latency,
                msgs,
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_rotating_crosses_over_at_the_majority_boundary() {
        let seeds = 5;
        let n = 6;
        let horizon = ticks_for_rounds(n, ROUNDS);
        let perfect = PerfectOracle::new(6, 3);
        let evs = EventuallyStrongOracle::new(8);
        // f = 2 < n/2: ◇S terminates.
        let below =
            sweep::<RotatingConsensus<u64>>(n, 2, |p, s| evs.generate(p, horizon, s), seeds);
        assert_eq!(below.terminated, below.runs, "◇S must work below majority");
        // f = 3 = n/2: ◇S cannot terminate.
        let at = sweep::<RotatingConsensus<u64>>(n, 3, |p, s| evs.generate(p, horizon, s), seeds);
        assert_eq!(at.terminated, 0, "◇S must block at the majority boundary");
        // The P-based stack keeps terminating at f = n−1.
        let p_max = sweep::<FloodSetConsensus<u64>>(
            n,
            n - 1,
            |p, s| perfect.generate(p, horizon, s),
            seeds,
        );
        assert_eq!(p_max.terminated, p_max.runs, "P works for any f");
    }
}
