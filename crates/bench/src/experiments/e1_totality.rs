//! E1 — Lemma 4.1: totality of consensus with realistic detectors.
//!
//! For each algorithm and system size, we run seeded consensus executions
//! under random crash patterns and report (a) how often every correct
//! process decided and (b) how often every decision was *total* (its
//! causal chain covered every non-crashed process). The realistic-`P`
//! algorithms must be 100 % total; the `◇S` baseline — run with a
//! delayed-but-correct straggler, Lemma 4.1's run `R₁` — must exhibit
//! non-total decisions.

use crate::table::{pct, Table};
use rfd_algo::check::check_consensus;
use rfd_algo::consensus::{
    ConsensusAutomaton, ConsensusCore, FloodSetConsensus, RotatingConsensus, StrongConsensus,
};
use rfd_core::oracles::{EventuallyStrongOracle, Oracle, PerfectOracle};
use rfd_core::{FailurePattern, ProcessId, Time};
use rfd_sim::campaign::{seed_rng, Campaign, RunPlan};
use rfd_sim::{ticks_for_rounds, Adversary, SimConfig, StopCondition};

const ROUNDS: u64 = 600;

struct Outcome {
    terminated: usize,
    total: usize,
    decided_runs: usize,
    runs: usize,
}

/// One seed's contribution to an [`Outcome`].
struct SeedVerdict {
    terminated: bool,
    decided: bool,
    total: bool,
}

fn sweep<C: ConsensusCore<Val = u64>>(
    n: usize,
    stream: u64,
    oracle_history: impl Fn(&FailurePattern, u64) -> rfd_core::History<rfd_core::ProcessSet> + Sync,
    adversary: Adversary,
    max_faulty: usize,
    seeds: u64,
) -> Outcome {
    let props: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
    let base = SimConfig::new(0, ROUNDS)
        .with_adversary(adversary)
        .with_stop(StopCondition::EachCorrectOutput(1));
    let verdicts: Vec<SeedVerdict> = Campaign::new(base).seeds(0..seeds).run(
        |seed, config| {
            let mut rng = seed_rng(stream, seed);
            let pattern = FailurePattern::random(n, max_faulty, Time::new(ROUNDS), &mut rng);
            let oracle = oracle_history(&pattern, seed);
            RunPlan {
                automata: ConsensusAutomaton::<C>::fleet(&props),
                pattern,
                oracle,
                config,
            }
        },
        |_seed, pattern, result| {
            let verdict = check_consensus(pattern, &result.trace, &props);
            SeedVerdict {
                terminated: verdict.termination.is_ok(),
                decided: !result.trace.events.is_empty(),
                total: result.trace.check_totality(pattern).is_ok(),
            }
        },
    );
    Outcome {
        terminated: verdicts.iter().filter(|v| v.terminated).count(),
        total: verdicts.iter().filter(|v| v.decided && v.total).count(),
        decided_runs: verdicts.iter().filter(|v| v.decided).count(),
        runs: seeds as usize,
    }
}

/// Runs E1 and returns the result table.
#[must_use]
pub fn run_experiment() -> Table {
    let seeds = 40;
    let mut table = Table::new(
        "E1 — totality of consensus decisions (Lemma 4.1)",
        &[
            "algorithm",
            "detector",
            "n",
            "adversary",
            "terminated",
            "total decisions",
        ],
    );
    let perfect = PerfectOracle::new(6, 3);
    let evs = EventuallyStrongOracle::new(8);
    for n in [4usize, 8] {
        let horizon = ticks_for_rounds(n, ROUNDS);
        let o = sweep::<FloodSetConsensus<u64>>(
            n,
            0xE1_00 + n as u64,
            |p, s| perfect.generate(p, horizon, s),
            Adversary::None,
            n - 1,
            seeds,
        );
        table.push(vec![
            "floodset".into(),
            "P".into(),
            n.to_string(),
            "none".into(),
            pct(o.terminated, o.runs),
            pct(o.total, o.decided_runs),
        ]);
        let o = sweep::<StrongConsensus<u64>>(
            n,
            0xE1_10 + n as u64,
            |p, s| perfect.generate(p, horizon, s),
            Adversary::None,
            n - 1,
            seeds,
        );
        table.push(vec![
            "ct-strong".into(),
            "S∩R (=P)".into(),
            n.to_string(),
            "none".into(),
            pct(o.terminated, o.runs),
            pct(o.total, o.decided_runs),
        ]);
        // ◇S baseline under Lemma 4.1's run R₁: a correct process whose
        // messages are delayed past the decision. Failure-free so the
        // majority requirement holds.
        let straggler = ProcessId::new(n - 1);
        let o = sweep::<RotatingConsensus<u64>>(
            n,
            0xE1_20 + n as u64,
            |p, s| evs.generate(p, horizon, s),
            Adversary::HoldFrom(straggler, horizon),
            0,
            seeds,
        );
        table.push(vec![
            "ct-rotating".into(),
            "◇S".into(),
            n.to_string(),
            format!("hold p{}", n - 1),
            pct(o.terminated, o.runs),
            pct(o.total, o.decided_runs),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_shape_matches_the_lemma() {
        let table = run_experiment();
        let text = table.render();
        // Realistic-detector algorithms: 100% total. ◇S baseline: 0%
        // total under the straggler adversary (it decides without p_{n-1}).
        assert_eq!(table.len(), 6);
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("floodset") || l.contains("ct-strong"))
            .collect();
        for l in &lines {
            assert!(l.contains("100.0%"), "total column must be 100%: {l}");
        }
        let rot: Vec<&str> = text.lines().filter(|l| l.contains("ct-rotating")).collect();
        for l in &rot {
            assert!(l.contains("0.0%"), "◇S decisions must be non-total: {l}");
        }
    }
}
