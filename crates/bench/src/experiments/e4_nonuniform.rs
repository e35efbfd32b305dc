//! E4 — §6.2: uniform consensus is strictly harder than
//! correct-restricted consensus.
//!
//! The `P<`-based algorithm is run (a) under random crash patterns and
//! (b) under the paper's witness schedule (`p₀` decides, crashes, and
//! its announcement is delayed past `p₁`'s suspicion). Correct-restricted
//! consensus must always hold; uniform agreement must break in (b).

use crate::table::{pct, Table};
use rfd_algo::check::check_consensus;
use rfd_algo::consensus::{ConsensusAutomaton, RankedConsensus};
use rfd_core::oracles::{Oracle, RankedOracle};
use rfd_core::{FailurePattern, ProcessId, Time};
use rfd_sim::campaign::{seed_rng, Campaign, RunPlan};
use rfd_sim::{ticks_for_rounds, Adversary, SimConfig, StopCondition};

const ROUNDS: u64 = 600;

/// Sweeps one scenario, counting `(correct_restricted_ok, uniform_ok)`.
fn sweep(
    base: SimConfig,
    pattern_of: impl Fn(u64) -> FailurePattern + Sync,
    seeds: u64,
) -> (usize, usize) {
    let oracle = RankedOracle::new(5, 2);
    let n = 4;
    let props: Vec<u64> = vec![100, 200, 300, 400];
    let horizon = ticks_for_rounds(n, ROUNDS);
    let verdicts: Vec<(bool, bool)> = Campaign::new(base).seeds(0..seeds).run(
        |seed, config| {
            let pattern = pattern_of(seed);
            RunPlan {
                oracle: oracle.generate(&pattern, horizon, seed),
                automata: ConsensusAutomaton::<RankedConsensus<u64>>::fleet(&props),
                pattern,
                config,
            }
        },
        |_seed, pattern, result| {
            let v = check_consensus(pattern, &result.trace, &props);
            (
                v.is_correct_restricted_consensus(),
                v.is_uniform_consensus(),
            )
        },
    );
    (
        verdicts.iter().filter(|(cr, _)| *cr).count(),
        verdicts.iter().filter(|(_, uni)| *uni).count(),
    )
}

/// Runs E4 and returns the result table.
#[must_use]
pub fn run_experiment() -> Table {
    let seeds = 50;
    let mut table = Table::new(
        "E4 — P< separates uniform from correct-restricted consensus (§6.2)",
        &[
            "scenario",
            "correct-restricted holds",
            "uniform holds",
            "uniform violations",
        ],
    );
    let n = 4;

    // (a) Random patterns, no adversary.
    let (cr_ok, uni_ok) = sweep(
        SimConfig::new(0, ROUNDS).with_stop(StopCondition::EachCorrectOutput(1)),
        |seed| {
            let mut rng = seed_rng(0xE4, seed);
            FailurePattern::random(n, n - 1, Time::new(ROUNDS), &mut rng)
        },
        seeds,
    );
    table.push(vec![
        "random patterns".into(),
        pct(cr_ok, seeds as usize),
        pct(uni_ok, seeds as usize),
        (seeds as usize - uni_ok).to_string(),
    ]);

    // (b) The witness schedule: p0 decides its own value, crashes, and
    // its announcement is held past p1's suspicion.
    let (cr_ok, uni_ok) = sweep(
        SimConfig::new(0, ROUNDS)
            .with_adversary(Adversary::HoldFrom(ProcessId::new(0), Time::new(500)))
            .with_stop(StopCondition::EachCorrectOutput(1)),
        |_seed| FailurePattern::new(n).with_crash(ProcessId::new(0), Time::new(4)),
        seeds,
    );
    table.push(vec![
        "witness: p0 decides+crashes, announcement held".into(),
        pct(cr_ok, seeds as usize),
        pct(uni_ok, seeds as usize),
        (seeds as usize - uni_ok).to_string(),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_correct_restricted_always_uniform_breaks_in_witness() {
        let table = run_experiment();
        let text = table.render();
        let witness: Vec<&str> = text.lines().filter(|l| l.contains("witness")).collect();
        assert_eq!(witness.len(), 1);
        // Correct-restricted holds 100%, uniform 0% in the witness runs.
        assert!(witness[0].contains("100.0%"), "{}", witness[0]);
        assert!(witness[0].contains("0.0%"), "{}", witness[0]);
        let random: Vec<&str> = text.lines().filter(|l| l.contains("random")).collect();
        assert!(random[0].contains("100.0%"), "{}", random[0]);
    }
}
