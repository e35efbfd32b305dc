//! E6 — §6.1: the impact of realism.
//!
//! The trivial Marabout algorithm solves consensus for any number of
//! failures when run over the clairvoyant `M`, and the realism checker
//! rejects `M` on the paper's own pattern pair. Run over a realistic
//! Perfect oracle instead, the same algorithm loses termination whenever
//! the presumed leader crashes before spreading its value — the lower
//! bound does not apply to `M` precisely because `M ∉ R`.

use crate::table::{pct, Table};
use rfd_algo::check::check_consensus;
use rfd_algo::consensus::{ConsensusAutomaton, MaraboutConsensus};
use rfd_core::oracles::{MaraboutOracle, Oracle, PerfectOracle};
use rfd_core::realism::{check_realism, marabout_pair, RealismCheck};
use rfd_core::{FailurePattern, ProcessId, Time};
use rfd_sim::campaign::{seed_rng, Campaign, RunPlan};
use rfd_sim::{ticks_for_rounds, SimConfig, StopCondition};

const ROUNDS: u64 = 500;

fn marabout_runs(
    use_marabout_oracle: bool,
    leader_crash: bool,
    seeds: u64,
    stream: u64,
) -> (usize, usize, usize) {
    let n = 5;
    let props: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
    let horizon = ticks_for_rounds(n, ROUNDS);
    let marabout = MaraboutOracle::new();
    // Slow detection so the leader choice happens before suspicion.
    let realistic = PerfectOracle::new(50, 0);
    let base = SimConfig::new(0, ROUNDS).with_stop(StopCondition::EachCorrectOutput(1));
    let verdicts: Vec<(bool, bool)> = Campaign::new(base).seeds(0..seeds).run(
        |seed, config| {
            let pattern = if leader_crash {
                FailurePattern::new(n).with_crash(ProcessId::new(0), Time::new(2))
            } else {
                let mut rng = seed_rng(stream, seed);
                FailurePattern::random(n, n - 1, Time::new(ROUNDS), &mut rng)
            };
            let oracle = if use_marabout_oracle {
                marabout.generate(&pattern, horizon, seed)
            } else {
                realistic.generate(&pattern, horizon, seed)
            };
            RunPlan {
                automata: ConsensusAutomaton::<MaraboutConsensus<u64>>::fleet(&props),
                pattern,
                oracle,
                config,
            }
        },
        |_seed, pattern, result| {
            let v = check_consensus(pattern, &result.trace, &props);
            (
                v.termination.is_ok(),
                v.uniform_agreement.is_ok() && v.validity.is_ok(),
            )
        },
    );
    let terminated = verdicts.iter().filter(|(t, _)| *t).count();
    let agreed = verdicts.iter().filter(|(_, a)| *a).count();
    (terminated, agreed, seeds as usize)
}

/// Runs E6 and returns the result table.
#[must_use]
pub fn run_experiment() -> Table {
    let seeds = 40;
    let mut table = Table::new(
        "E6 — the Marabout algorithm with and without clairvoyance (§6.1)",
        &[
            "oracle",
            "pattern",
            "terminates",
            "safe (agreement+validity)",
        ],
    );
    let (t, a, r) = marabout_runs(true, false, seeds, 0xE6_01);
    table.push(vec![
        "M (clairvoyant)".into(),
        "random, f ≤ n−1".into(),
        pct(t, r),
        pct(a, r),
    ]);
    let (t, a, r) = marabout_runs(true, true, seeds, 0xE6_02);
    table.push(vec![
        "M (clairvoyant)".into(),
        "leader crashes early".into(),
        pct(t, r),
        pct(a, r),
    ]);
    let (t, a, r) = marabout_runs(false, true, seeds, 0xE6_03);
    table.push(vec![
        "P (realistic)".into(),
        "leader crashes early".into(),
        pct(t, r),
        pct(a, r),
    ]);
    // The realism verdicts.
    let battery = RealismCheck::new(Time::new(400), 4, 16);
    let (f1, f2, t_pref) = marabout_pair(5, Time::new(10));
    let m_realistic =
        rfd_core::realism::check_pair(&MaraboutOracle::new(), &f1, &f2, t_pref, &battery).is_ok();
    let p_realistic = {
        let mut rng = seed_rng(0xE6_04, 0);
        check_realism(&PerfectOracle::new(5, 3), 5, 15, &battery, &mut rng).is_ok()
    };
    table.push(vec![
        "M (clairvoyant)".into(),
        "§3.2.2 pattern pair".into(),
        "-".into(),
        if m_realistic {
            "realistic"
        } else {
            "NOT realistic"
        }
        .into(),
    ]);
    table.push(vec![
        "P (realistic)".into(),
        "realism battery".into(),
        "-".into(),
        if p_realistic {
            "realistic"
        } else {
            "NOT realistic"
        }
        .into(),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e6_marabout_succeeds_realistic_blocks() {
        let table = run_experiment();
        let text = table.render();
        let m_rows: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("M (clairvoyant)") && l.contains("%"))
            .collect();
        for l in &m_rows {
            assert!(l.contains("100.0%"), "M-based runs must succeed: {l}");
        }
        let p_row: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("P (realistic)") && l.contains("leader"))
            .collect();
        assert!(
            p_row[0].contains("0.0%"),
            "realistic leader-crash blocks: {}",
            p_row[0]
        );
        assert!(text.contains("NOT realistic"));
    }
}
