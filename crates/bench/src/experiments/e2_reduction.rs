//! E2 — Lemma 4.2 / Proposition 4.3: `T_{D⇒P}` emulates `P`.
//!
//! For each `(n, f)` we run the reduction over the flood-set total
//! consensus, check the emulated history against the Perfect class
//! predicates, and measure the emulation's detection latency (crash →
//! first emulated suspicion at a correct process) together with the
//! number of consensus instances the run completed.

use crate::table::Table;
use rfd_algo::consensus::FloodSetConsensus;
use rfd_algo::reduction::PerfectEmulation;
use rfd_core::oracles::{Oracle, PerfectOracle};
use rfd_core::properties::first_suspicion;
use rfd_core::{class_report, CheckParams, ClassId, FailurePattern, ProcessId, Time};
use rfd_sim::campaign::{Campaign, RunPlan};
use rfd_sim::{ticks_for_rounds, SimConfig};

const ROUNDS: u64 = 900;

/// Runs E2 and returns the result table.
#[must_use]
pub fn run_experiment() -> Table {
    let seeds = 10;
    let mut table = Table::new(
        "E2 — T_{D⇒P} reduction quality (Lemma 4.2 / Prop 4.3)",
        &[
            "n",
            "f",
            "emulated class P",
            "mean detection (ticks)",
            "mean instances/run",
        ],
    );
    let oracle = PerfectOracle::new(6, 3);
    for n in [4usize, 8] {
        for f in [0usize, 1, n / 2, n - 1] {
            // Spread f crashes over the first half of the run.
            let mut pattern = FailurePattern::new(n);
            for k in 0..f {
                let at = Time::new(100 + (k as u64) * 150);
                pattern.set_crash(ProcessId::new(k), at);
            }
            let horizon = ticks_for_rounds(n, ROUNDS);
            let per_seed: Vec<(bool, Vec<u64>, u64)> = Campaign::new(SimConfig::new(0, ROUNDS))
                .seeds(0..seeds)
                .run(
                    |seed, config| RunPlan {
                        pattern: pattern.clone(),
                        oracle: oracle.generate(&pattern, horizon, seed),
                        automata: PerfectEmulation::<FloodSetConsensus<u64>>::fleet(n),
                        config,
                    },
                    |_seed, pattern, result| {
                        let emulated = result.emulated.expect("output(P) exposed");
                        let end = result.trace.end_time;
                        let params = CheckParams::with_margin(end, end.ticks() / 10);
                        let report = class_report(pattern, &emulated, &params);
                        // Detection latency of the emulation.
                        let mut latencies = Vec::new();
                        for k in 0..f {
                            let crashed = ProcessId::new(k);
                            let ct = pattern.crash_time(crashed).expect("scheduled");
                            for obs in pattern.correct() {
                                if let Some(t) = first_suspicion(&emulated, obs, crashed, end) {
                                    latencies.push(t.since(ct));
                                }
                            }
                        }
                        let instances = result
                            .automata
                            .iter()
                            .enumerate()
                            .filter(|(ix, _)| pattern.correct().contains(ProcessId::new(*ix)))
                            .map(|(_, a)| a.completed())
                            .min()
                            .unwrap_or(0);
                        (report.is_in(ClassId::Perfect), latencies, instances)
                    },
                );
            let perfect_count = per_seed.iter().filter(|(p, _, _)| *p).count();
            let latencies: Vec<u64> = per_seed
                .iter()
                .flat_map(|(_, l, _)| l.iter().copied())
                .collect();
            let instances: Vec<u64> = per_seed.iter().map(|(_, _, i)| *i).collect();
            let mean_latency = if latencies.is_empty() {
                "n/a".to_string()
            } else {
                format!(
                    "{:.0}",
                    latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
                )
            };
            let mean_instances = format!(
                "{:.1}",
                instances.iter().sum::<u64>() as f64 / instances.len().max(1) as f64
            );
            table.push(vec![
                n.to_string(),
                f.to_string(),
                format!("{perfect_count}/{seeds}"),
                mean_latency,
                mean_instances,
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2_emulation_is_always_perfect() {
        let table = run_experiment();
        let text = table.render();
        assert_eq!(table.len(), 8);
        // Every row must report 10/10 perfect emulations.
        let data_rows: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("| 4") || l.starts_with("| 8"))
            .collect();
        assert_eq!(data_rows.len(), 8);
        for l in data_rows {
            assert!(l.contains("10/10"), "emulation must be Perfect: {l}");
        }
    }
}
