//! E3 — Proposition 5.1: TRB over `P`, and `P` back from TRB.
//!
//! Three scenarios per system size (correct initiator; initiator crashes
//! before sending; initiator crashes mid-broadcast), plus the TRB→`P`
//! emulation verdict.

use crate::table::{pct, Table};
use rfd_algo::check::check_trb;
use rfd_algo::reduction::TrbEmulation;
use rfd_algo::trb::TrbProcess;
use rfd_core::oracles::{Oracle, PerfectOracle};
use rfd_core::{class_report, CheckParams, ClassId, FailurePattern, ProcessId, Time};
use rfd_sim::campaign::{Campaign, RunPlan};
use rfd_sim::{run, ticks_for_rounds, SimConfig, StopCondition};

const ROUNDS: u64 = 700;

/// What one seeded TRB run produced: `(trb_holds, delivered)` where the
/// delivery is `Some(Some(_))` for the message, `Some(None)` for nil.
type TrbVerdict = (bool, Option<Option<u64>>);

fn trb_scenario(n: usize, crash_at: Option<Time>, seeds: u64) -> (usize, usize, usize, usize) {
    let oracle = PerfectOracle::new(8, 4);
    let initiator = ProcessId::new(0);
    let mut pattern = FailurePattern::new(n);
    if let Some(t) = crash_at {
        pattern.set_crash(initiator, t);
    }
    let base = SimConfig::new(0, ROUNDS).with_stop(StopCondition::EachCorrectOutput(1));
    let verdicts: Vec<TrbVerdict> = Campaign::new(base).seeds(0..seeds).run(
        |seed, config| RunPlan {
            pattern: pattern.clone(),
            oracle: oracle.generate(&pattern, ticks_for_rounds(n, ROUNDS), seed),
            automata: TrbProcess::fleet(n, initiator, 777u64),
            config,
        },
        |_seed, pattern, result| {
            let verdict = check_trb(pattern, &result.trace, initiator, &777);
            (
                verdict.is_trb(),
                result.trace.events.first().map(|e| e.value),
            )
        },
    );
    let ok = verdicts.iter().filter(|(ok, _)| *ok).count();
    let msg_runs = verdicts
        .iter()
        .filter(|(_, d)| matches!(d, Some(Some(_))))
        .count();
    let nil_runs = verdicts
        .iter()
        .filter(|(_, d)| matches!(d, Some(None)))
        .count();
    (ok, msg_runs, nil_runs, seeds as usize)
}

/// Runs E3 and returns the result table.
#[must_use]
pub fn run_experiment() -> Table {
    let seeds = 25;
    let mut table = Table::new(
        "E3 — terminating reliable broadcast over P (Prop 5.1)",
        &[
            "n",
            "scenario",
            "TRB holds",
            "delivered msg",
            "delivered nil",
        ],
    );
    for n in [4usize, 8] {
        for (label, crash) in [
            ("initiator correct", None),
            ("crash before send", Some(Time::ZERO)),
            ("crash mid-broadcast", Some(Time::new(3))),
        ] {
            let (ok, msg_runs, nil_runs, runs) = trb_scenario(n, crash, seeds);
            table.push(vec![
                n.to_string(),
                label.into(),
                pct(ok, runs),
                msg_runs.to_string(),
                nil_runs.to_string(),
            ]);
        }
    }
    // TRB → P emulation.
    let oracle = PerfectOracle::new(6, 3);
    let pattern = FailurePattern::new(4)
        .with_crash(ProcessId::new(1), Time::new(250))
        .with_crash(ProcessId::new(3), Time::new(600));
    let rounds = 1_500u64;
    let history = oracle.generate(&pattern, ticks_for_rounds(4, rounds), 1);
    let automata = TrbEmulation::fleet(4);
    let result = run(&pattern, &history, automata, &SimConfig::new(1, rounds));
    let emulated = result.emulated.expect("output(P)");
    let end = result.trace.end_time;
    let report = class_report(
        &pattern,
        &emulated,
        &CheckParams::with_margin(end, end.ticks() / 8),
    );
    table.push(vec![
        "4".into(),
        "TRB→P emulation (2 crashes)".into(),
        if report.is_in(ClassId::Perfect) {
            "100.0%".into()
        } else {
            "FAILED".into()
        },
        "-".into(),
        "-".into(),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_trb_holds_in_every_scenario() {
        let table = run_experiment();
        let text = table.render();
        assert_eq!(table.len(), 7);
        for l in text
            .lines()
            .filter(|l| l.starts_with("| 4") || l.starts_with("| 8"))
        {
            assert!(l.contains("100.0%"), "TRB must hold: {l}");
        }
        // Crash-before-send ⇒ nil always; correct initiator ⇒ msg always.
        let before: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("crash before send"))
            .collect();
        for l in before {
            assert!(l.contains("| 0 "), "no msg deliveries expected: {l}");
        }
    }
}
