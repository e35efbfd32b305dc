//! E10 — the class lattice: containments and strictness witnesses.
//!
//! Sanity layer under the paper's §2.5 reduction order: every oracle
//! history respects the containment edges, and each edge is *strict* —
//! a concrete history separates the two classes.

use crate::table::Table;
use rfd_core::oracles::{
    EventuallyPerfectOracle, EventuallyStrongOracle, MaraboutOracle, Oracle, PerfectOracle,
    RankedOracle,
};
use rfd_core::{
    class_report, respects_lattice, CheckParams, ClassId, FailurePattern, ProcessId, Time,
    IMPLICATIONS,
};
use rfd_sim::campaign::{seed_rng, Campaign};

const HORIZON: u64 = 500;

/// Runs E10 and returns the result table.
#[must_use]
pub fn run_experiment() -> Table {
    let runs = 50;
    let horizon = Time::new(HORIZON);
    let params = CheckParams::with_margin(horizon, 50);
    let mut table = Table::new(
        "E10 — class lattice: containment compliance and strictness",
        &["check", "witness oracle", "verdict"],
    );
    // Containment compliance across the battery.
    let perfect = PerfectOracle::new(5, 3);
    let evp = EventuallyPerfectOracle::new(Time::new(80), 5, 3);
    let evs = EventuallyStrongOracle::new(4);
    let ranked = RankedOracle::new(5, 3);
    let marabout = MaraboutOracle::new();
    let violations: usize = Campaign::sweep(0..runs)
        .map(|seed| {
            let mut rng = seed_rng(0xEA, seed);
            let f = FailurePattern::random(6, 5, Time::new(HORIZON / 2), &mut rng);
            [
                class_report(&f, &perfect.generate(&f, horizon, seed), &params),
                class_report(&f, &evp.generate(&f, horizon, seed), &params),
                class_report(&f, &evs.generate(&f, horizon, seed), &params),
                class_report(&f, &ranked.generate(&f, horizon, seed), &params),
                class_report(&f, &marabout.generate(&f, horizon, seed), &params),
            ]
            .iter()
            .filter(|report| respects_lattice(report).is_err())
            .count()
        })
        .into_iter()
        .sum();
    table.push(vec![
        format!(
            "containment edges {:?} over {} histories",
            IMPLICATIONS.len(),
            runs * 5
        ),
        "battery".into(),
        if violations == 0 {
            "all respected".into()
        } else {
            format!("{violations} VIOLATIONS")
        },
    ]);
    // Strictness witnesses.
    let f_late = FailurePattern::new(4).with_crash(ProcessId::new(1), Time::new(100));
    let m = class_report(&f_late, &marabout.generate(&f_late, horizon, 0), &params);
    table.push(vec![
        "P ⊋ S".into(),
        "marabout".into(),
        verdict(m.is_in(ClassId::Strong) && !m.is_in(ClassId::Perfect)),
    ]);
    let f_top = FailurePattern::new(4).with_crash(ProcessId::new(3), Time::new(100));
    let r = class_report(&f_top, &ranked.generate(&f_top, horizon, 0), &params);
    table.push(vec![
        "P ⊋ P<".into(),
        "partially-perfect".into(),
        verdict(r.is_in(ClassId::PartiallyPerfect) && !r.is_in(ClassId::Perfect)),
    ]);
    let f_one = FailurePattern::new(4).with_crash(ProcessId::new(0), Time::new(50));
    let e = class_report(&f_one, &evs.generate(&f_one, horizon, 0), &params);
    table.push(vec![
        "◇P ⊋ ◇S".into(),
        "eventually-strong".into(),
        verdict(e.is_in(ClassId::EventuallyStrong) && !e.is_in(ClassId::EventuallyPerfect)),
    ]);
    let ep = class_report(&f_one, &evp.generate(&f_one, horizon, 0), &params);
    table.push(vec![
        "P ⊋ ◇P".into(),
        "eventually-perfect".into(),
        verdict(ep.is_in(ClassId::EventuallyPerfect) && !ep.is_in(ClassId::Perfect)),
    ]);
    table
}

fn verdict(ok: bool) -> String {
    if ok {
        "strict (witness found)".into()
    } else {
        "FAILED".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10_all_checks_pass() {
        let table = run_experiment();
        let text = table.render();
        assert!(text.contains("all respected"), "{text}");
        assert!(!text.contains("FAILED"), "{text}");
        assert!(!text.contains("VIOLATIONS"), "{text}");
    }
}
