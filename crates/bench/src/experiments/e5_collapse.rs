//! E5 — §6.3: among realistic detectors, `S` collapses into `P`
//! (`S ∩ R ⊂ P`).
//!
//! Every oracle in the battery is classified (over random patterns) and
//! checked for realism. The table shows the collapse: each oracle that
//! is Strong **and** realistic is also Perfect; the only Strong-not-
//! Perfect oracles are the clairvoyant ones, which fail the realism
//! check.

use crate::table::Table;
use rfd_core::oracles::{
    EventuallyPerfectOracle, EventuallyStrongOracle, MaraboutOracle, Oracle, PerfectOracle,
    RankedOracle, StrongOracle,
};
use rfd_core::realism::{check_realism, RealismCheck};
use rfd_core::{class_report, CheckParams, ClassId, FailurePattern, Time};
use rfd_sim::campaign::{seed_rng, Campaign};

const HORIZON: u64 = 500;

struct OracleRow {
    name: &'static str,
    in_p: usize,
    in_s: usize,
    in_evp: usize,
    in_evs: usize,
    in_pl: usize,
    runs: usize,
    realistic: bool,
}

/// Per-seed class membership bits: `(P, S, ◇P, ◇S, P<)`.
type Membership = (bool, bool, bool, bool, bool);

fn classify<O: Oracle<Value = rfd_core::ProcessSet> + Sync>(
    oracle: &O,
    stream: u64,
    runs: usize,
) -> OracleRow {
    let horizon = Time::new(HORIZON);
    let params = CheckParams::with_margin(horizon, 50);
    let memberships: Vec<Membership> = Campaign::sweep(0..runs as u64).map(|seed| {
        let mut rng = seed_rng(stream, seed);
        let pattern = FailurePattern::random(6, 5, Time::new(HORIZON / 2), &mut rng);
        let h = oracle.generate(&pattern, horizon, seed);
        let report = class_report(&pattern, &h, &params);
        (
            report.is_in(ClassId::Perfect),
            report.is_in(ClassId::Strong),
            report.is_in(ClassId::EventuallyPerfect),
            report.is_in(ClassId::EventuallyStrong),
            report.is_in(ClassId::PartiallyPerfect),
        )
    });
    let battery = RealismCheck::new(horizon, 4, 16);
    let mut rng = seed_rng(stream ^ 0x5EA1, 0);
    OracleRow {
        name: oracle.name(),
        in_p: memberships.iter().filter(|m| m.0).count(),
        in_s: memberships.iter().filter(|m| m.1).count(),
        in_evp: memberships.iter().filter(|m| m.2).count(),
        in_evs: memberships.iter().filter(|m| m.3).count(),
        in_pl: memberships.iter().filter(|m| m.4).count(),
        runs,
        realistic: check_realism(oracle, 5, 15, &battery, &mut rng).is_ok(),
    }
}

/// Runs E5 and returns the result table.
#[must_use]
pub fn run_experiment() -> Table {
    let runs = 30;
    let mut table = Table::new(
        "E5 — the collapse S ∩ R ⊂ P (§6.3): class membership × realism",
        &["oracle", "P", "S", "◇P", "◇S", "P<", "realistic"],
    );
    let rows = vec![
        classify(&PerfectOracle::new(5, 3), 0xE5_01, runs),
        classify(
            &EventuallyPerfectOracle::new(Time::new(80), 5, 3),
            0xE5_02,
            runs,
        ),
        classify(&EventuallyStrongOracle::new(4), 0xE5_03, runs),
        classify(&RankedOracle::new(5, 3), 0xE5_04, runs),
        classify(&StrongOracle::new(4, Time::new(60)), 0xE5_05, runs),
        classify(&MaraboutOracle::new(), 0xE5_06, runs),
    ];
    for r in rows {
        table.push(vec![
            r.name.into(),
            format!("{}/{}", r.in_p, r.runs),
            format!("{}/{}", r.in_s, r.runs),
            format!("{}/{}", r.in_evp, r.runs),
            format!("{}/{}", r.in_evs, r.runs),
            format!("{}/{}", r.in_pl, r.runs),
            if r.realistic {
                "yes"
            } else {
                "NO (clairvoyant)"
            }
            .into(),
        ]);
    }
    table
}

/// Checks the collapse statement on the classification data: every
/// realistic oracle that was always Strong was also always Perfect.
#[must_use]
pub fn collapse_holds() -> bool {
    let runs = 30;
    let perfect = classify(&PerfectOracle::new(5, 3), 0xE5_01, runs);
    let strong = classify(&StrongOracle::new(4, Time::new(60)), 0xE5_05, runs);
    let marabout = classify(&MaraboutOracle::new(), 0xE5_06, runs);
    // Realistic & Strong ⇒ Perfect…
    let realistic_ok = perfect.realistic && perfect.in_s == runs && perfect.in_p == runs;
    // …and each Strong-not-Perfect oracle is non-realistic.
    let strong_gap = strong.in_s == runs && strong.in_p < runs && !strong.realistic;
    let marabout_gap = marabout.in_s == runs && marabout.in_p < runs && !marabout.realistic;
    realistic_ok && strong_gap && marabout_gap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5_collapse_statement_holds() {
        assert!(collapse_holds());
    }

    #[test]
    fn e5_table_has_all_oracles() {
        let table = run_experiment();
        assert_eq!(table.len(), 6);
        let text = table.render();
        assert!(text.contains("marabout"));
        assert!(text.contains("NO (clairvoyant)"));
    }
}
