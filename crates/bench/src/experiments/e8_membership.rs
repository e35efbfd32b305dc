//! E8 — §1.3: group membership emulates `P`.
//!
//! A churn scenario (two staggered crashes) under a loss sweep. The
//! emulated history must be Perfect against the ground-truth pattern;
//! the cost columns show the price of the emulation: view changes,
//! messages, and — under aggressive timeouts with heavy loss — false
//! exclusions (correct processes sacrificed to keep suspicions accurate
//! by fiat).

use crate::estimators::Estimators;
use crate::ms;
use crate::table::Table;
use rfd_core::{class_report, CheckParams, ClassId, ProcessId, Time};
use rfd_net::estimator::{ChenEstimator, FixedTimeout};
use rfd_net::membership::{run_membership, MembershipOutcome};
use rfd_net::online::{Fault, FaultSchedule, OnlineScenario};
use rfd_sim::Campaign;

fn churn_scenario(loss: f64, seed: u64, duration_ms: u64) -> OnlineScenario {
    OnlineScenario {
        n: 5,
        schedule: FaultSchedule::new()
            .at(ms(duration_ms / 4), Fault::Crash(ProcessId::new(2)))
            .at(ms(duration_ms / 2), Fault::Crash(ProcessId::new(0))),
        period: ms(50),
        loss,
        delay: (ms(1), ms(5)),
        duration: ms(duration_ms),
        sample_every: ms(1),
        seed,
        ..OnlineScenario::default()
    }
}

fn emulation_is_perfect(outcome: &MembershipOutcome) -> bool {
    let params = CheckParams::with_margin(Time::new(outcome.duration_ms), outcome.duration_ms / 6);
    let report = class_report(&outcome.pattern, &outcome.emulated, &params);
    report.is_in(ClassId::Perfect)
}

/// Runs E8 and returns the result table.
#[must_use]
pub fn run_experiment() -> Table {
    let duration_ms = 60_000;
    let mut table = Table::new(
        "E8 — group membership emulating P (§1.3), 5 nodes, 2 crashes",
        &[
            "estimator",
            "loss",
            "emulated P",
            "view changes",
            "false exclusions",
            "messages",
        ],
    );
    // Each row is an independent 60-second virtual run — the campaign
    // sweeps the row axis. The last row is the aggressive-timeout
    // ablation: by-fiat accuracy may cost correct processes under heavy
    // loss.
    let chen = |alpha_ms: u64| Estimators::Chen(ChenEstimator::new(ms(alpha_ms), 16, ms(600)));
    let rows: [(&str, Estimators, f64, u64); 6] = [
        ("chen(α=150ms)", chen(150), 0.0, 7),
        ("chen(α=150ms)", chen(150), 0.10, 7),
        ("chen(α=150ms)", chen(150), 0.30, 7),
        ("chen(α=400ms)", chen(400), 0.10, 7),
        ("chen(α=400ms)", chen(400), 0.30, 7),
        (
            "fixed-120ms (aggressive)",
            Estimators::Fixed(FixedTimeout::new(ms(120))),
            0.30,
            11,
        ),
    ];
    let outcomes: Vec<(&str, f64, MembershipOutcome)> =
        Campaign::sweep(0..rows.len() as u64).map(|row| {
            let (name, estimator, loss, seed) = &rows[row as usize];
            let outcome = run_membership(
                estimator.clone(),
                &churn_scenario(*loss, *seed, duration_ms),
            );
            (*name, *loss, outcome)
        });
    for (name, loss, outcome) in outcomes {
        table.push(vec![
            name.to_string(),
            format!("{:.0}%", loss * 100.0),
            if emulation_is_perfect(&outcome) {
                "yes"
            } else {
                "NO"
            }
            .into(),
            outcome.view_changes.to_string(),
            outcome.false_exclusions.to_string(),
            outcome.messages.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_wellprovisioned_membership_emulates_perfect() {
        let outcome = run_membership(
            ChenEstimator::new(ms(150), 16, ms(600)),
            &churn_scenario(0.0, 7, 20_000),
        );
        assert!(emulation_is_perfect(&outcome), "{outcome:?}");
        assert_eq!(outcome.false_exclusions, 0);
        assert!(outcome.view_changes >= 2, "two crashes, two exclusions");
    }

    #[test]
    fn e8_moderate_loss_still_perfect_with_generous_margin() {
        // α = 400ms needs ~9 consecutive losses to misfire: safe at 10%.
        let outcome = run_membership(
            ChenEstimator::new(ms(400), 16, ms(600)),
            &churn_scenario(0.10, 7, 20_000),
        );
        assert_eq!(outcome.false_exclusions, 0, "{outcome:?}");
        assert!(emulation_is_perfect(&outcome), "{outcome:?}");
    }

    #[test]
    fn e8_table_is_complete() {
        let table = run_experiment();
        assert_eq!(table.len(), 6);
    }
}
