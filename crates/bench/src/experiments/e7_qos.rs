//! E7 — QoS of adaptive heartbeat detectors (the "realistic look").
//!
//! The Chen–Toueg–Aguilera metrics for the four estimators under a loss
//! sweep: detection time `T_D`, mistake rate `λ_M`, average mistake
//! duration `T_M`, query accuracy `P_A`. The expected shape: the
//! aggressive fixed timeout detects fastest but its accuracy collapses
//! with loss; the adaptive estimators hold accuracy at a modest
//! detection-time premium, with φ-accrual the most loss-tolerant.

use crate::estimators::Estimators;
use crate::table::Table;
use crate::{mean_report, ms};
use rfd_net::estimator::{
    ArrivalEstimator, ChenEstimator, FixedTimeout, JacobsonEstimator, PhiAccrual,
};
use rfd_net::qos::{evaluate_qos, QosReport, QosScenario};
use rfd_sim::Campaign;

fn scenario(loss: f64, seed: u64, duration_ms: u64) -> QosScenario {
    QosScenario {
        period: ms(100),
        loss,
        burst: None,
        min_delay: ms(2),
        max_delay: ms(12),
        crash_at: Some(ms(duration_ms * 3 / 4)),
        duration: ms(duration_ms),
        sample_every: ms(5),
        seed,
    }
}

fn fmt_report(r: &QosReport) -> [String; 4] {
    [
        r.detection_time
            .map_or("missed".to_string(), |d| format!("{}ms", d.as_millis())),
        format!("{:.3}/s", r.mistake_rate),
        format!("{}ms", r.avg_mistake_duration.as_millis()),
        format!("{:.4}", r.query_accuracy),
    ]
}

fn eval<E: ArrivalEstimator + Clone + Sync>(
    proto: E,
    loss: f64,
    seeds: u64,
    duration_ms: u64,
) -> QosReport {
    // Average across seeds by evaluating each and merging simple means.
    let reports: Vec<QosReport> = Campaign::sweep(0..seeds)
        .map(|seed| evaluate_qos(proto.clone(), &scenario(loss, seed, duration_ms)));
    mean_report(&reports)
}

/// Runs E7 and returns the result table.
#[must_use]
pub fn run_experiment(quick: bool) -> Table {
    let (seeds, duration_ms) = if quick { (2, 20_000) } else { (5, 60_000) };
    let mut table = Table::new(
        "E7 — QoS of heartbeat estimators (period 100ms, delay 2–12ms)",
        &[
            "estimator",
            "loss",
            "T_D (detect)",
            "λ_M (mistakes)",
            "T_M (duration)",
            "P_A (accuracy)",
        ],
    );
    for loss in [0.0, 0.05, 0.10, 0.20] {
        let rows: Vec<(&str, QosReport)> = vec![
            (
                "fixed-150ms",
                eval(FixedTimeout::new(ms(150)), loss, seeds, duration_ms),
            ),
            (
                "fixed-500ms",
                eval(FixedTimeout::new(ms(500)), loss, seeds, duration_ms),
            ),
            (
                "chen(α=50ms)",
                eval(
                    ChenEstimator::new(ms(50), 32, ms(500)),
                    loss,
                    seeds,
                    duration_ms,
                ),
            ),
            (
                "jacobson(β=4)",
                eval(
                    JacobsonEstimator::new(4.0, ms(500)),
                    loss,
                    seeds,
                    duration_ms,
                ),
            ),
            (
                "φ-accrual(φ=3)",
                eval(PhiAccrual::new(3.0, 64, ms(500)), loss, seeds, duration_ms),
            ),
        ];
        for (name, r) in rows {
            let [td, lm, tm, pa] = fmt_report(&r);
            table.push(vec![
                name.into(),
                format!("{:.0}%", loss * 100.0),
                td,
                lm,
                tm,
                pa,
            ]);
        }
    }
    table
}

/// E7b — burst-loss ablation: a Gilbert–Elliott channel
/// (mean burst ≈ 5 datagrams, 90% loss inside a burst) against the same
/// estimator line-up. Bursts defeat per-datagram margins; the expected
/// shape is a much larger accuracy spread than under independent loss.
#[must_use]
pub fn run_burst_ablation(quick: bool) -> Table {
    let (seeds, duration_ms) = if quick { (2, 20_000) } else { (5, 60_000) };
    let mut table = Table::new(
        "E7b — Gilbert–Elliott burst-loss ablation (p_enter 2%, p_exit 20%, 90% in-burst loss)",
        &[
            "estimator",
            "T_D (detect)",
            "λ_M (mistakes)",
            "T_M (duration)",
            "P_A (accuracy)",
        ],
    );
    let burst = Some((0.02, 0.20, 0.90));
    let burst_eval = |est: Estimators| {
        let reports: Vec<QosReport> = Campaign::sweep(0..seeds)
            .map(|s| evaluate_qos(est.clone(), &burst_scenario(burst, s, duration_ms)));
        mean_report(&reports)
    };
    for (name, est) in [
        ("fixed-150ms", Estimators::Fixed(FixedTimeout::new(ms(150)))),
        ("fixed-500ms", Estimators::Fixed(FixedTimeout::new(ms(500)))),
        (
            "chen(α=50ms)",
            Estimators::Chen(ChenEstimator::new(ms(50), 32, ms(500))),
        ),
        (
            "jacobson(β=4)",
            Estimators::Jacobson(JacobsonEstimator::new(4.0, ms(500))),
        ),
        (
            "φ-accrual(φ=3)",
            Estimators::Phi(PhiAccrual::new(3.0, 64, ms(500))),
        ),
    ] {
        let r = burst_eval(est);
        let [td, lm, tm, pa] = fmt_report(&r);
        table.push(vec![name.into(), td, lm, tm, pa]);
    }
    table
}

fn burst_scenario(burst: Option<(f64, f64, f64)>, seed: u64, duration_ms: u64) -> QosScenario {
    QosScenario {
        burst,
        crash_at: Some(ms(duration_ms * 3 / 4)),
        duration: ms(duration_ms),
        seed,
        ..QosScenario::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e7_shape_fixed_aggressive_degrades_with_loss() {
        // At 20% loss the aggressive fixed timeout must be less accurate
        // than φ-accrual, while φ keeps near-perfect accuracy.
        let agg = eval(FixedTimeout::new(ms(150)), 0.20, 2, 20_000);
        let phi = eval(PhiAccrual::new(3.0, 64, ms(500)), 0.20, 2, 20_000);
        assert!(
            agg.query_accuracy < phi.query_accuracy,
            "fixed {} vs phi {}",
            agg.query_accuracy,
            phi.query_accuracy
        );
        assert!(agg.mistake_rate > phi.mistake_rate);
    }

    #[test]
    fn e7_everyone_detects_the_crash_without_loss() {
        for r in [
            eval(FixedTimeout::new(ms(150)), 0.0, 2, 20_000),
            eval(ChenEstimator::new(ms(50), 32, ms(500)), 0.0, 2, 20_000),
            eval(JacobsonEstimator::new(4.0, ms(500)), 0.0, 2, 20_000),
            eval(PhiAccrual::new(3.0, 64, ms(500)), 0.0, 2, 20_000),
        ] {
            assert!(r.detection_time.is_some());
            assert!(r.detection_time.unwrap().as_millis() < 2_000);
        }
    }

    #[test]
    fn e7_table_is_complete() {
        let table = run_experiment(true);
        assert_eq!(table.len(), 20, "5 estimators × 4 loss levels");
    }

    #[test]
    fn e7b_burst_table_is_complete_and_everyone_detects() {
        let table = run_burst_ablation(true);
        assert_eq!(table.len(), 5);
        assert!(!table.render().contains("missed"), "{}", table.render());
    }
}
