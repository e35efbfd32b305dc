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
use crate::{mean_report, ms, p};
use rfd_net::clock::VirtualClock;
use rfd_net::estimator::{
    ArrivalEstimator, ChenEstimator, FixedTimeout, JacobsonEstimator, PhiAccrual,
};
use rfd_net::online::{Fault, FaultSchedule, OnlineRunner, OnlineScenario};
use rfd_net::qos::QosReport;
use rfd_net::transport::{InMemoryNetwork, NetworkConfig};
use rfd_sim::Campaign;

/// Seeds averaged per row, and each run's length.
const SEEDS: u64 = 5;
const DURATION_MS: u64 = 60_000;

/// One seed's two-node fleet at the runner's defaults (100 ms period,
/// 2–10 ms delay, 5 ms tick): the target `p0` crashes three quarters of
/// the way through and `p1` observes it.
///
/// The numbering is load-bearing. The fleet polls its nodes in id
/// order, so in every tick the target heartbeats before its observer
/// polls; numbering the target `p1` reverses that and moves every row
/// of both tables.
fn two_node(seed: u64, duration_ms: u64) -> OnlineScenario {
    OnlineScenario {
        n: 2,
        schedule: FaultSchedule::new().at(ms(duration_ms * 3 / 4), Fault::Crash(p(0))),
        duration: ms(duration_ms),
        seed,
        ..OnlineScenario::default()
    }
}

/// Runs the fleet to its end: `p1`'s report about `p0`.
fn observe<E: ArrivalEstimator + Clone>(mut runner: OnlineRunner<E>) -> QosReport {
    runner.run_to_end();
    runner.report(p(1), p(0)).expect("an off-diagonal pair")
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
    let reports: Vec<QosReport> = Campaign::sweep(0..seeds).map(|seed| {
        let scenario = OnlineScenario {
            loss,
            delay: (ms(2), ms(12)),
            ..two_node(seed, duration_ms)
        };
        observe(OnlineRunner::new(proto.clone(), scenario))
    });
    mean_report(&reports)
}

/// Runs E7 and returns the result table.
#[must_use]
pub fn run_experiment() -> Table {
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
                eval(FixedTimeout::new(ms(150)), loss, SEEDS, DURATION_MS),
            ),
            (
                "fixed-500ms",
                eval(FixedTimeout::new(ms(500)), loss, SEEDS, DURATION_MS),
            ),
            (
                "chen(α=50ms)",
                eval(
                    ChenEstimator::new(ms(50), 32, ms(500)),
                    loss,
                    SEEDS,
                    DURATION_MS,
                ),
            ),
            (
                "jacobson(β=4)",
                eval(
                    JacobsonEstimator::new(4.0, ms(500)),
                    loss,
                    SEEDS,
                    DURATION_MS,
                ),
            ),
            (
                "φ-accrual(φ=3)",
                eval(PhiAccrual::new(3.0, 64, ms(500)), loss, SEEDS, DURATION_MS),
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
pub fn run_burst_ablation() -> Table {
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
    let burst_eval = |est: Estimators| {
        let reports: Vec<QosReport> = Campaign::sweep(0..SEEDS).map(|seed| {
            let scenario = two_node(seed, DURATION_MS);
            let clock = VirtualClock::new();
            let config = NetworkConfig::reliable(scenario.delay.0, scenario.delay.1)
                .with_burst_loss(0.02, 0.20, 0.90)
                .with_seed(seed);
            let net = InMemoryNetwork::new(2, config, clock.clone());
            let endpoints = vec![net.endpoint(p(0)), net.endpoint(p(1))];
            observe(OnlineRunner::over(
                est.clone(),
                scenario,
                endpoints,
                net,
                clock,
            ))
        });
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
        let table = run_experiment();
        assert_eq!(table.len(), 20, "5 estimators × 4 loss levels");
    }

    #[test]
    fn e7b_burst_table_is_complete_and_everyone_detects() {
        let table = run_burst_ablation();
        assert_eq!(table.len(), 5);
        assert!(!table.render().contains("missed"), "{}", table.render());
    }
}
