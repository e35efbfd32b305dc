//! E11 — online detection under churn (the long-running service view).
//!
//! The paper's §1.3 observation is that practitioners run failure
//! detection as a *service*: a long-lived membership/monitoring loop,
//! not a batch job. E11 drives crash / recover / partition schedules
//! through the streaming [`OnlineRunner`] — every sample tick advances
//! the live scenario and updates an incremental
//! [`rfd_net::qos::QosMonitor`] per observer–target pair — and
//! tabulates detection latency and mistake rates per estimator.
//!
//! The churn schedule is where the two satellite estimator fixes show:
//! Jacobson's Karn-style clamp keeps the post-recovery deadline tight
//! (pre-fix, one outage-sized gap inflated it for dozens of periods),
//! and φ-accrual's saturating deadline never promises a crossing it
//! cannot deliver.

use crate::estimators::Estimators;
use crate::table::Table;
use crate::{mean_report, ms, p};
use rfd_core::{ProcessId, ProcessSet};
use rfd_net::estimator::{ChenEstimator, FixedTimeout, JacobsonEstimator, PhiAccrual};
use rfd_net::online::{run_membership_churn, Fault, FaultSchedule, OnlineRunner, OnlineScenario};
use rfd_net::qos::QosReport;
use rfd_net::ArrivalEstimator;
use rfd_sim::Campaign;

/// The churn schedules of the experiment, parameterized by duration.
/// Each returns `(name, schedule, judged target)`.
fn schedules(duration_ms: u64) -> Vec<(&'static str, FaultSchedule, ProcessId)> {
    let d = duration_ms;
    let mut minority = ProcessSet::empty();
    minority.insert(p(2));
    minority.insert(p(3));
    vec![
        (
            "crash",
            FaultSchedule::new().at(ms(d / 2), Fault::Crash(p(2))),
            p(2),
        ),
        (
            "crash+recover+crash",
            FaultSchedule::new()
                .at(ms(d / 4), Fault::Crash(p(2)))
                .at(ms(d / 2), Fault::Recover(p(2)))
                .at(ms(3 * d / 4), Fault::Crash(p(2))),
            p(2),
        ),
        (
            "partition→crash",
            FaultSchedule::new()
                .at(ms(d / 4), Fault::Partition(minority))
                .at(ms(d / 2), Fault::Heal)
                .at(ms(3 * d / 4), Fault::Crash(p(3))),
            p(3),
        ),
    ]
}

/// One seed's outcome: the observer's report about the judged target.
fn run_one<E: ArrivalEstimator + Clone>(
    prototype: E,
    schedule: FaultSchedule,
    target: ProcessId,
    seed: u64,
    duration_ms: u64,
) -> QosReport {
    let scenario = OnlineScenario {
        n: 4,
        duration: ms(duration_ms),
        seed,
        schedule,
        ..OnlineScenario::default()
    };
    let mut runner = OnlineRunner::new(prototype, scenario);
    // Drive the stream tick by tick — the point of the experiment is
    // that the numbers exist *during* the run, not only at the end.
    while runner.step().is_some() {}
    runner
        .report(p(0), target)
        .expect("observer 0 judges the target")
}

fn line_up() -> Vec<(&'static str, Estimators)> {
    vec![
        ("fixed-400ms", Estimators::Fixed(FixedTimeout::new(ms(400)))),
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
    ]
}

/// Runs E11 and returns the result table.
#[must_use]
pub fn run_experiment() -> Table {
    let (seeds, duration_ms) = (4, 30_000);
    let mut table = Table::new(
        "E11 — online detection under churn (n=4, observer p0, streaming driver, \
         period 100ms, delay 2–10ms)",
        &[
            "schedule",
            "estimator",
            "T_D (final crash)",
            "λ_M (mistakes)",
            "T_M (duration)",
            "P_A (accuracy)",
        ],
    );
    for (schedule_name, schedule, target) in schedules(duration_ms) {
        for (est_name, proto) in line_up() {
            let reports: Vec<QosReport> = Campaign::sweep(0..seeds)
                .map(|seed| run_one(proto.clone(), schedule.clone(), target, seed, duration_ms));
            let r = mean_report(&reports);
            table.push(vec![
                schedule_name.into(),
                est_name.into(),
                r.detection_time
                    .map_or("missed".to_string(), |d| format!("{}ms", d.as_millis())),
                format!("{:.3}/s", r.mistake_rate),
                format!("{}ms", r.avg_mistake_duration.as_millis()),
                format!("{:.4}", r.query_accuracy),
            ]);
        }
    }
    table
}

/// E11b — membership under churn: the same fault schedules against the
/// view-based membership service, observed live by the churn-capable
/// [`rfd_net::online::MembershipWatcher`]. Crashes must be excluded with
/// bounded latency; a partitioned minority is excluded *by fiat* (a
/// false exclusion the service converts into accuracy — §1.3).
#[must_use]
pub fn run_membership_ablation() -> Table {
    let (seeds, duration_ms) = (4, 30_000);
    let mut table = Table::new(
        "E11b — membership under churn (n=4, chen(α=150ms), period 50ms)",
        &[
            "schedule",
            "excl. latency (crashed)",
            "false exclusions",
            "view changes",
        ],
    );
    for (schedule_name, schedule, target) in schedules(duration_ms) {
        let rows: Vec<(Option<u64>, usize, u64)> = Campaign::sweep(0..seeds).map(|seed| {
            let scenario = OnlineScenario {
                n: 4,
                period: ms(50),
                duration: ms(duration_ms),
                sample_every: ms(1),
                seed,
                schedule: schedule.clone(),
                ..OnlineScenario::default()
            };
            let report = run_membership_churn(ChenEstimator::new(ms(150), 16, ms(600)), &scenario);
            (
                report.exclusion_latency[target.index()].map(rfd_net::Nanos::as_millis),
                report.false_exclusions.len(),
                report.view_changes,
            )
        });
        let n = rows.len() as u64;
        let latencies: Vec<u64> = rows.iter().filter_map(|(l, _, _)| *l).collect();
        let latency = if latencies.is_empty() {
            "never".to_string()
        } else {
            format!(
                "{}ms",
                latencies.iter().sum::<u64>() / latencies.len() as u64
            )
        };
        let false_exclusions =
            rows.iter().map(|(_, f, _)| *f as u64).sum::<u64>() as f64 / n as f64;
        let view_changes = rows.iter().map(|(_, _, v)| *v).sum::<u64>() / n;
        table.push(vec![
            schedule_name.into(),
            latency,
            format!("{false_exclusions:.1}"),
            format!("{view_changes}"),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e11_table_is_complete_and_streaming_matches_batch_everywhere() {
        let table = run_experiment();
        assert_eq!(table.len(), 12, "3 schedules × 4 estimators");
        let rendered = table.render();
        assert!(
            !rendered.contains("missed"),
            "every schedule ends in a detectable final crash:\n{rendered}"
        );
    }

    #[test]
    fn e11_churn_schedule_is_detected_after_recovery() {
        // The crash→recover→crash schedule: the detector must clear the
        // first outage and still detect the final crash promptly — the
        // Jacobson regression scenario end to end.
        let (_, schedule, target) = schedules(12_000).swap_remove(1);
        let report = run_one(
            JacobsonEstimator::new(4.0, ms(500)),
            schedule,
            target,
            1,
            12_000,
        );
        let td = report.detection_time.expect("final crash detected");
        assert!(td.as_millis() < 2_000, "T_D = {td} (report {report:?})");
        assert!(report.mistakes >= 1, "the transient outage is a mistake");
    }

    #[test]
    fn e11b_membership_partition_forces_false_exclusions() {
        let table = run_membership_ablation();
        assert_eq!(table.len(), 3);
        // Assert on the underlying report, not the rendered text: the
        // partition schedule must force at least one by-fiat exclusion
        // (the minority side was up), and since those exclusions precede
        // the later crash they must NOT masquerade as detection latency.
        let (_, schedule, target) = schedules(12_000).swap_remove(2);
        let scenario = OnlineScenario {
            n: 4,
            period: ms(50),
            duration: ms(12_000),
            sample_every: ms(1),
            seed: 0,
            schedule,
            ..OnlineScenario::default()
        };
        let report = run_membership_churn(ChenEstimator::new(ms(150), 16, ms(600)), &scenario);
        assert!(
            !report.false_exclusions.is_empty(),
            "{:?}",
            report.false_exclusions
        );
        assert!(
            report.false_exclusions.contains(target) || report.false_exclusions.contains(p(2)),
            "a minority member is excluded by fiat: {:?}",
            report.false_exclusions
        );
        assert_eq!(
            report.exclusion_latency[target.index()],
            None,
            "a pre-crash exclusion is not a crash detection"
        );
    }
}
