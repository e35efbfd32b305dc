//! E12 — partition-heal reconvergence of the membership service.
//!
//! E11b showed the classic §1.3 service under churn: a partitioned
//! minority is excluded by fiat and the split never heals — exclusion is
//! forever. E12 turns on **heal-merge reconciliation**
//! ([`rfd_net::membership::MembershipNode::with_heal_merge`]) and
//! measures what the by-fiat design gives up and what the merge wins
//! back, per estimator:
//!
//! * **split-brain** — total time live members held divergent views;
//! * **t_reconverge** — mean latency from each heal to the fleet holding
//!   one single view again (the merge-less service scores `never` here);
//! * **view changes** and **false exclusions** — the churn cost and the
//!   by-fiat exclusions incurred *during* the cut.
//!
//! Every cell runs on the virtual network and is deterministic per seed
//! (asserted by the tests), so the table never depends on the wall
//! clock. The same schedule over **real loopback UDP sockets** through
//! [`rfd_net::transport::FaultyTransport`] is timing-dependent: it is a
//! smoke test here (shape only), and `examples/udp_churn.rs` is the
//! real-socket run.

use crate::estimators::Estimators;
use crate::table::Table;
use crate::{ms, p};
use rfd_core::ProcessSet;
use rfd_net::clock::Nanos;
use rfd_net::online::{
    run_membership_churn, Fault, FaultSchedule, MembershipChurnReport, OnlineScenario,
};
use rfd_sim::Campaign;

/// The partition/heal schedules of the experiment, parameterized by
/// duration: `(name, schedule, number of heals)`.
fn schedules(duration_ms: u64) -> Vec<(&'static str, FaultSchedule, usize)> {
    let d = duration_ms;
    let mut even = ProcessSet::empty();
    even.insert(p(2));
    even.insert(p(3));
    vec![
        (
            "minority cut",
            FaultSchedule::new()
                .at(ms(d / 4), Fault::Partition(ProcessSet::singleton(p(3))))
                .at(ms(d / 2), Fault::Heal),
            1,
        ),
        (
            "even split",
            FaultSchedule::new()
                .at(ms(d / 4), Fault::Partition(even))
                .at(ms(d / 2), Fault::Heal),
            1,
        ),
        (
            "double cut",
            FaultSchedule::new()
                .at(ms(d / 5), Fault::Partition(ProcessSet::singleton(p(3))))
                .at(ms(2 * d / 5), Fault::Heal)
                .at(ms(3 * d / 5), Fault::Partition(even))
                .at(ms(4 * d / 5), Fault::Heal),
            2,
        ),
    ]
}

/// The heal-merge scenario of one cell.
fn scenario(
    schedule: FaultSchedule,
    duration_ms: u64,
    sample_every: Nanos,
    seed: u64,
) -> OnlineScenario {
    OnlineScenario {
        n: 4,
        period: ms(50),
        duration: ms(duration_ms),
        sample_every,
        seed,
        schedule,
        heal_merge: true,
        ..OnlineScenario::default()
    }
}

struct RowStats {
    split_brain_ms: u64,
    reconverge_ms: Option<u64>,
    heals_missed: usize,
    view_changes: u64,
    false_exclusions: u64,
}

fn summarize(reports: &[MembershipChurnReport]) -> RowStats {
    let n = reports.len() as u64;
    let ttrs: Vec<u64> = reports
        .iter()
        .flat_map(|r| {
            r.time_to_reconverge
                .iter()
                .filter_map(|t| t.map(Nanos::as_millis))
        })
        .collect();
    RowStats {
        split_brain_ms: reports
            .iter()
            .map(|r| r.split_brain_duration.as_millis())
            .sum::<u64>()
            / n,
        reconverge_ms: if ttrs.is_empty() {
            None
        } else {
            Some(ttrs.iter().sum::<u64>() / ttrs.len() as u64)
        },
        heals_missed: reports
            .iter()
            .map(|r| r.time_to_reconverge.iter().filter(|t| t.is_none()).count())
            .sum(),
        view_changes: reports.iter().map(|r| r.view_changes).sum::<u64>() / n,
        false_exclusions: reports
            .iter()
            .map(|r| r.false_exclusions.len() as u64)
            .sum::<u64>()
            / n,
    }
}

fn push_row(table: &mut Table, schedule_name: &str, est: &str, s: &RowStats) {
    table.push(vec![
        schedule_name.into(),
        est.into(),
        format!("{}ms", s.split_brain_ms),
        match s.reconverge_ms {
            Some(v) if s.heals_missed == 0 => format!("{v}ms"),
            Some(v) => format!("{v}ms ({} missed)", s.heals_missed),
            None => "never".into(),
        },
        format!("{}", s.view_changes),
        format!("{}", s.false_exclusions),
    ]);
}

/// Runs E12 and returns the result table.
#[must_use]
pub fn run_experiment() -> Table {
    let (seeds, duration_ms) = (4, 30_000);
    let mut table = Table::new(
        "E12 — partition-heal reconvergence (n=4, heal-merge membership, period 50ms)",
        &[
            "schedule",
            "estimator",
            "split-brain",
            "t_reconverge",
            "views",
            "false excl.",
        ],
    );
    for (schedule_name, schedule, _heals) in schedules(duration_ms) {
        for (est_name, proto) in &Estimators::line_up(400) {
            let reports: Vec<MembershipChurnReport> = Campaign::sweep(0..seeds).map(|seed| {
                run_membership_churn(
                    proto.clone(),
                    &scenario(schedule.clone(), duration_ms, ms(1), seed),
                )
            });
            push_row(&mut table, schedule_name, est_name, &summarize(&reports));
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfd_net::clock::SystemClock;
    use rfd_net::estimator::ChenEstimator;
    use rfd_net::online::run_membership_churn_over;
    use rfd_net::transport::faulty_cluster;
    use rfd_net::transport::udp::loopback_cluster;

    /// One wall-clock cell: the same schedule over real loopback UDP
    /// sockets, crash/partition faults injected by the
    /// [`rfd_net::transport::FaultInjector`] fault plane.
    fn run_udp_cell(prototype: Estimators, scenario: &OnlineScenario) -> MembershipChurnReport {
        let clock = SystemClock::new();
        let transports = loopback_cluster(scenario.n).expect("bind loopback cluster");
        let (nodes, injector) = faulty_cluster(transports, clock.clone());
        run_membership_churn_over(prototype, scenario, nodes, injector, clock)
    }

    #[test]
    fn e12_every_simulated_cell_reconverges() {
        let table = run_experiment();
        assert!(table.len() >= 12, "3 schedules × 4 estimators");
        let rendered = table.render();
        assert!(
            !rendered.contains("never") && !rendered.contains("missed"),
            "every heal must reconverge under heal-merge:\n{rendered}"
        );
    }

    #[test]
    fn e12_cells_are_deterministic_per_seed() {
        let (_, schedule, heals) = schedules(16_000).swap_remove(2);
        let sc = scenario(schedule, 16_000, ms(1), 7);
        let a = run_membership_churn(ChenEstimator::new(ms(150), 16, ms(600)), &sc);
        let b = run_membership_churn(ChenEstimator::new(ms(150), 16, ms(600)), &sc);
        assert_eq!(a.time_to_reconverge.len(), heals);
        assert_eq!(a.time_to_reconverge, b.time_to_reconverge);
        assert_eq!(a.split_brain_duration, b.split_brain_duration);
        assert_eq!(a.view_changes, b.view_changes);
        assert_eq!(a.false_exclusions, b.false_exclusions);
        assert_eq!(a.exclusion_latency, b.exclusion_latency);
    }

    /// The wall-clock UDP path is exercised end to end (but kept tiny):
    /// one compressed minority-cut cell over real loopback sockets.
    #[test]
    fn e12_udp_cell_smoke() {
        let (_, schedule, _) = schedules(3_000).swap_remove(0);
        let report = run_udp_cell(
            Estimators::Chen(ChenEstimator::new(ms(150), 16, ms(600))),
            &scenario(schedule, 3_000, ms(5), 0),
        );
        assert_eq!(report.time_to_reconverge.len(), 1);
    }
}
