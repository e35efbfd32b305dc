//! E13 — the live replicated-decision service under churn.
//!
//! E8 showed membership *emulating* `P`; E12 showed healed views
//! re-merging. E13 runs what practitioners actually deploy on top
//! (§1.1/§1.3): a replicated log decided by rotating-coordinator
//! consensus over the membership-emulated `P`
//! ([`rfd_net::service::DecisionService`]), with post-heal **state
//! transfer** re-syncing the logs of re-merged members. Per schedule ×
//! estimator, a continuous client workload measures:
//!
//! * **decided** / **thrpt** — log entries decided and decisions per
//!   second of scenario time;
//! * **t_recover** — latency from the disruptive event (the crash, or
//!   the last heal) to the next decision: the stall the by-fiat
//!   exclusion (or the merge) costs the service;
//! * **transferred** — log entries adopted via state transfer;
//! * **lost** — entries discarded while reconciling (asserted zero:
//!   consensus safety means merges only ever *extend*).
//!
//! Every cell asserts uniform agreement and post-heal log convergence
//! before its row is tabulated, and is deterministic per seed (pinned
//! by the tests). The same scenario over real loopback sockets through
//! [`rfd_net::transport::FaultyTransport`] is timing-dependent: a
//! smoke test for shape only, like E12's.

use super::assert_service_safe;
use crate::estimators::Estimators;
use crate::table::Table;
use crate::{ms, p};
use rfd_core::ProcessSet;
use rfd_net::clock::Nanos;
use rfd_net::online::{Fault, FaultSchedule, OnlineScenario};
use rfd_net::service::{run_service, ServiceReport, ServiceScenario};
use rfd_sim::Campaign;

/// One schedule: name, faults, the disruptive event decisions must
/// recover from, and the nodes clients submit to (kept clear of the
/// faulted ones so the workload itself survives the schedule).
struct Schedule {
    name: &'static str,
    faults: FaultSchedule,
    recover_from_ms: u64,
    clients: &'static [usize],
}

fn schedules(duration_ms: u64) -> Vec<Schedule> {
    let d = duration_ms;
    vec![
        Schedule {
            name: "coordinator crash",
            faults: FaultSchedule::new().at(ms(d / 4), Fault::Crash(p(0))),
            recover_from_ms: d / 4,
            clients: &[1, 2, 3],
        },
        Schedule {
            name: "minority cut",
            faults: FaultSchedule::new()
                .at(ms(d / 4), Fault::Partition(ProcessSet::singleton(p(3))))
                .at(ms(d / 2), Fault::Heal),
            recover_from_ms: d / 2,
            clients: &[0, 1, 2],
        },
        Schedule {
            name: "double churn",
            faults: FaultSchedule::new()
                .at(ms(d / 5), Fault::Crash(p(2)))
                .at(ms(2 * d / 5), Fault::Recover(p(2)))
                .at(ms(3 * d / 5), Fault::Partition(ProcessSet::singleton(p(3))))
                .at(ms(4 * d / 5), Fault::Heal),
            recover_from_ms: 4 * d / 5,
            clients: &[0, 1],
        },
    ]
}

/// The heal-merge service scenario of one cell: a continuous client
/// workload (one command per `command_every_ms`, round-robin over the
/// schedule's client nodes) under the schedule's faults.
fn scenario(
    sched: &Schedule,
    duration_ms: u64,
    sample_every: Nanos,
    command_every_ms: u64,
    seed: u64,
) -> ServiceScenario {
    let mut s = ServiceScenario {
        online: OnlineScenario {
            n: 4,
            period: ms(50),
            duration: ms(duration_ms),
            sample_every,
            seed,
            schedule: sched.faults.clone(),
            heal_merge: true,
            ..OnlineScenario::default()
        },
        ..ServiceScenario::default()
    };
    let mut at = 1_000;
    let mut value = 100;
    // Submissions continue past the last disruption (every schedule's
    // final event is at 4/5 of the duration at the latest), leaving a
    // 1 s drain window so the tail still decides before the run ends.
    while at + 1_000 <= duration_ms {
        let client = sched.clients[(value as usize) % sched.clients.len()];
        s = s.command(ms(at), p(client), value);
        at += command_every_ms;
        value += 1;
    }
    s
}

/// Gates a cell's report (agreement + post-heal convergence + lossless
/// transfer), then reduces it to the row metrics.
fn gate(sched: &Schedule, report: &ServiceReport) -> (u64, Option<u64>, u64, u64) {
    assert_service_safe(sched.name, report);
    let recover = report
        .first_decision_at_or_after(ms(sched.recover_from_ms))
        .map(|at| at.saturating_sub(ms(sched.recover_from_ms)).as_millis());
    (
        report.decided_len(),
        recover,
        report.membership.decisions_transferred,
        report.membership.decisions_lost,
    )
}

#[allow(clippy::too_many_arguments)]
fn push_row(
    table: &mut Table,
    sched_name: &str,
    est: &str,
    duration_ms: u64,
    decided: u64,
    recover_ms: Option<u64>,
    transferred: u64,
    lost: u64,
) {
    table.push(vec![
        sched_name.into(),
        est.into(),
        format!("{decided}"),
        format!("{:.1}/s", decided as f64 / (duration_ms as f64 / 1_000.0)),
        recover_ms.map_or("never".into(), |v| format!("{v}ms")),
        format!("{transferred}"),
        format!("{lost}"),
    ]);
}

/// Runs E13 and returns the result table.
#[must_use]
pub fn run_experiment() -> Table {
    let (seeds, duration_ms) = (3, 30_000);
    let mut table = Table::new(
        "E13 — live decision service under churn (n=4, heal-merge membership, consensus over emulated P)",
        &[
            "schedule",
            "estimator",
            "decided",
            "thrpt",
            "t_recover",
            "transferred",
            "lost",
        ],
    );
    for sched in schedules(duration_ms) {
        for (est_name, proto) in &Estimators::line_up(400) {
            let cells: Vec<(u64, Option<u64>, u64, u64)> = Campaign::sweep(0..seeds).map(|seed| {
                let report = run_service(
                    proto.clone(),
                    &scenario(&sched, duration_ms, ms(5), 600, seed),
                );
                gate(&sched, &report)
            });
            let n = cells.len() as u64;
            let decided = cells.iter().map(|c| c.0).sum::<u64>() / n;
            let recovers: Vec<u64> = cells.iter().filter_map(|c| c.1).collect();
            let recover = (recovers.len() == cells.len()).then(|| recovers.iter().sum::<u64>() / n);
            let transferred = cells.iter().map(|c| c.2).sum::<u64>() / n;
            let lost = cells.iter().map(|c| c.3).sum::<u64>();
            push_row(
                &mut table,
                sched.name,
                est_name,
                duration_ms,
                decided,
                recover,
                transferred,
                lost,
            );
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfd_net::clock::SystemClock;
    use rfd_net::estimator::ChenEstimator;
    use rfd_net::service::ServiceRunner;
    use rfd_net::transport::faulty_cluster;
    use rfd_net::transport::udp::loopback_cluster;

    /// One wall-clock cell: the same service scenario over real loopback
    /// UDP sockets under the shared fault plane.
    fn run_udp_cell(prototype: Estimators, scenario: &ServiceScenario) -> ServiceReport {
        let clock = SystemClock::new();
        let transports = loopback_cluster(scenario.online.n).expect("bind loopback cluster");
        let (nodes, injector) = faulty_cluster(transports, clock.clone());
        let mut runner = ServiceRunner::over(prototype, scenario.clone(), nodes, injector, clock);
        runner.run_to_end();
        runner.report()
    }

    #[test]
    fn e13_every_simulated_cell_recovers_and_agrees() {
        // `gate` asserts agreement/convergence/losslessness per cell;
        // here additionally: the service always decides again after the
        // disruption, on every row.
        let table = run_experiment();
        assert!(table.len() >= 12, "3 schedules × 4 estimators");
        let rendered = table.render();
        assert!(
            !rendered.contains("never"),
            "a cell never decided after its disruption:\n{rendered}"
        );
    }

    #[test]
    fn e13_cells_are_deterministic_per_seed() {
        let sched = &schedules(16_000)[1];
        let sc = scenario(sched, 16_000, ms(5), 600, 3);
        let mut runner_a = ServiceRunner::new(ChenEstimator::new(ms(150), 16, ms(600)), sc.clone());
        let mut runner_b = ServiceRunner::new(ChenEstimator::new(ms(150), 16, ms(600)), sc);
        assert_eq!(runner_a.run_to_end(), runner_b.run_to_end());
        let (a, b) = (runner_a.report(), runner_b.report());
        assert_eq!(a.logs, b.logs);
        assert_eq!(
            a.membership.decisions_transferred,
            b.membership.decisions_transferred
        );
        assert!(
            a.membership.decisions_transferred > 0,
            "the cut forces a transfer"
        );
    }

    /// The wall-clock UDP path, kept tiny: one compressed
    /// coordinator-crash cell over real loopback sockets.
    #[test]
    fn e13_udp_cell_smoke() {
        let sched = &schedules(4_000)[0];
        let report = run_udp_cell(
            Estimators::Chen(ChenEstimator::new(ms(150), 16, ms(600))),
            &scenario(sched, 4_000, ms(10), 400, 0),
        );
        assert!(report.agreement_holds());
        assert!(report.decided_len() > 0, "decisions flow over real sockets");
    }
}
