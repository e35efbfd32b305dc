//! E14 — snapshot fast rejoin vs full-suffix replay.
//!
//! E13 showed post-heal state transfer re-syncing a re-merged member by
//! replaying the log suffix it missed — a cost that grows **linearly**
//! with the length of the outage. E14 measures the compaction answer
//! ([`rfd_net::service::CompactionPolicy`]): the majority folds
//! every-member-acked prefixes into a chained digest, and a rejoiner
//! older than the retained tail installs a view-stamped snapshot
//! instead of replaying history, so its transfer cost tracks the
//! retained tail — **flat** in the outage length.
//!
//! Per estimator, the same single-node partition heals after a *short*
//! and a *long* hold (the long outage accumulates ~10× the missed
//! decisions), once with compaction
//! (`mode = snapshot`) and once without (`mode = suffix`). Each cell
//! reports the decisions transferred to the rejoiner, the encoded
//! state-transfer bytes served fleet-wide, the snapshot count, and the
//! rejoin latency (heal → every live replica back at the pre-heal log
//! length). Gates, asserted per estimator:
//!
//! * suffix-mode transfer bytes grow with the missed history (≥ 3×
//!   across the holds) — the linear baseline;
//! * snapshot-mode transfer bytes stay flat within 2× across the same
//!   growth, and undercut the long suffix replay;
//! * snapshot-mode rejoin latency stays flat within 2× too;
//! * every cell: uniform agreement, post-heal convergence, zero
//!   decisions lost, and the snapshot path actually taken (or actually
//!   avoided) per mode.
//!
//! Deterministic per seed, pinned by the tests.

use crate::estimators::Estimators;
use crate::table::Table;
use crate::{mean, ms, p};
use rfd_core::ProcessSet;
use rfd_net::online::{Fault, FaultSchedule, OnlineScenario};
use rfd_net::service::{run_service, CompactionPolicy, ServiceReport, ServiceScenario};
use rfd_sim::Campaign;

/// How many decisions the retained tail keeps in snapshot mode — small
/// against even the short outage, so both holds genuinely exercise the
/// snapshot path.
const RETAIN: u64 = 8;

/// One rejoin scenario: p3 is cut off at 2 s, the majority keeps
/// deciding a continuous workload through the outage, the partition
/// heals after `hold_ms`, and the run drains long enough for the
/// rejoin to complete. `retain` switches the compaction mode.
fn scenario(hold_ms: u64, retain: Option<u64>, seed: u64) -> ServiceScenario {
    let heal_ms = 2_000 + hold_ms;
    let duration_ms = heal_ms + 8_000;
    let mut s = ServiceScenario {
        online: OnlineScenario {
            n: 4,
            period: ms(50),
            duration: ms(duration_ms),
            sample_every: ms(5),
            seed,
            schedule: FaultSchedule::new()
                .at(ms(2_000), Fault::Partition(ProcessSet::singleton(p(3))))
                .at(ms(heal_ms), Fault::Heal),
            heal_merge: true,
            ..OnlineScenario::default()
        },
        ..ServiceScenario::default()
    };
    if let Some(k) = retain {
        s = s.with_compaction(CompactionPolicy::retain_last(k));
    }
    // The workload stops 1 s before the heal: the rejoin then measures
    // pure catch-up, and every transfer byte is catch-up traffic.
    let mut at = 1_000;
    let mut value = 100;
    while at + 1_000 <= heal_ms {
        let client = [0, 1, 2][(value as usize) % 3];
        s = s.command(ms(at), p(client), value);
        at += 300;
        value += 1;
    }
    s
}

/// One cell's reduced metrics.
#[derive(Clone, Copy)]
struct Cell {
    decided: u64,
    transferred: u64,
    bytes: u64,
    snapshots: u64,
    rejoin_ms: u64,
}

/// Gates one cell (agreement, convergence, losslessness, the mode's
/// transfer path actually taken) and reduces the report.
fn gate(label: &str, snapshot_mode: bool, report: &ServiceReport) -> Cell {
    assert!(
        report.agreement_holds(),
        "[{label}] uniform agreement violated"
    );
    assert!(
        report.live_logs_converged(),
        "[{label}] post-heal logs failed to converge"
    );
    assert_eq!(
        report.membership.decisions_lost, 0,
        "[{label}] state transfer discarded decisions"
    );
    if snapshot_mode {
        assert!(
            report.membership.snapshots_sent > 0,
            "[{label}] the rejoiner fell {RETAIN}+ behind yet no snapshot was served: {:?}",
            report.membership
        );
    } else {
        assert_eq!(
            report.membership.snapshots_sent, 0,
            "[{label}] a snapshot without compaction"
        );
    }
    let rejoin_ms = report
        .membership
        .rejoin_latencies
        .last()
        .map(|l| l.as_millis());
    let Some(rejoin_ms) = rejoin_ms else {
        panic!("[{label}] the heal never resolved into a completed rejoin");
    };
    Cell {
        decided: report.decided_len(),
        transferred: report.membership.decisions_transferred,
        bytes: report.membership.sync_bytes_sent,
        snapshots: report.membership.snapshots_sent,
        rejoin_ms,
    }
}

/// Runs E14 and returns the result table.
///
/// # Panics
///
/// Panics if any cell violates its safety gate or the per-estimator
/// sub-linearity contrast fails (see the module docs).
#[must_use]
pub fn run_experiment() -> Table {
    let (seeds, short_hold, long_hold) = (2, 6_000, 60_000);
    let mut table = Table::new(
        "E14 — snapshot fast rejoin vs full-suffix replay (n=4, heal-merge, retain-last-8 compaction)",
        &[
            "estimator",
            "outage",
            "mode",
            "decided",
            "transferred",
            "xfer_bytes",
            "snapshots",
            "t_rejoin",
        ],
    );
    for (est_name, proto) in &Estimators::line_up(400) {
        let mut cells: Vec<(&str, &str, Cell)> = Vec::new();
        for (hold_name, hold_ms) in [("short", short_hold), ("long", long_hold)] {
            for (mode, retain) in [("snapshot", Some(RETAIN)), ("suffix", None)] {
                let label = format!("{est_name}/{hold_name}/{mode}");
                let runs: Vec<Cell> = Campaign::sweep(0..seeds).map(|seed| {
                    let report = run_service(proto.clone(), &scenario(hold_ms, retain, seed));
                    gate(&label, retain.is_some(), &report)
                });
                let n = runs.len() as u64;
                let cell = Cell {
                    decided: mean(runs.iter().map(|c| c.decided), n),
                    transferred: mean(runs.iter().map(|c| c.transferred), n),
                    bytes: mean(runs.iter().map(|c| c.bytes), n),
                    snapshots: mean(runs.iter().map(|c| c.snapshots), n),
                    rejoin_ms: mean(runs.iter().map(|c| c.rejoin_ms), n),
                };
                table.push(vec![
                    est_name.into(),
                    hold_name.into(),
                    mode.into(),
                    format!("{}", cell.decided),
                    format!("{}", cell.transferred),
                    format!("{}", cell.bytes),
                    format!("{}", cell.snapshots),
                    format!("{}ms", cell.rejoin_ms),
                ]);
                cells.push((hold_name, mode, cell));
            }
        }
        contrast_gate(est_name, &cells);
    }
    table
}

/// The per-estimator sub-linearity contrast over the four cells.
fn contrast_gate(est_name: &str, cells: &[(&str, &str, Cell)]) {
    let find = |hold: &str, mode: &str| -> Cell {
        cells
            .iter()
            .find(|(h, m, _)| *h == hold && *m == mode)
            .map_or_else(
                || panic!("[{est_name}] missing cell {hold}/{mode}"),
                |(_, _, c)| *c,
            )
    };
    let snap_short = find("short", "snapshot");
    let snap_long = find("long", "snapshot");
    let suffix_short = find("short", "suffix");
    let suffix_long = find("long", "suffix");
    assert!(
        suffix_long.bytes >= 3 * suffix_short.bytes,
        "[{est_name}] suffix replay must grow with the missed history: \
         {} bytes (short) vs {} bytes (long)",
        suffix_short.bytes,
        suffix_long.bytes
    );
    assert!(
        snap_long.bytes <= 2 * snap_short.bytes,
        "[{est_name}] snapshot rejoin must stay flat as history grows: \
         {} bytes (short) vs {} bytes (long)",
        snap_short.bytes,
        snap_long.bytes
    );
    assert!(
        snap_long.bytes < suffix_long.bytes,
        "[{est_name}] the long-outage snapshot must undercut the suffix replay: \
         {} vs {} bytes",
        snap_long.bytes,
        suffix_long.bytes
    );
    assert!(
        snap_long.rejoin_ms <= 2 * snap_short.rejoin_ms.max(100),
        "[{est_name}] snapshot rejoin latency must stay flat as history grows: \
         {}ms (short) vs {}ms (long)",
        snap_short.rejoin_ms,
        snap_long.rejoin_ms
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfd_net::estimator::ChenEstimator;

    #[test]
    fn e14_contrast_holds_on_every_estimator() {
        // `gate` + `contrast_gate` assert the whole claim per cell and
        // per estimator; here additionally: the table has all 16 rows
        // and every snapshot cell actually counted a snapshot.
        let table = run_experiment();
        assert_eq!(table.len(), 16, "4 estimators × 2 outages × 2 modes");
    }

    #[test]
    fn e14_cells_are_deterministic_per_seed() {
        let sc = scenario(4_000, Some(RETAIN), 7);
        let a = run_service(ChenEstimator::new(ms(150), 16, ms(600)), &sc);
        let b = run_service(ChenEstimator::new(ms(150), 16, ms(600)), &sc);
        assert_eq!(a.logs, b.logs);
        assert_eq!(a.bases, b.bases);
        assert_eq!(a.membership.snapshots_sent, b.membership.snapshots_sent);
        assert_eq!(a.membership.sync_bytes_sent, b.membership.sync_bytes_sent);
        assert_eq!(a.membership.rejoin_latencies, b.membership.rejoin_latencies);
        assert!(
            a.membership.snapshots_sent > 0,
            "the outage forces a snapshot"
        );
    }
}
