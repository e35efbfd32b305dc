//! E16 — the long-horizon lossy soak: retransmission discharges the
//! quasi-reliable-channel assumption.
//!
//! The paper's rotating-coordinator protocol (Fig. 6) assumes
//! quasi-reliable channels: a message sent by a correct process to a
//! correct process is eventually received. Our lossy transports
//! deliberately violate that — and PR 6 documented the consequence: a
//! send-once stack wedges forever when one conspiring loss pattern
//! eats a consensus frame (10% loss, seed 3, slot 0, permanently).
//! The retransmission plane (state-derived per-slot re-sends and laggard
//! pushes, which also re-send a lost snapshot — see `ARCHITECTURE.md`)
//! rebuilds the assumption *on top of* the lossy wire, and E16 is the
//! long-horizon proof: the compacted decision service, driven through
//! partition / heal cycles at 0/5/10/20% datagram loss across the
//! estimator zoo, where **every** cell must
//!
//! * decide *every submitted command* (no stalled slot, ever — the
//!   wedge is dead),
//! * preserve uniform agreement and lose no acked decision,
//! * hold memory flat (every retained log stays within a small
//!   multiple of the compaction tail; command pools drain to empty;
//!   the nodes' decided-command sets hold the dense command ids as one
//!   run),
//! * hold rejoin cost flat (each cycle's snapshot rejoin lands below a
//!   fixed bound no matter how deep into the run it happens),
//!
//! and every cell replays bit-identically per seed. The fixed baseline
//! runs at 800 ms: a static timeout must be provisioned for the worst
//! loss regime it will meet (at 20% loss a 400 ms window over 50 ms
//! heartbeats false-suspects every few seconds of virtual time — the
//! detector-physics counterpart of `service_differential`'s loss
//! matrix), whereas the adaptive estimators provision themselves.
//!
//! Scale tiers: the grid runs ~1,500 commands per cell;
//! `RFD_E16_FULL=1` appends the headline soak — 100,000 commands
//! (≈ 1.4 hours of virtual time) at 10% loss with periodic outages —
//! which is where the ROADMAP's 10⁵-decision target is discharged.

use crate::estimators::Estimators;
use crate::table::Table;
use crate::{ms, p};
use rfd_core::ProcessSet;
use rfd_net::clock::Nanos;
use rfd_net::estimator::ChenEstimator;
use rfd_net::online::{Fault, FaultSchedule, OnlineScenario};
use rfd_net::service::{CompactionPolicy, ServiceEvent, ServiceRunner, ServiceScenario};

/// Heartbeat period (and the base the retransmission RTO derives from).
const PERIOD_MS: u64 = 50;
/// Compaction keeps this many entries; "flat memory" is gated as a
/// small multiple of it.
const RETAIN: u64 = 16;
/// Quiet tail after the last command for retries and rejoins to drain.
const DRAIN_MS: u64 = 6_000;
/// Every rejoin across the whole horizon must land below this bound —
/// the "flat rejoin cost" gate (snapshot rejoin is O(retained tail),
/// independent of how much history the outage missed).
const REJOIN_CAP_MS: u64 = 4_000;

/// The loss sweep (probability each datagram is dropped).
const LOSSES: [f64; 4] = [0.0, 0.05, 0.10, 0.20];

/// Offered load per loss regime: one command every this many
/// milliseconds. Loss shrinks the channel's decision capacity — a slot
/// that loses a critical frame waits out the slot timer's measured RTO
/// (Jacobson/Karels over slot times, never past the horizon timeout of
/// 2–8 heartbeat periods), so mean slot latency grows with the loss
/// rate and the workload must stay below capacity for the
/// every-command-decided gate to be about *liveness* (nothing wedges)
/// rather than queueing. The sweep keeps utilization comparable across
/// regimes; each cell's realized backlog shows up in the `lag` column
/// (decision timestamp of the last command minus its submit time).
fn cadence_ms(loss: f64) -> u64 {
    if loss >= 0.20 {
        400
    } else if loss >= 0.10 {
        200
    } else if loss >= 0.05 {
        100
    } else {
        50
    }
}

/// One cell's scenario: `commands` commands at a fixed cadence from the
/// three always-majority clients, `cycles` partition/heal outages of
/// `p3` spread evenly through the workload (each deep enough to be
/// excluded and rejoin via snapshot), compaction retaining [`RETAIN`]
/// entries, uniform datagram `loss`.
fn scenario(loss: f64, commands: u64, cycles: u64, seed: u64) -> ServiceScenario {
    let cadence = cadence_ms(loss);
    let workload_ms = commands * cadence;
    let duration_ms = 1_000 + workload_ms + DRAIN_MS;
    let mut schedule = FaultSchedule::new();
    if let Some(span) = workload_ms.checked_div(cycles) {
        let hold = (span / 4).clamp(1_500, 5_000);
        for i in 0..cycles {
            let at = 1_000 + i * span + span / 2;
            schedule = schedule
                .at(ms(at), Fault::Partition(ProcessSet::singleton(p(3))))
                .at(ms(at + hold), Fault::Heal);
        }
    }
    let mut s = ServiceScenario {
        online: OnlineScenario {
            n: 4,
            period: ms(PERIOD_MS),
            duration: ms(duration_ms),
            sample_every: ms(5),
            seed,
            loss,
            heal_merge: true,
            schedule,
            ..OnlineScenario::default()
        },
        ..ServiceScenario::default()
    }
    .with_compaction(CompactionPolicy::retain_last(RETAIN));
    for i in 0..commands {
        s = s.command(ms(1_000 + i * cadence), p((i as usize) % 3), 1_000 + i);
    }
    s
}

/// One soaked cell, gated. Returns the row metrics.
struct Cell {
    decided: u64,
    retransmits: u64,
    duplicates: u64,
    max_retained: usize,
    /// View installations across the fleet: the exclusions and rejoins
    /// of the outage cycles, plus any false exclusion loss caused.
    views: u64,
    rejoins: usize,
    max_rejoin_ms: u64,
    /// How far behind schedule the final command decided: first
    /// decision timestamp of the last log index minus its submit time.
    lag_ms: u64,
}

/// Runs one cell and asserts the full E16 contract on it.
fn soak(label: &str, proto: Estimators, loss: f64, commands: u64, cycles: u64, seed: u64) -> Cell {
    let mut runner = ServiceRunner::new(proto, scenario(loss, commands, cycles, seed));
    // The stream is read as it goes, not buffered: all the soak keeps of
    // it is when the last index was first decided.
    let mut last_decided = None;
    while let Some(events) = runner.step() {
        last_decided = last_decided.or_else(|| {
            events.iter().find_map(|event| match event {
                ServiceEvent::Decided { at, decision, .. } if decision.index == commands - 1 => {
                    Some(at.as_millis())
                }
                _ => None,
            })
        });
    }
    let report = runner.report();
    // Liveness: the wedge is dead — every submitted command decided.
    assert_eq!(
        report.decided_len(),
        commands,
        "[{label}] stalled slots: only {} of {commands} commands decided",
        report.decided_len()
    );
    // Safety: agreement everywhere, nothing acked ever lost.
    assert!(report.agreement_holds(), "[{label}] agreement violated");
    assert!(
        report.live_logs_converged(),
        "[{label}] live logs failed to reconverge"
    );
    assert_eq!(
        report.membership.decisions_lost, 0,
        "[{label}] state transfer lost an acked decision"
    );
    // Flat memory: every retained log stays within a small multiple of
    // the compaction tail, and every pool drained to empty.
    let max_retained = report.logs.iter().map(Vec::len).max().unwrap_or(0);
    assert!(
        max_retained as u64 <= 4 * RETAIN,
        "[{label}] memory grew past the retained tail: {max_retained} entries held"
    );
    assert!(
        report.bases.iter().all(|&b| b > 0),
        "[{label}] compaction never advanced: {:?}",
        report.bases
    );
    for ix in 0..4 {
        assert_eq!(
            runner.node(ix).pending(),
            0,
            "[{label}] node {ix} still holds undecided pooled commands"
        );
    }
    // Flat rejoin cost: every heal across the horizon resolved into a
    // measured rejoin below the fixed bound — the last outage of a long
    // run costs no more than the first.
    let rejoins = &report.membership.rejoin_latencies;
    if cycles > 0 {
        assert!(
            rejoins.len() >= cycles as usize,
            "[{label}] only {} of {cycles} outage cycles resolved into a rejoin",
            rejoins.len()
        );
    }
    let max_rejoin = rejoins.iter().max().copied().unwrap_or(Nanos::ZERO);
    assert!(
        max_rejoin <= ms(REJOIN_CAP_MS),
        "[{label}] rejoin cost grew with the horizon: {}ms",
        max_rejoin.as_millis()
    );
    // The plane fired where it must: lossy wires force retransmissions.
    if loss > 0.0 {
        assert!(
            report.membership.retransmits_sent > 0,
            "[{label}] {loss} loss decided everything without a single retry?"
        );
    }
    let last_submit = 1_000 + (commands - 1) * cadence_ms(loss);
    let last_decided = last_decided.unwrap_or(last_submit);
    Cell {
        decided: report.decided_len(),
        retransmits: report.membership.retransmits_sent,
        duplicates: report.membership.duplicate_frames_dropped,
        max_retained,
        views: report.membership.view_changes,
        rejoins: rejoins.len(),
        max_rejoin_ms: max_rejoin.as_millis(),
        lag_ms: last_decided.saturating_sub(last_submit),
    }
}

/// Whether the hours-of-virtual-time headline soak is requested.
fn full_soak_requested() -> bool {
    std::env::var("RFD_E16_FULL").is_ok_and(|v| v == "1")
}

/// Runs E16 and returns the result table.
///
/// # Panics
///
/// Panics if any cell stalls a slot, violates agreement, loses an
/// acked decision, grows memory past the retained tail, or exceeds the
/// rejoin-cost bound (see the module docs).
#[must_use]
pub fn run_experiment() -> Table {
    let (commands, cycles) = (600, 3);
    let mut table = Table::new(
        "E16 — long-horizon lossy soak (n=4, period 50ms, retain-last-16, p3 outage cycles; \
         every-command-decided + agreement + flat memory + flat rejoin gated per cell)",
        &[
            "estimator",
            "loss",
            "cadence",
            "decided",
            "retransmits",
            "dup dropped",
            "max retained",
            "views",
            "rejoins",
            "max rejoin",
            "lag",
        ],
    );
    // The fixed baseline is provisioned for the 20% regime (module docs).
    for (est_name, proto) in &Estimators::line_up(800) {
        for loss in LOSSES {
            let label = format!("{est_name}/loss {loss}");
            let cell = soak(&label, proto.clone(), loss, commands, cycles, 1);
            table.push(row(est_name, loss, &cell));
        }
    }
    if full_soak_requested() {
        // The ROADMAP's 10⁵-decision horizon: ~1.4 hours of virtual
        // time at 10% loss with an outage every ~10 virtual minutes.
        let proto = Estimators::Chen(ChenEstimator::new(ms(150), 16, ms(600)));
        let cell = soak("chen/headline-soak", proto, 0.10, 100_000, 8, 1);
        table.push(row("chen(α=150ms) [100k soak]", 0.10, &cell));
    }
    table
}

fn row(est_name: &str, loss: f64, cell: &Cell) -> Vec<String> {
    vec![
        est_name.into(),
        format!("{loss:.2}"),
        format!("{}ms", cadence_ms(loss)),
        format!("{}", cell.decided),
        format!("{}", cell.retransmits),
        format!("{}", cell.duplicates),
        format!("{}", cell.max_retained),
        format!("{}", cell.views),
        format!("{}", cell.rejoins),
        format!("{}ms", cell.max_rejoin_ms),
        format!("{}ms", cell.lag_ms),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e16_quick_grid_covers_the_loss_sweep_for_every_estimator() {
        // `soak` gates liveness, agreement, flat memory and flat
        // rejoin per cell; here additionally: the table is complete.
        let table = run_experiment();
        assert_eq!(table.len(), 16, "4 estimators × 4 losses");
    }

    #[test]
    fn e16_cells_are_deterministic_per_seed() {
        let sc = scenario(0.10, 240, 2, 1);
        let mut runner_a = ServiceRunner::new(ChenEstimator::new(ms(150), 16, ms(600)), sc.clone());
        let mut runner_b = ServiceRunner::new(ChenEstimator::new(ms(150), 16, ms(600)), sc);
        assert_eq!(runner_a.run_to_end(), runner_b.run_to_end());
        let (a, b) = (runner_a.report(), runner_b.report());
        assert_eq!(a.logs, b.logs);
        assert_eq!(a.bases, b.bases);
        assert_eq!(a.membership.retransmits_sent, b.membership.retransmits_sent);
        assert_eq!(
            a.membership.duplicate_frames_dropped,
            b.membership.duplicate_frames_dropped
        );
        assert!(
            a.membership.retransmits_sent > 0,
            "a 10% lossy soak must exercise the retransmission plane"
        );
    }
}
