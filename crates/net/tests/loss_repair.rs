//! A lost frame is repaired in about a round trip, not a trust horizon.
//!
//! The fleet runs the benchmark's `lossy_n5` cadence: five nodes, 10 %
//! datagram loss, 2–10 ms one-way delay, 50 ms heartbeats, 5 ms ticks,
//! Chen's estimator with α = 150 ms, a 16-entry compaction tail and one
//! command every 200 ms. A slot whose frame is lost waits for its retry
//! timer. Armed at the trust horizon, that timer would wait ≈ 200–250 ms
//! here, and some commands would take over 300 ms. Armed at the measured
//! slot-time RTO, it fires within a few round trips, so 200 ms is ample.

use rfd_core::ProcessId;
use rfd_net::clock::Nanos;
use rfd_net::estimator::ChenEstimator;
use rfd_net::online::OnlineScenario;
use rfd_net::service::{CompactionPolicy, ServiceEvent, ServiceRunner, ServiceScenario};

const N: usize = 5;
const COMMANDS: u64 = 1_500;
const GAP_MS: u64 = 200;
const FIRST_DUE_MS: u64 = 1_000;

fn ms(v: u64) -> Nanos {
    Nanos::from_millis(v)
}

#[test]
fn no_command_waits_out_a_horizon_timer_under_ten_percent_loss() {
    let due = |k: u64| ms(FIRST_DUE_MS + k * GAP_MS);
    let scenario = ServiceScenario {
        online: OnlineScenario {
            n: N,
            period: ms(50),
            loss: 0.10,
            delay: (ms(2), ms(10)),
            sample_every: ms(5),
            duration: due(COMMANDS).saturating_add(ms(5_000)),
            seed: 1,
            heal_merge: true,
            ..OnlineScenario::default()
        },
        commands: (0..COMMANDS)
            .map(|k| (due(k), ProcessId::new(k as usize % N), k + 1))
            .collect(),
        ..ServiceScenario::default()
    }
    .with_compaction(CompactionPolicy::retain_last(16));
    let mut runner = ServiceRunner::new(ChenEstimator::new(ms(150), 16, ms(600)), scenario);
    let events = runner.run_to_end();
    let report = runner.report();
    assert!(report.agreement_holds() && report.live_logs_converged());
    assert!(
        report.membership.retransmits_sent > 0,
        "loss without repair"
    );
    // Due → first decision anywhere, per command.
    let mut first = vec![None; COMMANDS as usize];
    for event in &events {
        if let ServiceEvent::Decided { at, decision, .. } = event {
            first[(decision.value - 1) as usize].get_or_insert(*at);
        }
    }
    let (worst, value) = first
        .iter()
        .enumerate()
        .map(|(k, at)| {
            let at = at.unwrap_or_else(|| panic!("command {} never decided", k + 1));
            (at.saturating_sub(due(k as u64)), k + 1)
        })
        .max()
        .expect("commands were submitted");
    assert!(
        worst <= ms(200),
        "command {value} waited {worst} from due to first decision"
    );
}
