//! Liveness of the evidence-gated anti-entropy: a command only its
//! submitter holds still reaches the group promptly, whichever of the
//! gate's two clauses has to notice.
//!
//! Both scenarios run a heal-merge fleet of five under a 20-a-second
//! stream submitted at p1–p3 (under capacity: each command decides
//! before the next is due), and submit one extra command at p4 while p4
//! is cut off, so its one broadcast is lost.
//!
//! * A **long** outage freezes p4's log: the *stalled-log* clause
//!   re-gossips every period, and the first repeat after the heal lands.
//! * A **25 ms** outage is over before p4 misses anything else: its log
//!   keeps growing with the stream, so the stalled-log clause never
//!   fires — a gate with that clause alone left the command waiting 23 s,
//!   until the stream ended. The *outvoted-proposal* clause is what
//!   notices: p4 proposes the command, the slot decides a stream command
//!   instead, and the next gossip tick repeats it.
//!
//! Each runs with a command id below and above the stream's: the pool is
//! value-ordered, so the two take different routes to p4's proposal.

use rfd_core::{ProcessId, ProcessSet};
use rfd_net::clock::Nanos;
use rfd_net::estimator::ChenEstimator;
use rfd_net::online::{Fault, FaultSchedule, OnlineScenario};
use rfd_net::service::{ServiceEvent, ServiceRunner, ServiceScenario};

const STREAM_FIRST_ID: u64 = 1_000;
const SMALL_ID: u64 = 1;
const LARGE_ID: u64 = 1_000_000;

fn ms(v: u64) -> Nanos {
    Nanos::from_millis(v)
}

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Cuts p4 off over `[cut_ms, heal_ms)`, submits `id` at p4 at
/// `submit_ms`, and returns how long after the heal `id` was decided.
fn decided_after_heal(cut_ms: u64, heal_ms: u64, submit_ms: u64, id: u64) -> Nanos {
    let stream = (0..500).map(|k| {
        (
            ms(1_000 + k * 50),
            p(1 + k as usize % 3),
            STREAM_FIRST_ID + k,
        )
    });
    let scenario = ServiceScenario {
        online: OnlineScenario {
            n: 5,
            period: ms(50),
            delay: (ms(2), ms(10)),
            sample_every: ms(5),
            duration: ms(30_000),
            seed: 19,
            heal_merge: true,
            schedule: FaultSchedule::new()
                .at(ms(cut_ms), Fault::Partition(ProcessSet::singleton(p(4))))
                .at(ms(heal_ms), Fault::Heal),
            ..OnlineScenario::default()
        },
        commands: stream.chain([(ms(submit_ms), p(4), id)]).collect(),
        ..ServiceScenario::default()
    };
    let mut runner = ServiceRunner::new(ChenEstimator::new(ms(150), 16, ms(600)), scenario);
    let events = runner.run_to_end();
    let report = runner.report();
    assert!(report.agreement_holds() && report.live_logs_converged());
    assert_eq!(
        report.decided_len(),
        501,
        "the stream and the extra command"
    );
    let at = events
        .iter()
        .find_map(|event| match event {
            ServiceEvent::Decided { at, decision, .. } if decision.value == id => Some(*at),
            _ => None,
        })
        .expect("the extra command was decided");
    at.saturating_sub(ms(heal_ms))
}

#[test]
fn a_command_submitted_inside_a_long_partition_is_decided_right_after_the_heal() {
    for id in [SMALL_ID, LARGE_ID] {
        let waited = decided_after_heal(2_000, 6_000, 3_000, id);
        assert!(waited <= ms(150), "command {id} waited {waited:?}");
    }
}

#[test]
fn a_command_whose_only_broadcast_was_lost_is_decided_while_the_log_keeps_moving() {
    for id in [SMALL_ID, LARGE_ID] {
        let waited = decided_after_heal(2_990, 3_015, 3_000, id);
        assert!(waited <= ms(250), "command {id} waited {waited:?}");
    }
}
