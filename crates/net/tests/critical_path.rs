//! How many one-way delays a decision takes on a calm fleet.
//!
//! Five nodes, every datagram exactly `D` in flight, a poll every `TICK`.
//! Round 0 of the rotating coordinator has no phase 1, so a slot costs a
//! `Propose` out and an `Ack` back — two delays from the moment `p0`
//! holds the command — and the poll in which `p0` commits slot *k* opens
//! slot *k + 1*, so a backlog pays those two delays per command and
//! nothing in between. A command submitted elsewhere pays one more delay
//! to reach `p0`. (With a phase 1 in round 0 each slot cost four: gossip,
//! estimate, proposal, ack.)

use rfd_core::ProcessId;
use rfd_net::clock::Nanos;
use rfd_net::estimator::ChenEstimator;
use rfd_net::online::OnlineScenario;
use rfd_net::service::{ServiceEvent, ServiceReport, ServiceRunner, ServiceScenario};

const N: usize = 5;
/// The one-way delay of every datagram.
const D: Nanos = Nanos::from_millis(10);
/// The poll tick.
const TICK: Nanos = Nanos::from_millis(1);

fn ms(v: u64) -> Nanos {
    Nanos::from_millis(v)
}

fn run(commands: Vec<(Nanos, ProcessId, u64)>) -> (ServiceReport, Vec<ServiceEvent>) {
    let scenario = ServiceScenario {
        online: OnlineScenario {
            n: N,
            period: ms(50),
            delay: (D, D),
            sample_every: TICK,
            duration: ms(4_000),
            seed: 3,
            ..OnlineScenario::default()
        },
        commands,
        ..ServiceScenario::default()
    };
    let mut runner = ServiceRunner::new(ChenEstimator::new(ms(150), 16, ms(600)), scenario);
    let events = runner.run_to_end();
    let report = runner.report();
    assert!(report.agreement_holds() && report.live_logs_converged());
    assert_eq!(report.membership.retransmits_sent, 0, "a calm fleet");
    (report, events)
}

/// When `value` was first decided, at any node.
fn first_decided(events: &[ServiceEvent], value: u64) -> Nanos {
    events
        .iter()
        .find_map(|event| match event {
            ServiceEvent::Decided { at, decision, .. } if decision.value == value => Some(*at),
            _ => None,
        })
        .unwrap_or_else(|| panic!("command {value} was never decided"))
}

/// `delays` one-way delays, with a tick of slack for each.
fn budget(delays: u64) -> Nanos {
    Nanos::from_nanos(delays * (D.as_nanos() + TICK.as_nanos()))
}

#[test]
fn a_command_submitted_at_the_coordinator_is_decided_in_two_delays() {
    let (_, events) = run(vec![(ms(1_000), ProcessId::new(0), 7)]);
    let took = first_decided(&events, 7).saturating_sub(ms(1_000));
    assert!(took <= budget(2), "submit → decide took {took:?}");
}

#[test]
fn a_command_submitted_elsewhere_is_decided_in_three_delays() {
    let (_, events) = run(vec![(ms(1_000), ProcessId::new(3), 7)]);
    let took = first_decided(&events, 7).saturating_sub(ms(1_000));
    assert!(took <= budget(3), "submit → decide took {took:?}");
}

#[test]
fn a_backlog_pays_two_delays_a_slot() {
    let commands = 50u64;
    let backlog = (0..commands)
        .map(|k| (ms(1_000), ProcessId::new(k as usize % N), 100 + k))
        .collect();
    let (report, events) = run(backlog);
    assert_eq!(report.decided_len(), commands);
    let last = (0..commands)
        .map(|k| first_decided(&events, 100 + k))
        .max()
        .expect("a nonempty backlog");
    let per_slot = Nanos::from_nanos(last.saturating_sub(ms(1_000)).as_nanos() / commands);
    assert!(per_slot <= budget(2), "{per_slot:?} a slot");
}
