//! The stack that decides emulates `P`.
//!
//! E8 checks that a bare membership fleet's output — everyone outside
//! the view — is a Perfect detector history. This runs the same check
//! one layer up, on the membership inside a [`DecisionService`] fleet
//! that is deciding commands at the same time: service frames count as
//! liveness evidence there, and the per-period duties ride the
//! membership's heartbeat, so the emulated detector is not the bare
//! fleet's.
//!
//! E8's schedule at n = 5 (p2 crashes at 5 s, p0 at 10 s, 20 s in all,
//! 50 ms heartbeats, 1–5 ms delay, 1 ms tick) carries 90 commands
//! submitted at the survivors p1, p3 and p4, one every 200 ms. After
//! every tick each node's `emulated_suspects()` is recorded into a
//! [`History`]; the history must be in [`ClassId::Perfect`], every
//! command decided and no live process excluded — in both membership
//! modes, on every row below.
//!
//! [`DecisionService`]: rfd_net::service::DecisionService

use rfd_core::{
    class_report, CheckParams, ClassId, FailurePattern, History, ProcessId, ProcessSet, Time,
};
use rfd_net::clock::Nanos;
use rfd_net::estimator::ChenEstimator;
use rfd_net::online::{Fault, FaultSchedule, OnlineScenario};
use rfd_net::service::{ServiceRunner, ServiceScenario};

const N: usize = 5;
const DURATION_MS: u64 = 20_000;
const COMMANDS: u64 = 90;

fn ms(v: u64) -> Nanos {
    Nanos::from_millis(v)
}

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// `(loss, Chen α in ms)`: the rows E8 finds Perfect for a bare
/// membership fleet. At 30 % loss, α = 150 ms fails these checks.
const ROWS: [(f64, u64); 3] = [(0.0, 150), (0.10, 400), (0.10, 150)];
const SEEDS: [u64; 2] = [1, 7];

fn scenario(loss: f64, seed: u64, heal_merge: bool) -> ServiceScenario {
    let survivors = [p(1), p(3), p(4)];
    ServiceScenario {
        online: OnlineScenario {
            n: N,
            period: ms(50),
            loss,
            delay: (ms(1), ms(5)),
            duration: ms(DURATION_MS),
            sample_every: ms(1),
            seed,
            schedule: FaultSchedule::new()
                .at(ms(5_000), Fault::Crash(p(2)))
                .at(ms(10_000), Fault::Crash(p(0))),
            heal_merge,
            ..OnlineScenario::default()
        },
        commands: (0..COMMANDS)
            .map(|i| (ms(200 * i), survivors[i as usize % 3], i))
            .collect(),
        ..ServiceScenario::default()
    }
}

/// Runs one cell and asserts its three properties.
fn assert_emulates_p(loss: f64, alpha_ms: u64, seed: u64, heal_merge: bool) {
    let cell = format!("loss {loss}, α = {alpha_ms} ms, seed {seed}, heal_merge {heal_merge}");
    let scenario = scenario(loss, seed, heal_merge);
    let mut pattern = FailurePattern::new(N);
    for pid in ProcessSet::full(N) {
        if let Some(t) = scenario.online.schedule.final_crash(pid) {
            pattern.set_crash(pid, Time::new(t.as_millis()));
        }
    }
    let mut runner = ServiceRunner::new(ChenEstimator::new(ms(alpha_ms), 16, ms(600)), scenario);
    let mut emulated: History<ProcessSet> = History::new(N, ProcessSet::empty());
    loop {
        let at = Time::new(runner.now().as_millis());
        if runner.step().is_none() {
            break;
        }
        for pid in ProcessSet::full(N) {
            emulated.set_from(pid, at, runner.node(pid.index()).emulated_suspects());
        }
    }

    let params = CheckParams::with_margin(Time::new(DURATION_MS), DURATION_MS / 6);
    let classes = class_report(&pattern, &emulated, &params);
    assert!(classes.is_in(ClassId::Perfect), "{cell}: {classes:?}");
    let report = runner.report();
    let mut decided = report.decided_values();
    decided.sort_unstable();
    assert_eq!(
        decided,
        (0..COMMANDS).collect::<Vec<_>>(),
        "{cell}: every command decided"
    );
    assert!(
        report.membership.false_exclusions.is_empty(),
        "{cell}: {:?}",
        report.membership.false_exclusions
    );
}

#[test]
fn the_merge_less_service_emulates_p() {
    for (loss, alpha_ms) in ROWS {
        for seed in SEEDS {
            assert_emulates_p(loss, alpha_ms, seed, false);
        }
    }
}

#[test]
fn the_heal_merge_service_emulates_p() {
    for (loss, alpha_ms) in ROWS {
        for seed in SEEDS {
            assert_emulates_p(loss, alpha_ms, seed, true);
        }
    }
}
