//! Group membership as a Perfect failure detector — §1.3, end to end.
//!
//! The paper's closing observation: real systems emulate `P` with a
//! membership service — "when a process is suspected, it is excluded
//! from the group: every suspicion hence turns out to be accurate."
//!
//! This example runs a five-node membership over the lossy virtual
//! network, crashes two nodes, then *formally verifies* — with the same
//! class checker used for the theory experiments — that the emulated
//! detector history is in class `P`.
//!
//! Run with: `cargo run --example membership_emulates_p`

use realistic_failure_detectors::core::{class_report, CheckParams, ClassId, ProcessId, Time};
use realistic_failure_detectors::net::clock::Nanos;
use realistic_failure_detectors::net::estimator::ChenEstimator;
use realistic_failure_detectors::net::membership::run_membership;
use realistic_failure_detectors::net::online::{Fault, FaultSchedule, OnlineScenario};

fn ms(v: u64) -> Nanos {
    Nanos::from_millis(v)
}

fn main() {
    let scenario = OnlineScenario {
        n: 5,
        schedule: FaultSchedule::new()
            .at(ms(5_000), Fault::Crash(ProcessId::new(2)))
            .at(ms(12_000), Fault::Crash(ProcessId::new(0))), // the coordinator itself
        period: ms(50),
        loss: 0.05,
        delay: (ms(1), ms(5)),
        duration: ms(30_000),
        sample_every: ms(1),
        seed: 7,
        ..OnlineScenario::default()
    };
    println!("membership: 5 nodes, 5% loss, crashes at 5s (p2) and 12s (p0 = coordinator)");
    let outcome = run_membership(ChenEstimator::new(ms(150), 16, ms(600)), &scenario);

    println!("view changes installed : {}", outcome.view_changes);
    println!("false exclusions       : {}", outcome.false_exclusions);
    println!("datagrams sent         : {}", outcome.messages);

    // The paper's claim, machine-checked: the exclusion history IS a
    // Perfect failure detector history for the ground-truth pattern.
    let params = CheckParams::with_margin(Time::new(outcome.duration_ms), 10_000);
    let report = class_report(&outcome.pattern, &outcome.emulated, &params);
    println!(
        "emulated detector class: P={} S={} ◇P={}",
        report.is_in(ClassId::Perfect),
        report.is_in(ClassId::Strong),
        report.is_in(ClassId::EventuallyPerfect),
    );
    assert!(report.is_in(ClassId::Perfect), "{report:?}");
    assert_eq!(outcome.false_exclusions, 0);
    println!("the membership service emulates a Perfect failure detector ✓");
}
