//! Wall-clock churn over **real UDP sockets**: the online runtime off
//! the simulator.
//!
//! Two acts, both over loopback `UdpSocket`s wrapped in the
//! `FaultyTransport` fault plane and paced by the `SystemClock`:
//!
//! 1. A detector fleet rides a crash → recover → crash schedule; the
//!    `OnlineRunner` streams fault/suspicion events as they happen and
//!    the live per-pair `QosMonitor`s deliver the final QoS report.
//! 2. A heal-merge membership fleet is partitioned and healed; the
//!    `MembershipWatcher` reports split-brain duration and the time the
//!    healed sides took to reconverge onto one view.
//!
//! Everything the simulated experiments (E11, E12) measure, measured
//! again on a genuine network stack — the paper's §1.3 "realistic"
//! deployment, literally.
//!
//! Run with: `cargo run --release --example udp_churn`

use realistic_failure_detectors::core::{ProcessId, ProcessSet};
use realistic_failure_detectors::net::clock::{Nanos, SystemClock};
use realistic_failure_detectors::net::estimator::ChenEstimator;
use realistic_failure_detectors::net::online::{
    run_membership_churn_over, Fault, FaultSchedule, OnlineEvent, OnlineRunner, OnlineScenario,
};
use realistic_failure_detectors::net::transport::faulty_cluster;
use realistic_failure_detectors::net::transport::udp::loopback_cluster;

fn ms(v: u64) -> Nanos {
    Nanos::from_millis(v)
}

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

fn chen() -> ChenEstimator {
    ChenEstimator::new(ms(100), 16, ms(400))
}

fn main() -> std::io::Result<()> {
    // ---- 1. Detector fleet under churn ---------------------------------
    let victim = p(2);
    let scenario = OnlineScenario {
        n: 3,
        period: ms(50),
        sample_every: ms(10),
        duration: ms(4_200),
        schedule: FaultSchedule::new()
            .at(ms(1_000), Fault::Crash(victim))
            .at(ms(2_000), Fault::Recover(victim))
            .at(ms(3_000), Fault::Crash(victim)),
        ..OnlineScenario::default()
    };
    let clock = SystemClock::new();
    let transports = loopback_cluster(scenario.n)?;
    let (nodes, injector) = faulty_cluster(transports, clock.clone());
    let mut runner = OnlineRunner::over(chen(), scenario, nodes, injector.clone(), clock);

    println!("== act 1: 3-node chen fleet on UDP loopback, crash→recover→crash p2 ==");
    while let Some(events) = runner.step() {
        for event in events {
            match event {
                OnlineEvent::Fault { at, fault } => {
                    println!("[t={:>6}ms] ⚡ fault: {fault:?}", at.as_millis());
                }
                OnlineEvent::Suspicion {
                    observer,
                    target,
                    at,
                    suspected,
                } if observer == p(0) => {
                    println!(
                        "[t={:>6}ms] {observer} now {} {target}",
                        at.as_millis(),
                        if suspected { "suspects" } else { "trusts" }
                    );
                }
                OnlineEvent::Suspicion { .. } => {}
            }
        }
    }
    let (forwarded, dropped) = injector.stats();
    println!("fault plane: {forwarded} datagrams forwarded, {dropped} dropped");
    for observer in [p(0), p(1)] {
        let r = runner.report(observer, victim).expect("monitored pair");
        println!(
            "{observer} about p2: T_D={}  mistakes={}  λ_M={:.3}/s  P_A={:.4}",
            r.detection_time
                .map_or("missed".into(), |d| format!("{}ms", d.as_millis())),
            r.mistakes,
            r.mistake_rate,
            r.query_accuracy
        );
        assert!(
            r.detection_time.is_some(),
            "{observer} must detect the final crash over real sockets"
        );
        assert!(
            r.mistakes >= 1,
            "the transient outage must register as a mistake episode"
        );
    }

    // ---- 2. Heal-merge membership under a real partition ---------------
    let mut minority = ProcessSet::empty();
    minority.insert(p(2));
    minority.insert(p(3));
    let scenario = OnlineScenario {
        n: 4,
        period: ms(50),
        sample_every: ms(10),
        duration: ms(5_000),
        schedule: FaultSchedule::new()
            .at(ms(1_000), Fault::Partition(minority))
            .at(ms(2_400), Fault::Heal),
        heal_merge: true,
        ..OnlineScenario::default()
    };
    println!("\n== act 2: 4-node heal-merge membership, partition {{p2,p3}} then heal ==");
    let clock = SystemClock::new();
    let transports = loopback_cluster(scenario.n)?;
    let (nodes, injector) = faulty_cluster(transports, clock.clone());
    let report = run_membership_churn_over(chen(), &scenario, nodes, injector, clock);
    let reconverge = report.time_to_reconverge[0];
    println!(
        "split-brain: {}ms   time-to-reconverge after heal: {}   view changes: {}   by-fiat false exclusions: {}",
        report.split_brain_duration.as_millis(),
        reconverge.map_or("never".into(), |d| format!("{}ms", d.as_millis())),
        report.view_changes,
        report.false_exclusions
    );
    assert!(
        !report.false_exclusions.is_empty(),
        "the cut minority is excluded by fiat while partitioned"
    );
    let reconverge = reconverge.expect("healed sides must merge back into one view");
    // Generous wall-clock bound (typical: well under 100 ms) so a loaded
    // CI runner cannot flake the smoke run.
    assert!(
        reconverge < ms(2_000),
        "reconvergence took {reconverge} — merge did not engage"
    );
    println!("healed split-brain merged back into a single authoritative view");
    Ok(())
}
