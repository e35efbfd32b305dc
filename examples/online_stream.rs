//! Online detection: the streaming run driver and the live QoS monitors.
//!
//! The paper's §1.3 point: practitioners run failure detection as a
//! long-lived *service*, not a batch job. This example shows both new
//! online surfaces:
//!
//! 1. `sim::StreamRun` — a consensus run consumed incrementally: crashes,
//!    emulated-detector transitions and decisions arrive as typed events
//!    while the run executes.
//! 2. `net::OnlineRunner` — a heartbeat fleet under churn (crash, then
//!    recovery, then a final crash), with per-pair QoS read *live* from
//!    incremental monitors.
//!
//! Run with: `cargo run --example online_stream`

use realistic_failure_detectors::algo::consensus::FloodSetConsensus;
use realistic_failure_detectors::algo::reduction::PerfectEmulation;
use realistic_failure_detectors::core::oracles::{Oracle, PerfectOracle};
use realistic_failure_detectors::core::{FailurePattern, ProcessId, Time};
use realistic_failure_detectors::net::clock::Nanos;
use realistic_failure_detectors::net::estimator::JacobsonEstimator;
use realistic_failure_detectors::net::online::{
    Fault, FaultSchedule, OnlineEvent, OnlineRunner, OnlineScenario,
};
use realistic_failure_detectors::sim::{ticks_for_rounds, SimConfig, StreamEvent, StreamRun};

fn ms(v: u64) -> Nanos {
    Nanos::from_millis(v)
}

fn main() {
    // ---- 1. Streaming a simulated run ---------------------------------
    let n = 4;
    let rounds = 400;
    let pattern = FailurePattern::new(n).with_crash(ProcessId::new(2), Time::new(60));
    let history = PerfectOracle::new(6, 3).generate(&pattern, ticks_for_rounds(n, rounds), 42);
    let automata = PerfectEmulation::<FloodSetConsensus<u64>>::fleet(n);
    let config = SimConfig::new(42, rounds);
    let mut stream = StreamRun::new(&pattern, &history, automata, &config);
    println!("== streaming the T_(D⇒P) reduction run ==");
    let mut transitions = 0u32;
    while let Some(event) = stream.next_event() {
        match event {
            StreamEvent::Crashed { process, at } => {
                println!("[t={at:?}] {process} crashed");
            }
            StreamEvent::SuspectsChanged {
                process, suspects, ..
            } => {
                transitions += 1;
                println!(
                    "[round {}] {process} emulated output(P) = {suspects}",
                    stream.scheduler().rounds()
                );
            }
            StreamEvent::Output { event, .. } => {
                println!(
                    "[t={:?}] {} delivered output {:?}",
                    event.time, event.process, event.value
                );
            }
            StreamEvent::Decided { process, value, .. } => {
                println!("{process} decided {value:?}");
            }
            StreamEvent::Delivery(_) => {}
        }
    }
    let result = stream.finish();
    println!(
        "run complete: {} rounds, {} deliveries, {} detector transitions observed live\n",
        result.trace.rounds, result.trace.messages_delivered, transitions
    );

    // ---- 2. The online runner under churn -----------------------------
    let p2 = ProcessId::new(2);
    let scenario = OnlineScenario {
        n: 4,
        duration: ms(24_000),
        schedule: FaultSchedule::new()
            .at(ms(6_000), Fault::Crash(p2))
            .at(ms(12_000), Fault::Recover(p2))
            .at(ms(18_000), Fault::Crash(p2)),
        ..OnlineScenario::default()
    };
    let mut runner = OnlineRunner::new(JacobsonEstimator::new(4.0, ms(500)), scenario);
    println!("== online detection under churn (jacobson, n=4) ==");
    while let Some(events) = runner.step() {
        for event in events {
            match event {
                OnlineEvent::Fault { at, fault } => println!("[t={at}] fault: {fault:?}"),
                OnlineEvent::Suspicion {
                    observer,
                    target,
                    at,
                    suspected,
                } => {
                    if observer == ProcessId::new(0) {
                        println!(
                            "[t={at}] {observer} now {} {target}",
                            if suspected { "suspects" } else { "trusts" }
                        );
                    }
                }
            }
        }
    }
    let report = runner
        .report(ProcessId::new(0), p2)
        .expect("p0 monitors p2");
    println!(
        "p0 about p2: T_D={:?}  λ_M={:.3}/s  T_M={}  P_A={:.4}",
        report.detection_time,
        report.mistake_rate,
        report.avg_mistake_duration,
        report.query_accuracy
    );
}
