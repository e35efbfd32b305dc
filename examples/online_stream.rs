//! Online detection: a simulated run watched round by round, and the
//! live QoS monitors.
//!
//! The paper's §1.3 point: practitioners run failure detection as a
//! long-lived *service*, not a batch job. This example watches both
//! execution styles as they run:
//!
//! 1. `sim::Scheduler::run_until` — the `T_(D⇒P)` reduction in the
//!    simulator, its predicate called after every round: it prints the
//!    crashes, emulated-`output(P)` changes and output events that are
//!    new since the previous round.
//! 2. `net::OnlineRunner` — a heartbeat fleet under churn (crash, then
//!    recovery, then a final crash), with per-pair QoS read *live* from
//!    incremental monitors.
//!
//! Run with: `cargo run --example online_stream`

use realistic_failure_detectors::algo::consensus::FloodSetConsensus;
use realistic_failure_detectors::algo::reduction::PerfectEmulation;
use realistic_failure_detectors::core::oracles::{Oracle, PerfectOracle};
use realistic_failure_detectors::core::{FailurePattern, ProcessId, ProcessSet, Time};
use realistic_failure_detectors::net::clock::Nanos;
use realistic_failure_detectors::net::estimator::JacobsonEstimator;
use realistic_failure_detectors::net::online::{
    Fault, FaultSchedule, OnlineEvent, OnlineRunner, OnlineScenario,
};
use realistic_failure_detectors::sim::{ticks_for_rounds, Automaton, Scheduler, SimConfig};

fn ms(v: u64) -> Nanos {
    Nanos::from_millis(v)
}

fn main() {
    // ---- 1. Watching a simulated run ----------------------------------
    let n = 4;
    let rounds = 400;
    let p2 = ProcessId::new(2);
    let pattern = FailurePattern::new(n).with_crash(p2, Time::new(60));
    let history = PerfectOracle::new(6, 3).generate(&pattern, ticks_for_rounds(n, rounds), 42);
    let automata = PerfectEmulation::<FloodSetConsensus<u64>>::fleet(n);
    let config = SimConfig::new(42, rounds);
    println!("== watching the T_(D⇒P) reduction run ==");
    let mut crashed = ProcessSet::empty();
    let mut output_p = vec![ProcessSet::empty(); n];
    let mut transitions = 0;
    let mut printed = 0;
    let result = Scheduler::new(&pattern, &history, automata, &config).run_until(|s| {
        let round = s.trace().rounds;
        for pid in pattern.crashed_at(s.time()).difference(crashed) {
            println!("[round {round}] {pid} crashed");
            crashed.insert(pid);
        }
        for (ix, automaton) in s.automata().iter().enumerate() {
            let now = automaton.emulated_suspects().expect("T_(D⇒P) emulates P");
            if now != output_p[ix] {
                println!("[round {round}] p{ix} emulated output(P) = {now}");
                output_p[ix] = now;
                transitions += 1;
            }
        }
        for event in &s.trace().events[printed..] {
            println!(
                "[round {round}] {} output {} at {}",
                event.process, event.value, event.time
            );
        }
        printed = s.trace().events.len();
        false
    });
    println!(
        "run complete: {} rounds, {} deliveries, {transitions} detector transitions observed live\n",
        result.trace.rounds, result.trace.messages_delivered
    );
    // A crash is printed in the round it is first seen, so once.
    assert_eq!(crashed, ProcessSet::singleton(p2), "p2's crash shows up");
    assert!(transitions >= 1, "some emulated output(P) changes");
    // The k-th output of a process is its output(P) after the k-th
    // consensus instance decided.
    let outputs: Vec<Vec<ProcessSet>> = pattern
        .correct()
        .iter()
        .map(|pid| result.trace.outputs_of(pid).map(|e| e.value).collect())
        .collect();
    for of_one in &outputs {
        assert!(!of_one.is_empty(), "every correct process outputs");
        assert!(
            of_one.iter().zip(&outputs[0]).all(|(a, b)| a == b),
            "all outputs agree, instance by instance"
        );
    }

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
