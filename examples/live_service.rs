//! A live replicated-decision service, watched as it runs.
//!
//! Three acts tie both execution styles to one question — "what
//! does the group decide, and when?":
//!
//! 1. **Online dashboard**: a 4-node `DecisionService` fleet (consensus
//!    over the membership-emulated `P`) rides a crash and a healed
//!    partition while clients keep submitting commands; every fault,
//!    view change, decision and post-heal state transfer streams out as
//!    it happens.
//! 2. **Campaign**: the same scenario fanned across seeds through
//!    `rfd_sim::Campaign` — the summary a capacity planner would read.
//! 3. **Batch, watched**: the same rotating-coordinator core in the
//!    simulator under an oracle `P`, its decisions printed round by
//!    round from the trace by a `Scheduler::run_until` predicate.
//!
//! Run with: `cargo run --release --example live_service`

use realistic_failure_detectors::algo::consensus::{ConsensusAutomaton, RotatingConsensus};
use realistic_failure_detectors::core::oracles::{Oracle, PerfectOracle};
use realistic_failure_detectors::core::{FailurePattern, ProcessId, ProcessSet, Time};
use realistic_failure_detectors::net::clock::Nanos;
use realistic_failure_detectors::net::estimator::ChenEstimator;
use realistic_failure_detectors::net::online::{Fault, FaultSchedule, OnlineScenario};
use realistic_failure_detectors::net::service::{
    run_service, ServiceEvent, ServiceRunner, ServiceScenario,
};
use realistic_failure_detectors::sim::{
    ticks_for_rounds, Campaign, Scheduler, SimConfig, StopCondition,
};

fn ms(v: u64) -> Nanos {
    Nanos::from_millis(v)
}

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

fn chen() -> ChenEstimator {
    ChenEstimator::new(ms(150), 16, ms(600))
}

fn scenario(seed: u64) -> ServiceScenario {
    let mut s = ServiceScenario {
        online: OnlineScenario {
            n: 4,
            duration: ms(24_000),
            seed,
            heal_merge: true,
            // The cut leaves a 3-node quorum deciding (p3 must catch up
            // by state transfer after the heal); the old coordinator
            // only crashes once the fleet has re-merged.
            schedule: FaultSchedule::new()
                .at(ms(5_000), Fault::Partition(ProcessSet::singleton(p(3))))
                .at(ms(13_000), Fault::Heal)
                .at(ms(18_000), Fault::Crash(p(0))),
            ..OnlineScenario::default()
        },
        ..ServiceScenario::default()
    };
    for i in 0..8u64 {
        // Clients avoid the crashed coordinator and the cut minority.
        s = s.command(ms(1_000 + i * 2_500), p(1 + (i as usize) % 2), 100 + i);
    }
    s
}

fn main() {
    // ---- act 1: the dashboard ------------------------------------------
    println!("== act 1: live decision service (cut+heal p3, then crash p0) ==");
    let mut runner = ServiceRunner::new(chen(), scenario(0));
    // Each node's state-transfer totals at the previous step: the log
    // counts what it adopted and lost, so a line prints when one grew.
    let mut transfer_seen = [(0, 0); 4];
    loop {
        let at = runner.now();
        let Some(events) = runner.step() else {
            break;
        };
        for event in events {
            match event {
                ServiceEvent::Fault { at, fault } => {
                    println!("[t={:>6}ms] ⚡ fault: {fault:?}", at.as_millis());
                }
                ServiceEvent::Submitted { at, node, value } => {
                    println!(
                        "[t={:>6}ms] client → {node}: submit {value}",
                        at.as_millis()
                    );
                }
                ServiceEvent::Decided { at, node, decision } if node == p(1) => {
                    println!(
                        "[t={:>6}ms] {node} decided log[{}] = {} (view {}:{})",
                        at.as_millis(),
                        decision.index,
                        decision.value,
                        decision.view.id,
                        decision.view.member_set(4)
                    );
                }
                ServiceEvent::ViewInstalled { at, node, view } if node == p(1) => {
                    println!(
                        "[t={:>6}ms] {node} installed view {}: {}",
                        at.as_millis(),
                        view.id,
                        view.members
                    );
                }
                _ => {}
            }
        }
        for (ix, seen) in transfer_seen.iter_mut().enumerate() {
            let log = runner.node(ix).log();
            let now = (log.transferred(), log.lost());
            if now != *seen {
                println!(
                    "[t={:>6}ms] {} state transfer: +{} entries ({} lost)",
                    at.as_millis(),
                    p(ix),
                    now.0 - seen.0,
                    now.1 - seen.1
                );
                *seen = now;
            }
        }
    }
    let report = runner.report();
    assert!(report.agreement_holds(), "logs must never fork");
    assert!(report.live_logs_converged(), "healed fleet must converge");
    assert_eq!(report.decided_values().len(), 8, "every command decided");
    assert!(
        report.membership.decisions_transferred > 0,
        "the healed minority catches up by state transfer"
    );
    println!(
        "final log ({} entries): {:?}",
        report.decided_len(),
        report.decided_values()
    );
    println!(
        "transferred {} entries post-heal, {} lost\n",
        report.membership.decisions_transferred, report.membership.decisions_lost
    );

    // ---- act 2: the campaign -------------------------------------------
    println!("== act 2: the same scenario across 6 seeds (campaign API) ==");
    let reports = Campaign::sweep(0..6).map(|seed| {
        let report = run_service(chen(), &scenario(seed));
        assert!(report.agreement_holds());
        (
            report.decided_len(),
            report.membership.decisions_transferred,
            report.membership.view_changes,
        )
    });
    for (seed, (decided, transferred, views)) in reports.iter().enumerate() {
        println!("seed {seed}: {decided} decided, {transferred} transferred, {views} view changes");
    }
    let avg = reports.iter().map(|r| r.0).sum::<u64>() as f64 / reports.len() as f64;
    println!("mean decided throughput: {:.2}/s\n", avg / 24.0);

    // ---- act 3: the batch counterpart, watched round by round -----------
    println!("== act 3: batch rotating-coordinator consensus, watched by run_until ==");
    let n = 4;
    let pattern = FailurePattern::new(n).with_crash(p(0), Time::new(30));
    let rounds = 400;
    let history = PerfectOracle::new(6, 2).generate(&pattern, ticks_for_rounds(n, rounds), 7);
    let proposals: Vec<u64> = vec![104, 104, 104, 104];
    let automata = ConsensusAutomaton::<RotatingConsensus<u64>>::fleet(&proposals);
    let config = SimConfig::new(7, rounds).with_stop(StopCondition::EachCorrectOutput(1));
    let mut printed = 0;
    let result = Scheduler::new(&pattern, &history, automata, &config).run_until(|s| {
        for event in &s.trace().events[printed..] {
            println!(
                "round {}: {} decided {}",
                s.trace().rounds,
                event.process,
                event.value
            );
            assert_eq!(event.value, 104, "validity");
        }
        printed = s.trace().events.len();
        false
    });
    assert_eq!(printed, result.trace.events.len(), "every decision printed");
    for survivor in pattern.correct() {
        assert!(
            result.trace.outputs_of(survivor).next().is_some(),
            "every survivor decides"
        );
    }
    println!("online service and batch algorithm agree on the decision pipeline");
}
