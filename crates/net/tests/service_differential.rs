//! Differential test: the **online** `DecisionService` (live heartbeat
//! membership emulating `P`, message-passing consensus over a seeded
//! virtual network) against the **batch** `rfd_algo` path (the same
//! rotating-coordinator core in the lock-step simulator under an oracle
//! `P` history).
//!
//! Contract — the E13 acceptance gate, `prop_qos.rs`'s
//! incremental-equals-reference pattern one layer up: for the same command
//! workload and the same fault pattern, the online service's decided
//! sequence equals the batch algorithm's output, slot by slot, for
//! every estimator × schedule cell; and the online sequence reproduces
//! bit-for-bit per seed.

//!
//! A second differential axis pins the weather planes' zero-cost claim:
//! a run whose [`Weather`] switches every plane on at zero strength
//! must produce the **bit-identical** decision and QoS timelines of
//! the plain run for the same seed — a plane that is off draws nothing
//! from the medium's RNG and moves no due time.

use rfd_algo::consensus::{ConsensusAutomaton, RotatingConsensus};
use rfd_core::oracles::{Oracle, PerfectOracle};
use rfd_core::{FailurePattern, ProcessId, ProcessSet, Time};
use rfd_net::clock::Nanos;
use rfd_net::estimator::{ChenEstimator, FixedTimeout, JacobsonEstimator};
use rfd_net::online::{reports_equal, Fault, FaultSchedule, OnlineRunner, OnlineScenario};
use rfd_net::service::{run_service, ServiceEvent, ServiceRunner, ServiceScenario};
use rfd_net::weather::Weather;
use rfd_net::ArrivalEstimator;
use rfd_sim::{run, ticks_for_rounds, SimConfig, StopCondition};

fn ms(v: u64) -> Nanos {
    Nanos::from_millis(v)
}

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

const N: usize = 4;

/// One differential cell: the fault schedule, the nodes clients may
/// talk to (kept clear of crashed/partitioned submitters so every
/// command is decidable in submission order), and heal-merge policy.
struct Cell {
    name: &'static str,
    schedule: FaultSchedule,
    clients: &'static [usize],
    heal_merge: bool,
    duration_ms: u64,
}

fn cells() -> Vec<Cell> {
    vec![
        Cell {
            name: "steady",
            schedule: FaultSchedule::new(),
            clients: &[0, 1, 2, 3],
            heal_merge: false,
            duration_ms: 22_000,
        },
        Cell {
            name: "coordinator crash",
            schedule: FaultSchedule::new().at(ms(6_500), Fault::Crash(p(0))),
            clients: &[1, 2, 3],
            heal_merge: false,
            duration_ms: 30_000,
        },
        Cell {
            name: "minority cut + heal",
            schedule: FaultSchedule::new()
                .at(ms(5_000), Fault::Partition(ProcessSet::singleton(p(3))))
                .at(ms(13_000), Fault::Heal),
            clients: &[0, 1, 2],
            heal_merge: true,
            duration_ms: 30_000,
        },
    ]
}

/// The command workload of a cell: values increasing in submission
/// order, spaced far enough apart that each decision lands (even
/// through an exclusion window) before the next command exists.
fn workload(cell: &Cell, seed: u64) -> ServiceScenario {
    let mut scenario = ServiceScenario {
        online: OnlineScenario {
            n: N,
            duration: ms(cell.duration_ms),
            seed,
            heal_merge: cell.heal_merge,
            schedule: cell.schedule.clone(),
            ..OnlineScenario::default()
        },
        ..ServiceScenario::default()
    };
    for i in 0..6u64 {
        let client = cell.clients[(i as usize) % cell.clients.len()];
        scenario = scenario.command(ms(1_000 + i * 2_500), p(client), 100 + i);
    }
    scenario
}

/// The batch reference: one `rfd_algo` rotating-coordinator run per log
/// slot, in the lock-step simulator under a Perfect oracle history —
/// every process proposes the slot's command (the same state the online
/// gossip reaches before each spaced submission's instance runs), with
/// the processes already crashed at submission time crashed in the
/// pattern. Returns the decided sequence.
fn batch_reference(cell: &Cell, commands: &[u64], submit_ms: &[u64]) -> Vec<u64> {
    let rounds = 400;
    commands
        .iter()
        .zip(submit_ms)
        .map(|(&value, &at)| {
            let mut pattern = FailurePattern::new(N);
            for ix in 0..N {
                if let Some(crash) = cell.schedule.final_crash(p(ix)) {
                    if crash.as_millis() <= at {
                        pattern = pattern.with_crash(p(ix), Time::new(1));
                    }
                }
            }
            let oracle = PerfectOracle::new(6, 2);
            let history = oracle.generate(&pattern, ticks_for_rounds(N, rounds), 11);
            let proposals = vec![value; N];
            let automata = ConsensusAutomaton::<RotatingConsensus<u64>>::fleet(&proposals);
            let config = SimConfig::new(5, rounds).with_stop(StopCondition::EachCorrectOutput(1));
            let result = run(&pattern, &history, automata, &config);
            let mut decisions = result.trace.events.iter().map(|e| e.value);
            let first = decisions.next().expect("the batch run decides");
            assert!(
                decisions.all(|d| d == first),
                "batch agreement violated in the reference itself"
            );
            first
        })
        .collect()
}

fn assert_cell_matches<E: ArrivalEstimator + Clone>(estimator: E, est_name: &str, cell: &Cell) {
    let scenario = workload(cell, 7);
    let commands: Vec<u64> = scenario.commands.iter().map(|(_, _, v)| *v).collect();
    let submit_ms: Vec<u64> = scenario
        .commands
        .iter()
        .map(|(at, _, _)| at.as_millis())
        .collect();

    let mut runner = ServiceRunner::new(estimator.clone(), scenario.clone());
    let events = runner.run_to_end();
    let online = runner.report();
    assert!(
        online.agreement_holds(),
        "[{est_name}/{}] logs fork",
        cell.name
    );
    assert!(
        online.live_logs_converged(),
        "[{est_name}/{}] live logs diverge: {:?}",
        cell.name,
        online.logs
    );
    let online_seq = online.decided_values();
    assert_eq!(
        online_seq.len(),
        commands.len(),
        "[{est_name}/{}] not every command decided: {online_seq:?}",
        cell.name
    );

    let batch_seq = batch_reference(cell, &commands, &submit_ms);
    assert_eq!(
        online_seq, batch_seq,
        "[{est_name}/{}] online decisions diverge from the batch algorithm",
        cell.name
    );

    // Same seed ⇒ bit-identical event stream: every decision, view,
    // transfer and sync at the same tick.
    let again = ServiceRunner::new(estimator, scenario).run_to_end();
    assert_eq!(events, again, "[{est_name}/{}]", cell.name);
}

#[test]
fn online_decisions_match_batch_for_fixed_timeout() {
    for cell in cells() {
        assert_cell_matches(FixedTimeout::new(ms(400)), "fixed", &cell);
    }
}

#[test]
fn online_decisions_match_batch_for_chen() {
    for cell in cells() {
        assert_cell_matches(ChenEstimator::new(ms(150), 16, ms(600)), "chen", &cell);
    }
}

#[test]
fn online_decisions_match_batch_for_jacobson() {
    for cell in cells() {
        assert_cell_matches(JacobsonEstimator::new(4.0, ms(600)), "jacobson", &cell);
    }
}

// ---- weather planes that are off ------------------------------------

/// Every weather plane the medium draws for, switched on at zero
/// strength from the first tick: no duplication, no reordering, a zero
/// spike, and a gray `p1` that is zero late. The gray entry keeps the
/// medium on its weather path all run, so the run exercises that path
/// with nothing to do.
fn off_planes() -> Weather {
    Weather::new()
        .duplicate(0, Nanos::ZERO, None)
        .reorder(0, ms(40), Nanos::ZERO, None)
        .spike(Nanos::ZERO, Nanos::ZERO, None)
        .gray(p(1), Nanos::ZERO, Nanos::ZERO, None)
}

/// The event stream without the weather directives themselves.
fn without_weather(events: Vec<ServiceEvent>) -> Vec<ServiceEvent> {
    events
        .into_iter()
        .filter(|e| {
            !matches!(
                e,
                ServiceEvent::Fault {
                    fault: Fault::Weather(_),
                    ..
                }
            )
        })
        .collect()
}

/// A plane that is off draws nothing from the medium's RNG and moves
/// no due time: with all of them off, the service run is bit-identical
/// to the run without them — same event stream, logs and membership
/// accounting — with and without loss, whose draws share that RNG.
#[test]
fn off_weather_planes_draw_nothing_and_leave_the_service_run_unchanged() {
    for cell in cells() {
        for loss in [0.0, 0.03] {
            let mut scenario = workload(&cell, 7);
            scenario.online.loss = loss;
            let mut off = ServiceRunner::new(
                ChenEstimator::new(ms(150), 16, ms(600)),
                off_planes().apply_to_service(scenario.clone()),
            );
            let off_events = without_weather(off.run_to_end());
            let off = off.report();
            let mut plain = ServiceRunner::new(ChenEstimator::new(ms(150), 16, ms(600)), scenario);
            let plain_events = plain.run_to_end();
            let plain = plain.report();
            let tag = format!("{}/loss {loss}", cell.name);
            assert_eq!(off_events, plain_events, "[{tag}] event stream");
            assert_eq!(off.logs, plain.logs, "[{tag}] final logs");
            assert_eq!(off.bases, plain.bases, "[{tag}] compaction bases");
            assert_eq!(off.up, plain.up, "[{tag}] liveness map");
            assert_eq!(
                off.membership.view_changes, plain.membership.view_changes,
                "[{tag}] view changes"
            );
            assert_eq!(
                off.membership.decisions_transferred, plain.membership.decisions_transferred,
                "[{tag}] transfer accounting"
            );
            assert_eq!(
                off.membership.sync_bytes_sent, plain.membership.sync_bytes_sent,
                "[{tag}] transfer bytes"
            );
            assert_eq!(
                off.membership.weather_directives, 4,
                "[{tag}] the four off planes were applied"
            );
        }
    }
}

/// The same claim one layer down: the detector-only fleet's per-pair
/// QoS timelines with every plane off equal the plain fleet's bitwise
/// (every float, every counter, the longest-mistake tail included).
#[test]
fn off_weather_planes_leave_qos_timelines_bitwise_equal() {
    for cell in cells() {
        let mut scenario = workload(&cell, 11).online;
        scenario.loss = 0.02;
        let mut off = OnlineRunner::new(
            ChenEstimator::new(ms(150), 16, ms(600)),
            off_planes().apply_to(scenario.clone()),
        );
        off.run_to_end();
        let mut plain = OnlineRunner::new(ChenEstimator::new(ms(150), 16, ms(600)), scenario);
        plain.run_to_end();
        for a in 0..N {
            for b in 0..N {
                if a == b {
                    continue;
                }
                let (x, y) = (off.report(p(a), p(b)), plain.report(p(a), p(b)));
                match (x, y) {
                    (Some(x), Some(y)) => assert!(
                        reports_equal(&x, &y),
                        "[{}] pair {a}->{b} diverged: {x:?} vs {y:?}",
                        cell.name
                    ),
                    (x, y) => assert_eq!(
                        x.is_some(),
                        y.is_some(),
                        "[{}] pair {a}->{b} monitor presence",
                        cell.name
                    ),
                }
            }
        }
    }
}

/// The service stays live under loss: every loss regime below the
/// detector's false-suspicion threshold decides the full workload with
/// agreement.
///
/// The retransmission plane is what makes that so: stalled consensus
/// instances re-send their in-flight rounds on a measured round-trip
/// timeout, so no pattern of conspiring losses can wedge an instance
/// for good. Seed 3 — which used to stall after slot 0 at 10% loss —
/// now decides everything at 5%, 10% and 20%. The one knob that must
/// respect the regime is the *detector's* timeout: at
/// 20% loss a 400 ms deadline over 100 ms heartbeats falsely suspects
/// a live peer (four conspiring heartbeat losses, p = 0.2⁴ per
/// window), and merge-less exclusion of two nodes leaves the group
/// below the majority of the original four — so the 20% cell runs the
/// loss-appropriate 800 ms deadline (p = 0.2⁸).
#[test]
fn service_stays_live_under_loss() {
    let cell = &cells()[0];
    for (loss, timeout) in [(0.05, 400), (0.10, 400), (0.20, 800)] {
        for seed in [3u64, 17] {
            let mut scenario = workload(cell, seed);
            scenario.online.loss = loss;
            let report = run_service(FixedTimeout::new(ms(timeout)), &scenario);
            assert!(
                report.agreement_holds(),
                "[loss {loss}/seed {seed}] logs fork"
            );
            assert_eq!(
                report.decided_values().len(),
                6,
                "[loss {loss}/seed {seed}] not every command decided"
            );
            assert!(
                report.membership.retransmits_sent > 0,
                "[loss {loss}/seed {seed}] loss without retransmission"
            );
        }
    }
}

/// The retransmission plane is *quiescent* on a calm network: a
/// lossless run executes zero retransmissions — retry timers arm, but
/// fresh per-poll progress keeps resetting them, so the no-retry path
/// sends not one extra datagram.
#[test]
fn calm_runs_execute_zero_retransmissions() {
    let cell = &cells()[0]; // steady: no loss, no faults
    let report = run_service(FixedTimeout::new(ms(400)), &workload(cell, 7));
    assert!(report.agreement_holds(), "[{}] logs fork", cell.name);
    assert_eq!(
        report.membership.retransmits_sent, 0,
        "calm run retransmitted"
    );
    // `duplicate_frames_dropped` is *not* zero here (76 on this cell):
    // every node relays each `Decided` index to every peer, and a
    // participant's eager next-round estimate reaches a coordinator
    // that has already decided — both land on the idempotence layer.
    // The calm claim is only that no *retry* traffic exists.
}
