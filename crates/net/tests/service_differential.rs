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
//! A second differential axis pins the weather DSL's zero-cost claim:
//! a [`Weather`]-wrapped fleet with every fault plane disabled must
//! produce the **bit-identical** decision and QoS timelines of the
//! plain `FaultyTransport` path for the same seed — the DSL is a
//! strict superset of the bare substrate, not a fork of it.

use rfd_algo::consensus::{ConsensusAutomaton, RotatingConsensus};
use rfd_core::oracles::{Oracle, PerfectOracle};
use rfd_core::{FailurePattern, ProcessId, ProcessSet, Time};
use rfd_net::clock::{Nanos, VirtualClock};
use rfd_net::estimator::{ChenEstimator, FixedTimeout, JacobsonEstimator};
use rfd_net::online::{reports_equal, Fault, FaultSchedule, OnlineRunner, OnlineScenario};
use rfd_net::service::{run_service, ServiceRunner, ServiceScenario};
use rfd_net::transport::{
    Endpoint, FaultInjector, FaultyTransport, InMemoryNetwork, NetworkConfig,
};
use rfd_net::weather::{weather_online_runner, weather_service_runner, Weather};
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

// ---- weather DSL vs bare FaultyTransport ------------------------------

/// The pre-weather substrate, built by hand: a reliable seeded network
/// wrapped per node by a shared [`FaultInjector`] carrying the
/// scenario's loss, with **unskewed** clocks — exactly what the fleet
/// looked like before the weather planes existed.
fn bare_faulty_fleet(
    scenario: &OnlineScenario,
) -> (
    Vec<FaultyTransport<Endpoint, VirtualClock>>,
    FaultInjector,
    VirtualClock,
) {
    let clock = VirtualClock::new();
    let config =
        NetworkConfig::reliable(scenario.delay.0, scenario.delay.1).with_seed(scenario.seed);
    let net = InMemoryNetwork::new(scenario.n, config, clock.clone());
    let injector = FaultInjector::new(scenario.loss, scenario.seed);
    let transports = (0..scenario.n)
        .map(|ix| FaultyTransport::new(net.endpoint(p(ix)), injector.clone(), clock.clone()))
        .collect();
    (transports, injector, clock)
}

/// A calm [`Weather`] run is bit-identical to the bare `FaultyTransport`
/// path: same decided timeline, same logs, same membership accounting —
/// with and without injector loss, so the quiet fault planes provably
/// consume zero extra RNG draws and add zero timing perturbation.
#[test]
fn calm_weather_is_bit_identical_to_the_bare_faulty_path() {
    for cell in cells() {
        for loss in [0.0, 0.03] {
            let mut scenario = workload(&cell, 7);
            scenario.online.loss = loss;
            // The DSL path: an explicitly calm weather over the same
            // scenario.
            let calm = Weather::new();
            assert!(calm.is_calm());
            let mut dsl = weather_service_runner(
                ChenEstimator::new(ms(150), 16, ms(600)),
                calm.apply_to_service(scenario.clone()),
            );
            let dsl_events = dsl.run_to_end();
            let dsl = dsl.report();
            // The bare path: the same substrate assembled without the
            // weather module.
            let (transports, injector, clock) = bare_faulty_fleet(&scenario.online);
            let mut bare = ServiceRunner::over(
                ChenEstimator::new(ms(150), 16, ms(600)),
                scenario.clone(),
                transports,
                injector,
                clock,
            );
            let bare_events = bare.run_to_end();
            let bare = bare.report();
            let tag = format!("{}/loss {loss}", cell.name);
            assert_eq!(dsl_events, bare_events, "[{tag}] event stream");
            assert_eq!(dsl.logs, bare.logs, "[{tag}] final logs");
            assert_eq!(dsl.bases, bare.bases, "[{tag}] compaction bases");
            assert_eq!(dsl.up, bare.up, "[{tag}] liveness map");
            assert_eq!(
                dsl.membership.view_changes, bare.membership.view_changes,
                "[{tag}] view changes"
            );
            assert_eq!(
                dsl.membership.decisions_transferred, bare.membership.decisions_transferred,
                "[{tag}] transfer accounting"
            );
            assert_eq!(
                dsl.membership.sync_bytes_sent, bare.membership.sync_bytes_sent,
                "[{tag}] transfer bytes"
            );
            assert_eq!(
                dsl.membership.weather_directives, 0,
                "[{tag}] calm weather schedules no directives"
            );
        }
    }
}

/// The same zero-cost claim one layer down: the detector-only fleet's
/// per-pair QoS timelines under a calm weather equal the bare
/// `FaultyTransport` fleet's bitwise (every float, every counter, the
/// new longest-mistake tail included).
#[test]
fn calm_weather_qos_timelines_match_the_bare_faulty_path_bitwise() {
    let cell = &cells()[1]; // coordinator crash: detection paths exercised
    let mut scenario = workload(cell, 11).online;
    scenario.loss = 0.02;
    let mut dsl = weather_online_runner(
        ChenEstimator::new(ms(150), 16, ms(600)),
        Weather::new().apply_to(scenario.clone()),
    );
    dsl.run_to_end();
    let (transports, injector, clock) = bare_faulty_fleet(&scenario);
    let mut bare = OnlineRunner::over(
        ChenEstimator::new(ms(150), 16, ms(600)),
        scenario,
        transports,
        injector,
        clock,
    );
    bare.run_to_end();
    for a in 0..N {
        for b in 0..N {
            if a == b {
                continue;
            }
            let (x, y) = (dsl.report(p(a), p(b)), bare.report(p(a), p(b)));
            match (x, y) {
                (Some(x), Some(y)) => assert!(
                    reports_equal(&x, &y),
                    "pair {a}->{b} diverged: {x:?} vs {y:?}"
                ),
                (x, y) => assert_eq!(x.is_some(), y.is_some(), "pair {a}->{b} monitor presence"),
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
