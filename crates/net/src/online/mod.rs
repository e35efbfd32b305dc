//! The online detection runtime: long-running scenarios under **churn**
//! (crash / recover / partition schedules), observed incrementally —
//! failure detection as the long-running service the paper's §1.3 says
//! practitioners deploy. Every heartbeat experiment runs here, E7's
//! two-node QoS table included:
//!
//! * [`FaultSchedule`] / [`Fault`] — a ground-truth timeline of crashes,
//!   recoveries and network partitions;
//! * [`OnlineRunner`] — a resumable scenario driver: `n` heartbeating
//!   [`DetectorNode`]s over any [`Transport`], advanced one sample tick
//!   at a time, yielding typed [`OnlineEvent`]s (fault injections and
//!   suspicion transitions) and feeding a live [`QosMonitor`] per
//!   observer–target pair. The event stream is a complete record: every
//!   verdict flip is reported, so replaying it into the reference
//!   [`crate::qos::QosTracker`] reproduces each monitor's report
//!   exactly (this module's tests do, on E11's schedules);
//! * [`MembershipWatcher`] — an incremental observer of a membership
//!   fleet under churn: exclusion latency per crash, false exclusions
//!   (live processes excluded by fiat — partitions force these), view
//!   change counts, split-brain duration and post-heal reconvergence
//!   latency. [`run_membership_churn`] drives a [`MembershipNode`] fleet
//!   through a fault schedule and returns the watcher's report.
//!
//! Every driver — these two, [`crate::service::ServiceRunner`] one layer
//! up and [`crate::membership::run_membership`] — is a thin shell around
//! one crate-private `Fleet` core, which owns the scenario, the nodes,
//! the ground-truth up set and the fault cursor, and defines
//! the tick once: stop at `duration`, apply due faults, run the
//! driver's body over the nodes, pace the clock to the next tick. The
//! core is generic over the execution substrate — the per-node
//! [`Transport`], the [`ChurnableTransport`] fault plane the schedule
//! acts on, and the [`Pacer`] clock pacing the ticks — so one scenario
//! runs deterministically on the simulated network
//! ([`OnlineRunner::new`], [`run_membership_churn`]) *and* in wall time
//! over real UDP sockets wrapped in
//! [`crate::transport::FaultyTransport`] ([`OnlineRunner::over`],
//! [`run_membership_churn_over`]; see `examples/udp_churn.rs`).
//!
//! [`DetectorNode`]: crate::detector::DetectorNode
//! [`MembershipNode`]: crate::membership::MembershipNode
//! [`QosMonitor`]: crate::qos::QosMonitor
//! [`Transport`]: crate::transport::Transport
//! [`ChurnableTransport`]: crate::transport::ChurnableTransport
//! [`Pacer`]: crate::clock::Pacer

mod fleet;
mod runner;
mod schedule;
mod watcher;

pub(crate) use fleet::{run_to_end, Fleet};
pub use runner::{reports_equal, OnlineEvent, OnlineRunner};
pub use schedule::{Fault, FaultSchedule, OnlineScenario};
pub(crate) use watcher::membership_fleet;
pub use watcher::{
    run_membership_churn, run_membership_churn_over, MembershipChurnReport, MembershipWatcher,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, Nanos, Pacer, SystemClock, VirtualClock};
    use crate::estimator::{
        ArrivalEstimator, ChenEstimator, FixedTimeout, JacobsonEstimator, PhiAccrual,
    };
    use crate::qos::QosTracker;
    use crate::transport::udp::loopback_cluster;
    use crate::transport::{
        faulty_cluster, ChurnableTransport, InMemoryNetwork, NetworkConfig, Transport,
    };
    use rfd_core::{ProcessId, ProcessSet};

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn schedule_final_crash_sees_through_churn() {
        let s = FaultSchedule::new()
            .at(ms(10_000), Fault::Recover(p(1)))
            .at(ms(5_000), Fault::Crash(p(1)))
            .at(ms(20_000), Fault::Crash(p(1)));
        assert_eq!(s.final_crash(p(1)), Some(ms(20_000)));
        assert_eq!(s.first_crash(p(1)), Some(ms(5_000)));
        assert_eq!(s.final_crash(p(2)), None);
        // Events come back time-sorted regardless of insertion order.
        let times: Vec<u64> = s.events().iter().map(|(t, _)| t.as_millis()).collect();
        assert_eq!(times, vec![5_000, 10_000, 20_000]);
    }

    /// A transport that carries nothing: the fleet core never touches
    /// a node's traffic, only its identity.
    struct Silent(ProcessId);

    impl Transport for Silent {
        fn me(&self) -> ProcessId {
            self.0
        }
        fn send(&self, _to: ProcessId, _payload: bytes::Bytes) {}
        fn recv(&self) -> Option<crate::transport::Datagram> {
            None
        }
    }

    /// A fault plane that only records what the schedule did to it.
    #[derive(Default)]
    struct Recorder(std::cell::RefCell<Vec<String>>);

    impl ChurnableTransport for &Recorder {
        fn take_down(&self, node: ProcessId) {
            self.0.borrow_mut().push(format!("down {node}"));
        }
        fn bring_up(&self, node: ProcessId) {
            self.0.borrow_mut().push(format!("up {node}"));
        }
        fn set_partition(&self, side: ProcessSet) {
            self.0.borrow_mut().push(format!("cut {}", side.len()));
        }
        fn heal_partition(&self) {
            self.0.borrow_mut().push("heal".into());
        }
    }

    /// A stub fleet whose "nodes" are poll counters: `ids` are the
    /// endpoint identities handed over, in that order.
    fn stub_fleet<'a>(
        scenario: OnlineScenario,
        ids: &[usize],
        plane: &'a Recorder,
    ) -> Fleet<u32, VirtualClock, &'a Recorder> {
        let endpoints = ids.iter().map(|&ix| Silent(p(ix))).collect();
        Fleet::over(scenario, endpoints, plane, VirtualClock::new(), |_, _| 0)
    }

    /// Steps the stub fleet to the end, polling (= counting) every up
    /// node; returns per tick `(now, applied faults, up set)`.
    fn drive(
        fleet: &mut Fleet<u32, VirtualClock, &Recorder>,
    ) -> Vec<(u64, Vec<Fault>, ProcessSet)> {
        let mut ticks = Vec::new();
        while let Some(tick) = fleet.step(|mut tick| {
            for (_, polls) in tick.up_nodes() {
                *polls += 1;
            }
            let faults = tick.faults.iter().map(|(_, fault)| *fault).collect();
            (tick.now.as_millis(), faults, tick.up)
        }) {
            ticks.push(tick);
        }
        ticks
    }

    fn stub_scenario(schedule: FaultSchedule) -> OnlineScenario {
        OnlineScenario {
            n: 3,
            duration: ms(50),
            sample_every: ms(10),
            schedule,
            ..OnlineScenario::default()
        }
    }

    #[test]
    fn fleet_crash_and_recover_flip_up_and_skip_polling() {
        let plane = Recorder::default();
        let schedule = FaultSchedule::new()
            .at(ms(10), Fault::Crash(p(1)))
            .at(ms(25), Fault::Recover(p(1)));
        let mut fleet = stub_fleet(stub_scenario(schedule), &[0, 1, 2], &plane);
        let ticks = drive(&mut fleet);
        let up_of_p1: Vec<bool> = ticks.iter().map(|(_, _, up)| up.contains(p(1))).collect();
        // Ticks at 0, 10, 20, 30, 40 ms: down from the 10 ms tick, back
        // at the first tick at or after 25 ms.
        assert_eq!(up_of_p1, vec![true, false, false, true, true]);
        assert_eq!(fleet.nodes, vec![5, 3, 5], "a down node is not polled");
        assert_eq!(*plane.0.borrow(), vec!["down p1", "up p1"]);
    }

    #[test]
    fn fleet_applies_same_instant_faults_in_insertion_order() {
        let plane = Recorder::default();
        let schedule = FaultSchedule::new()
            .at(ms(20), Fault::Crash(p(2)))
            .at(ms(20), Fault::Partition(ProcessSet::singleton(p(0))))
            .at(ms(20), Fault::Recover(p(2)))
            .at(ms(20), Fault::Heal);
        let mut fleet = stub_fleet(stub_scenario(schedule), &[0, 1, 2], &plane);
        let ticks = drive(&mut fleet);
        assert_eq!(*plane.0.borrow(), vec!["down p2", "cut 1", "up p2", "heal"]);
        let (at, faults, up) = &ticks[2];
        assert_eq!(*at, 20);
        assert_eq!(faults.len(), 4, "the tick body sees all four, in order");
        assert_eq!(faults[0], Fault::Crash(p(2)));
        assert_eq!(faults[3], Fault::Heal);
        assert!(
            up.contains(p(2)),
            "crash then recover in one tick leaves p2 up"
        );
        assert!(ticks.iter().all(|(at, f, _)| *at == 20 || f.is_empty()));
    }

    #[test]
    fn fleet_never_fires_a_fault_scheduled_past_the_duration() {
        let plane = Recorder::default();
        // The last tick is at 40 ms; `duration` itself is not a tick.
        let schedule = FaultSchedule::new()
            .at(ms(50), Fault::Crash(p(0)))
            .at(ms(41), Fault::Heal);
        let mut fleet = stub_fleet(stub_scenario(schedule), &[0, 1, 2], &plane);
        let ticks = drive(&mut fleet);
        assert_eq!(ticks.len(), 5);
        assert!(plane.0.borrow().is_empty());
        assert_eq!(fleet.up, ProcessSet::full(3));
    }

    #[test]
    fn fleet_step_returns_none_at_the_duration_and_stays_there() {
        let plane = Recorder::default();
        let mut fleet = stub_fleet(stub_scenario(FaultSchedule::new()), &[0, 1, 2], &plane);
        assert!(!fleet.is_done());
        assert_eq!(drive(&mut fleet).len(), 5);
        assert!(fleet.is_done());
        assert_eq!(fleet.clock.now(), ms(50));
        for _ in 0..3 {
            assert!(fleet.step(|_| ()).is_none());
        }
        assert_eq!(
            fleet.clock.now(),
            ms(50),
            "a finished fleet paces no further"
        );
    }

    #[test]
    #[should_panic(expected = "one endpoint per process")]
    fn fleet_rejects_a_wrong_endpoint_count() {
        let plane = Recorder::default();
        let _ = stub_fleet(stub_scenario(FaultSchedule::new()), &[0, 1], &plane);
    }

    #[test]
    #[should_panic(expected = "endpoints out of order")]
    fn fleet_rejects_endpoints_out_of_order() {
        let plane = Recorder::default();
        let _ = stub_fleet(stub_scenario(FaultSchedule::new()), &[0, 2, 1], &plane);
    }

    /// A schedule naming a process the fleet does not have used to die
    /// with a bare index-out-of-bounds at the tick the fault fired; it
    /// is now refused at construction, naming the fault.
    #[test]
    #[should_panic(expected = "Crash(p5) at 20.000ms names a process outside the fleet of 3")]
    fn fleet_rejects_a_schedule_naming_a_process_outside_it() {
        let plane = Recorder::default();
        let schedule = FaultSchedule::new().at(ms(20), Fault::Crash(p(5)));
        let _ = stub_fleet(stub_scenario(schedule), &[0, 1, 2], &plane);
    }

    /// Replays the finished runner's `events` into one reference
    /// [`QosTracker`] per ordered pair and asserts that each finalizes to
    /// the live monitor's report, bitwise: the event stream reports
    /// every verdict flip, so it is a complete record of the run.
    fn assert_events_replay_to_every_report<E, T, C, N>(
        runner: &OnlineRunner<E, T, C, N>,
        events: &[OnlineEvent],
        scenario: &OnlineScenario,
    ) where
        E: ArrivalEstimator + Clone,
        T: Transport,
        C: Pacer + Clone,
        N: ChurnableTransport,
    {
        let n = scenario.n;
        let mut trackers = vec![vec![QosTracker::new(); n]; n];
        for event in events {
            if let OnlineEvent::Suspicion {
                observer,
                target,
                at,
                suspected,
            } = event
            {
                trackers[observer.index()][target.index()].sample(*at, *suspected);
            }
        }
        for (a, row) in trackers.iter().enumerate() {
            for (b, tracker) in row.iter().enumerate().filter(|(b, _)| *b != a) {
                let live = runner.report(p(a), p(b)).expect("an off-diagonal pair");
                let replayed =
                    tracker.finalize(scenario.schedule.final_crash(p(b)), scenario.duration);
                assert!(
                    reports_equal(&live, &replayed),
                    "({a},{b}): monitor {live:?} vs replay {replayed:?}"
                );
            }
        }
    }

    /// E11's three schedules at n = 4: all 12 pairs' live reports equal
    /// the replay of the event stream.
    #[test]
    fn the_event_stream_replays_to_every_monitor_report() {
        let d = 12_000;
        let minority: ProcessSet = [p(2), p(3)].into_iter().collect();
        let schedules = [
            FaultSchedule::new().at(ms(d / 2), Fault::Crash(p(2))),
            FaultSchedule::new()
                .at(ms(d / 4), Fault::Crash(p(2)))
                .at(ms(d / 2), Fault::Recover(p(2)))
                .at(ms(3 * d / 4), Fault::Crash(p(2))),
            FaultSchedule::new()
                .at(ms(d / 4), Fault::Partition(minority))
                .at(ms(d / 2), Fault::Heal)
                .at(ms(3 * d / 4), Fault::Crash(p(3))),
        ];
        for schedule in schedules {
            let scenario = OnlineScenario {
                n: 4,
                duration: ms(d),
                schedule,
                ..OnlineScenario::default()
            };
            let mut runner =
                OnlineRunner::new(JacobsonEstimator::new(4.0, ms(500)), scenario.clone());
            let events = runner.run_to_end();
            assert_events_replay_to_every_report(&runner, &events, &scenario);
        }
    }

    #[test]
    fn online_runner_detects_a_final_crash_and_matches_batch() {
        let scenario = OnlineScenario {
            n: 3,
            duration: ms(20_000),
            schedule: FaultSchedule::new().at(ms(12_000), Fault::Crash(p(2))),
            ..OnlineScenario::default()
        };
        let mut runner =
            OnlineRunner::new(ChenEstimator::new(ms(50), 32, ms(500)), scenario.clone());
        let events = runner.run_to_end();
        assert!(runner.is_done());
        assert!(events
            .iter()
            .any(|e| matches!(e, OnlineEvent::Fault { fault: Fault::Crash(q), .. } if *q == p(2))));
        for obs in [p(0), p(1)] {
            let r = runner.report(obs, p(2)).unwrap();
            let td = r.detection_time.expect("crash detected");
            assert!(td.as_millis() < 2_000, "{obs}: T_D = {td}");
        }
        assert_events_replay_to_every_report(&runner, &events, &scenario);
        assert!(runner.report(p(1), p(1)).is_none(), "the diagonal");
        assert!(runner.report(p(9), p(0)).is_none(), "no such observer");
        assert!(runner.report(p(0), p(9)).is_none(), "no such target");
    }

    #[test]
    fn recovery_clears_suspicion_and_counts_the_outage_as_mistake() {
        // p1 crashes at 5 s and recovers at 8 s; no final crash.
        let scenario = OnlineScenario {
            n: 2,
            duration: ms(20_000),
            schedule: FaultSchedule::new()
                .at(ms(5_000), Fault::Crash(p(1)))
                .at(ms(8_000), Fault::Recover(p(1))),
            ..OnlineScenario::default()
        };
        let mut runner = OnlineRunner::new(JacobsonEstimator::new(4.0, ms(500)), scenario);
        let events = runner.run_to_end();
        let flips: Vec<bool> = events
            .iter()
            .filter_map(|e| match e {
                OnlineEvent::Suspicion {
                    observer,
                    target,
                    suspected,
                    ..
                } if *observer == p(0) && *target == p(1) => Some(*suspected),
                _ => None,
            })
            .collect();
        assert!(
            flips.windows(2).all(|w| w[0] != w[1]),
            "suspicion transitions must alternate: {flips:?}"
        );
        assert!(
            flips.contains(&true) && flips.contains(&false),
            "the outage must be suspected and then cleared: {flips:?}"
        );
        let r = runner.report(p(0), p(1)).unwrap();
        assert!(r.detection_time.is_none(), "no final crash to detect");
        assert!(r.mistakes >= 1, "the outage shows up as a mistake episode");
        // Thanks to the Jacobson outage clamp, the detector re-arms after
        // the recovery: a fresh silence is suspected again promptly.
        assert!(r.query_accuracy > 0.5, "{r:?}");
    }

    #[test]
    fn partition_causes_cross_side_suspicion_then_heals() {
        let mut side = ProcessSet::empty();
        side.insert(p(0));
        side.insert(p(1));
        let scenario = OnlineScenario {
            n: 4,
            duration: ms(20_000),
            schedule: FaultSchedule::new()
                .at(ms(6_000), Fault::Partition(side))
                .at(ms(10_000), Fault::Heal),
            ..OnlineScenario::default()
        };
        let mut runner = OnlineRunner::new(PhiAccrual::new(3.0, 32, ms(500)), scenario);
        runner.run_to_end();
        // Across the cut: mistakes (the partition looked like a crash).
        let cross = runner.report(p(0), p(2)).unwrap();
        assert!(cross.mistakes >= 1, "{cross:?}");
        assert!(cross.detection_time.is_none());
        // Within a side: clean.
        let within = runner.report(p(0), p(1)).unwrap();
        assert_eq!(within.mistakes, 0, "{within:?}");
    }

    /// Which of two nodes is the target changes only the poll order
    /// (nodes poll in id order): E7's layout — target `p0`, polled
    /// before its observer `p1` — and the reverse both detect the crash
    /// and make no mistakes.
    #[test]
    fn online_runner_agrees_with_the_batch_harness_shape() {
        let crash = ms(15_000);
        let report = |target: usize| {
            let observer = 1 - target;
            let scenario = OnlineScenario {
                n: 2,
                duration: ms(20_000),
                schedule: FaultSchedule::new().at(crash, Fault::Crash(p(target))),
                ..OnlineScenario::default()
            };
            let mut runner = OnlineRunner::new(FixedTimeout::new(ms(400)), scenario);
            runner.run_to_end();
            runner.report(p(observer), p(target)).unwrap()
        };
        for r in [report(1), report(0)] {
            let td = r.detection_time.expect("crash detected");
            assert!(td.as_millis() < 2_000, "T_D = {td} (report {r:?})");
            assert_eq!(r.mistakes, 0, "{r:?}");
        }
    }

    /// The generic runner over a [`crate::transport::FaultyTransport`]
    /// cluster (reliable in-memory medium, every fault injected by the
    /// wrapper) behaves like the native in-memory runner: the crash is
    /// detected and the event stream still replays to every report.
    #[test]
    fn generic_runner_over_a_faulty_transport_detects_and_matches_batch() {
        let scenario = OnlineScenario {
            n: 3,
            duration: ms(20_000),
            schedule: FaultSchedule::new()
                .at(ms(6_000), Fault::Partition(ProcessSet::singleton(p(1))))
                .at(ms(9_000), Fault::Heal)
                .at(ms(12_000), Fault::Crash(p(2))),
            ..OnlineScenario::default()
        };
        let clock = VirtualClock::new();
        let config = NetworkConfig::reliable(scenario.delay.0, scenario.delay.1);
        let net = InMemoryNetwork::new(scenario.n, config, clock.clone());
        let endpoints = (0..scenario.n)
            .map(|ix| net.endpoint(ProcessId::new(ix)))
            .collect();
        let (nodes, injector) = faulty_cluster(endpoints, clock.clone());
        let mut runner = OnlineRunner::over(
            ChenEstimator::new(ms(50), 32, ms(500)),
            scenario.clone(),
            nodes,
            injector,
            clock,
        );
        let events = runner.run_to_end();
        assert!(events.iter().any(|e| matches!(
            e,
            OnlineEvent::Fault {
                fault: Fault::Heal,
                ..
            }
        )));
        let r = runner.report(p(0), p(2)).unwrap();
        let td = r
            .detection_time
            .expect("crash detected through the wrapper");
        assert!(td.as_millis() < 2_000, "T_D = {td}");
        // The partition of p1 looked like a crash to p0: a mistake.
        let cross = runner.report(p(0), p(1)).unwrap();
        assert!(cross.mistakes >= 1, "{cross:?}");
        assert_events_replay_to_every_report(&runner, &events, &scenario);
    }

    /// The whole online stack over *real* loopback UDP sockets, paced by
    /// the wall clock: a short scenario (~1.2 s) in which the victim is
    /// crash-muted and the survivor must detect it.
    #[test]
    fn wall_clock_udp_runner_detects_a_muted_peer() {
        let scenario = OnlineScenario {
            n: 2,
            period: ms(40),
            sample_every: ms(10),
            duration: ms(1_600),
            schedule: FaultSchedule::new().at(ms(500), Fault::Crash(p(1))),
            ..OnlineScenario::default()
        };
        let clock = SystemClock::new();
        let transports = loopback_cluster(2).expect("bind loopback");
        let (nodes, injector) = faulty_cluster(transports, clock.clone());
        let mut runner =
            OnlineRunner::over(FixedTimeout::new(ms(150)), scenario, nodes, injector, clock);
        runner.run_to_end();
        assert!(runner.is_done());
        let r = runner.report(p(0), p(1)).unwrap();
        // Wall-clock tolerant: typical T_D is ~160 ms, the bound only
        // guards against the detection being missed entirely.
        let td = r.detection_time.expect("mute detected over real sockets");
        assert!(td.as_millis() < 1_000, "T_D = {td} (report {r:?})");
    }

    /// Heal-merge reconciliation: the same partition/heal schedule
    /// split-brains forever under the default service but reconverges —
    /// with finite, reported latency — once merging is on.
    #[test]
    fn heal_merge_reconverges_where_the_default_splits_forever() {
        let mut minority = ProcessSet::empty();
        minority.insert(p(2));
        minority.insert(p(3));
        let scenario = OnlineScenario {
            n: 4,
            period: ms(50),
            duration: ms(30_000),
            sample_every: ms(1),
            schedule: FaultSchedule::new()
                .at(ms(5_000), Fault::Partition(minority))
                .at(ms(10_000), Fault::Heal),
            ..OnlineScenario::default()
        };
        let chen = || ChenEstimator::new(ms(150), 16, ms(600));

        let split = run_membership_churn(chen(), &scenario);
        assert_eq!(
            split.time_to_reconverge,
            vec![None],
            "split-brain is forever"
        );
        assert!(split.split_brain_duration >= ms(15_000), "{split:?}");

        let merged = run_membership_churn(
            chen(),
            &OnlineScenario {
                heal_merge: true,
                ..scenario
            },
        );
        let ttr = merged.time_to_reconverge[0].expect("fleet reconverged after the heal");
        assert!(ttr < ms(5_000), "time to reconverge {ttr}");
        // Split-brain covers (roughly) the partition plus the merge
        // window — far less than the merge-less forever.
        assert!(merged.split_brain_duration < split.split_brain_duration);
        // The minority was still excluded by fiat *during* the cut.
        assert!(
            !merged.false_exclusions.is_empty(),
            "{:?}",
            merged.false_exclusions
        );
    }

    #[test]
    fn membership_churn_excludes_crashed_members_with_low_latency() {
        let scenario = OnlineScenario {
            n: 4,
            period: ms(50),
            duration: ms(30_000),
            sample_every: ms(1),
            schedule: FaultSchedule::new().at(ms(5_000), Fault::Crash(p(2))),
            ..OnlineScenario::default()
        };
        let report = run_membership_churn(ChenEstimator::new(ms(150), 16, ms(600)), &scenario);
        let latency = report.exclusion_latency[2].expect("crashed member excluded");
        assert!(latency.as_millis() < 5_000, "latency {latency}");
        assert!(report.false_exclusions.is_empty());
        assert!(report.view_changes >= 1);
    }

    #[test]
    fn membership_partition_forces_by_fiat_exclusions() {
        // A minority side {3} is cut off long enough to be excluded; it
        // never crashed, so the watcher must report a false exclusion —
        // the paper's by-fiat accuracy made measurable.
        let scenario = OnlineScenario {
            n: 4,
            period: ms(50),
            duration: ms(30_000),
            sample_every: ms(1),
            schedule: FaultSchedule::new()
                .at(ms(5_000), Fault::Partition(ProcessSet::singleton(p(3))))
                .at(ms(15_000), Fault::Heal),
            ..OnlineScenario::default()
        };
        let report = run_membership_churn(ChenEstimator::new(ms(150), 16, ms(600)), &scenario);
        assert!(
            report.false_exclusions.contains(p(3)),
            "{:?}",
            report.false_exclusions
        );
        assert!(report.exclusion_latency[3].is_none(), "p3 never crashed");
    }

    #[test]
    fn watcher_counts_view_changes_and_ignores_recovered_crashes() {
        let mut w = MembershipWatcher::new(3);
        w.note_crash(p(2), ms(100));
        w.note_recover(p(2));
        let mut v1 = ProcessSet::full(3);
        v1.remove(p(2));
        w.observe(ms(200), vec![(p(0), 1, v1), (p(1), 1, v1)]);
        let r = w.report();
        // p2 crashed (then recovered) before the exclusion: accurate, not
        // false; latency measured from the first crash.
        assert!(r.false_exclusions.is_empty());
        assert_eq!(r.exclusion_latency[2], Some(ms(100)));
        assert_eq!(r.view_changes, 2);
    }
}
