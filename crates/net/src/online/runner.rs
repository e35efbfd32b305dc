//! The detector-fleet driver: typed events out, live QoS per pair.

use super::fleet::{run_to_end, Fleet};
use super::schedule::{Fault, OnlineScenario};
use crate::clock::{Nanos, Pacer, SkewedClock, VirtualClock};
use crate::detector::DetectorNode;
use crate::estimator::ArrivalEstimator;
use crate::qos::{QosMonitor, QosReport};
use crate::transport::{ChurnableTransport, Endpoint, InMemoryNetwork, Transport};
use rfd_core::{ProcessId, ProcessSet};

/// A typed event yielded by [`OnlineRunner::step`].
#[derive(Clone, Debug)]
pub enum OnlineEvent {
    /// A scheduled fault took effect.
    Fault {
        /// Injection time (the tick at which it was applied).
        at: Nanos,
        /// The fault.
        fault: Fault,
    },
    /// An observer's verdict about a target flipped.
    Suspicion {
        /// The observing process.
        observer: ProcessId,
        /// The judged process.
        target: ProcessId,
        /// When the transition was observed.
        at: Nanos,
        /// The new verdict (`true` = suspect).
        suspected: bool,
    },
}

/// A resumable online scenario: call [`OnlineRunner::step`] per sample
/// tick (or [`OnlineRunner::run_to_end`]) and read live per-pair QoS via
/// [`OnlineRunner::report`] at any time, from one incremental
/// [`QosMonitor`] per observer–target pair.
///
/// The runner is generic over the whole execution substrate:
///
/// * `T` — the per-node [`Transport`] the detector fleet speaks over;
/// * `C` — the [`Pacer`] clock that drives the sample ticks
///   ([`VirtualClock`] jumps instantly and deterministically,
///   [`crate::clock::SystemClock`] genuinely sleeps between ticks);
/// * `N` — the [`ChurnableTransport`] control plane the fault schedule
///   acts on.
///
/// [`OnlineRunner::new`] instantiates the simulated combination
/// (in-memory network + virtual clock); [`OnlineRunner::over`] accepts
/// any other stack, e.g. [`crate::transport::FaultyTransport`]-wrapped
/// UDP sockets paced by the wall clock (`examples/udp_churn.rs`).
///
/// # Examples
///
/// ```
/// use rfd_core::ProcessId;
/// use rfd_net::clock::Nanos;
/// use rfd_net::estimator::ChenEstimator;
/// use rfd_net::online::{Fault, FaultSchedule, OnlineRunner, OnlineScenario};
///
/// let ms = Nanos::from_millis;
/// let target = ProcessId::new(1);
/// let scenario = OnlineScenario {
///     n: 2,
///     duration: ms(10_000),
///     schedule: FaultSchedule::new().at(ms(5_000), Fault::Crash(target)),
///     ..OnlineScenario::default()
/// };
/// let mut runner = OnlineRunner::new(ChenEstimator::new(ms(50), 32, ms(500)), scenario);
/// while let Some(_events) = runner.step() { /* react live */ }
/// let report = runner.report(ProcessId::new(0), target).unwrap();
/// assert!(report.detection_time.is_some(), "the crash was detected");
/// ```
#[derive(Debug)]
pub struct OnlineRunner<E, T = Endpoint, C = VirtualClock, N = InMemoryNetwork>
where
    E: ArrivalEstimator + Clone,
{
    fleet: Fleet<DetectorNode<E, T, SkewedClock<C>>, C, N>,
    /// `monitors[observer][target]`, `None` on the diagonal.
    monitors: Vec<Vec<Option<QosMonitor>>>,
    last_suspects: Vec<ProcessSet>,
}

impl<E: ArrivalEstimator + Clone> OnlineRunner<E> {
    /// Builds the simulated runner: `n` detector nodes around clones of
    /// `prototype` over a fresh seeded virtual network (the scenario's
    /// `loss`, `delay` and `seed` fields), deterministic per seed.
    #[must_use]
    pub fn new(prototype: E, scenario: OnlineScenario) -> Self {
        let (endpoints, net, clock) = scenario.simulated_substrate();
        Self::over(prototype, scenario, endpoints, net, clock)
    }
}

impl<E, T, C, N> OnlineRunner<E, T, C, N>
where
    E: ArrivalEstimator + Clone,
    T: Transport,
    C: Pacer + Clone,
    N: ChurnableTransport,
{
    /// Builds the runner over an arbitrary substrate: one [`Transport`]
    /// per node (in process-id order), the [`ChurnableTransport`] control
    /// plane the fault schedule drives, and the [`Pacer`] clock that
    /// paces the sample ticks. Each node's clock is the driver clock
    /// seen through that node's [`ClockSkew`] (identity unless the
    /// scenario skews it). One [`QosMonitor`] per ordered
    /// observer–target pair is primed with the schedule's final crash
    /// times.
    ///
    /// [`ClockSkew`]: crate::clock::ClockSkew
    ///
    /// The scenario's transport-level fields (`loss`, `delay`, `seed`)
    /// describe the network [`OnlineRunner::new`] builds; here the
    /// caller already built the substrate, so they are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `endpoints.len() != scenario.n`, if an endpoint's
    /// identity disagrees with its position, or if the schedule crashes
    /// or recovers a process outside the fleet.
    #[must_use]
    pub fn over(
        prototype: E,
        scenario: OnlineScenario,
        endpoints: Vec<T>,
        net: N,
        clock: C,
    ) -> Self {
        let (n, period) = (scenario.n, scenario.period);
        let monitors = (0..n)
            .map(|obs| {
                (0..n)
                    .map(|t| {
                        (obs != t).then(|| {
                            QosMonitor::new(scenario.schedule.final_crash(ProcessId::new(t)))
                        })
                    })
                    .collect()
            })
            .collect();
        let fleet = Fleet::over(scenario, endpoints, net, clock, |endpoint, clock| {
            DetectorNode::new(n, prototype.clone(), endpoint, clock, period)
        });
        Self {
            fleet,
            monitors,
            last_suspects: vec![ProcessSet::empty(); n],
        }
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> Nanos {
        self.fleet.clock.now()
    }

    /// Whether the scenario duration has elapsed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.fleet.is_done()
    }

    /// The instant reports are taken at: the current time, or the
    /// scenario end once done.
    fn report_time(&self) -> Nanos {
        if self.fleet.is_done() {
            self.fleet.scenario.duration
        } else {
            self.now()
        }
    }

    /// Executes one sample tick: applies due faults, polls every live
    /// node, samples all monitors, paces the clock to the next tick, and
    /// returns the tick's events. `None` once the scenario duration has
    /// elapsed.
    ///
    /// Under a [`VirtualClock`] the tick is instantaneous; under a
    /// [`crate::clock::SystemClock`] this genuinely sleeps out the
    /// remainder of `sample_every`, so driving the runner in a loop
    /// paces the fleet in wall time.
    pub fn step(&mut self) -> Option<Vec<OnlineEvent>> {
        self.fleet.step(|mut tick| {
            let now = tick.now;
            let mut events: Vec<_> = tick
                .faults
                .iter()
                .map(|&(at, fault)| OnlineEvent::Fault { at, fault })
                .collect();
            for (observer, node) in tick.up_nodes() {
                let ix = observer.index();
                let suspects = node.poll();
                let flips = suspects
                    .union(self.last_suspects[ix])
                    .difference(suspects.intersection(self.last_suspects[ix]));
                for target in flips {
                    events.push(OnlineEvent::Suspicion {
                        observer,
                        target,
                        at: now,
                        suspected: suspects.contains(target),
                    });
                }
                self.last_suspects[ix] = suspects;
                for t in 0..self.monitors.len() {
                    let verdict = suspects.contains(ProcessId::new(t));
                    if let Some(m) = &mut self.monitors[ix][t] {
                        m.sample(now, verdict);
                    }
                }
            }
            events
        })
    }

    /// Runs the remaining ticks and returns every event produced.
    pub fn run_to_end(&mut self) -> Vec<OnlineEvent> {
        run_to_end(|| self.step())
    }

    /// The live QoS report of `observer` about `target` as of the
    /// current time (or the scenario end once done), straight from the
    /// incremental monitor. `None` on the diagonal and for a process
    /// outside the fleet.
    #[must_use]
    pub fn report(&self, observer: ProcessId, target: ProcessId) -> Option<QosReport> {
        self.monitors
            .get(observer.index())?
            .get(target.index())?
            .as_ref()
            .map(|m| m.report(self.report_time()))
    }
}

/// Exact (bitwise for floats) equality of two QoS reports.
#[must_use]
pub fn reports_equal(a: &QosReport, b: &QosReport) -> bool {
    a.detection_time == b.detection_time
        && a.mistakes == b.mistakes
        && a.mistake_rate.to_bits() == b.mistake_rate.to_bits()
        && a.avg_mistake_duration == b.avg_mistake_duration
        && a.longest_mistake == b.longest_mistake
        && a.query_accuracy.to_bits() == b.query_accuracy.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SystemClock;
    use crate::estimator::{ChenEstimator, FixedTimeout, JacobsonEstimator, PhiAccrual};
    use crate::online::FaultSchedule;
    use crate::qos::QosTracker;
    use crate::transport::udp::loopback_cluster;
    use crate::transport::{faulty_cluster, NetworkConfig};

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
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
}
