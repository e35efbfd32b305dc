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
