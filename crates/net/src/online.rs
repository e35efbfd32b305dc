//! The online detection runtime: long-running scenarios under **churn**
//! (crash / recover / partition schedules), observed incrementally.
//!
//! The batch QoS harness ([`crate::qos::evaluate_qos`]) runs a two-node
//! scenario to completion and finalizes the metrics post hoc — exactly
//! the "inspect the corpse" style the paper's §1.3 says practitioners do
//! *not* deploy. This module is the long-running service counterpart:
//!
//! * [`FaultSchedule`] / [`Fault`] — a ground-truth timeline of crashes,
//!   recoveries and network partitions;
//! * [`OnlineRunner`] — a resumable scenario driver: `n` heartbeating
//!   [`DetectorNode`]s over any [`Transport`], advanced one sample tick
//!   at a time, yielding typed [`OnlineEvent`]s (fault injections and
//!   suspicion transitions) and feeding a live [`QosMonitor`] per
//!   observer–target pair. An opt-in batch [`QosTracker`] shadow
//!   ([`OnlineRunner::with_batch_shadow`]) receives the identical sample
//!   stream, so the incremental numbers can be checked for exact
//!   equality with [`QosTracker::finalize`] at any point (experiment
//!   E11's acceptance gate);
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

use crate::clock::{ClockSkew, Nanos, Pacer, SkewedClock, VirtualClock};
use crate::detector::DetectorNode;
use crate::estimator::ArrivalEstimator;
use crate::membership::MembershipNode;
use crate::qos::{QosMonitor, QosReport, QosTracker};
use crate::transport::{ChurnableTransport, Endpoint, InMemoryNetwork, NetworkConfig, Transport};
use crate::weather::WeatherDirective;
use rfd_core::{ProcessId, ProcessSet};

/// One ground-truth fault injection.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The process stops: no sends, no receives, no steps.
    Crash(ProcessId),
    /// The process resumes from its pre-crash state (churn).
    Recover(ProcessId),
    /// A network partition between `side` and its complement.
    Partition(ProcessSet),
    /// The active partition heals.
    Heal,
    /// An adversarial-weather mutation of the fault plane (one-way
    /// blocks, duplication, reordering, gray failure, spikes — see
    /// [`crate::weather`]). Requires a weather-capable
    /// [`ChurnableTransport`]; applying it to one that declines
    /// ([`ChurnableTransport::apply_weather`] returns `false`) panics
    /// the driver rather than running a silently calm scenario.
    Weather(WeatherDirective),
}

/// A time-ordered ground-truth schedule of [`Fault`]s.
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    events: Vec<(Nanos, Fault)>,
}

impl FaultSchedule {
    /// An empty (fault-free) schedule.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault at time `at` (builder style). Events may be added in
    /// any order; the schedule keeps them sorted by time (stable for
    /// equal times).
    #[must_use]
    pub fn at(mut self, at: Nanos, fault: Fault) -> Self {
        self.events.push((at, fault));
        self.events.sort_by_key(|(t, _)| *t);
        self
    }

    /// The scheduled events, sorted by time.
    #[must_use]
    pub fn events(&self) -> &[(Nanos, Fault)] {
        &self.events
    }

    /// The process's **final** crash time: the last `Crash` not followed
    /// by a `Recover`. This is the crash the Chen–Toueg–Aguilera metrics
    /// judge against — earlier crash/recover cycles are transient churn,
    /// visible to the detector only as (correctly penalized) mistakes.
    #[must_use]
    pub fn final_crash(&self, target: ProcessId) -> Option<Nanos> {
        let mut crash = None;
        for (at, fault) in &self.events {
            match fault {
                Fault::Crash(p) if *p == target => crash = Some(*at),
                Fault::Recover(p) if *p == target => crash = None,
                _ => {}
            }
        }
        crash
    }

    /// The first crash time of `target`, if any (what a membership
    /// exclusion latency is measured from).
    #[must_use]
    pub fn first_crash(&self, target: ProcessId) -> Option<Nanos> {
        self.events.iter().find_map(|(at, fault)| match fault {
            Fault::Crash(p) if *p == target => Some(*at),
            _ => None,
        })
    }
}

/// Parameters of an online (long-running) detection scenario.
#[derive(Clone, Debug)]
pub struct OnlineScenario {
    /// Number of processes (all heartbeat all).
    pub n: usize,
    /// Heartbeat period.
    pub period: Nanos,
    /// Independent datagram loss probability.
    pub loss: f64,
    /// One-way delay bounds.
    pub delay: (Nanos, Nanos),
    /// Total observation duration.
    pub duration: Nanos,
    /// The sampling/poll tick.
    pub sample_every: Nanos,
    /// RNG seed.
    pub seed: u64,
    /// Ground-truth fault schedule.
    pub schedule: FaultSchedule,
    /// Whether the membership fleet reconciles split-brain views after a
    /// partition heals (see
    /// [`MembershipNode::with_heal_merge`](crate::membership::MembershipNode::with_heal_merge)).
    /// Off by default: the classic §1.3 service split-brains by design —
    /// exclusion is forever. Read by every driver whose nodes hold views
    /// ([`run_membership_churn`], [`crate::membership::run_membership`],
    /// [`crate::service::ServiceRunner`]); the detector fleet of
    /// [`OnlineRunner`] has none to merge.
    pub heal_merge: bool,
    /// Per-node clock skew rates (index = process id), identity where
    /// absent or empty. Every node's local clock — heartbeat pacing,
    /// timeout arithmetic, arrival stamps — runs through a
    /// [`SkewedClock`] at its rate while the driver keeps ticking in
    /// unskewed time, so a skewed node is locally honest but globally
    /// fast or slow. Populated by
    /// [`Weather::apply_to`](crate::weather::Weather::apply_to).
    pub skews: Vec<ClockSkew>,
}

impl Default for OnlineScenario {
    fn default() -> Self {
        Self {
            n: 4,
            period: Nanos::from_millis(100),
            loss: 0.0,
            delay: (Nanos::from_millis(2), Nanos::from_millis(10)),
            duration: Nanos::from_millis(30_000),
            sample_every: Nanos::from_millis(5),
            seed: 0,
            schedule: FaultSchedule::new(),
            heal_merge: false,
            skews: Vec::new(),
        }
    }
}

impl OnlineScenario {
    /// Builds the simulated substrate the scenario's `n`, `delay`,
    /// `loss` and `seed` fields describe: a fresh seeded in-memory
    /// network on a fresh virtual clock, and one endpoint per process in
    /// id order. Deterministic per seed.
    pub(crate) fn simulated_substrate(&self) -> (Vec<Endpoint>, InMemoryNetwork, VirtualClock) {
        let clock = VirtualClock::new();
        let config = NetworkConfig::reliable(self.delay.0, self.delay.1)
            .with_loss(self.loss)
            .with_seed(self.seed);
        let net = InMemoryNetwork::new(self.n, config, clock.clone());
        let endpoints = (0..self.n)
            .map(|ix| net.endpoint(ProcessId::new(ix)))
            .collect();
        (endpoints, net, clock)
    }
}

/// What every scenario driver owns, whatever its nodes are: the
/// scenario, the driver clock, the fault plane, the nodes, the
/// ground-truth up set and the fault-schedule cursor. The
/// drivers ([`OnlineRunner`], [`run_membership_churn_over`],
/// [`crate::service::ServiceRunner`],
/// [`crate::membership::run_membership`]) add only what they measure,
/// so they cannot drift in churn semantics — between each other, or
/// between the simulated and the real-socket substrates.
#[derive(Debug)]
pub(crate) struct Fleet<Node, C, N> {
    pub(crate) scenario: OnlineScenario,
    pub(crate) clock: C,
    pub(crate) net: N,
    pub(crate) nodes: Vec<Node>,
    /// Ground truth: the processes that are not crashed.
    pub(crate) up: ProcessSet,
    next_fault: usize,
    done: bool,
}

/// One tick as a driver's body sees it (see [`Fleet::step`]).
pub(crate) struct Tick<'a, Node> {
    /// The tick's instant on the (unskewed) driver clock.
    pub(crate) now: Nanos,
    /// The faults this tick applied, in schedule order.
    pub(crate) faults: &'a [(Nanos, Fault)],
    /// Every node, in id order — up or not.
    pub(crate) nodes: &'a mut [Node],
    /// Ground truth after this tick's faults.
    pub(crate) up: ProcessSet,
}

impl<Node> Tick<'_, Node> {
    /// The nodes that are up, with their identity. A crashed node takes
    /// no steps, so this is what a driver polls and observes.
    pub(crate) fn up_nodes(&mut self) -> impl Iterator<Item = (ProcessId, &mut Node)> {
        let up = self.up;
        ProcessSet::full(self.nodes.len())
            .iter()
            .zip(self.nodes.iter_mut())
            .filter(move |(pid, _)| up.contains(*pid))
    }
}

impl<Node, C, N> Fleet<Node, C, N>
where
    C: Pacer + Clone,
    N: ChurnableTransport,
{
    /// Assembles a fleet over an arbitrary substrate: `build_node` turns
    /// each endpoint (in process-id order) and that node's clock — the
    /// driver clock seen through the node's [`ClockSkew`], identity
    /// where `scenario.skews` is short — into a node.
    ///
    /// # Panics
    ///
    /// Panics if `endpoints.len() != scenario.n`, if an endpoint's
    /// identity disagrees with its position, or if the schedule crashes
    /// or recovers a process outside the fleet.
    pub(crate) fn over<T: Transport>(
        scenario: OnlineScenario,
        endpoints: Vec<T>,
        net: N,
        clock: C,
        mut build_node: impl FnMut(T, SkewedClock<C>) -> Node,
    ) -> Self {
        let n = scenario.n;
        assert_eq!(endpoints.len(), n, "one endpoint per process");
        for (at, fault) in scenario.schedule.events() {
            if let Fault::Crash(p) | Fault::Recover(p) = fault {
                assert!(
                    p.index() < n,
                    "the schedule's {fault:?} at {at} names a process outside the fleet of {n}"
                );
            }
        }
        let nodes = endpoints
            .into_iter()
            .enumerate()
            .map(|(ix, endpoint)| {
                assert_eq!(endpoint.me(), ProcessId::new(ix), "endpoints out of order");
                let skew = scenario.skews.get(ix).copied().unwrap_or_default();
                build_node(endpoint, SkewedClock::new(clock.clone(), skew))
            })
            .collect();
        Self {
            up: ProcessSet::full(n),
            nodes,
            net,
            clock,
            next_fault: 0,
            done: false,
            scenario,
        }
    }

    /// Whether the scenario duration has elapsed.
    pub(crate) fn is_done(&self) -> bool {
        self.done
    }

    /// Applies every fault due at or before `now` to the fault plane and
    /// the ground-truth `up` set, advancing the schedule cursor.
    fn apply_due_faults(&mut self, now: Nanos) {
        let events = self.scenario.schedule.events();
        while let Some((at, fault)) = events.get(self.next_fault) {
            if *at > now {
                break;
            }
            match fault {
                Fault::Crash(p) => {
                    self.net.take_down(*p);
                    self.up.remove(*p);
                }
                Fault::Recover(p) => {
                    self.net.bring_up(*p);
                    self.up.insert(*p);
                }
                Fault::Partition(side) => self.net.set_partition(*side),
                Fault::Heal => self.net.heal_partition(),
                Fault::Weather(d) => {
                    assert!(
                        self.net.apply_weather(d),
                        "the schedule carries weather ({d:?}) but this substrate's fault \
                         plane declined it — drive weather schedules over a \
                         FaultInjector-wrapped fleet (see rfd_net::weather::weather_fleet)"
                    );
                }
            }
            self.next_fault += 1;
        }
    }

    /// Executes one sample tick — the only definition of it: `None`
    /// once the scenario duration has elapsed (and from then on);
    /// otherwise apply the due faults, run `body` over the nodes, and
    /// pace the clock to the next tick.
    ///
    /// Under a [`VirtualClock`] the pacing is an instantaneous jump;
    /// under a [`crate::clock::SystemClock`] it genuinely sleeps out the
    /// remainder of `sample_every`, so stepping in a loop paces the
    /// fleet in wall time.
    pub(crate) fn step<R>(&mut self, body: impl FnOnce(Tick<'_, Node>) -> R) -> Option<R> {
        if self.done {
            return None;
        }
        let now = self.clock.now();
        if now >= self.scenario.duration {
            self.done = true;
            return None;
        }
        let first = self.next_fault;
        self.apply_due_faults(now);
        let out = body(Tick {
            now,
            faults: &self.scenario.schedule.events()[first..self.next_fault],
            nodes: &mut self.nodes,
            up: self.up,
        });
        self.clock
            .pace_to(now.saturating_add(self.scenario.sample_every));
        Some(out)
    }

    /// Steps to the end of the scenario with a body that yields nothing.
    pub(crate) fn run(&mut self, mut body: impl FnMut(Tick<'_, Node>)) {
        while self.step(&mut body).is_some() {}
    }
}

/// Drives `step` until it returns `None`, concatenating the events of
/// every tick — the body of every runner's `run_to_end`.
pub(crate) fn run_to_end<Ev>(mut step: impl FnMut() -> Option<Vec<Ev>>) -> Vec<Ev> {
    let mut all = Vec::new();
    while let Some(mut events) = step() {
        all.append(&mut events);
    }
    all
}

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
/// [`OnlineRunner::report`] at any time — the streaming counterpart of
/// the batch [`QosTracker`] path, with one incremental [`QosMonitor`]
/// per observer–target pair.
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
    /// Batch shadows fed the identical sample stream (the equality
    /// gate). Opt-in via [`OnlineRunner::with_batch_shadow`]: a tracker
    /// keeps every suspicion episode, which is exactly the unbounded
    /// growth the incremental monitor exists to avoid, so a long-running
    /// deployment must not pay for it by default.
    shadows: Option<Vec<Vec<Option<QosTracker>>>>,
    last_suspects: Vec<ProcessSet>,
    stepped: bool,
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
            shadows: None,
            last_suspects: vec![ProcessSet::empty(); n],
            stepped: false,
        }
    }

    /// Additionally feeds every pair's sample stream to a batch
    /// [`QosTracker`] shadow (builder style), enabling
    /// [`OnlineRunner::batch_report`] and
    /// [`OnlineRunner::monitor_matches_batch`] — the E11 equality gate.
    ///
    /// Off by default: a tracker records every suspicion episode, which
    /// is unbounded over a long run — precisely what the incremental
    /// monitor avoids. Enable it for verification runs only, before the
    /// first [`OnlineRunner::step`].
    #[must_use]
    pub fn with_batch_shadow(mut self) -> Self {
        let n = self.monitors.len();
        debug_assert!(
            !self.stepped,
            "enable the shadow before stepping, or it will miss samples"
        );
        self.shadows = Some(
            (0..n)
                .map(|obs| (0..n).map(|t| (obs != t).then(QosTracker::new)).collect())
                .collect(),
        );
        self
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
        self.stepped = true;
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
                    if let Some(shadows) = &mut self.shadows {
                        if let Some(s) = &mut shadows[ix][t] {
                            s.sample(now, verdict);
                        }
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
    /// incremental monitor. `None` on the diagonal.
    #[must_use]
    pub fn report(&self, observer: ProcessId, target: ProcessId) -> Option<QosReport> {
        self.monitors[observer.index()][target.index()]
            .as_ref()
            .map(|m| m.report(self.report_time()))
    }

    /// The batch-path report of the same pair: the shadow
    /// [`QosTracker`]'s post-hoc [`QosTracker::finalize`] over the
    /// identical sample stream. `None` on the diagonal.
    ///
    /// # Panics
    ///
    /// Panics unless the runner was built with
    /// [`OnlineRunner::with_batch_shadow`].
    #[must_use]
    pub fn batch_report(&self, observer: ProcessId, target: ProcessId) -> Option<QosReport> {
        let schedule = &self.fleet.scenario.schedule;
        self.shadows
            .as_ref()
            .expect("batch shadow not enabled; build the runner with with_batch_shadow()")
            [observer.index()][target.index()]
        .as_ref()
        .map(|s| s.finalize(schedule.final_crash(target), self.report_time()))
    }

    /// Whether the incremental monitor and the batch tracker agree
    /// **exactly** (every field, including the floating-point rates) for
    /// the pair — the E11 acceptance gate.
    ///
    /// # Panics
    ///
    /// Panics unless the runner was built with
    /// [`OnlineRunner::with_batch_shadow`].
    #[must_use]
    pub fn monitor_matches_batch(&self, observer: ProcessId, target: ProcessId) -> bool {
        match (
            self.report(observer, target),
            self.batch_report(observer, target),
        ) {
            (Some(a), Some(b)) => reports_equal(&a, &b),
            (None, None) => true,
            _ => false,
        }
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

/// The report of a [`MembershipWatcher`].
#[derive(Clone, Debug)]
pub struct MembershipChurnReport {
    /// Per process: time from its first crash to its exclusion from the
    /// authoritative view. `None` if it never crashed, was never
    /// excluded, or was excluded *before* it crashed (that exclusion did
    /// not detect the crash — it shows up in
    /// [`MembershipChurnReport::false_exclusions`] instead).
    pub exclusion_latency: Vec<Option<Nanos>>,
    /// Processes excluded although they had neither crashed nor been
    /// down before — the by-fiat accuracy enforcement of §1.3 (typical
    /// under partitions).
    pub false_exclusions: ProcessSet,
    /// View installations observed across the fleet.
    pub view_changes: u64,
    /// Total time the fleet spent **split-brained**: live, non-halted
    /// members holding at least two distinct views (id or member set).
    /// Accumulated between observation ticks, so its resolution is the
    /// observation cadence and the partial interval after the final
    /// observation is not counted (an undercount of at most one tick).
    pub split_brain_duration: Nanos,
    /// Per noted heal ([`MembershipWatcher::note_heal`]), the time from
    /// the heal to the first observation at which every live member held
    /// one single view again. `None` if the fleet never reconverged
    /// before the observation ended — the default (merge-less) service
    /// split-brains forever; the heal-merge reconciliation is what makes
    /// these finite.
    pub time_to_reconverge: Vec<Option<Nanos>>,
    /// Decision-log entries adopted via post-heal **state transfer**
    /// ([`MembershipWatcher::note_state_transfer`]) across the fleet —
    /// the work the heal-merge re-sync did.
    pub decisions_transferred: u64,
    /// Decision-log entries *discarded* while reconciling (a conflicting
    /// suffix lost to the total view order). Zero as long as the service
    /// layer's agreement holds; any other value is a safety red flag.
    pub decisions_lost: u64,
    /// Snapshot summaries served to fast-rejoining peers
    /// ([`MembershipWatcher::note_sync_served`] with `snapshot: true`) —
    /// the compaction fast path of the service layer.
    pub snapshots_sent: u64,
    /// Total encoded bytes of sync and snapshot reply frames served
    /// across the fleet — the transfer cost experiment E14 plots
    /// against log length.
    pub sync_bytes_sent: u64,
    /// Per noted rejoin ([`MembershipWatcher::note_rejoin`]): the time
    /// from a heal until every live replica caught up to the pre-heal
    /// log length — E14's rejoin latency.
    pub rejoin_latencies: Vec<Nanos>,
    /// Adversarial-weather directives applied during the run
    /// ([`MembershipWatcher::note_weather`]) — zero on a crash-only
    /// schedule, so a report can attest which fault vocabulary the
    /// fleet was actually exposed to.
    pub weather_directives: u64,
    /// Frames re-sent by the service layer's retransmission plane
    /// across the fleet. Zero on a calm network — retransmission is
    /// pure insurance against loss. Filled by the service runner
    /// (node-level counters summed); a bare [`MembershipWatcher`]
    /// reports zero.
    pub retransmits_sent: u64,
    /// Received frames the service layer dropped as duplicates
    /// (idempotent receipt of retransmitted or raced frames), summed
    /// across the fleet. Filled by the service runner; a bare
    /// [`MembershipWatcher`] reports zero.
    pub duplicate_frames_dropped: u64,
}

/// An incremental observer of a membership fleet under churn: feed it
/// ground-truth fault notes and periodic view observations; read the
/// report at any time.
#[derive(Clone, Debug)]
pub struct MembershipWatcher {
    n: usize,
    down: ProcessSet,
    first_crash: Vec<Option<Nanos>>,
    excluded_at: Vec<Option<Nanos>>,
    false_exclusions: ProcessSet,
    last_view_ids: Vec<u64>,
    /// Last observed member set per node: heal-merge adoption is ordered
    /// by `(id, member bitmap)`, so an installation can keep the id and
    /// change only the members — counted as a view change too.
    last_view_members: Vec<Option<ProcessSet>>,
    view_changes: u64,
    /// Whether the previous observation saw divergent views, and when it
    /// was taken — the state that turns per-tick observations into the
    /// accumulated split-brain duration.
    diverged: bool,
    last_observed: Option<Nanos>,
    split_brain: Nanos,
    /// `(heal time, time to reconverge)` per noted heal; the second
    /// component stays `None` until a convergent observation follows.
    heals: Vec<(Nanos, Option<Nanos>)>,
    decisions_transferred: u64,
    decisions_lost: u64,
    snapshots_sent: u64,
    sync_bytes_sent: u64,
    rejoin_latencies: Vec<Nanos>,
    weather_directives: u64,
}

impl MembershipWatcher {
    /// A watcher over `n` processes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            n,
            down: ProcessSet::empty(),
            first_crash: vec![None; n],
            excluded_at: vec![None; n],
            false_exclusions: ProcessSet::empty(),
            last_view_ids: vec![0; n],
            last_view_members: vec![None; n],
            view_changes: 0,
            diverged: false,
            last_observed: None,
            split_brain: Nanos::ZERO,
            heals: Vec::new(),
            decisions_transferred: 0,
            decisions_lost: 0,
            snapshots_sent: 0,
            sync_bytes_sent: 0,
            rejoin_latencies: Vec::new(),
            weather_directives: 0,
        }
    }

    /// Notes one applied ground-truth [`Fault`] — the one mapping from
    /// the fault vocabulary onto the `note_*` family, shared by every
    /// driver that watches a fleet.
    pub fn note_fault(&mut self, at: Nanos, fault: &Fault) {
        match fault {
            Fault::Crash(p) => self.note_crash(*p, at),
            Fault::Recover(p) => self.note_recover(*p),
            Fault::Heal => self.note_heal(at),
            Fault::Partition(_) => {}
            Fault::Weather(_) => self.note_weather(),
        }
    }

    /// Notes a ground-truth crash of `p` at `at`. Out-of-range processes
    /// (`p.index() >= n`) are ignored — the watcher tracks only the
    /// fleet it was sized for.
    pub fn note_crash(&mut self, p: ProcessId, at: Nanos) {
        if p.index() >= self.n {
            return;
        }
        self.down.insert(p);
        if self.first_crash[p.index()].is_none() {
            self.first_crash[p.index()] = Some(at);
        }
    }

    /// Notes a ground-truth recovery of `p` (out-of-range ignored, as in
    /// [`MembershipWatcher::note_crash`]).
    pub fn note_recover(&mut self, p: ProcessId) {
        if p.index() >= self.n {
            return;
        }
        self.down.remove(p);
    }

    /// Notes one state-transfer reconciliation at the service layer:
    /// `adopted` log entries were received from a peer, `lost` local
    /// entries were discarded to the total view order while merging.
    pub fn note_state_transfer(&mut self, adopted: u64, lost: u64) {
        self.decisions_transferred += adopted;
        self.decisions_lost += lost;
    }

    /// Notes one served state-transfer reply at the service layer:
    /// `bytes` encoded reply bytes went out, as a `snapshot` summary or
    /// a plain log-suffix stream.
    pub fn note_sync_served(&mut self, bytes: u64, snapshot: bool) {
        self.sync_bytes_sent += bytes;
        if snapshot {
            self.snapshots_sent += 1;
        }
    }

    /// Notes one completed rejoin: the measured time from a heal until
    /// every live replica caught back up to the pre-heal log length.
    pub fn note_rejoin(&mut self, latency: Nanos) {
        self.rejoin_latencies.push(latency);
    }

    /// Notes one applied adversarial-weather directive (see
    /// [`Fault::Weather`]): the report's attestation that the run was
    /// weathered, not calm.
    pub fn note_weather(&mut self) {
        self.weather_directives += 1;
    }

    /// Notes that the network partition healed at `at`: the fleet's time
    /// to reconverge onto a single view is measured from here (reported
    /// in [`MembershipChurnReport::time_to_reconverge`]).
    pub fn note_heal(&mut self, at: Nanos) {
        self.heals.push((at, None));
    }

    /// Feeds one observation tick: `views` holds, for each live
    /// (non-halted) member, its current view id and member set. A
    /// process counts as *excluded* once the **authoritative view** —
    /// the one held by the lowest-index live member, i.e. the
    /// coordinator lineage — omits it. (Judging against *every* view
    /// would deadlock under split-brain: a partitioned minority keeps a
    /// stale view containing itself until it learns of its exclusion.)
    ///
    /// Members with an out-of-range index (`>= n`) are skipped rather
    /// than indexed — the same latent panic family as the heartbeat
    /// sender guard in
    /// [`crate::membership::MembershipNode::on_wire_view`].
    pub fn observe<I>(&mut self, now: Nanos, views: I)
    where
        I: IntoIterator<Item = (ProcessId, u64, ProcessSet)>,
    {
        let mut authority: Option<(ProcessId, ProcessSet)> = None;
        let mut first_view: Option<(u64, ProcessSet)> = None;
        let mut saw_view = false;
        let mut diverged_now = false;
        for (member, view_id, members) in views {
            if member.index() >= self.n {
                continue;
            }
            match &authority {
                Some((lowest, _)) if member >= *lowest => {}
                _ => authority = Some((member, members)),
            }
            match first_view {
                Some(v) if v != (view_id, members) => diverged_now = true,
                None => first_view = Some((view_id, members)),
                Some(_) => {}
            }
            saw_view = true;
            let last = &mut self.last_view_ids[member.index()];
            if view_id > *last {
                self.view_changes += view_id - *last;
                *last = view_id;
            } else if view_id == *last
                && self.last_view_members[member.index()].is_some_and(|m| m != members)
            {
                // A same-id, different-members installation: the
                // heal-merge total order advanced on the bitmap alone.
                self.view_changes += 1;
            }
            self.last_view_members[member.index()] = Some(members);
        }
        // Split-brain accounting: the interval since the previous
        // observation carries that observation's divergence verdict.
        if self.diverged {
            if let Some(prev) = self.last_observed {
                self.split_brain = self.split_brain.saturating_add(now.saturating_sub(prev));
            }
        }
        self.diverged = diverged_now;
        self.last_observed = Some(now);
        if saw_view && !diverged_now {
            for (healed_at, reconverged) in &mut self.heals {
                if reconverged.is_none() && now >= *healed_at {
                    *reconverged = Some(now.saturating_sub(*healed_at));
                }
            }
        }
        let Some((_, authoritative_members)) = authority else {
            return;
        };
        let excluded = authoritative_members.complement_within(self.n);
        for p in excluded {
            if self.excluded_at[p.index()].is_none() {
                self.excluded_at[p.index()] = Some(now);
                if !self.down.contains(p) && self.first_crash[p.index()].is_none() {
                    self.false_exclusions.insert(p);
                }
            }
        }
    }

    /// The report so far.
    #[must_use]
    pub fn report(&self) -> MembershipChurnReport {
        let exclusion_latency = (0..self.n)
            .map(|ix| match (self.first_crash[ix], self.excluded_at[ix]) {
                // An exclusion that precedes the crash did not detect it
                // (e.g. a partition exclusion before a later crash): a
                // saturated 0 here would read as instant detection.
                (Some(c), Some(e)) if e >= c => Some(e.saturating_sub(c)),
                _ => None,
            })
            .collect();
        MembershipChurnReport {
            exclusion_latency,
            false_exclusions: self.false_exclusions,
            view_changes: self.view_changes,
            split_brain_duration: self.split_brain,
            time_to_reconverge: self.heals.iter().map(|(_, r)| *r).collect(),
            decisions_transferred: self.decisions_transferred,
            decisions_lost: self.decisions_lost,
            snapshots_sent: self.snapshots_sent,
            sync_bytes_sent: self.sync_bytes_sent,
            rejoin_latencies: self.rejoin_latencies.clone(),
            weather_directives: self.weather_directives,
            retransmits_sent: 0,
            duplicate_frames_dropped: 0,
        }
    }
}

/// Drives a [`MembershipNode`] fleet through the scenario's fault
/// schedule over the simulated network (deterministic per seed),
/// observing it live with a [`MembershipWatcher`], and returns the
/// watcher's report. Delegates to [`run_membership_churn_over`].
///
/// With `scenario.heal_merge` off (the default), exclusion is forever —
/// the §1.3 enforcement: a process excluded while down or partitioned
/// either halts on learning of a newer view that omits it, or (having
/// suspected everyone during its outage) splits off into a stale view of
/// its own that the authoritative group never readopts. With it on, the
/// fleet instead reconciles after partitions heal: divergent views merge
/// back into a single one and
/// [`MembershipChurnReport::time_to_reconverge`] becomes finite.
pub fn run_membership_churn<E: ArrivalEstimator + Clone>(
    prototype: E,
    scenario: &OnlineScenario,
) -> MembershipChurnReport {
    let (endpoints, net, clock) = scenario.simulated_substrate();
    run_membership_churn_over(prototype, scenario, endpoints, net, clock)
}

/// A [`MembershipNode`] fleet for `scenario` over an arbitrary
/// substrate, reconciling after heals iff `scenario.heal_merge`.
pub(crate) fn membership_fleet<E, T, C, N>(
    prototype: E,
    scenario: &OnlineScenario,
    endpoints: Vec<T>,
    net: N,
    clock: C,
) -> Fleet<MembershipNode<E, T, SkewedClock<C>>, C, N>
where
    E: ArrivalEstimator + Clone,
    T: Transport,
    C: Pacer + Clone,
    N: ChurnableTransport,
{
    let (n, period, heal_merge) = (scenario.n, scenario.period, scenario.heal_merge);
    Fleet::over(
        scenario.clone(),
        endpoints,
        net,
        clock,
        |endpoint, clock| {
            let node = MembershipNode::new(n, prototype.clone(), endpoint, clock, period);
            if heal_merge {
                node.with_heal_merge()
            } else {
                node
            }
        },
    )
}

/// The transport-generic membership churn driver behind
/// [`run_membership_churn`]: one [`Transport`] per node, the
/// [`ChurnableTransport`] control plane the schedule acts on, and the
/// [`Pacer`] clock that paces the observation ticks — pass
/// [`crate::transport::FaultyTransport`]-wrapped UDP sockets and a
/// [`crate::clock::SystemClock`] to churn a membership fleet over real
/// sockets in wall time.
///
/// # Panics
///
/// Panics if `endpoints.len() != scenario.n`, if an endpoint's identity
/// disagrees with its position, or if the schedule crashes or recovers
/// a process outside the fleet.
pub fn run_membership_churn_over<E, T, C, N>(
    prototype: E,
    scenario: &OnlineScenario,
    endpoints: Vec<T>,
    net: N,
    clock: C,
) -> MembershipChurnReport
where
    E: ArrivalEstimator + Clone,
    T: Transport,
    C: Pacer + Clone,
    N: ChurnableTransport,
{
    let mut fleet = membership_fleet(prototype, scenario, endpoints, net, clock);
    let mut watcher = MembershipWatcher::new(scenario.n);
    fleet.run(|mut tick| {
        for (at, fault) in tick.faults {
            watcher.note_fault(*at, fault);
        }
        for (_, node) in tick.up_nodes() {
            node.poll();
        }
        watcher.observe(
            tick.now,
            tick.up_nodes()
                .filter(|(_, node)| !node.is_halted())
                .map(|(pid, node)| {
                    let v = node.view();
                    (pid, v.id, v.members)
                }),
        );
    });
    watcher.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, SystemClock};
    use crate::estimator::{ChenEstimator, FixedTimeout, JacobsonEstimator, PhiAccrual};
    use crate::qos::{evaluate_qos, QosScenario};
    use crate::transport::faulty_cluster;
    use crate::transport::udp::loopback_cluster;

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

    #[test]
    fn online_runner_detects_a_final_crash_and_matches_batch() {
        let scenario = OnlineScenario {
            n: 3,
            duration: ms(20_000),
            schedule: FaultSchedule::new().at(ms(12_000), Fault::Crash(p(2))),
            ..OnlineScenario::default()
        };
        let mut runner = OnlineRunner::new(ChenEstimator::new(ms(50), 32, ms(500)), scenario)
            .with_batch_shadow();
        let events = runner.run_to_end();
        assert!(runner.is_done());
        assert!(events
            .iter()
            .any(|e| matches!(e, OnlineEvent::Fault { fault: Fault::Crash(q), .. } if *q == p(2))));
        for obs in [p(0), p(1)] {
            let r = runner.report(obs, p(2)).unwrap();
            let td = r.detection_time.expect("crash detected");
            assert!(td.as_millis() < 2_000, "{obs}: T_D = {td}");
            assert!(
                runner.monitor_matches_batch(obs, p(2)),
                "{obs}: monitor {r:?} vs batch {:?}",
                runner.batch_report(obs, p(2))
            );
        }
        // All pairs agree with the batch shadow, crashed or not.
        for a in 0..3 {
            for b in 0..3 {
                assert!(runner.monitor_matches_batch(p(a), p(b)), "({a},{b})");
            }
        }
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
        let mut runner =
            OnlineRunner::new(JacobsonEstimator::new(4.0, ms(500)), scenario).with_batch_shadow();
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
        assert!(runner.monitor_matches_batch(p(0), p(1)));
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
        let mut runner =
            OnlineRunner::new(PhiAccrual::new(3.0, 32, ms(500)), scenario).with_batch_shadow();
        runner.run_to_end();
        // Across the cut: mistakes (the partition looked like a crash).
        let cross = runner.report(p(0), p(2)).unwrap();
        assert!(cross.mistakes >= 1, "{cross:?}");
        assert!(cross.detection_time.is_none());
        // Within a side: clean.
        let within = runner.report(p(0), p(1)).unwrap();
        assert_eq!(within.mistakes, 0, "{within:?}");
        for a in 0..4 {
            for b in 0..4 {
                assert!(runner.monitor_matches_batch(p(a), p(b)), "({a},{b})");
            }
        }
    }

    /// The online runner with a crash-only schedule reproduces the batch
    /// harness shape: same estimator, same period/delay/loss family.
    #[test]
    fn online_runner_agrees_with_the_batch_harness_shape() {
        let crash = ms(15_000);
        let duration = ms(20_000);
        let scenario = OnlineScenario {
            n: 2,
            duration,
            schedule: FaultSchedule::new().at(crash, Fault::Crash(p(1))),
            ..OnlineScenario::default()
        };
        let mut runner = OnlineRunner::new(FixedTimeout::new(ms(400)), scenario);
        runner.run_to_end();
        let online = runner.report(p(0), p(1)).unwrap();
        let batch = evaluate_qos(
            FixedTimeout::new(ms(400)),
            &QosScenario {
                crash_at: Some(crash),
                duration,
                ..QosScenario::default()
            },
        );
        // Identical modelling except for node-loop scheduling details:
        // both detect within a period-scale bound and make no mistakes.
        assert!(online.detection_time.is_some() && batch.detection_time.is_some());
        assert_eq!(online.mistakes, 0);
        assert_eq!(batch.mistakes, 0);
    }

    /// The generic runner over a [`crate::transport::FaultyTransport`]
    /// cluster (reliable in-memory medium, every fault injected by the
    /// wrapper) behaves like the native in-memory runner: the crash is
    /// detected and the incremental monitors still equal their batch
    /// shadows exactly.
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
        let (nodes, injector) = faulty_cluster(endpoints, 0.0, scenario.seed, clock.clone());
        let mut runner = OnlineRunner::over(
            ChenEstimator::new(ms(50), 32, ms(500)),
            scenario,
            nodes,
            injector,
            clock,
        )
        .with_batch_shadow();
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
        for a in 0..3 {
            for b in 0..3 {
                assert!(runner.monitor_matches_batch(p(a), p(b)), "({a},{b})");
            }
        }
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
        let (nodes, injector) = faulty_cluster(transports, 0.0, 0, clock.clone());
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
