//! The churn driver for a [`DecisionService`] fleet: the same
//! tick-resumable shape as [`crate::online::OnlineRunner`], one layer
//! up — faults from a [`crate::online::FaultSchedule`], client commands
//! from a typed command queue, decisions out as typed events.

use super::log::Decision;
use super::node::{CompactionPolicy, DecisionService, ServiceOutput};
use crate::clock::{Nanos, Pacer, SkewedClock, VirtualClock};
use crate::estimator::ArrivalEstimator;
use crate::membership::View;
use crate::online::{
    run_to_end, Fault, Fleet, MembershipChurnReport, MembershipWatcher, OnlineScenario,
};
use crate::transport::{ChurnableTransport, Endpoint, InMemoryNetwork, Transport};
use rfd_core::{ProcessId, ProcessSet};

/// A service scenario: an [`OnlineScenario`] (fleet size, network,
/// fault schedule, duration) plus the client workload — the typed
/// command queue of `(submit time, receiving node, command value)`
/// entries. Command values must be unique: the value identifies the
/// command across gossip, consensus and the log.
#[derive(Clone, Debug, Default)]
pub struct ServiceScenario {
    /// The fleet/network/fault-schedule parameters.
    pub online: OnlineScenario,
    /// Client submissions, in any order (the runner sorts by time).
    pub commands: Vec<(Nanos, ProcessId, u64)>,
    /// Snapshot-based log compaction for the fleet (see
    /// [`DecisionService::with_compaction`]). Off by default — with it
    /// on, rejoiners that fell behind the retained tail catch up via
    /// snapshot transfer instead of a full suffix replay.
    pub compaction: Option<CompactionPolicy>,
}

impl ServiceScenario {
    /// Adds one client submission (builder style).
    #[must_use]
    pub fn command(mut self, at: Nanos, node: ProcessId, value: u64) -> Self {
        self.commands.push((at, node, value));
        self
    }

    /// Enables snapshot-based log compaction for the fleet (builder
    /// style).
    ///
    /// ```
    /// use rfd_net::service::{CompactionPolicy, ServiceScenario};
    ///
    /// let scenario =
    ///     ServiceScenario::default().with_compaction(CompactionPolicy::retain_last(16));
    /// assert_eq!(scenario.compaction, Some(CompactionPolicy::retain_last(16)));
    /// ```
    #[must_use]
    pub fn with_compaction(mut self, policy: CompactionPolicy) -> Self {
        self.compaction = Some(policy);
        self
    }
}

/// A typed event yielded by [`ServiceRunner::step`]. State transfer
/// yields none: read a node's log counters
/// ([`crate::service::ReplicatedLog::transferred`] and
/// [`crate::service::ReplicatedLog::lost`]) mid-run, or the fleet sums in
/// [`ServiceRunner::report`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceEvent {
    /// A scheduled fault took effect.
    Fault {
        /// Injection time.
        at: Nanos,
        /// The fault.
        fault: Fault,
    },
    /// A client command entered a node's pending pool.
    Submitted {
        /// Submission time.
        at: Nanos,
        /// The node the client talked to.
        node: ProcessId,
        /// The command.
        value: u64,
    },
    /// A node appended a decision to its log (the client-ack moment).
    Decided {
        /// Observation time.
        at: Nanos,
        /// The deciding node.
        node: ProcessId,
        /// The appended decision.
        decision: Decision,
    },
    /// A node installed a membership view.
    ViewInstalled {
        /// Observation time.
        at: Nanos,
        /// The node.
        node: ProcessId,
        /// The view.
        view: View,
    },
}

/// The post-run report of a [`ServiceRunner`].
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Per node: its final **retained** decision log (under compaction
    /// the prefix below `bases[i]` is summarised by the digest chain;
    /// every `Decision` carries its absolute index).
    pub logs: Vec<Vec<Decision>>,
    /// Per node: the first retained index
    /// ([`crate::service::ReplicatedLog::first_index`]; zero without
    /// compaction).
    pub bases: Vec<u64>,
    /// Per node: whether it ended halted (merge-less exclusion).
    pub halted: Vec<bool>,
    /// Per node: ground-truth up/down at the end of the run.
    pub up: Vec<bool>,
    /// The membership watcher's report, with the service fields filled
    /// from the nodes: state transfer summed over the logs
    /// (`decisions_transferred` / `decisions_lost`) and the responders
    /// (`snapshots_sent` / `sync_bytes_sent`), the runner's
    /// `rejoin_latencies`, and the retransmission-plane counters.
    pub membership: MembershipChurnReport,
    /// Every decision event in observation order.
    pub decisions: Vec<(Nanos, ProcessId, Decision)>,
}

/// Whether two retained logs agree on every index both retain.
/// Decisions carry absolute indices, so the overlap is found by
/// aligning the first entries.
fn retained_overlap_agrees(a: &[Decision], b: &[Decision]) -> bool {
    let (Some(first_a), Some(first_b)) = (a.first(), b.first()) else {
        return true;
    };
    let start = first_a.index.max(first_b.index);
    let skip_a = usize::try_from(start - first_a.index).unwrap_or(usize::MAX);
    let skip_b = usize::try_from(start - first_b.index).unwrap_or(usize::MAX);
    a.iter()
        .skip(skip_a)
        .zip(b.iter().skip(skip_b))
        .all(|(da, db)| da.value == db.value)
}

impl ServiceReport {
    /// Uniform agreement over the final logs: every pair of replicas —
    /// crashed, halted or live — agrees on every index both decided
    /// **and retained** (compacted prefixes are digest-checked at the
    /// log layer; see `ReplicatedLog::prefix_consistent_with`).
    #[must_use]
    pub fn agreement_holds(&self) -> bool {
        self.logs.iter().enumerate().all(|(a, log_a)| {
            self.logs
                .iter()
                .skip(a + 1)
                .all(|log_b| retained_overlap_agrees(log_a, log_b))
        })
    }

    /// Whether every live (up, non-halted) replica ended at the same
    /// absolute log length with agreeing retained entries — the
    /// post-heal convergence E13 gates on.
    #[must_use]
    pub fn live_logs_converged(&self) -> bool {
        let mut live = self
            .logs
            .iter()
            .zip(&self.bases)
            .zip(self.up.iter().zip(&self.halted))
            .filter(|(_, (&up, &halted))| up && !halted)
            .map(|((log, &base), _)| (base + log.len() as u64, log));
        let Some((ref_len, reference)) = live.next() else {
            return true;
        };
        live.all(|(len, log)| len == ref_len && retained_overlap_agrees(log, reference))
    }

    /// The longest final **absolute** log length across replicas
    /// (compacted entries count — they were decided).
    #[must_use]
    pub fn decided_len(&self) -> u64 {
        self.logs
            .iter()
            .zip(&self.bases)
            .map(|(l, &b)| b + l.len() as u64)
            .max()
            .unwrap_or(0)
    }

    /// The **retained** decided sequence of the longest final log
    /// (without compaction: the full decided sequence).
    #[must_use]
    pub fn decided_values(&self) -> Vec<u64> {
        self.logs
            .iter()
            .zip(&self.bases)
            .max_by_key(|(l, &b)| b + l.len() as u64)
            .map(|(l, _)| l.iter().map(|d| d.value).collect())
            .unwrap_or_default()
    }

    /// Time of the first decision observed at or after `t` (e.g. the
    /// last heal) — E13's time-to-first-post-heal-decision.
    #[must_use]
    pub fn first_decision_at_or_after(&self, t: Nanos) -> Option<Nanos> {
        self.decisions
            .iter()
            .find(|(at, _, _)| *at >= t)
            .map(|(at, _, _)| *at)
    }
}

/// A resumable service-under-churn scenario: `n` [`DecisionService`]
/// nodes over any substrate, advanced one sample tick at a time —
/// faults and client commands injected on schedule, decisions and view
/// changes yielded as typed [`ServiceEvent`]s, the fleet's views
/// observed by a [`MembershipWatcher`]. State-transfer counts stay on the
/// nodes and their logs; [`ServiceRunner::report`] sums them.
///
/// Generic over the same three substrate traits as
/// [`crate::online::OnlineRunner`]; [`ServiceRunner::new`] builds the
/// simulated stack, [`ServiceRunner::over`] accepts any other (e.g.
/// real UDP sockets under a [`crate::transport::FaultyTransport`]).
///
/// # Examples
///
/// ```
/// use rfd_core::ProcessId;
/// use rfd_net::clock::Nanos;
/// use rfd_net::estimator::ChenEstimator;
/// use rfd_net::online::OnlineScenario;
/// use rfd_net::service::{ServiceRunner, ServiceScenario};
///
/// let ms = Nanos::from_millis;
/// let scenario = ServiceScenario {
///     online: OnlineScenario { n: 3, duration: ms(8_000), ..OnlineScenario::default() },
///     ..ServiceScenario::default()
/// }
/// .command(ms(1_000), ProcessId::new(1), 41)
/// .command(ms(3_000), ProcessId::new(2), 42);
/// let mut runner =
///     ServiceRunner::new(ChenEstimator::new(ms(50), 32, ms(500)), scenario);
/// while runner.step().is_some() {}
/// let report = runner.report();
/// assert_eq!(report.decided_values(), vec![41, 42]);
/// assert!(report.agreement_holds());
/// ```
#[derive(Debug)]
pub struct ServiceRunner<E, T = Endpoint, C = VirtualClock, N = InMemoryNetwork>
where
    E: ArrivalEstimator + Clone,
{
    fleet: Fleet<DecisionService<E, T, SkewedClock<C>>, C, N>,
    /// The client submissions, sorted by time.
    commands: Vec<(Nanos, ProcessId, u64)>,
    next_command: usize,
    watcher: MembershipWatcher,
    decisions: Vec<(Nanos, ProcessId, Decision)>,
    /// Set when a heal fires: `(heal time, longest absolute log then)`.
    /// Resolved into a rejoin latency once every live node has caught
    /// up to that length.
    heal_pending: Option<(Nanos, u64)>,
    /// Per resolved heal, the time until every live node caught up.
    rejoin_latencies: Vec<Nanos>,
    /// The buffer every node's poll writes its events into, drained
    /// after each poll ([`DecisionService::poll_into`]).
    outputs: Vec<ServiceOutput>,
}

impl<E: ArrivalEstimator + Clone> ServiceRunner<E> {
    /// Builds the simulated runner over a fresh seeded in-memory
    /// network (deterministic per seed).
    #[must_use]
    pub fn new(prototype: E, scenario: ServiceScenario) -> Self {
        let (endpoints, net, clock) = scenario.online.simulated_substrate();
        Self::over(prototype, scenario, endpoints, net, clock)
    }
}

impl<E, T, C, N> ServiceRunner<E, T, C, N>
where
    E: ArrivalEstimator + Clone,
    T: Transport,
    C: Pacer + Clone,
    N: ChurnableTransport,
{
    /// Builds the runner over an arbitrary substrate (one [`Transport`]
    /// per node in id order, the fault plane, the pacing clock) — the
    /// scenario's transport-level fields (`loss`, `delay`, `seed`) are
    /// ignored, exactly as in [`crate::online::OnlineRunner::over`].
    ///
    /// # Panics
    ///
    /// Panics if `endpoints.len() != scenario.online.n`, if an endpoint
    /// disagrees with its position, or if the schedule crashes or
    /// recovers a process outside the fleet.
    #[must_use]
    pub fn over(
        prototype: E,
        scenario: ServiceScenario,
        endpoints: Vec<T>,
        net: N,
        clock: C,
    ) -> Self {
        let ServiceScenario {
            online,
            mut commands,
            compaction,
        } = scenario;
        commands.sort_by_key(|(at, _, _)| *at);
        let (n, period, heal_merge) = (online.n, online.period, online.heal_merge);
        let fleet = Fleet::over(online, endpoints, net, clock, |endpoint, clock| {
            let node = DecisionService::new(n, prototype.clone(), endpoint, clock, period);
            let node = if let Some(policy) = compaction {
                node.with_compaction(policy)
            } else {
                node
            };
            if heal_merge {
                node.with_heal_merge()
            } else {
                node
            }
        });
        Self {
            fleet,
            commands,
            next_command: 0,
            watcher: MembershipWatcher::new(n),
            decisions: Vec::new(),
            heal_pending: None,
            rejoin_latencies: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The current time.
    #[must_use]
    pub fn now(&self) -> Nanos {
        self.fleet.clock.now()
    }

    /// Whether the scenario duration has elapsed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.fleet.is_done()
    }

    /// Read access to one node (e.g. its live log mid-run). The node's
    /// clock is the driver clock seen through that node's
    /// [`crate::clock::ClockSkew`] (identity unless the scenario skews
    /// it).
    #[must_use]
    pub fn node(&self, ix: usize) -> &DecisionService<E, T, SkewedClock<C>> {
        // rfd-lint: allow(wire-safety, harness accessor with a documented panic contract; ix is caller-chosen and never datagram-derived)
        &self.fleet.nodes[ix]
    }

    /// Executes one sample tick: injects due faults and commands, polls
    /// every up node, observes the fleet, and paces the clock. `None`
    /// once the duration has elapsed.
    pub fn step(&mut self) -> Option<Vec<ServiceEvent>> {
        self.fleet.step(|mut tick| {
            let now = tick.now;
            let mut events = Vec::new();
            for &(at, fault) in tick.faults {
                self.watcher.note_fault(at, &fault);
                events.push(ServiceEvent::Fault { at, fault });
                if fault == Fault::Heal {
                    // Rejoin latency: time from this heal until every
                    // live node has at least the longest absolute log
                    // observed right now.
                    let target = tick.nodes.iter().map(|node| node.log().len()).max();
                    self.heal_pending = Some((now, target.unwrap_or(0)));
                }
            }
            while let Some(&(at, node, value)) = self.commands.get(self.next_command) {
                if at > now {
                    break;
                }
                self.next_command += 1;
                if tick.up.contains(node)
                    && tick
                        .nodes
                        .get_mut(node.index())
                        .is_some_and(|target| target.propose(value))
                {
                    events.push(ServiceEvent::Submitted { at, node, value });
                }
            }
            for (me, node) in tick.up_nodes() {
                node.poll_into(&mut self.outputs);
                for output in self.outputs.drain(..) {
                    match output {
                        ServiceOutput::Decided(decision) => {
                            self.decisions.push((now, me, decision));
                            events.push(ServiceEvent::Decided {
                                at: now,
                                node: me,
                                decision,
                            });
                        }
                        ServiceOutput::ViewInstalled(view) => {
                            events.push(ServiceEvent::ViewInstalled {
                                at: now,
                                node: me,
                                view,
                            });
                        }
                    }
                }
            }
            if let Some((healed_at, target)) = self.heal_pending {
                let caught_up = tick
                    .up_nodes()
                    .filter(|(_, node)| !node.is_halted())
                    .all(|(_, node)| node.log().len() >= target);
                if caught_up {
                    self.rejoin_latencies.push(now.saturating_sub(healed_at));
                    self.heal_pending = None;
                }
            }
            self.watcher.observe(
                now,
                tick.up_nodes()
                    .filter(|(_, node)| !node.is_halted())
                    .map(|(me, node)| {
                        let v = node.view();
                        (me, v.id, v.members)
                    }),
            );
            events
        })
    }

    /// Runs the remaining ticks, returning every event produced.
    pub fn run_to_end(&mut self) -> Vec<ServiceEvent> {
        run_to_end(|| self.step())
    }

    /// The report as of now (complete once [`ServiceRunner::is_done`]).
    #[must_use]
    pub fn report(&self) -> ServiceReport {
        let nodes = &self.fleet.nodes;
        let mut membership = self.watcher.report();
        // The service counters live where the work happens — on the
        // nodes and their logs, not the membership watcher: sum them
        // into the fleet report here.
        let sum = |count: fn(&DecisionService<E, T, SkewedClock<C>>) -> u64| {
            nodes.iter().map(count).sum::<u64>()
        };
        membership.decisions_transferred = sum(|node| node.log().transferred());
        membership.decisions_lost = sum(|node| node.log().lost());
        membership.snapshots_sent = sum(DecisionService::snapshots_served);
        membership.sync_bytes_sent = sum(DecisionService::sync_bytes_served);
        membership.rejoin_latencies = self.rejoin_latencies.clone();
        membership.retransmits_sent = sum(DecisionService::retransmits_sent);
        membership.duplicate_frames_dropped = sum(DecisionService::duplicate_frames_dropped);
        ServiceReport {
            logs: nodes
                .iter()
                .map(|node| node.log().entries().to_vec())
                .collect(),
            bases: nodes.iter().map(|node| node.log().first_index()).collect(),
            halted: nodes.iter().map(DecisionService::is_halted).collect(),
            up: ProcessSet::full(nodes.len())
                .iter()
                .map(|pid| self.fleet.up.contains(pid))
                .collect(),
            membership,
            decisions: self.decisions.clone(),
        }
    }
}

/// Convenience: drives a full simulated service scenario to completion
/// and returns the report — deterministic per `scenario.online.seed`.
#[must_use]
pub fn run_service<E: ArrivalEstimator + Clone>(
    prototype: E,
    scenario: &ServiceScenario,
) -> ServiceReport {
    let mut runner = ServiceRunner::new(prototype, scenario.clone());
    runner.run_to_end();
    runner.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::ChenEstimator;
    use crate::online::{Fault, FaultSchedule};
    use rfd_core::ProcessSet;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn chen() -> ChenEstimator {
        ChenEstimator::new(ms(150), 16, ms(600))
    }

    /// `k` spaced commands with increasing values, round-robin clients.
    fn spaced_commands(
        scenario: ServiceScenario,
        k: u64,
        from: Nanos,
        gap: Nanos,
    ) -> ServiceScenario {
        (0..k).fold(scenario, |s, i| {
            let n = s.online.n;
            s.command(
                Nanos::from_nanos(from.as_nanos() + i * gap.as_nanos()),
                p((i as usize) % n),
                100 + i,
            )
        })
    }

    #[test]
    fn stable_fleet_decides_every_submission_in_order() {
        let scenario = spaced_commands(
            ServiceScenario {
                online: OnlineScenario {
                    n: 4,
                    duration: ms(20_000),
                    ..OnlineScenario::default()
                },
                ..ServiceScenario::default()
            },
            5,
            ms(1_000),
            ms(2_000),
        );
        let report = run_service(chen(), &scenario);
        assert_eq!(report.decided_values(), vec![100, 101, 102, 103, 104]);
        assert!(report.agreement_holds());
        assert!(report.live_logs_converged());
        assert_eq!(report.membership.decisions_transferred, 0);
        assert_eq!(report.membership.decisions_lost, 0);
        // Every decision recorded the stable full view.
        for log in &report.logs {
            for d in log {
                assert_eq!(d.view.member_set(4), ProcessSet::full(4), "{d:?}");
            }
        }
    }

    #[test]
    fn coordinator_crash_excludes_then_the_log_resumes() {
        // p0 coordinates both the membership and consensus round 0; its
        // crash must stall decisions only until the membership excludes
        // it (emulating P), after which rounds rotate past it.
        let scenario = spaced_commands(
            ServiceScenario {
                online: OnlineScenario {
                    n: 4,
                    duration: ms(30_000),
                    schedule: FaultSchedule::new().at(ms(6_500), Fault::Crash(p(0))),
                    ..OnlineScenario::default()
                },
                ..ServiceScenario::default()
            },
            6,
            ms(1_000),
            ms(3_500),
        );
        let report = run_service(chen(), &scenario);
        // Commands submitted to the crashed p0 after its crash are not
        // accepted; every other one decides.
        let decided = report.decided_values();
        assert!(decided.len() >= 4, "{decided:?}");
        assert!(report.agreement_holds());
        assert!(report.live_logs_converged());
        // The post-crash view excluded p0, and decisions after the
        // exclusion record a view without it.
        let last = report.logs[1].last().expect("survivor decided");
        assert!(!last.view.member_set(4).contains(p(0)), "{last:?}");
    }

    #[test]
    fn healed_partition_transfers_the_missed_decisions() {
        // p3 is cut off while the majority keeps deciding; after the
        // heal the merged view triggers state transfer and p3 ends with
        // the full log without ever having been in the deciding quorum.
        let scenario = spaced_commands(
            ServiceScenario {
                online: OnlineScenario {
                    n: 4,
                    duration: ms(30_000),
                    heal_merge: true,
                    schedule: FaultSchedule::new()
                        .at(ms(4_000), Fault::Partition(ProcessSet::singleton(p(3))))
                        .at(ms(16_000), Fault::Heal),
                    ..OnlineScenario::default()
                },
                ..ServiceScenario::default()
            },
            5,
            ms(5_000),
            ms(2_200),
        );
        let report = run_service(chen(), &scenario);
        assert!(report.agreement_holds());
        assert!(report.live_logs_converged(), "{:?}", report.logs);
        assert_eq!(report.decided_values().len(), 5);
        assert!(
            report.membership.decisions_transferred > 0,
            "p3 must catch up via state transfer: {:?}",
            report.membership
        );
        assert_eq!(
            report.membership.decisions_lost, 0,
            "no acked decision lost"
        );
        assert_eq!(report.logs[3].len(), 5, "p3 holds the full log");
    }

    #[test]
    fn merge_less_exclusion_freezes_but_never_forks_the_log() {
        // Default §1.3 policy: the partitioned p3 is excluded forever
        // (and halts once it learns); its frozen log must still be a
        // prefix of the survivors' — uniform agreement by fiat.
        let scenario = spaced_commands(
            ServiceScenario {
                online: OnlineScenario {
                    n: 4,
                    duration: ms(30_000),
                    schedule: FaultSchedule::new()
                        .at(ms(6_000), Fault::Partition(ProcessSet::singleton(p(3))))
                        .at(ms(18_000), Fault::Heal),
                    ..OnlineScenario::default()
                },
                ..ServiceScenario::default()
            },
            5,
            ms(1_000),
            ms(2_500),
        );
        let report = run_service(chen(), &scenario);
        assert!(report.agreement_holds());
        assert_eq!(report.decided_values().len(), 5);
        assert!(
            report.logs[3].len() <= report.logs[0].len(),
            "the excluded node can only be behind"
        );
    }

    #[test]
    fn service_runs_are_deterministic_per_seed() {
        let scenario = spaced_commands(
            ServiceScenario {
                online: OnlineScenario {
                    n: 4,
                    duration: ms(24_000),
                    seed: 9,
                    heal_merge: true,
                    schedule: FaultSchedule::new()
                        .at(ms(5_000), Fault::Partition(ProcessSet::singleton(p(2))))
                        .at(ms(12_000), Fault::Heal),
                    ..OnlineScenario::default()
                },
                ..ServiceScenario::default()
            },
            4,
            ms(1_500),
            ms(2_500),
        );
        let run = || {
            let mut runner = ServiceRunner::new(chen(), scenario.clone());
            let events = runner.run_to_end();
            (events, runner.report())
        };
        let ((events_a, a), (events_b, b)) = (run(), run());
        assert_eq!(events_a, events_b);
        assert_eq!(a.logs, b.logs);
        assert_eq!(
            a.membership.decisions_transferred,
            b.membership.decisions_transferred
        );
        assert_eq!(a.membership.view_changes, b.membership.view_changes);
    }

    #[test]
    fn compaction_rejoin_goes_through_a_snapshot_and_still_converges() {
        // p3 misses a long stretch of decisions while partitioned; with
        // a short retained tail the majority compacts past p3's log, so
        // the post-heal catch-up must go through a snapshot transfer —
        // and the fleet must still converge, deterministically per seed.
        let scenario = spaced_commands(
            ServiceScenario {
                online: OnlineScenario {
                    n: 4,
                    duration: ms(60_000),
                    heal_merge: true,
                    schedule: FaultSchedule::new()
                        .at(ms(3_000), Fault::Partition(ProcessSet::singleton(p(3))))
                        .at(ms(40_000), Fault::Heal),
                    ..OnlineScenario::default()
                },
                ..ServiceScenario::default()
            }
            .with_compaction(CompactionPolicy::retain_last(4)),
            24,
            ms(1_000),
            ms(1_400),
        );
        let report = run_service(chen(), &scenario);
        assert!(report.agreement_holds());
        assert!(report.live_logs_converged(), "{:?}", report.bases);
        assert!(report.decided_len() >= 20, "{}", report.decided_len());
        assert!(
            report.membership.snapshots_sent > 0,
            "p3 fell behind the retained tail and must rejoin via snapshot: {:?}",
            report.membership
        );
        assert_eq!(report.membership.decisions_lost, 0);
        assert!(
            report.bases.iter().any(|&b| b > 0),
            "the majority must have compacted: {:?}",
            report.bases
        );
        assert!(
            !report.membership.rejoin_latencies.is_empty(),
            "the heal must resolve into a measured rejoin latency"
        );
        let again = run_service(chen(), &scenario);
        assert_eq!(report.logs, again.logs);
        assert_eq!(report.bases, again.bases);
        assert_eq!(
            report.membership.snapshots_sent,
            again.membership.snapshots_sent
        );
        assert_eq!(
            report.membership.sync_bytes_sent,
            again.membership.sync_bytes_sent
        );
    }
}
