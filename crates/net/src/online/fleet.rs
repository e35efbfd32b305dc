//! The one definition of a scenario tick, shared by every driver.

use super::schedule::{Fault, OnlineScenario};
use crate::clock::{Nanos, Pacer, SkewedClock};
use crate::transport::{ChurnableTransport, Transport};
use rfd_core::{ProcessId, ProcessSet};

/// What every scenario driver owns, whatever its nodes are: the
/// scenario, the driver clock, the fault plane, the nodes, the
/// ground-truth up set and the fault-schedule cursor. The
/// drivers ([`OnlineRunner`], [`run_membership_churn_over`],
/// [`crate::service::ServiceRunner`],
/// [`crate::membership::run_membership`]) add only what they measure,
/// so they cannot drift in churn semantics — between each other, or
/// between the simulated and the real-socket substrates.
///
/// [`OnlineRunner`]: super::OnlineRunner
/// [`run_membership_churn_over`]: super::run_membership_churn_over
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
    /// [`ClockSkew`]: crate::clock::ClockSkew
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
                         plane declined it — drive weather schedules over the simulated \
                         medium (InMemoryNetwork, as ServiceRunner::new and \
                         OnlineRunner::new build it)"
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
    ///
    /// [`VirtualClock`]: crate::clock::VirtualClock
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
