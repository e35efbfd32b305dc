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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, VirtualClock};
    use crate::online::FaultSchedule;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
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
}
