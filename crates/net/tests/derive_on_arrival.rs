//! Derive on arrival, not on poll: a peer's freshness point is asked of
//! its estimator when a heartbeat lands, and every poll until the next
//! one reads the stored answer.
//!
//! The estimator here counts how often it is asked to derive a deadline.
//! Under a fleet that polls ten times per heartbeat period the count
//! must follow the *arrivals*, not the polls.

use std::cell::Cell;
use std::rc::Rc;

use rfd_core::ProcessId;
use rfd_net::clock::{Nanos, VirtualClock};
use rfd_net::estimator::{ArrivalEstimator, ChenEstimator};
use rfd_net::membership::MembershipNode;
use rfd_net::service::DecisionService;
use rfd_net::transport::{InMemoryNetwork, NetworkConfig};

fn ms(v: u64) -> Nanos {
    Nanos::from_millis(v)
}

const PERIOD_MS: u64 = 50;
const TICK_MS: u64 = 5;

/// A [`ChenEstimator`] that counts its arrivals and the deadlines
/// derived from them. Clones share the counters, so one prototype's
/// tallies cover a whole fleet. Suspicion is the trait's default: a
/// question about the deadline.
#[derive(Clone, Debug)]
struct Counting {
    inner: ChenEstimator,
    arrivals: Rc<Cell<u64>>,
    derivations: Rc<Cell<u64>>,
}

impl Counting {
    fn new() -> Self {
        Self {
            inner: ChenEstimator::new(ms(150), 16, ms(600)),
            arrivals: Rc::default(),
            derivations: Rc::default(),
        }
    }
}

impl ArrivalEstimator for Counting {
    fn observe(&mut self, now: Nanos) {
        self.arrivals.set(self.arrivals.get() + 1);
        self.inner.observe(now);
    }

    fn deadline(&self) -> Option<Nanos> {
        self.derivations.set(self.derivations.get() + 1);
        self.inner.deadline()
    }

    fn suspicion_level(&self, now: Nanos) -> f64 {
        self.inner.suspicion_level(now)
    }

    fn name(&self) -> &'static str {
        "counting-chen"
    }
}

#[test]
fn a_polling_service_fleet_derives_once_per_arrival() {
    let n = 5usize;
    let polls = 1_000u64;
    let clock = VirtualClock::new();
    let net = InMemoryNetwork::new(n, NetworkConfig::reliable(ms(2), ms(10)), clock.clone());
    let proto = Counting::new();
    let mut fleet: Vec<_> = (0..n)
        .map(|ix| {
            DecisionService::new(
                n,
                proto.clone(),
                net.endpoint(ProcessId::new(ix)),
                clock.clone(),
                ms(PERIOD_MS),
            )
            .with_heal_merge()
        })
        .collect();
    fleet[1].propose(7);
    let mut events = Vec::new();
    for _ in 0..polls {
        for node in &mut fleet {
            node.poll_into(&mut events);
        }
        clock.advance(ms(TICK_MS));
    }
    assert!(
        fleet.iter().all(|node| node.log().len() == 1),
        "the fleet was live: it decided the command"
    );
    let (arrivals, derivations) = (proto.arrivals.get(), proto.derivations.get());
    let periods = polls * TICK_MS / PERIOD_MS;
    assert!(
        arrivals >= (periods - 1) * (n * (n - 1)) as u64,
        "every node heard every peer each period ({arrivals} arrivals)"
    );
    // One derivation per arrival, plus one when a node is built (the
    // prototype may already hold arrivals).
    let budget = arrivals + n as u64;
    assert!(
        derivations <= budget,
        "{derivations} derivations for {arrivals} arrivals over {polls} polls of {n} nodes: \
         deadlines are re-derived on poll, not on arrival (budget {budget})"
    );
}

#[test]
fn the_trust_horizon_between_two_arrivals_is_a_stored_value() {
    let n = 3usize;
    let clock = VirtualClock::new();
    let net = InMemoryNetwork::new(n, NetworkConfig::reliable(ms(1), ms(1)), clock.clone());
    let proto = Counting::new();
    let mut fleet: Vec<_> = (0..n)
        .map(|ix| {
            MembershipNode::new(
                n,
                proto.clone(),
                net.endpoint(ProcessId::new(ix)),
                clock.clone(),
                ms(PERIOD_MS),
            )
        })
        .collect();
    // Three periods: every node has heard every peer.
    for _ in 0..3 * PERIOD_MS / TICK_MS {
        for node in &mut fleet {
            node.poll();
        }
        clock.advance(ms(TICK_MS));
    }
    let horizon = fleet[0].trust_horizon();
    assert!(horizon.is_some(), "heartbeats arrived");
    // Nobody polls, so no heartbeat arrives: asking again, however
    // often, derives nothing.
    let (arrivals, derivations) = (proto.arrivals.get(), proto.derivations.get());
    for _ in 0..1_000 {
        assert_eq!(fleet[0].trust_horizon(), horizon);
    }
    assert_eq!(proto.arrivals.get(), arrivals);
    assert_eq!(
        proto.derivations.get(),
        derivations,
        "trust_horizon() re-derived a deadline no arrival had changed"
    );
}
