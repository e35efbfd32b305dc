//! The ground truth of a scenario: what fails when, and over what
//! fleet and network.

use crate::clock::{ClockSkew, Nanos, VirtualClock};
use crate::transport::{Endpoint, InMemoryNetwork, NetworkConfig};
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
    /// [`ChurnableTransport`], the simulated medium; applying it to one
    /// that declines ([`ChurnableTransport::apply_weather`] returns
    /// `false`) panics the driver rather than running a silently calm
    /// scenario.
    ///
    /// [`ChurnableTransport`]: crate::transport::ChurnableTransport
    /// [`ChurnableTransport::apply_weather`]: crate::transport::ChurnableTransport::apply_weather
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
    ///
    /// [`run_membership_churn`]: super::run_membership_churn
    /// [`OnlineRunner`]: super::OnlineRunner
    pub heal_merge: bool,
    /// Per-node clock skew rates (index = process id), identity where
    /// absent or empty. Every node's local clock — heartbeat pacing,
    /// timeout arithmetic, arrival stamps — runs through a
    /// [`SkewedClock`] at its rate while the driver keeps ticking in
    /// unskewed time, so a skewed node is locally honest but globally
    /// fast or slow. Populated by
    /// [`Weather::apply_to`](crate::weather::Weather::apply_to).
    ///
    /// [`SkewedClock`]: crate::clock::SkewedClock
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
    /// `loss`, `seed` and `skews` fields describe: a fresh seeded
    /// in-memory network on a fresh virtual clock, and one endpoint per
    /// process in id order, stamping arrivals in that process's local
    /// time. Deterministic per seed.
    pub(crate) fn simulated_substrate(&self) -> (Vec<Endpoint>, InMemoryNetwork, VirtualClock) {
        let clock = VirtualClock::new();
        let config = NetworkConfig::reliable(self.delay.0, self.delay.1)
            .with_loss(self.loss)
            .with_seed(self.seed);
        let net = InMemoryNetwork::new(self.n, config, clock.clone());
        let endpoints = (0..self.n)
            .map(|ix| {
                let skew = self.skews.get(ix).copied().unwrap_or_default();
                net.skewed_endpoint(ProcessId::new(ix), skew)
            })
            .collect();
        (endpoints, net, clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
