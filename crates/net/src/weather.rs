//! The adversarial weather catalogue: a composable, seed-deterministic
//! fault-scenario DSL whose planes live in the simulated medium,
//! [`InMemoryNetwork`](crate::transport::InMemoryNetwork).
//!
//! The base [`FaultSchedule`](crate::online::FaultSchedule) speaks four
//! faults — crash, recover, partition, heal — which covers fail-stop
//! churn but none of the weathers realistic QoS analysis cares about.
//! This module grows the vocabulary with [`WeatherDirective`]s, applied
//! mid-run through the same schedule machinery
//! ([`Fault::Weather`]), and a [`Weather`]
//! builder that composes them into schedules:
//!
//! * **asymmetric (one-way) partitions** — [`Weather::one_way`]: `a`
//!   hears `b` but not vice versa, the classic detector asymmetry a
//!   symmetric [`Fault::Partition`]
//!   cannot express;
//! * **flapping links** — [`Weather::flap`]: a link that blocks and
//!   heals on a square wave, stressing mistake-rate (λ_M) accounting;
//! * **message duplication** — [`Weather::duplicate`]: each sent
//!   datagram is cloned with seeded probability, probing wire-path
//!   idempotency;
//! * **time-bounded reordering** — [`Weather::reorder`]: a sent datagram
//!   is held back by a fixed extra latency with seeded probability, so
//!   later sends overtake it — the unreliable-channel model of
//!   Chandra–Toueg, bounded in time;
//! * **latency spikes / gray failure** — [`Weather::spike`] (everyone)
//!   and [`Weather::gray`] (one slow-but-alive node — the realistic
//!   detector's hardest case: heartbeats arrive, but late);
//! * **clock skew** — [`Weather::skew`]: a node's
//!   [`Pacer`](crate::clock::Pacer) runs at a different rate via
//!   [`SkewedClock`](crate::clock::SkewedClock), and its arrivals are
//!   stamped in the same local time, so its heartbeat period is locally
//!   honest but globally wrong;
//! * **correlated failures** — [`Weather::correlated_crash`]: a whole
//!   rack/zone [`ProcessSet`] crashing (and optionally recovering) as
//!   one event.
//!
//! Every plane acts where the medium already decides a datagram's fate,
//! at send. Everything stays deterministic per seed: directives land at
//! scheduled virtual times, and the probabilistic planes (duplication,
//! reordering) draw from the medium's one seeded RNG in send order. A
//! plane that is off draws nothing, so a [`Weather`] whose planes are
//! all off runs bit-identically to the same scenario without it
//! (`service_differential.rs` pins this). Weather runs use the plain
//! drivers: [`ServiceRunner::new`](crate::service::ServiceRunner::new),
//! [`OnlineRunner::new`](crate::online::OnlineRunner::new) and
//! [`run_service`](crate::service::run_service).
//!
//! # Examples
//!
//! ```
//! use rfd_core::ProcessId;
//! use rfd_net::clock::{ClockSkew, Nanos};
//! use rfd_net::estimator::ChenEstimator;
//! use rfd_net::online::OnlineScenario;
//! use rfd_net::service::{run_service, ServiceScenario};
//! use rfd_net::weather::Weather;
//!
//! let ms = Nanos::from_millis;
//! let p = ProcessId::new;
//! // A composed weather: p0↔p2 flaps, then p2 goes gray, while p1's
//! // clock runs 400 ppm fast the whole time.
//! let weather = Weather::new()
//!     .flap(p(0), p(2), ms(400), ms(1_000), ms(2_600))
//!     .gray(p(2), ms(120), ms(3_000), Some(ms(5_000)))
//!     .skew(p(1), ClockSkew::ppm(400));
//! let scenario = ServiceScenario {
//!     online: weather.apply_to(OnlineScenario {
//!         n: 3,
//!         period: ms(50),
//!         duration: ms(8_000),
//!         ..OnlineScenario::default()
//!     }),
//!     ..ServiceScenario::default()
//! }
//! .command(ms(500), p(0), 7);
//! let report = run_service(ChenEstimator::new(ms(150), 16, ms(600)), &scenario);
//! assert!(report.agreement_holds(), "safety survives the weather");
//! assert!(report.decided_len() >= 1);
//! ```

use crate::clock::{ClockSkew, Nanos};
use crate::online::{Fault, OnlineScenario};
use crate::service::ServiceScenario;
use rfd_core::{ProcessId, ProcessSet};

/// One weather mutation of the fault plane, applied mid-run through
/// [`Fault::Weather`] by the schedule machinery.
///
/// Directives mutate the planes of the simulated medium,
/// [`InMemoryNetwork`](crate::transport::InMemoryNetwork); a substrate
/// without them (a [`FaultyTransport`](crate::transport::FaultyTransport)
/// fleet over real sockets) reports the directive unsupported and the
/// driver panics.
///
/// Probabilities are integer per-mille (0..=1000) so directives stay
/// `Copy + Eq` and schedules stay comparable.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WeatherDirective {
    /// Blocks the directed link `from → to` (the reverse direction is
    /// unaffected — this is what makes partitions *asymmetric*).
    BlockLink {
        /// Sending side of the blocked link.
        from: ProcessId,
        /// Receiving side of the blocked link.
        to: ProcessId,
    },
    /// Unblocks the directed link `from → to`.
    UnblockLink {
        /// Sending side of the unblocked link.
        from: ProcessId,
        /// Receiving side of the unblocked link.
        to: ProcessId,
    },
    /// Each sent datagram is duplicated with probability
    /// `per_mille / 1000` (0 disables the plane and its RNG draws).
    Duplicate {
        /// Duplication probability in per-mille (0..=1000).
        per_mille: u16,
    },
    /// Each sent datagram is held back by `hold` of extra latency with
    /// probability `per_mille / 1000`, so datagrams sent after it
    /// overtake it — reordering bounded by time (0 per-mille disables
    /// the plane and its RNG draws).
    Reorder {
        /// Hold-back probability in per-mille (0..=1000).
        per_mille: u16,
        /// Extra latency of a held datagram.
        hold: Nanos,
    },
    /// `node` goes gray: alive and sending, but everything it sends
    /// arrives `extra` late (slow-but-alive).
    Gray {
        /// The slow-but-alive node.
        node: ProcessId,
        /// Extra one-way latency on everything it sends.
        extra: Nanos,
    },
    /// Ends `node`'s gray failure.
    Ungray {
        /// The recovering node.
        node: ProcessId,
    },
    /// A cluster-wide latency spike: every arrival is held `extra`
    /// longer until [`WeatherDirective::Calm`].
    Spike {
        /// Extra one-way latency on every link.
        extra: Nanos,
    },
    /// Ends a cluster-wide [`WeatherDirective::Spike`].
    Calm,
}

/// A composable adversarial-weather schedule (builder style): each
/// method appends scheduled [`WeatherDirective`]s / base [`Fault`]s
/// and/or per-node [`ClockSkew`]s, and [`Weather::apply_to`] merges the
/// result into an [`OnlineScenario`].
///
/// See the [module docs](self) for the catalogue and an end-to-end
/// example. An empty `Weather` changes nothing.
#[derive(Clone, Debug, Default)]
pub struct Weather {
    events: Vec<(Nanos, Fault)>,
    skews: Vec<(ProcessId, ClockSkew)>,
}

impl Weather {
    /// Clear skies: no directives, no skew.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether this weather schedules nothing at all.
    #[must_use]
    pub fn is_calm(&self) -> bool {
        self.events.is_empty() && self.skews.is_empty()
    }

    /// The scheduled `(time, fault)` events, in insertion order.
    #[must_use]
    pub fn events(&self) -> &[(Nanos, Fault)] {
        &self.events
    }

    /// Appends a raw base [`Fault`] at `at` (crash / recover / partition
    /// / heal / weather) — the escape hatch for anything the named
    /// combinators don't cover.
    #[must_use]
    pub fn fault(mut self, at: Nanos, fault: Fault) -> Self {
        self.events.push((at, fault));
        self
    }

    /// Appends a raw [`WeatherDirective`] at `at`.
    #[must_use]
    pub fn directive(self, at: Nanos, directive: WeatherDirective) -> Self {
        self.fault(at, Fault::Weather(directive))
    }

    /// An asymmetric partition: from `at` (until `until`, if given),
    /// every directed link from a node in `from` to a node in `to` is
    /// blocked. The reverse directions keep flowing — `to` still hears
    /// `from`-bound traffic's senders, they just never hear back.
    #[must_use]
    pub fn one_way(
        mut self,
        from: ProcessSet,
        to: ProcessSet,
        at: Nanos,
        until: Option<Nanos>,
    ) -> Self {
        for f in from {
            for t in to {
                if f == t {
                    continue;
                }
                self = self.directive(at, WeatherDirective::BlockLink { from: f, to: t });
                if let Some(u) = until {
                    self = self.directive(u, WeatherDirective::UnblockLink { from: f, to: t });
                }
            }
        }
        self
    }

    /// A flapping link: both directions of `a ↔ b` block and heal on a
    /// square wave of the given `half_period`, starting blocked at `at`,
    /// guaranteed unblocked at `until`.
    ///
    /// # Panics
    ///
    /// Panics if `half_period` is zero.
    #[must_use]
    pub fn flap(
        mut self,
        a: ProcessId,
        b: ProcessId,
        half_period: Nanos,
        at: Nanos,
        until: Nanos,
    ) -> Self {
        assert!(
            half_period > Nanos::ZERO,
            "flap needs a positive half-period"
        );
        let mut t = at;
        let mut blocked = false;
        while t < until {
            let (ab, ba) = if blocked {
                (
                    WeatherDirective::UnblockLink { from: a, to: b },
                    WeatherDirective::UnblockLink { from: b, to: a },
                )
            } else {
                (
                    WeatherDirective::BlockLink { from: a, to: b },
                    WeatherDirective::BlockLink { from: b, to: a },
                )
            };
            self = self.directive(t, ab).directive(t, ba);
            blocked = !blocked;
            t = t.saturating_add(half_period);
        }
        if blocked {
            self = self
                .directive(until, WeatherDirective::UnblockLink { from: a, to: b })
                .directive(until, WeatherDirective::UnblockLink { from: b, to: a });
        }
        self
    }

    /// Message duplication at `per_mille / 1000` probability from `at`
    /// (until `until`, if given).
    #[must_use]
    pub fn duplicate(mut self, per_mille: u16, at: Nanos, until: Option<Nanos>) -> Self {
        self = self.directive(at, WeatherDirective::Duplicate { per_mille });
        if let Some(u) = until {
            self = self.directive(u, WeatherDirective::Duplicate { per_mille: 0 });
        }
        self
    }

    /// Time-bounded reordering (see [`WeatherDirective::Reorder`]) from
    /// `at` (until `until`, if given).
    #[must_use]
    pub fn reorder(mut self, per_mille: u16, hold: Nanos, at: Nanos, until: Option<Nanos>) -> Self {
        self = self.directive(at, WeatherDirective::Reorder { per_mille, hold });
        if let Some(u) = until {
            self = self.directive(
                u,
                WeatherDirective::Reorder {
                    per_mille: 0,
                    hold: Nanos::ZERO,
                },
            );
        }
        self
    }

    /// Gray failure: `node` stays alive but everything it sends arrives
    /// `extra` late, from `at` (until `until`, if given).
    #[must_use]
    pub fn gray(mut self, node: ProcessId, extra: Nanos, at: Nanos, until: Option<Nanos>) -> Self {
        self = self.directive(at, WeatherDirective::Gray { node, extra });
        if let Some(u) = until {
            self = self.directive(u, WeatherDirective::Ungray { node });
        }
        self
    }

    /// A cluster-wide latency spike of `extra` from `at` (until `until`,
    /// if given).
    #[must_use]
    pub fn spike(mut self, extra: Nanos, at: Nanos, until: Option<Nanos>) -> Self {
        self = self.directive(at, WeatherDirective::Spike { extra });
        if let Some(u) = until {
            self = self.directive(u, WeatherDirective::Calm);
        }
        self
    }

    /// Runs `node`'s clock at `skew` for the whole scenario: its
    /// [`Pacer`](crate::clock::Pacer) ticks, timeout arithmetic and
    /// arrival stamps are locally honest but globally fast/slow (see
    /// [`SkewedClock`](crate::clock::SkewedClock)). The last skew given
    /// for a node wins.
    #[must_use]
    pub fn skew(mut self, node: ProcessId, skew: ClockSkew) -> Self {
        self.skews.push((node, skew));
        self
    }

    /// A correlated rack/zone failure: every node in `zone` crashes at
    /// `at` as one event (and recovers at `recover`, if given).
    #[must_use]
    pub fn correlated_crash(mut self, zone: ProcessSet, at: Nanos, recover: Option<Nanos>) -> Self {
        for node in zone {
            self = self.fault(at, Fault::Crash(node));
            if let Some(r) = recover {
                self = self.fault(r, Fault::Recover(node));
            }
        }
        self
    }

    /// The per-node [`ClockSkew`] vector for an `n`-node fleet (identity
    /// where [`Weather::skew`] said nothing).
    #[must_use]
    pub fn skews_for(&self, n: usize) -> Vec<ClockSkew> {
        let mut out = vec![ClockSkew::IDENTITY; n];
        for &(node, skew) in &self.skews {
            if let Some(slot) = out.get_mut(node.index()) {
                *slot = skew;
            }
        }
        out
    }

    /// Merges this weather into `scenario`: its events join the
    /// scenario's existing [`FaultSchedule`](crate::online::FaultSchedule)
    /// (time-sorted) and its skews replace `scenario.skews`.
    #[must_use]
    pub fn apply_to(&self, mut scenario: OnlineScenario) -> OnlineScenario {
        scenario.schedule = self
            .events
            .iter()
            .fold(scenario.schedule, |s, &(t, f)| s.at(t, f));
        scenario.skews = self.skews_for(scenario.n);
        scenario
    }

    /// [`Weather::apply_to`] for a full [`ServiceScenario`].
    #[must_use]
    pub fn apply_to_service(&self, mut scenario: ServiceScenario) -> ServiceScenario {
        scenario.online = self.apply_to(scenario.online);
        scenario
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, VirtualClock};
    use crate::transport::{
        ChurnableTransport, Endpoint, InMemoryNetwork, NetworkConfig, Transport,
    };
    use bytes::Bytes;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// An `n`-node medium with a fixed 1 ms delay, so every arrival
    /// stamp is exact.
    fn medium(n: usize) -> (InMemoryNetwork, Vec<Endpoint>, VirtualClock) {
        let clock = VirtualClock::new();
        let net = InMemoryNetwork::new(n, NetworkConfig::reliable(ms(1), ms(1)), clock.clone());
        let nodes = (0..n).map(|ix| net.endpoint(p(ix))).collect();
        (net, nodes, clock)
    }

    fn pump(clock: &VirtualClock) {
        clock.advance(ms(5));
    }

    #[test]
    fn one_way_blocks_exactly_one_direction() {
        let (net, nodes, clock) = medium(2);
        assert!(net.apply_weather(&WeatherDirective::BlockLink {
            from: p(0),
            to: p(1),
        }));
        nodes[0].send(p(1), Bytes::from_static(b"muted"));
        nodes[1].send(p(0), Bytes::from_static(b"audible"));
        pump(&clock);
        assert!(nodes[1].recv().is_none(), "the blocked direction drops");
        assert_eq!(
            &nodes[0].recv().expect("reverse flows").payload[..],
            b"audible"
        );
        assert!(net.apply_weather(&WeatherDirective::UnblockLink {
            from: p(0),
            to: p(1),
        }));
        nodes[0].send(p(1), Bytes::from_static(b"healed"));
        pump(&clock);
        assert!(nodes[1].recv().is_some());
        assert_eq!(
            net.stats(),
            (3, 1, 2),
            "the blocked datagram counts as lost"
        );
    }

    #[test]
    fn certain_duplication_doubles_every_forwarded_datagram() {
        let (net, nodes, clock) = medium(2);
        assert!(net.apply_weather(&WeatherDirective::Duplicate { per_mille: 1000 }));
        for _ in 0..10 {
            nodes[0].send(p(1), Bytes::from_static(b"x"));
        }
        pump(&clock);
        let mut got = 0;
        while nodes[1].recv().is_some() {
            got += 1;
        }
        assert_eq!(got, 20, "every datagram arrives twice at 1000‰");
        assert_eq!(net.stats(), (10, 0, 20), "a copy is delivered, not sent");
    }

    #[test]
    fn reordering_lets_younger_datagrams_overtake_held_ones() {
        let (net, nodes, clock) = medium(2);
        // Hold `slow` with certainty, then disable the plane so `fast`
        // passes straight through — a deterministic inversion.
        assert!(net.apply_weather(&WeatherDirective::Reorder {
            per_mille: 1000,
            hold: ms(40),
        }));
        nodes[0].send(p(1), Bytes::from_static(b"slow"));
        assert!(net.apply_weather(&WeatherDirective::Reorder {
            per_mille: 0,
            hold: Nanos::ZERO,
        }));
        nodes[0].send(p(1), Bytes::from_static(b"fast"));
        pump(&clock);
        let fast = nodes[1].recv().expect("overtaker");
        assert_eq!(&fast.payload[..], b"fast", "the younger datagram overtakes");
        assert!(nodes[1].recv().is_none(), "held back");
        clock.advance(ms(40));
        let slow = nodes[1].recv().expect("released once its hold has passed");
        assert_eq!(&slow.payload[..], b"slow");
        assert_eq!(slow.delivered_at, ms(41), "due = send + delay + hold");
    }

    #[test]
    fn gray_failure_is_slow_but_alive() {
        let (net, nodes, clock) = medium(2);
        assert!(net.apply_weather(&WeatherDirective::Gray {
            node: p(0),
            extra: ms(50),
        }));
        nodes[0].send(p(1), Bytes::from_static(b"late"));
        pump(&clock);
        assert!(nodes[1].recv().is_none(), "gray output is held, not lost");
        clock.advance(ms(50));
        let dg = nodes[1].recv().expect("slow but alive");
        assert_eq!(&dg.payload[..], b"late");
        assert_eq!(
            dg.delivered_at,
            ms(51),
            "stamped at its due time, gray latency included"
        );
        assert!(net.apply_weather(&WeatherDirective::Ungray { node: p(0) }));
        let sent_at = clock.now();
        nodes[0].send(p(1), Bytes::from_static(b"prompt"));
        pump(&clock);
        let dg = nodes[1].recv().expect("ungray restores promptness");
        assert_eq!(dg.delivered_at, sent_at.saturating_add(ms(1)));
    }

    #[test]
    fn spike_delays_everyone_until_calm() {
        let (net, nodes, clock) = medium(3);
        assert!(net.apply_weather(&WeatherDirective::Spike { extra: ms(40) }));
        nodes[0].send(p(2), Bytes::from_static(b"a"));
        nodes[1].send(p(2), Bytes::from_static(b"b"));
        pump(&clock);
        assert!(nodes[2].recv().is_none(), "spike holds every link");
        clock.advance(ms(40));
        assert!(nodes[2].recv().is_some());
        assert!(nodes[2].recv().is_some());
        assert!(net.apply_weather(&WeatherDirective::Calm));
        nodes[0].send(p(2), Bytes::from_static(b"c"));
        pump(&clock);
        assert!(nodes[2].recv().is_some(), "calm ends the spike");
    }

    #[test]
    fn weather_builder_compiles_into_a_sorted_merged_schedule() {
        let weather = Weather::new()
            .flap(p(0), p(1), ms(100), ms(500), ms(900))
            .gray(p(2), ms(30), ms(200), Some(ms(700)))
            .skew(p(1), ClockSkew::ratio(3, 2))
            .correlated_crash(ProcessSet::singleton(p(3)), ms(1_000), Some(ms(1_500)));
        assert!(!weather.is_calm());
        let scenario = weather.apply_to(OnlineScenario {
            n: 4,
            ..OnlineScenario::default()
        });
        let events = scenario.schedule.events();
        assert!(
            events.windows(2).all(|w| match w {
                [(a, _), (b, _)] => a <= b,
                _ => true,
            }),
            "merged schedule stays time-sorted"
        );
        // flap: toggles at 500/600/700/800, two directions each → 8
        // link events; gray on+off; crash+recover.
        assert_eq!(events.len(), 8 + 2 + 2);
        assert_eq!(
            scenario.skews,
            vec![
                ClockSkew::IDENTITY,
                ClockSkew::ratio(3, 2),
                ClockSkew::IDENTITY,
                ClockSkew::IDENTITY,
            ]
        );
        assert_eq!(
            events
                .iter()
                .filter(|(_, f)| matches!(f, Fault::Crash(_) | Fault::Recover(_)))
                .count(),
            2,
            "the correlated zone rides the base fault vocabulary"
        );
    }

    #[test]
    fn flap_always_ends_unblocked() {
        // An odd number of half-periods would otherwise strand the link.
        let weather = Weather::new().flap(p(0), p(1), ms(100), ms(0), ms(150));
        let blocks: i64 = weather
            .events()
            .iter()
            .map(|(_, f)| match f {
                Fault::Weather(WeatherDirective::BlockLink { .. }) => 1,
                Fault::Weather(WeatherDirective::UnblockLink { .. }) => -1,
                _ => 0,
            })
            .sum();
        assert_eq!(blocks, 0, "every block is eventually unblocked");
    }

    #[test]
    fn calm_weather_changes_nothing_in_the_scenario() {
        let base = OnlineScenario::default();
        let after = Weather::new().apply_to(base.clone());
        assert_eq!(base.schedule.events(), after.schedule.events());
        assert_eq!(after.skews, vec![ClockSkew::IDENTITY; base.n]);
    }
}
