//! Stored freshness points equal the from-scratch derivation, bit for
//! bit.
//!
//! The estimators derive their statistics when an arrival lands and the
//! detector keeps each peer's deadline until the next one. This file
//! holds the **reference implementation** — each estimator's formulas
//! evaluated from nothing but the list of arrivals, exactly as the
//! runtime computed them on every poll before it stored anything — and
//! checks that `deadline()`, `suspects(now)` and `trust_horizon()` agree
//! with it for all four estimators, arbitrary gap sequences (a ~46-day
//! gap that saturates φ's probe among them), arbitrary query instants
//! in any order, `now == deadline`, one-sample windows, and a prototype
//! that had observed arrivals before the detector cloned it.
//!
//! The reference also holds the evidence rule: any other frame from a
//! peer, landing at `t`, trusts it until `t` plus the margin its latest
//! heartbeat fixed (`deadline − arrival`). Random evidence instants —
//! before a peer's first heartbeat, out of order, far past its deadline
//! — are interleaved with the heartbeats; the estimators themselves
//! never see them.

use proptest::prelude::*;
use rfd_core::{ProcessId, ProcessSet};
use rfd_net::clock::{Nanos, VirtualClock};
use rfd_net::codec::{Heartbeat, WireView};
use rfd_net::detector::HeartbeatDetector;
use rfd_net::estimator::{
    ArrivalEstimator, ChenEstimator, FixedTimeout, JacobsonEstimator, PhiAccrual,
};
use rfd_net::membership::MembershipNode;
use rfd_net::transport::{InMemoryNetwork, NetworkConfig};

fn ns(v: u64) -> Nanos {
    Nanos::from_nanos(v)
}

fn p(ix: usize) -> ProcessId {
    ProcessId::new(ix)
}

const TIMEOUT: u64 = 300_000_000;
const ALPHA: u64 = 60_000_000;
const BOOTSTRAP: u64 = 400_000_000;
const WINDOW: usize = 4;
const BETA: f64 = 4.0;
const THRESHOLD: f64 = 3.0;
const MIN_STD: f64 = 1e5;

/// The four strategies, with the parameters above.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Fixed,
    Chen,
    Jacobson,
    Phi,
}

/// The last `WINDOW` inter-arrival gaps, oldest first.
fn window(arrivals: &[Nanos]) -> Vec<u64> {
    let gaps: Vec<u64> = arrivals
        .windows(2)
        .map(|w| w[1].saturating_sub(w[0]).as_nanos())
        .collect();
    gaps[gaps.len().saturating_sub(WINDOW)..].to_vec()
}

fn mean(gaps: &[u64]) -> f64 {
    gaps.iter().map(|&g| g as f64).sum::<f64>() / gaps.len() as f64
}

/// The sample variance (`n − 1` denominator).
fn variance(gaps: &[u64]) -> f64 {
    let mean = mean(gaps);
    gaps.iter()
        .map(|&g| {
            let d = g as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / (gaps.len() - 1) as f64
}

/// `P(T > t)` for Student's `T` with `dof ≥ 1` degrees of freedom
/// (Abramowitz–Stegun 26.7.3–4).
fn t_survival(t: f64, dof: usize) -> f64 {
    let theta = (t.abs() / (dof as f64).sqrt()).atan();
    let (sin, cos) = theta.sin_cos();
    let within = if dof % 2 == 1 {
        // (2/π)(θ + sin θ (cos θ + (2/3) cos³ θ + (2·4)/(3·5) cos⁵ θ + …))
        let (mut term, mut sum) = (cos, 0.0);
        for i in 1..=(dof - 1) / 2 {
            sum += term;
            term *= cos * cos * (2 * i) as f64 / (2 * i + 1) as f64;
        }
        2.0 / std::f64::consts::PI * (theta + sin * sum)
    } else {
        // sin θ (1 + (1/2) cos² θ + (1·3)/(2·4) cos⁴ θ + …)
        let (mut term, mut sum) = (1.0, 0.0);
        for i in 1..=dof / 2 {
            sum += term;
            term *= cos * cos * (2 * i - 1) as f64 / (2 * i) as f64;
        }
        sin * sum
    };
    if t >= 0.0 {
        (1.0 - within) / 2.0
    } else {
        (1.0 + within) / 2.0
    }
}

/// Jacobson's `(srtt, rttvar)` after folding every gap, Karn clamp
/// included.
fn jacobson_state(arrivals: &[Nanos]) -> Option<(f64, f64)> {
    let mut state: Option<(f64, f64)> = None;
    for w in arrivals.windows(2) {
        let mut sample = w[1].saturating_sub(w[0]).as_nanos() as f64;
        state = Some(match state {
            None => (sample, sample / 2.0),
            Some((srtt, rttvar)) => {
                let ceiling = 2.0 * (srtt + BETA * rttvar);
                if sample > ceiling {
                    sample = ceiling;
                }
                let err = (sample - srtt).abs();
                (0.875 * srtt + 0.125 * sample, 0.75 * rttvar + 0.25 * err)
            }
        });
    }
    state
}

/// φ at `now`, from the arrivals alone.
fn phi(arrivals: &[Nanos], now: Nanos) -> f64 {
    let Some(&last) = arrivals.last() else {
        return 0.0;
    };
    let elapsed = now.saturating_sub(last).as_nanos() as f64;
    let gaps = window(arrivals);
    let k = gaps.len();
    let p_later = if k >= 2 {
        // The next gap's prediction interval: Student's t with k − 1
        // degrees of freedom, scaled by s·√(1 + 1/k).
        let scale = (variance(&gaps) * (1.0 + 1.0 / k as f64))
            .sqrt()
            .max(MIN_STD);
        t_survival((elapsed - mean(&gaps)) / scale, k - 1)
    } else {
        // The bootstrap guess, read as a normal law (Akka's logistic
        // approximation of its CDF).
        let b = BOOTSTRAP as f64;
        let y = (elapsed - b / 2.0) / (b / 4.0);
        let e = (-y * (1.5976 + 0.070566 * y * y)).exp();
        if y > 0.0 {
            e / (1.0 + e)
        } else {
            1.0 - 1.0 / (1.0 + e)
        }
    };
    // The t tail rounds to a hair above 1 deep inside the mean; clamp,
    // and subtract from +0 so a certain arrival reads φ = +0.
    0.0 - p_later.clamp(1e-12, 1.0).log10()
}

/// φ's threshold crossing: geometric probe, then 40 bisection steps.
fn phi_deadline(arrivals: &[Nanos]) -> Option<Nanos> {
    const PROBE_CAP: u64 = 1 << 51;
    let last = *arrivals.last()?;
    let mut lo = 0u64;
    let mut hi = BOOTSTRAP;
    while phi(arrivals, last.saturating_add(ns(hi))) < THRESHOLD {
        if hi >= PROBE_CAP {
            return None;
        }
        lo = hi;
        hi = hi.saturating_mul(2).min(PROBE_CAP);
    }
    for _ in 0..40 {
        let mid = lo + (hi - lo) / 2;
        if phi(arrivals, last.saturating_add(ns(mid))) < THRESHOLD {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(last.saturating_add(ns(hi)))
}

impl Kind {
    /// The reference freshness point after `arrivals`.
    fn deadline(self, arrivals: &[Nanos]) -> Option<Nanos> {
        let last = *arrivals.last()?;
        match self {
            Kind::Fixed => Some(last.saturating_add(ns(TIMEOUT))),
            Kind::Chen => {
                let gaps = window(arrivals);
                let expected_gap = if gaps.len() >= 2 {
                    ns(mean(&gaps) as u64)
                } else {
                    ns(BOOTSTRAP)
                };
                Some(last.saturating_add(expected_gap).saturating_add(ns(ALPHA)))
            }
            Kind::Jacobson => {
                let rto = match jacobson_state(arrivals) {
                    Some((srtt, rttvar)) => ns((srtt + BETA * rttvar) as u64),
                    None => ns(BOOTSTRAP),
                };
                Some(last.saturating_add(rto))
            }
            Kind::Phi => phi_deadline(arrivals),
        }
    }

    /// The reference verdict at `now` after `arrivals`.
    fn is_suspect(self, arrivals: &[Nanos], now: Nanos) -> bool {
        matches!(self.deadline(arrivals), Some(d) if now > d)
    }
}

/// What the detector should know about one peer: the arrivals its
/// estimator has seen (the prototype's, then its own), the margin its
/// latest own heartbeat fixed and the alive-until instant its other
/// frames bought.
#[derive(Clone, Default)]
struct Peer {
    arrivals: Vec<Nanos>,
    margin: Option<Nanos>,
    alive_until: Option<Nanos>,
}

impl Peer {
    fn heartbeat(&mut self, kind: Kind, at: Nanos) {
        self.arrivals.push(at);
        self.margin = kind.deadline(&self.arrivals).map(|d| d.saturating_sub(at));
    }

    fn evidence(&mut self, at: Nanos) {
        if let Some(margin) = self.margin {
            let until = at.saturating_add(margin);
            if self.alive_until.map_or(true, |alive| alive < until) {
                self.alive_until = Some(until);
            }
        }
    }

    /// The detector's deadline: the later of the freshness point and
    /// the alive-until instant, `None` while the former is.
    fn deadline(&self, kind: Kind) -> Option<Nanos> {
        let d = kind.deadline(&self.arrivals)?;
        Some(match self.alive_until {
            Some(alive) if alive > d => alive,
            _ => d,
        })
    }

    /// The detector's verdict: the estimator's, unless alive-until has
    /// not passed yet.
    fn is_suspect(&self, kind: Kind, now: Nanos) -> bool {
        let alive = matches!(self.alive_until, Some(alive) if now <= alive);
        kind.is_suspect(&self.arrivals, now) && !alive
    }
}

/// Query instants worth asking about for `peer`: the sampled ones (in
/// the order sampled, so mostly non-monotone), the last arrival, the
/// freshness point, the alive-until instant and the neighbours of both.
fn queries(kind: Kind, peer: &Peer, sampled: &[u64]) -> Vec<Nanos> {
    let mut qs: Vec<Nanos> = sampled.iter().copied().map(ns).collect();
    let last = peer.arrivals.last().copied().unwrap_or(Nanos::ZERO);
    qs.extend(sampled.iter().map(|&q| last.saturating_add(ns(q))));
    qs.push(last);
    for d in [kind.deadline(&peer.arrivals), peer.alive_until]
        .into_iter()
        .flatten()
    {
        qs.extend([d, d.saturating_add(ns(1)), d.saturating_sub(ns(1))]);
    }
    qs
}

/// One frame other than a heartbeat: after the `after`-th arrival (mod
/// their count), peer `peer` is heard at that arrival plus `offset`
/// minus 200 ms — so sometimes before the heartbeat it follows.
type Evidence = (usize, u64, usize);

/// Drives one estimator type through the detector and the membership
/// node and compares every answer with the reference. Peer 1 hears
/// `arrivals`; peer 2 hears every other one of them; peer 3 never
/// beats, so its evidence is ignored; the prototype has already
/// observed `pre`.
fn check<E: ArrivalEstimator + Clone>(
    kind: Kind,
    fresh: E,
    pre: &[Nanos],
    arrivals: &[Nanos],
    evidence: &[Evidence],
    sampled: &[u64],
) {
    let n = 4;
    let mut prototype = fresh;
    for &t in pre {
        prototype.observe(t);
    }
    let mut detector = HeartbeatDetector::new(p(0), n, prototype.clone());
    let clock = VirtualClock::new();
    let net = InMemoryNetwork::new(n, NetworkConfig::default(), clock.clone());
    let mut node = MembershipNode::new(n, prototype, net.endpoint(p(0)), clock, ns(50_000_000));
    let mut peers = vec![
        Peer {
            arrivals: pre.to_vec(),
            ..Peer::default()
        };
        n
    ];
    let compare =
        |detector: &HeartbeatDetector<E>, node: &MembershipNode<E, _, _>, peers: &[Peer]| {
            let mut horizon: Option<Nanos> = None;
            for (ix, peer) in peers.iter().enumerate().skip(1) {
                let want = peer.deadline(kind);
                assert_eq!(detector.deadline(p(ix)), want, "{kind:?} stored, p{ix}");
                let est = detector.monitor(p(ix)).expect("a monitored peer");
                assert_eq!(
                    est.deadline(),
                    kind.deadline(&peer.arrivals),
                    "{kind:?} deadline(), p{ix}"
                );
                horizon = horizon.max(want);
            }
            assert_eq!(detector.deadline(p(0)), None, "self is not monitored");
            assert_eq!(node.trust_horizon(), horizon, "{kind:?} horizon");
            for now in peers.iter().flat_map(|peer| queries(kind, peer, sampled)) {
                let want: ProcessSet = (1..n)
                    .filter(|&ix| peers[ix].is_suspect(kind, now))
                    .map(p)
                    .collect();
                let suspects = detector.suspects(now);
                assert_eq!(suspects, want, "{kind:?} suspects({now})");
                for (ix, peer) in peers.iter().enumerate().skip(1) {
                    assert_eq!(
                        suspects.contains(p(ix)),
                        detector.deadline(p(ix)).is_some_and(|d| now > d),
                        "{kind:?} suspicion and deadline disagree at {now}, p{ix}"
                    );
                    let est = detector.monitor(p(ix)).expect("a monitored peer");
                    assert_eq!(est.is_suspect(now), kind.is_suspect(&peer.arrivals, now));
                }
            }
        };
    compare(&detector, &node, &peers);
    for (ix, &at) in arrivals.iter().enumerate() {
        for (peer, state) in peers.iter_mut().enumerate().skip(1).take(2) {
            if peer == 2 && ix % 2 == 1 {
                continue;
            }
            detector.on_heartbeat(p(peer), at);
            #[allow(clippy::cast_possible_truncation)]
            let hb = Heartbeat {
                sender: peer as u16,
                seq: ix as u64,
                sent_at: at,
            };
            node.on_wire_view(&WireView::Heartbeat(hb), at);
            state.heartbeat(kind, at);
        }
        compare(&detector, &node, &peers);
        for &(after, offset, peer) in evidence {
            if after % arrivals.len() != ix {
                continue;
            }
            let heard = at
                .saturating_add(ns(offset))
                .saturating_sub(ns(200_000_000));
            detector.on_evidence(p(peer), heard);
            node.on_evidence(p(peer), heard);
            peers[peer].evidence(heard);
            compare(&detector, &node, &peers);
        }
    }
}

fn check_all(pre: &[Nanos], arrivals: &[Nanos], evidence: &[Evidence], sampled: &[u64]) {
    check(
        Kind::Fixed,
        FixedTimeout::new(ns(TIMEOUT)),
        pre,
        arrivals,
        evidence,
        sampled,
    );
    check(
        Kind::Chen,
        ChenEstimator::new(ns(ALPHA), WINDOW, ns(BOOTSTRAP)),
        pre,
        arrivals,
        evidence,
        sampled,
    );
    check(
        Kind::Jacobson,
        JacobsonEstimator::new(BETA, ns(BOOTSTRAP)),
        pre,
        arrivals,
        evidence,
        sampled,
    );
    check(
        Kind::Phi,
        PhiAccrual::new(THRESHOLD, WINDOW, ns(BOOTSTRAP)),
        pre,
        arrivals,
        evidence,
        sampled,
    );
}

/// Arrival instants from gaps, starting at `from`.
fn arrivals_after(from: u64, gaps: &[u64]) -> Vec<Nanos> {
    let mut t = from;
    gaps.iter()
        .map(|g| {
            t = t.saturating_add(*g);
            ns(t)
        })
        .collect()
}

/// One inter-arrival gap in nanoseconds: mostly around the heartbeat
/// period with jitter, sometimes zero or a few nanoseconds (a burst),
/// sometimes the ~46-day outage that pushes φ's crossing past its probe.
fn gap() -> impl Strategy<Value = u64> {
    (0u8..16, 0u64..400_000_000).prop_map(|(kind, v)| match kind {
        0 => 4_000_000_000_000_000 + v,
        1 => v % 3,
        _ => v,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn stored_freshness_points_equal_the_reference(
        pre_gaps in prop::collection::vec(gap(), 0..4),
        gaps in prop::collection::vec(gap(), 1..12),
        evidence in prop::collection::vec((0usize..12, 0u64..1_000_000_000, 1usize..4), 0..8),
        sampled in prop::collection::vec(0u64..2_000_000_000, 1..6),
    ) {
        let pre = arrivals_after(0, &pre_gaps);
        let start = pre.last().map_or(0, |t| t.as_nanos());
        let arrivals = arrivals_after(start, &gaps);
        check_all(&pre, &arrivals, &evidence, &sampled);
    }
}

/// The probe-saturation case by name: three arrivals whose window holds
/// a ~46-day gap leave φ below its threshold out to the probe cap, so
/// the freshness point is `None` — stored as `None`, not as a stale
/// `Some` from the arrival before. Evidence bought before that arrival
/// does not turn it back into a deadline, and evidence after it finds
/// no margin.
#[test]
fn a_saturated_phi_probe_is_stored_as_none() {
    let arrivals = [ns(0), ns(1), ns(4_000_000_000_000_000)];
    assert_eq!(Kind::Phi.deadline(&arrivals[..2]).map(|_| ()), Some(()));
    assert_eq!(Kind::Phi.deadline(&arrivals), None);
    let evidence = [(1, 300_000_000, 1), (2, 300_000_000, 1)];
    check_all(&[], &arrivals, &evidence, &[0, 1 << 50, 1 << 52]);
}
