//! The φ-accrual failure detector (Hayashibara et al., SRDS 2004).

use super::{ArrivalEstimator, ArrivalWindow};
use crate::clock::Nanos;

/// Accrual detector: instead of a binary suspect bit, output a continuous
/// suspicion level
/// `φ(t) = −log₁₀ P(next heartbeat arrives after t)`
/// under a normal model of inter-arrival times, and suspect once φ
/// crosses a threshold. φ = 1 means ≈10 % chance the silence is benign,
/// φ = 3 means ≈0.1 %. This is the design adopted by Cassandra and Akka —
/// the modern descendant of the paper's "group membership timeout".
///
/// The crossing is the freshness point:
/// [`deadline`](ArrivalEstimator::deadline) bisects it once per arrival,
/// and, as for every estimator, the peer is suspected exactly when the
/// deadline has passed — a poll compares integers, it never evaluates φ.
///
/// The model's mean and deviation are estimated from the `k` gaps in
/// the window, so the next gap follows the normal law's prediction
/// interval: Student's t with `k − 1` degrees of freedom around the
/// sample mean, scaled by `s·√(1 + 1/k)` (`s` the sample deviation). A
/// young window is therefore judged with the wide tails its few samples
/// warrant, not with a deviation that a handful of gaps underestimate.
#[derive(Clone, Debug)]
pub struct PhiAccrual {
    window: ArrivalWindow,
    threshold: f64,
    /// Minimum standard deviation to avoid φ exploding on perfectly
    /// regular traffic.
    min_std: f64,
    bootstrap: Nanos,
    /// `(mean, scale, dof)` of the law φ is read against: the window's
    /// prediction interval as of the latest arrival, so a φ evaluation
    /// costs the same whatever the window holds. `dof == 0` marks the
    /// bootstrap guess, read as a normal law.
    model: (f64, f64, usize),
}

impl PhiAccrual {
    /// Creates a φ-accrual detector suspecting at `threshold`, with a
    /// sliding window of `window` samples and a `bootstrap` timeout.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not positive, `window < 2`, or
    /// `bootstrap` is zero.
    #[must_use]
    pub fn new(threshold: f64, window: usize, bootstrap: Nanos) -> Self {
        assert!(threshold > 0.0, "threshold must be positive");
        assert!(
            bootstrap > Nanos::ZERO,
            "bootstrap timeout must be positive"
        );
        // Until the window has two samples, treat the bootstrap timeout
        // as mean with a generous deviation.
        let b = bootstrap.as_nanos() as f64;
        Self {
            window: ArrivalWindow::new(window),
            threshold,
            min_std: 1e5, // 0.1 ms floor
            bootstrap,
            model: (b / 2.0, b / 4.0, 0),
        }
    }

    /// The suspicion threshold.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The φ value at time `now` (0 before the first heartbeat).
    #[must_use]
    pub fn phi(&self, now: Nanos) -> f64 {
        let Some(last) = self.window.last_arrival() else {
            return 0.0;
        };
        let elapsed = now.saturating_sub(last).as_nanos() as f64;
        let (mean, scale, dof) = self.model;
        let y = (elapsed - mean) / scale;
        let p_later = if dof == 0 {
            normal_survival(y)
        } else {
            t_survival(y, dof)
        };
        // The t tail rounds to a hair above 1 deep inside the mean; clamp,
        // and subtract from +0 so a certain arrival reads φ = +0.
        0.0 - p_later.clamp(1e-12, 1.0).log10()
    }
}

impl ArrivalEstimator for PhiAccrual {
    fn observe(&mut self, now: Nanos) {
        self.window.record(now);
        let k = self.window.len();
        if k >= 2 {
            if let Some((mean, variance)) = self.window.mean_and_variance() {
                let scale = (variance * (1.0 + 1.0 / k as f64)).sqrt();
                self.model = (mean, scale.max(self.min_std), k - 1);
            }
        }
    }

    fn deadline(&self) -> Option<Nanos> {
        // The deadline is implicit: the time at which φ crosses the
        // threshold. Probe geometrically from the last arrival. The probe
        // is capped: with an extremely wide inter-arrival spread the
        // crossing can lie beyond any horizon a caller could act on, and
        // a deadline that never crosses the threshold would be a false
        // "suspect after this time" guarantee — report `None` instead.
        const PROBE_CAP: u64 = 1 << 51; // ≈ 26 days
        let last = self.window.last_arrival()?;
        let mut lo = 0u64;
        let mut hi = self.bootstrap.as_nanos().max(1);
        while self.phi(last.saturating_add(Nanos::from_nanos(hi))) < self.threshold {
            if hi >= PROBE_CAP {
                // Saturated without bracketing a crossing.
                return None;
            }
            lo = hi;
            hi = hi.saturating_mul(2).min(PROBE_CAP);
        }
        // Binary search the crossing point in [lo, hi]; the loop above
        // guarantees φ(last + hi) ≥ threshold.
        for _ in 0..40 {
            let mid = lo + (hi - lo) / 2;
            if self.phi(last.saturating_add(Nanos::from_nanos(mid))) < self.threshold {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(last.saturating_add(Nanos::from_nanos(hi)))
    }

    fn suspicion_level(&self, now: Nanos) -> f64 {
        self.phi(now)
    }

    fn name(&self) -> &'static str {
        "phi-accrual"
    }
}

/// `P(Y > y)` for a standard normal `Y`, via the logistic approximation
/// of the normal CDF used by the Akka implementation.
fn normal_survival(y: f64) -> f64 {
    let e = (-y * (1.5976 + 0.070566 * y * y)).exp();
    if y > 0.0 {
        e / (1.0 + e)
    } else {
        1.0 - 1.0 / (1.0 + e)
    }
}

/// `P(T > t)` for Student's `T` with `dof ≥ 1` degrees of freedom: the
/// exact finite series of Abramowitz–Stegun 26.7.3–4 for
/// `A = P(|T| ≤ |t|)` in `θ = atan(|t|/√dof)`.
fn t_survival(t: f64, dof: usize) -> f64 {
    let theta = (t.abs() / (dof as f64).sqrt()).atan();
    let (sin, cos) = theta.sin_cos();
    let cos2 = cos * cos;
    // Odd dof: (2/π)(θ + sin θ · Σ cᵢ cos^(2i+1) θ); even dof:
    // sin θ · Σ cᵢ cos^(2i) θ — each term the last times cos²θ and a
    // ratio of consecutive odd and even numbers.
    let odd = dof % 2 == 1;
    let (mut term, mut sum) = (if odd { cos } else { 1.0 }, 0.0);
    for i in 1..=(dof - 1) / 2 + usize::from(!odd) {
        sum += term;
        let (num, den) = if odd {
            (2 * i, 2 * i + 1)
        } else {
            (2 * i - 1, 2 * i)
        };
        term *= cos2 * num as f64 / den as f64;
    }
    let within = if odd {
        2.0 / std::f64::consts::PI * (theta + sin * sum)
    } else {
        sin * sum
    };
    if t >= 0.0 {
        (1.0 - within) / 2.0
    } else {
        (1.0 + within) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn trained(period_ms: u64) -> PhiAccrual {
        let mut e = PhiAccrual::new(3.0, 16, ms(500));
        for k in 0..16 {
            e.observe(ms(k * period_ms));
        }
        e
    }

    /// Training with realistic jitter (alternating 80/120 ms gaps) so the
    /// inter-arrival distribution has nonzero spread.
    fn trained_jittery() -> (PhiAccrual, Nanos) {
        let mut e = PhiAccrual::new(3.0, 16, ms(500));
        let mut t = 0u64;
        for k in 0..16 {
            t += if k % 2 == 0 { 80 } else { 120 };
            e.observe(ms(t));
        }
        (e, ms(t))
    }

    #[test]
    fn t_survival_matches_closed_forms() {
        // dof 1 is Cauchy: P(T > 1) = 1/4.
        assert!((t_survival(1.0, 1) - 0.25).abs() < 1e-12);
        // dof 2: P(T > t) = 1/2 − t / (2√(2 + t²)).
        let closed = 0.5 - 2.0 / (2.0 * 6f64.sqrt());
        assert!((t_survival(2.0, 2) - closed).abs() < 1e-12);
        assert!((t_survival(-2.0, 2) - (1.0 - closed)).abs() < 1e-12);
        // Many degrees of freedom approach the normal tail (≈ 0.00135).
        assert!((t_survival(3.0, 400) - 0.00135).abs() < 1e-4);
    }

    /// Six gaps of a 100 ms heartbeat over 2–10 ms of jitter that
    /// happen to sit within ±1.5 ms of each other: the next heartbeat,
    /// sent on time, has not landed 102.7 ms after the last one. A
    /// normal law fitted to those six gaps puts φ near 3.8; the
    /// prediction interval they warrant does not suspect.
    #[test]
    fn a_young_tight_window_does_not_suspect_an_on_time_heartbeat() {
        let mut e = PhiAccrual::new(3.0, 32, ms(600));
        for us in [9_761, 109_603, 209_779, 307_924, 405_412, 504_852, 602_342] {
            e.observe(Nanos::from_nanos(us * 1_000));
        }
        assert!(!e.is_suspect(ms(705)), "φ = {}", e.phi(ms(705)));
        assert!(e.is_suspect(ms(760)), "a real silence is still caught");
    }

    #[test]
    fn phi_is_never_negative() {
        let (e, last) = trained_jittery();
        for after in [0, 1, 50, 99] {
            let phi = e.phi(last.saturating_add(ms(after)));
            assert!(phi.is_sign_positive() && phi < 1.0, "φ = {phi}");
        }
    }

    #[test]
    fn phi_is_monotone_in_silence() {
        let (e, last) = trained_jittery();
        let p1 = e.phi(last.saturating_add(ms(50)));
        let p2 = e.phi(last.saturating_add(ms(150)));
        let p3 = e.phi(last.saturating_add(ms(400)));
        assert!(p1 < p2 && p2 < p3, "{p1} {p2} {p3}");
    }

    #[test]
    fn fresh_heartbeat_resets_phi() {
        let mut e = trained(100);
        let late = ms(15 * 100 + 500);
        assert!(e.phi(late) > 3.0);
        e.observe(late);
        assert!(e.phi(late.saturating_add(ms(10))) < 1.0);
    }

    #[test]
    fn suspects_after_long_silence_only() {
        let e = trained(100);
        let last = ms(1500);
        assert!(!e.is_suspect(last.saturating_add(ms(100))));
        assert!(e.is_suspect(last.saturating_add(ms(2_000))));
    }

    #[test]
    fn deadline_matches_threshold_crossing() {
        let e = trained(100);
        let d = e.deadline().unwrap();
        let just_before = Nanos::from_nanos(d.as_nanos() - 2_000_000);
        let just_after = d.saturating_add(ms(2));
        assert!(e.phi(just_before) < 3.0);
        assert!(e.phi(just_after) >= 3.0);
    }

    /// Regression: with a huge-variance window the φ curve may stay below
    /// the threshold past the geometric probe's cap. The old code broke
    /// out of the probe at ~2⁵⁰ ns and returned a "deadline" that never
    /// crosses the threshold — a false suspect-after-this-time guarantee.
    /// The fix reports `None` when the probe fails to bracket a crossing.
    #[test]
    fn deadline_is_none_when_probe_cannot_bracket_a_crossing() {
        let mut e = PhiAccrual::new(3.0, 16, ms(500));
        // Two samples with a ~46-day gap: mean ≈ std ≈ 2e15 ns, so φ at
        // the probe cap (~2⁵¹ ns past the last arrival) is still tiny.
        e.observe(Nanos::from_nanos(0));
        e.observe(Nanos::from_nanos(1));
        e.observe(Nanos::from_nanos(4_000_000_000_000_000));
        let last = Nanos::from_nanos(4_000_000_000_000_000);
        assert!(
            e.phi(last.saturating_add(Nanos::from_nanos(1 << 51))) < e.threshold(),
            "precondition: no crossing within the probe horizon"
        );
        // Pre-fix this returned Some(d) with φ(d) < threshold; now the
        // saturation is explicit.
        assert!(e.deadline().is_none(), "probe saturation must yield None");
        // And silence inside the probe horizon is indeed not suspect.
        assert!(!e.is_suspect(last.saturating_add(Nanos::from_nanos(1 << 50))));
    }

    #[test]
    fn higher_threshold_suspects_later() {
        let mut lax = PhiAccrual::new(8.0, 16, ms(500));
        let mut strict = PhiAccrual::new(1.0, 16, ms(500));
        for k in 0..16 {
            lax.observe(ms(k * 100));
            strict.observe(ms(k * 100));
        }
        let d_lax = lax.deadline().unwrap();
        let d_strict = strict.deadline().unwrap();
        assert!(d_lax > d_strict);
    }
}
