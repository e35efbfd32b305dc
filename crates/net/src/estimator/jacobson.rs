//! Jacobson-style adaptive timeout (the TCP RTO rule on inter-arrivals).

use super::ArrivalEstimator;
use crate::clock::Nanos;

/// The Jacobson/Karels filter: a smoothed sample `srtt` and a smoothed
/// deviation `rttvar` (TCP gains: 1/8 for the mean, 1/4 for the
/// deviation), whose timeout is `srtt + β · rttvar`. One filter, two
/// users: [`JacobsonEstimator`] runs it on heartbeat inter-arrivals, the
/// decision service's retransmission plane on slot times.
#[derive(Clone, Debug)]
pub(crate) struct RtoFilter {
    srtt: Option<f64>,
    rttvar: f64,
    beta: f64,
}

impl RtoFilter {
    /// An empty filter with deviation multiplier `beta`.
    pub(crate) fn new(beta: f64) -> Self {
        Self {
            srtt: None,
            rttvar: 0.0,
            beta,
        }
    }

    /// Folds in one sample.
    pub(crate) fn sample(&mut self, sample: Nanos) {
        let mut sample = sample.as_nanos() as f64;
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2.0;
            }
            Some(srtt) => {
                // Karn-style clamp: a sample longer than the current
                // timeout measures an outage (a lost-heartbeat run, a
                // partition), not the quantity being estimated. Feeding
                // it raw is the classic pre-Karn TCP RTO failure: one
                // partition-sized gap inflates the timeout for many
                // periods. The clamp ceiling is *twice* the timeout (TCP's
                // backoff step): clamping to the timeout itself would
                // freeze adaptation once rttvar decays to zero on regular
                // samples (rto == srtt ⇒ clamped err == 0 forever); the 2×
                // headroom keeps each late sample growing the estimate
                // geometrically until it covers a real slow-down, while a
                // partition-sized gap still cannot blow it up.
                let ceiling = 2.0 * (srtt + self.beta * self.rttvar);
                if sample > ceiling {
                    sample = ceiling;
                }
                let err = (sample - srtt).abs();
                self.rttvar = 0.75 * self.rttvar + 0.25 * err;
                self.srtt = Some(0.875 * srtt + 0.125 * sample);
            }
        }
    }

    /// `srtt + β · rttvar`; `None` before the first sample.
    pub(crate) fn rto(&self) -> Option<Nanos> {
        self.srtt
            .map(|srtt| Nanos::from_nanos((srtt + self.beta * self.rttvar) as u64))
    }
}

/// Exponentially weighted mean/deviation timeout: trust until
/// `last + srtt + β · rttvar`, with the TCP constants
/// (gain 1/8 for the mean, 1/4 for the deviation, β = 4).
///
/// Compared with [`super::ChenEstimator`], the exponential filter reacts
/// faster to period changes and the deviation term adapts the margin to
/// the observed jitter rather than using a fixed α.
#[derive(Clone, Debug)]
pub struct JacobsonEstimator {
    filter: RtoFilter,
    last: Option<Nanos>,
    bootstrap: Nanos,
}

impl JacobsonEstimator {
    /// Creates an estimator with deviation multiplier `beta` and a
    /// `bootstrap` timeout used before the first inter-arrival sample.
    ///
    /// # Panics
    ///
    /// Panics if `beta` is not positive or `bootstrap` is zero.
    #[must_use]
    pub fn new(beta: f64, bootstrap: Nanos) -> Self {
        assert!(beta > 0.0, "beta must be positive");
        assert!(
            bootstrap > Nanos::ZERO,
            "bootstrap timeout must be positive"
        );
        Self {
            filter: RtoFilter::new(beta),
            last: None,
            bootstrap,
        }
    }

    /// The smoothed inter-arrival estimate, if any.
    #[must_use]
    pub fn smoothed_gap(&self) -> Option<Nanos> {
        self.filter.srtt.map(|v| Nanos::from_nanos(v as u64))
    }
}

impl ArrivalEstimator for JacobsonEstimator {
    fn observe(&mut self, now: Nanos) {
        if let Some(prev) = self.last {
            self.filter.sample(now.saturating_sub(prev));
        }
        self.last = Some(now);
    }

    fn deadline(&self) -> Option<Nanos> {
        let last = self.last?;
        Some(last.saturating_add(self.filter.rto().unwrap_or(self.bootstrap)))
    }

    fn suspicion_level(&self, now: Nanos) -> f64 {
        match (self.last, self.deadline()) {
            (Some(last), Some(deadline)) => {
                let span = deadline.saturating_sub(last).as_nanos().max(1);
                now.saturating_sub(last).as_nanos() as f64 / span as f64
            }
            _ => 0.0,
        }
    }

    fn name(&self) -> &'static str {
        "jacobson"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    #[test]
    fn converges_to_stable_period() {
        let mut e = JacobsonEstimator::new(4.0, ms(500));
        for k in 0..50 {
            e.observe(ms(k * 100));
        }
        let gap = e.smoothed_gap().unwrap().as_millis();
        assert!((95..=105).contains(&gap), "gap={gap}");
        // With zero jitter the deviation decays toward zero, so the
        // deadline converges to last + period: trusted just inside the
        // period, suspect just past it.
        assert!(!e.is_suspect(ms(49 * 100 + 90)));
        assert!(e.is_suspect(ms(49 * 100 + 130)));
    }

    #[test]
    fn jitter_widens_the_margin() {
        let mut steady = JacobsonEstimator::new(4.0, ms(500));
        let mut jittery = JacobsonEstimator::new(4.0, ms(500));
        let mut t_s = 0u64;
        let mut t_j = 0u64;
        for k in 0..40 {
            t_s += 100;
            steady.observe(ms(t_s));
            t_j += if k % 2 == 0 { 60 } else { 140 };
            jittery.observe(ms(t_j));
        }
        let m_s = steady
            .deadline()
            .unwrap()
            .saturating_sub(ms(t_s))
            .as_millis();
        let m_j = jittery
            .deadline()
            .unwrap()
            .saturating_sub(ms(t_j))
            .as_millis();
        assert!(
            m_j > m_s,
            "jittery peer should get a wider margin ({m_j} vs {m_s})"
        );
    }

    /// Regression: a 10 s outage on a 100 ms stream used to feed the
    /// 10.1 s gap straight into srtt/rttvar (srtt ≈ 1.35 s,
    /// rttvar ≈ 2.5 s → RTO > 11 s), so the deadline stayed inflated for
    /// dozens of periods. With the Karn-style clamp the deadline must
    /// re-converge within a few periods.
    #[test]
    fn outage_gap_does_not_inflate_the_timeout() {
        let mut e = JacobsonEstimator::new(4.0, ms(500));
        let mut t = 0u64;
        for _ in 0..50 {
            t += 100;
            e.observe(ms(t));
        }
        // 10 s of silence (the peer was long past its deadline), then the
        // stream resumes.
        t += 10_000;
        e.observe(ms(t));
        for _ in 0..5 {
            t += 100;
            e.observe(ms(t));
        }
        let margin = e.deadline().unwrap().saturating_sub(ms(t));
        assert!(
            margin.as_millis() < 500,
            "deadline must re-converge within a few periods; margin = {margin}"
        );
        assert!(
            !e.is_suspect(ms(t + 90)),
            "a peer back on its period must be trusted inside the period"
        );
    }

    /// The clamp must not freeze adaptation: on perfectly regular
    /// traffic rttvar decays to exactly 0.0 (rto == srtt), and a clamp
    /// at the RTO itself would then pin every later sample to srtt
    /// (err == 0 forever) — a peer that legitimately slows down would be
    /// suspected on every interval with no recovery. The 2×RTO ceiling
    /// lets the estimate grow geometrically out of the freeze.
    #[test]
    fn period_increase_recovers_even_after_variance_fully_decays() {
        let mut e = JacobsonEstimator::new(4.0, ms(500));
        let mut t = 0u64;
        for _ in 0..3000 {
            t += 100;
            e.observe(ms(t));
        }
        // The geometric decay bottoms out in the subnormal range (0.75×
        // the smallest subnormal rounds back to itself), so "fully
        // decayed" means rto == srtt to the last bit, not literal 0.0.
        assert!(
            e.filter.rttvar < 1e-300,
            "precondition: deviation fully decayed (rttvar = {})",
            e.filter.rttvar
        );
        // The peer legitimately slows to a 250 ms period.
        for _ in 0..10 {
            t += 250;
            e.observe(ms(t));
        }
        assert!(
            !e.is_suspect(ms(t + 240)),
            "the deadline must re-cover the new period (deadline {:?}, last {})",
            e.deadline(),
            ms(t)
        );
    }

    #[test]
    fn bootstrap_before_first_gap() {
        let mut e = JacobsonEstimator::new(4.0, ms(250));
        e.observe(ms(0));
        assert!(e.is_suspect(ms(251)));
        assert!(!e.is_suspect(ms(249)));
    }
}
