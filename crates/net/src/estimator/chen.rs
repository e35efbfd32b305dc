//! Chen–Toueg–Aguilera's expected-arrival estimator.

use super::{ArrivalEstimator, ArrivalWindow};
use crate::clock::Nanos;

/// The Chen et al. QoS-oriented estimator (IEEE TC 2002).
///
/// The next heartbeat's *expected arrival* is predicted as the average of
/// the last `window` arrival times shifted by one period, and the peer is
/// trusted until `expected + α` — a constant safety margin directly
/// trading detection time for accuracy. Predicting from observed
/// arrivals absorbs steady network delay; α absorbs jitter.
///
/// This implementation uses the standard practical simplification: the
/// expected next arrival is `last_arrival + mean_interarrival` over the
/// sliding window.
///
/// As in Chen et al., the freshness point is fixed when a heartbeat
/// *arrives*: [`observe`](ArrivalEstimator::observe) derives it from the
/// window once, and every question until the next arrival reads it.
#[derive(Clone, Debug)]
pub struct ChenEstimator {
    window: ArrivalWindow,
    alpha: Nanos,
    /// Fallback trust period before enough samples exist.
    bootstrap: Nanos,
    /// The freshness point the latest arrival fixed.
    deadline: Option<Nanos>,
}

impl ChenEstimator {
    /// Creates an estimator with safety margin `alpha`, sliding window
    /// of `window` inter-arrival samples, and a `bootstrap` timeout used
    /// until the window has data.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2` or `bootstrap` is zero.
    #[must_use]
    pub fn new(alpha: Nanos, window: usize, bootstrap: Nanos) -> Self {
        assert!(
            bootstrap > Nanos::ZERO,
            "bootstrap timeout must be positive"
        );
        Self {
            window: ArrivalWindow::new(window),
            alpha,
            bootstrap,
            deadline: None,
        }
    }

    /// The safety margin α.
    #[must_use]
    pub fn alpha(&self) -> Nanos {
        self.alpha
    }
}

impl ArrivalEstimator for ChenEstimator {
    fn observe(&mut self, now: Nanos) {
        self.window.record(now);
        let expected_gap = match self.window.mean() {
            Some(mean) if self.window.len() >= 2 => Nanos::from_nanos(mean as u64),
            _ => self.bootstrap,
        };
        self.deadline = Some(now.saturating_add(expected_gap).saturating_add(self.alpha));
    }

    fn deadline(&self) -> Option<Nanos> {
        self.deadline
    }

    fn suspicion_level(&self, now: Nanos) -> f64 {
        match (self.window.last_arrival(), self.deadline()) {
            (Some(last), Some(deadline)) => {
                let span = deadline.saturating_sub(last).as_nanos().max(1);
                now.saturating_sub(last).as_nanos() as f64 / span as f64
            }
            _ => 0.0,
        }
    }

    fn name(&self) -> &'static str {
        "chen"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    #[test]
    fn adapts_to_the_observed_period() {
        let mut e = ChenEstimator::new(ms(20), 8, ms(500));
        // Heartbeats every 100 ms.
        for k in 0..10 {
            e.observe(ms(k * 100));
        }
        let deadline = e.deadline().unwrap();
        // Expected next ≈ 1000ms, margin 20ms.
        assert_eq!(deadline.as_millis(), 1020);
        assert!(!e.is_suspect(ms(1015)));
        assert!(e.is_suspect(ms(1025)));
    }

    #[test]
    fn bootstrap_timeout_applies_before_samples() {
        let mut e = ChenEstimator::new(ms(0), 4, ms(300));
        e.observe(ms(0));
        assert!(!e.is_suspect(ms(299)));
        assert!(e.is_suspect(ms(301)));
    }

    #[test]
    fn slower_period_stretches_the_deadline() {
        let mut fast = ChenEstimator::new(ms(10), 8, ms(500));
        let mut slow = ChenEstimator::new(ms(10), 8, ms(500));
        for k in 0..8 {
            fast.observe(ms(k * 50));
            slow.observe(ms(k * 200));
        }
        let f = fast.deadline().unwrap().saturating_sub(ms(7 * 50));
        let s = slow.deadline().unwrap().saturating_sub(ms(7 * 200));
        assert!(s > f, "period adaptation: slow peers get more slack");
    }
}
