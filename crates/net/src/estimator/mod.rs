//! Heartbeat arrival estimators — the adaptive core of realistic
//! failure detectors.
//!
//! The paper's §1.3 observes that real systems implement (approximations
//! of) `P` by timing out heartbeats. How the timeout is chosen is the
//! whole game: too short and the detector makes mistakes (costing
//! accuracy), too long and crashes go unnoticed (costing detection time).
//! This module implements the four classic strategies evaluated in
//! experiment E7:
//!
//! * [`FixedTimeout`] — a static bound (the naive baseline);
//! * [`ChenEstimator`] — Chen–Toueg–Aguilera's expected-arrival estimator
//!   with a constant safety margin α;
//! * [`JacobsonEstimator`] — TCP-RTO-style mean + 4·deviation adaptive
//!   timeout;
//! * [`PhiAccrual`] — Hayashibara's φ-accrual detector (the
//!   Cassandra/Akka design): a continuous suspicion level thresholded at
//!   φ.
//!
//! All of them implement [`ArrivalEstimator`]: observe heartbeat
//! arrivals, then name the instant until which the peer is trusted (its
//! freshness point) and how suspicious a silence looks. Suspicion itself
//! has one rule for all four: the peer is suspected exactly when that
//! instant has passed — the paper's "suspected, i.e., timed-out".

mod chen;
mod fixed;
mod jacobson;
mod phi;

pub use chen::ChenEstimator;
pub use fixed::FixedTimeout;
pub use jacobson::JacobsonEstimator;
pub(crate) use jacobson::RtoFilter;
pub use phi::PhiAccrual;

use crate::clock::Nanos;
use core::fmt;

/// An adaptive (or fixed) heartbeat-timeout strategy.
pub trait ArrivalEstimator: fmt::Debug {
    /// Records a heartbeat arrival at time `now`.
    fn observe(&mut self, now: Nanos);

    /// The time until which the peer is trusted, given the arrivals seen
    /// so far (the current *freshness point*); the peer is suspected
    /// exactly when it has passed. `None` before the first arrival, and
    /// also when no threshold crossing exists within the estimator's
    /// probe horizon (e.g. [`PhiAccrual`] under a huge-variance window):
    /// the peer is then never suspected, so estimators must never
    /// fabricate a deadline.
    ///
    /// **Contract:** the deadline is a pure function of the arrivals
    /// observed so far — only [`observe`](Self::observe) may change it,
    /// never the passage of time or the number of times it was asked.
    /// [`HeartbeatDetector`](crate::detector::HeartbeatDetector) relies
    /// on this: it asks once when a heartbeat lands and answers every
    /// poll until the next one from the value it kept.
    fn deadline(&self) -> Option<Nanos>;

    /// Whether the peer is suspected at `now`: exactly when `now` is past
    /// its [`deadline`](Self::deadline), the one suspicion rule of every
    /// estimator. A convenience for callers holding a bare estimator;
    /// [`HeartbeatDetector`](crate::detector::HeartbeatDetector) applies
    /// the same rule to the deadline it stored.
    fn is_suspect(&self, now: Nanos) -> bool {
        self.deadline().is_some_and(|d| now > d)
    }

    /// A monotone suspicion level at `now`: `0.0` right after a
    /// heartbeat, growing with silence. Implementations with a natural
    /// scale (φ-accrual) return it; others return the silence/deadline
    /// ratio.
    fn suspicion_level(&self, now: Nanos) -> f64;

    /// Strategy name for reports.
    fn name(&self) -> &'static str;
}

/// Sliding-window statistics over heartbeat inter-arrival times,
/// shared by the adaptive estimators.
#[derive(Clone, Debug)]
pub(crate) struct ArrivalWindow {
    capacity: usize,
    samples: std::collections::VecDeque<u64>,
    last_arrival: Option<Nanos>,
}

impl ArrivalWindow {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "need at least two samples for statistics");
        Self {
            capacity,
            samples: std::collections::VecDeque::with_capacity(capacity),
            last_arrival: None,
        }
    }

    /// Records an arrival; returns the inter-arrival gap if there was a
    /// previous arrival.
    pub(crate) fn record(&mut self, now: Nanos) -> Option<u64> {
        let gap = self
            .last_arrival
            .map(|prev| now.saturating_sub(prev).as_nanos());
        self.last_arrival = Some(now);
        if let Some(g) = gap {
            if self.samples.len() == self.capacity {
                self.samples.pop_front();
            }
            self.samples.push_back(g);
        }
        gap
    }

    pub(crate) fn last_arrival(&self) -> Option<Nanos> {
        self.last_arrival
    }

    pub(crate) fn len(&self) -> usize {
        self.samples.len()
    }

    /// Mean inter-arrival in nanoseconds.
    pub(crate) fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().map(|&g| g as f64).sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Mean and sample variance (`n − 1` denominator) of inter-arrivals.
    pub(crate) fn mean_and_variance(&self) -> Option<(f64, f64)> {
        let mean = self.mean()?;
        if self.samples.len() < 2 {
            return Some((mean, 0.0));
        }
        let var = self
            .samples
            .iter()
            .map(|&g| {
                let d = g as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / (self.samples.len() - 1) as f64;
        Some((mean, var))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_tracks_gaps_and_statistics() {
        let mut w = ArrivalWindow::new(4);
        assert_eq!(w.record(Nanos::from_millis(0)), None);
        assert_eq!(w.record(Nanos::from_millis(10)), Some(10_000_000));
        assert_eq!(w.record(Nanos::from_millis(20)), Some(10_000_000));
        assert_eq!(w.mean(), Some(10_000_000.0));
        assert_eq!(w.mean_and_variance(), Some((10_000_000.0, 0.0)));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn window_evicts_oldest_at_capacity() {
        let mut w = ArrivalWindow::new(2);
        w.record(Nanos::from_millis(0));
        w.record(Nanos::from_millis(10)); // gap 10ms
        w.record(Nanos::from_millis(30)); // gap 20ms
        w.record(Nanos::from_millis(70)); // gap 40ms, evicts 10ms
        assert_eq!(w.len(), 2);
        assert_eq!(w.mean(), Some(30_000_000.0));
    }

    #[test]
    fn variance_reflects_jitter() {
        let mut w = ArrivalWindow::new(8);
        w.record(Nanos::from_millis(0));
        w.record(Nanos::from_millis(10));
        w.record(Nanos::from_millis(30));
        let (_, var) = w.mean_and_variance().unwrap();
        assert!(var > 0.0);
    }
}
