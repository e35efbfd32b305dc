//! A closed sum over the estimator line-up, shared by the experiments
//! that sweep heterogeneous estimators through one closure (E7's QoS
//! grid, E8's membership rows, E11's churn schedules, and the service
//! experiments' common line-up).

use crate::ms;
use rfd_net::clock::Nanos;
use rfd_net::estimator::{
    ArrivalEstimator, ChenEstimator, FixedTimeout, JacobsonEstimator, PhiAccrual,
};

/// One of the four estimator strategies, dispatching [`ArrivalEstimator`]
/// by value so a whole line-up fits in one homogeneous row table.
#[derive(Clone, Debug)]
pub enum Estimators {
    /// Static timeout.
    Fixed(FixedTimeout),
    /// Chen–Toueg–Aguilera expected arrival + margin.
    Chen(ChenEstimator),
    /// TCP-RTO-style mean + deviation.
    Jacobson(JacobsonEstimator),
    /// φ-accrual.
    Phi(PhiAccrual),
}

impl Estimators {
    /// The service experiments' line-up (E12–E16): a fixed baseline of
    /// `fixed_ms` plus the three adaptive estimators, all capped at
    /// 600 ms.
    pub(crate) fn line_up(fixed_ms: u64) -> Vec<(String, Estimators)> {
        vec![
            (
                format!("fixed-{fixed_ms}ms"),
                Estimators::Fixed(FixedTimeout::new(ms(fixed_ms))),
            ),
            (
                "chen(α=150ms)".into(),
                Estimators::Chen(ChenEstimator::new(ms(150), 16, ms(600))),
            ),
            (
                "jacobson(β=4)".into(),
                Estimators::Jacobson(JacobsonEstimator::new(4.0, ms(600))),
            ),
            (
                "φ-accrual(φ=3)".into(),
                Estimators::Phi(PhiAccrual::new(3.0, 32, ms(600))),
            ),
        ]
    }
}

impl ArrivalEstimator for Estimators {
    fn name(&self) -> &'static str {
        match self {
            Estimators::Fixed(e) => e.name(),
            Estimators::Chen(e) => e.name(),
            Estimators::Jacobson(e) => e.name(),
            Estimators::Phi(e) => e.name(),
        }
    }

    fn observe(&mut self, arrival: Nanos) {
        match self {
            Estimators::Fixed(e) => e.observe(arrival),
            Estimators::Chen(e) => e.observe(arrival),
            Estimators::Jacobson(e) => e.observe(arrival),
            Estimators::Phi(e) => e.observe(arrival),
        }
    }

    fn suspicion_level(&self, now: Nanos) -> f64 {
        match self {
            Estimators::Fixed(e) => e.suspicion_level(now),
            Estimators::Chen(e) => e.suspicion_level(now),
            Estimators::Jacobson(e) => e.suspicion_level(now),
            Estimators::Phi(e) => e.suspicion_level(now),
        }
    }

    fn deadline(&self) -> Option<Nanos> {
        match self {
            Estimators::Fixed(e) => e.deadline(),
            Estimators::Chen(e) => e.deadline(),
            Estimators::Jacobson(e) => e.deadline(),
            Estimators::Phi(e) => e.deadline(),
        }
    }
}
