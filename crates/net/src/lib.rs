//! # rfd-net — the realistic failure-detection runtime
//!
//! The systems counterpart of the paper's theory: timeout-based failure
//! detectors as deployed systems actually build them (§1.3), evaluated
//! with Chen–Toueg–Aguilera QoS metrics.
//!
//! * [`clock`] — virtual (deterministic) and system time sources, and
//!   the [`clock::Pacer`] abstraction that lets one scenario driver run
//!   in simulated or wall time.
//! * [`transport`] — a seeded lossy virtual-time network, the one
//!   simulated medium, and a real UDP transport carrying the same wire
//!   format ([`codec`]), plus the [`transport::ChurnableTransport`]
//!   fault-injection surface and the [`transport::FaultyTransport`]
//!   wrapper that provides its crash and partition half over real
//!   sockets.
//! * [`estimator`] — heartbeat timeout strategies: fixed, Chen,
//!   Jacobson, φ-accrual.
//! * [`detector`] — the per-node heartbeat detector and node loop.
//! * [`qos`] — detection time / mistake rate / query accuracy metrics:
//!   the incremental [`qos::QosMonitor`] every fleet driver samples and
//!   its post-hoc reference [`qos::QosTracker`].
//! * [`membership`] — a view-based group membership that **emulates
//!   `P`** by exclusion, the paper's explanation of why real systems end
//!   up at the top of the collapsed hierarchy (experiment E8).
//! * [`online`] — the long-running service view: fault schedules
//!   (crash / recover / partition churn), the transport-generic
//!   resumable [`OnlineRunner`] with live per-pair QoS, and the
//!   churn-capable [`online::MembershipWatcher`] with split-brain /
//!   reconvergence accounting (experiments E7, E11, E12).
//! * [`service`] — the replicated-decision service on top of it all:
//!   rotating-coordinator consensus per log slot over the
//!   membership-emulated `P`, TRB-style decision relaying, and
//!   post-heal state transfer between re-merged views (experiment E13).
//! * [`weather`] — the adversarial weather catalogue: a composable
//!   scenario DSL (one-way partitions, flapping links, duplication,
//!   time-bounded reordering, gray failure, clock skew, correlated zone
//!   crashes) whose planes live in the simulated medium,
//!   [`transport::InMemoryNetwork`] (experiment E15).
//!
//! ## Example: measure an estimator's QoS
//!
//! ```
//! use rfd_core::ProcessId;
//! use rfd_net::clock::Nanos;
//! use rfd_net::estimator::ChenEstimator;
//! use rfd_net::online::{Fault, FaultSchedule, OnlineRunner, OnlineScenario};
//!
//! let ms = Nanos::from_millis;
//! let (target, observer) = (ProcessId::new(0), ProcessId::new(1));
//! let scenario = OnlineScenario {
//!     n: 2,
//!     schedule: FaultSchedule::new().at(ms(5_000), Fault::Crash(target)),
//!     duration: ms(10_000),
//!     ..OnlineScenario::default()
//! };
//! let mut runner = OnlineRunner::new(ChenEstimator::new(ms(100), 16, ms(400)), scenario);
//! runner.run_to_end();
//! let report = runner.report(observer, target).unwrap();
//! assert!(report.detection_time.is_some(), "the crash is detected");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

/// The vendored byte-buffer crate backing [`codec`] and [`transport`]
/// payloads, re-exported so downstream crates and integration tests can
/// name [`bytes::Bytes`]/[`bytes::BytesMut`] without depending on the
/// vendored path themselves.
pub use bytes;

pub mod clock;
pub mod codec;
pub mod detector;
pub mod estimator;
pub mod membership;
pub mod online;
pub mod qos;
pub mod service;
pub mod transport;
pub mod weather;

pub use clock::{Clock, ClockSkew, Nanos, Pacer, SkewedClock, SystemClock, VirtualClock};
pub use detector::{DetectorNode, HeartbeatDetector};
pub use estimator::{ArrivalEstimator, ChenEstimator, FixedTimeout, JacobsonEstimator, PhiAccrual};
pub use online::{
    run_membership_churn, run_membership_churn_over, Fault, FaultSchedule, MembershipChurnReport,
    MembershipWatcher, OnlineEvent, OnlineRunner, OnlineScenario,
};
pub use qos::{QosMonitor, QosReport, QosTracker};
pub use service::{
    run_service, DecisionService, ReplicatedLog, ServiceReport, ServiceRunner, ServiceScenario,
};
pub use transport::{
    faulty_cluster, ChurnableTransport, FaultInjector, FaultyTransport, InMemoryNetwork, LossModel,
    NetworkConfig, Transport, UdpTransport,
};
pub use weather::{Weather, WeatherDirective};
