//! # realistic-failure-detectors
//!
//! A comprehensive Rust reproduction of
//! *"A Realistic Look At Failure Detectors"* (C. Delporte-Gallet,
//! H. Fauconnier, R. Guerraoui — DSN 2002).
//!
//! The paper shows that in an environment with an **unbounded number of
//! crash failures**, the class `P` of Perfect failure detectors is the
//! *weakest realistic* class solving uniform consensus (hence atomic
//! broadcast) and terminating reliable broadcast — collapsing the
//! Chandra–Toueg hierarchy and explaining why practical systems build on
//! group membership services that emulate `P`.
//!
//! This facade crate re-exports the four workspace layers:
//!
//! * [`core`] ([`rfd_core`]) — failure patterns, histories, detector
//!   classes, realism, oracle generators.
//! * [`sim`] ([`rfd_sim`]) — the FLP + failure detector execution model:
//!   automata, the scheduler, crash injection, causal ("alive tag")
//!   tracking, and multi-seed campaigns.
//! * [`algo`] ([`rfd_algo`]) — consensus, terminating reliable broadcast,
//!   reliable/atomic broadcast, and the paper's reductions
//!   `T_{D⇒P}` (§4.3) and TRB ⇒ `P` (§5).
//! * [`net`] ([`rfd_net`]) — the realistic runtime: lossy virtual-time /
//!   UDP transports (churn- and partition-capable), adaptive heartbeat
//!   detectors (fixed, Chen, Jacobson, φ-accrual), batch and incremental
//!   QoS metrics, a membership service emulating `P`, and the online
//!   scenario runner ([`rfd_net::online`]) for detection as a
//!   long-running service.
//!
//! The two execution styles and their entry points (see
//! `ARCHITECTURE.md` for the full map):
//!
//! * **batch** — [`rfd_sim::run`] / [`rfd_sim::Scheduler`] /
//!   [`rfd_sim::Campaign`] spin a scenario to completion and return the
//!   trace; to watch a simulated run, pass [`rfd_sim::Scheduler::run_until`]
//!   a predicate such as `|s| { print_new(s.trace()); false }`, called
//!   after every round;
//! * **online** — [`rfd_net::online::OnlineRunner`] drives a live fleet
//!   under churn, scored tick by tick by [`rfd_net::qos::QosMonitor`]s
//!   that provably equal the batch accounting, over simulated or real
//!   ([`rfd_net::transport::FaultyTransport`]) networks.
//!
//! ## Quickstart
//!
//! ```
//! use realistic_failure_detectors::core::oracles::{Oracle, PerfectOracle};
//! use realistic_failure_detectors::core::{class_report, CheckParams, ClassId,
//!                                         FailurePattern, ProcessId, Time};
//!
//! // p1 crashes at t=40 in a 4-process system.
//! let pattern = FailurePattern::new(4).with_crash(ProcessId::new(1), Time::new(40));
//! let history = PerfectOracle::default().generate(&pattern, Time::new(400), 7);
//! let report = class_report(&pattern, &history, &CheckParams::new(Time::new(400)));
//! assert!(report.is_in(ClassId::Perfect));
//! ```
//!
//! See `examples/` for end-to-end scenarios and `EXPERIMENTS.md` for the
//! experiment-by-experiment reproduction of the paper's results.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

/// The formal model layer (re-export of [`rfd_core`]).
pub use rfd_core as core;

/// The simulation layer (re-export of [`rfd_sim`]).
pub use rfd_sim as sim;

/// The algorithms and reductions layer (re-export of [`rfd_algo`]).
pub use rfd_algo as algo;

/// The realistic runtime layer (re-export of [`rfd_net`]).
pub use rfd_net as net;
