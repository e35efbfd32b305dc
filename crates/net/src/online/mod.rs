//! The online detection runtime: long-running scenarios under **churn**
//! (crash / recover / partition schedules), observed incrementally —
//! failure detection as the long-running service the paper's §1.3 says
//! practitioners deploy. Every heartbeat experiment runs here, E7's
//! two-node QoS table included:
//!
//! * [`FaultSchedule`] / [`Fault`] — a ground-truth timeline of crashes,
//!   recoveries and network partitions;
//! * [`OnlineRunner`] — a resumable scenario driver: `n` heartbeating
//!   [`DetectorNode`]s over any [`Transport`], advanced one sample tick
//!   at a time, yielding typed [`OnlineEvent`]s (fault injections and
//!   suspicion transitions) and feeding a live [`QosMonitor`] per
//!   observer–target pair. The event stream is a complete record: every
//!   verdict flip is reported, so replaying it into the reference
//!   [`crate::qos::QosTracker`] reproduces each monitor's report
//!   exactly (`runner.rs`'s tests do, on E11's schedules);
//! * [`MembershipWatcher`] — an incremental observer of a membership
//!   fleet under churn: exclusion latency per crash, false exclusions
//!   (live processes excluded by fiat — partitions force these), view
//!   change counts, split-brain duration and post-heal reconvergence
//!   latency. [`run_membership_churn`] drives a [`MembershipNode`] fleet
//!   through a fault schedule and returns the watcher's report.
//!
//! Every driver — these two, [`crate::service::ServiceRunner`] one layer
//! up and [`crate::membership::run_membership`] — is a thin shell around
//! one crate-private `Fleet` core, which owns the scenario, the nodes,
//! the ground-truth up set and the fault cursor, and defines
//! the tick once: stop at `duration`, apply due faults, run the
//! driver's body over the nodes, pace the clock to the next tick. The
//! core is generic over the execution substrate — the per-node
//! [`Transport`], the [`ChurnableTransport`] fault plane the schedule
//! acts on, and the [`Pacer`] clock pacing the ticks — so one scenario
//! runs deterministically on the simulated network
//! ([`OnlineRunner::new`], [`run_membership_churn`]) *and* in wall time
//! over real UDP sockets wrapped in
//! [`crate::transport::FaultyTransport`] ([`OnlineRunner::over`],
//! [`run_membership_churn_over`]; see `examples/udp_churn.rs`).
//!
//! [`DetectorNode`]: crate::detector::DetectorNode
//! [`MembershipNode`]: crate::membership::MembershipNode
//! [`QosMonitor`]: crate::qos::QosMonitor
//! [`Transport`]: crate::transport::Transport
//! [`ChurnableTransport`]: crate::transport::ChurnableTransport
//! [`Pacer`]: crate::clock::Pacer

mod fleet;
mod runner;
mod schedule;
mod watcher;

pub(crate) use fleet::{run_to_end, Fleet};
pub use runner::{reports_equal, OnlineEvent, OnlineRunner};
pub use schedule::{Fault, FaultSchedule, OnlineScenario};
pub(crate) use watcher::membership_fleet;
pub use watcher::{
    run_membership_churn, run_membership_churn_over, MembershipChurnReport, MembershipWatcher,
};
