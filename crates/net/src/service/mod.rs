//! The live replicated-decision service: the paper's algorithms running
//! **on top of** the online membership runtime.
//!
//! §1.3's practitioners build replicated services on a group membership
//! that emulates `P` by exclusion — this module closes that loop
//! executably. A [`DecisionService`] node stacks, over one transport:
//!
//! * the membership service ([`crate::membership::MembershipNode`]),
//!   whose view is the emulated Perfect detector;
//! * one rotating-coordinator consensus instance per log slot, run
//!   strictly one after another — the paper's §1.1 consensus sequence
//!   ([`rfd_algo::consensus::RotatingConsensus`] driven by
//!   [`rfd_algo::driver::SlotDriver`], which holds the tail slot's
//!   instance and nothing per decided slot), fed the emulated `P` as
//!   its suspect source and quorum-sized over all `n` processes, so a
//!   partitioned minority stalls instead of forking the log;
//! * TRB-style decision relaying and — under heal-merge membership —
//!   post-heal **state transfer**: re-merged members exchange log
//!   suffixes and reconcile them prefix-consistently, conflicts (a
//!   safety alarm, impossible while the quorum intersection holds)
//!   resolved by the total view order ([`ViewStamp`]).
//!
//! Client commands enter through a typed queue
//! ([`DecisionService::propose`] / [`ServiceScenario::command`]); what
//! comes out is a [`ReplicatedLog`] of totally ordered [`Decision`]s,
//! each recording the membership view it was decided in.
//! [`ServiceRunner`] drives a whole fleet through a fault schedule,
//! tick-resumable like [`crate::online::OnlineRunner`]; experiment E13
//! tabulates decided throughput and post-heal recovery latency per
//! estimator, and `examples/live_service.rs` is the live dashboard.
//!
//! Under a [`CompactionPolicy`] the log additionally **compacts**:
//! prefixes every current member has acknowledged are folded into a
//! chained digest ([`ReplicatedLog::truncate_prefix`]), and a rejoiner
//! that fell behind the retained tail fast-rejoins by installing a
//! view-stamped [`Snapshot`] instead of replaying history — rejoin
//! cost tracks the retained tail, not the log length (experiment E14).
//! One exchange moves state: a `SyncRequest` from the requester's tail
//! is answered with the suffix, or — below the responder's compacted
//! base — with a snapshot and the first retained chunk. The
//! snapshot/compaction state machine and that decision tree are
//! documented in ARCHITECTURE.md ("Decision lifecycle"); the wire
//! frames in `docs/WIRE.md`.

mod log;
mod node;
mod retry;
mod run_set;
mod runner;

pub use crate::membership::ViewStamp;
pub use log::{Decision, MergeOutcome, ReplicatedLog, Snapshot};
pub use node::{CompactionPolicy, DecisionService, ServiceOutput};
pub use runner::{run_service, ServiceEvent, ServiceReport, ServiceRunner, ServiceScenario};
