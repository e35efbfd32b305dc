//! # rfd-algo — agreement algorithms and reductions of the DSN 2002 paper
//!
//! Executable versions of every construction in *A Realistic Look At
//! Failure Detectors*:
//!
//! * **Consensus** ([`consensus`]): the Chandra–Toueg `S`-based algorithm
//!   (any `f`, total), the `◇S` rotating-coordinator baseline (majority,
//!   non-total), flood-set over `P`, the `P<` correct-restricted
//!   algorithm of §6.2, and the Marabout algorithm of §6.1.
//! * **Terminating reliable broadcast** ([`trb`]): the §5 stack —
//!   wait-or-suspect, then consensus on the value-or-`nil`.
//! * **Broadcast** ([`broadcast`]): reliable broadcast and the
//!   consensus-sequence atomic broadcast.
//! * **Reductions** ([`reduction`]): `T_{D⇒P}` (§4.3) and the TRB → `P`
//!   emulation (§5), two instances of one driver, both exposing their
//!   `output(P)` for class checking.
//! * **Verdicts** ([`check`]): uniform/correct-restricted consensus and
//!   TRB property checkers with violation witnesses.
//! * **Step drivers** ([`driver`]): the [`SlotDriver`] adapter that runs
//!   the consensus sequence of a replicated log, one slot at a time,
//!   outside the simulator — the engine room of `rfd_net::service`'s
//!   live decision service.
//!
//! ## Example: uniform consensus over a Perfect oracle
//!
//! ```
//! use rfd_algo::check::check_consensus;
//! use rfd_algo::consensus::{ConsensusAutomaton, FloodSetConsensus};
//! use rfd_core::oracles::{Oracle, PerfectOracle};
//! use rfd_core::{FailurePattern, ProcessId, Time};
//! use rfd_sim::{run, ticks_for_rounds, SimConfig, StopCondition};
//!
//! let n = 4;
//! let pattern = FailurePattern::new(n).with_crash(ProcessId::new(2), Time::new(9));
//! let rounds = 300;
//! let oracle = PerfectOracle::new(6, 2);
//! let history = oracle.generate(&pattern, ticks_for_rounds(n, rounds), 1);
//! let proposals: Vec<u64> = vec![10, 20, 30, 40];
//! let automata = ConsensusAutomaton::<FloodSetConsensus<u64>>::fleet(&proposals);
//! let config = SimConfig::new(1, rounds).with_stop(StopCondition::EachCorrectOutput(1));
//! let result = run(&pattern, &history, automata, &config);
//! let verdict = check_consensus(&pattern, &result.trace, &proposals);
//! assert!(verdict.is_uniform_consensus());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod broadcast;
pub mod check;
pub mod consensus;
pub mod driver;
pub mod reduction;
pub mod trb;

pub use check::{check_consensus, check_trb, ConsensusVerdict, Disagreement, TrbVerdict};
pub use consensus::{ConsensusAutomaton, ConsensusCore, Outbox};
pub use driver::{SlotDriver, SlotSend};
