//! # rfd-sim — the FLP + failure detector execution model
//!
//! A deterministic, seeded discrete-event simulator of the asynchronous
//! computation model of *A Realistic Look At Failure Detectors* (§2):
//! processes are automata that take atomic steps
//! *(receive ∥ query detector ∥ transition + send)*; a global discrete
//! clock orders steps but is invisible to processes; crashes come from a
//! [`rfd_core::FailurePattern`]; detector values come from a pre-generated
//! oracle [`rfd_core::History`].
//!
//! Distinctive feature: the engine transparently tracks every event's
//! **causal past** — exactly the `[pᵢ is alive]` tags that the paper's
//! reduction `T_{D⇒P}` (§4.3) piggybacks on messages — so totality
//! (Lemma 4.1) is checkable on any trace, and the reduction algorithm is a
//! thin automaton on top.
//!
//! ## Example: run a tiny gossip protocol under a crash
//!
//! ```
//! use rfd_sim::{run, Automaton, Envelope, SimConfig, StepContext};
//! use rfd_core::{FailurePattern, History, ProcessId, ProcessSet, Time};
//!
//! struct Hello { greeted: bool }
//! impl Automaton for Hello {
//!     type Msg = ();
//!     type Output = ProcessId;
//!     fn on_step(&mut self, input: Option<&Envelope<()>>, ctx: &mut StepContext<(), ProcessId>) {
//!         if !self.greeted {
//!             self.greeted = true;
//!             ctx.broadcast_others(());
//!         }
//!         if let Some(env) = input {
//!             ctx.output(env.from);
//!         }
//!     }
//! }
//!
//! let n = 3;
//! let pattern = FailurePattern::new(n).with_crash(ProcessId::new(2), Time::new(1));
//! let silent = History::new(n, ProcessSet::empty());
//! let automata = (0..n).map(|_| Hello { greeted: false }).collect();
//! let result = run(&pattern, &silent, automata, &SimConfig::new(42, 50));
//! assert!(result.trace.messages_delivered <= result.trace.messages_sent);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod automaton;
pub mod campaign;
mod delivery;
mod engine;
mod message;
mod queue;
mod trace;

pub use automaton::{Automaton, StepContext};
pub use campaign::{Campaign, RunPlan};
pub use delivery::{Adversary, DeliveryModel};
pub use engine::{run, ticks_for_rounds, RunResult, Scheduler, SimConfig, StopCondition};
pub use message::Envelope;
#[doc(hidden)]
pub use queue::take_due_linear_reference;
pub use queue::EventQueue;
pub use trace::{OutputEvent, TotalityViolation, Trace};
