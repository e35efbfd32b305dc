//! The paper's reductions: emulating a Perfect failure detector.
//!
//! Both reductions to `P` are one construction, run by one driver,
//! [`Emulation`]: an unbounded sequence of one-shot [`Instance`]s whose
//! completions add provably crashed processes to an `output(P)` that is
//! never retracted. The driver numbers the instances, buffers
//! future-instance traffic and replays it when the current instance
//! completes, and keeps `output(P)`. Two instances plug into it:
//!
//! * [`PerfectEmulation`] — `T_{D⇒P}` (§4.3): each instance is a *total*
//!   consensus core plus its `[pᵢ is alive]` tags ([`AliveTagged`]); at
//!   every decision, processes whose tag is missing from the decision's
//!   causal chain are added to `output(P)`.
//! * [`TrbEmulation`] — the §5 counterpart: TRB instances `(i, k)`
//!   round-robin over initiators ([`TrbInstance`]); whenever `nil` is
//!   delivered for an instance initiated by `pᵢ`, `pᵢ` is added to
//!   `output(P)`.
//!
//! * [`CompletenessBooster`] — Chandra–Toueg's weak→strong completeness
//!   gossip transformation, used by the class definitions the paper
//!   builds on.
//!
//! All expose their emulated output through
//! [`rfd_sim::Automaton::emulated_suspects`], so the engine assembles the
//! emulated history and `rfd-core`'s class checker can verify it is
//! Perfect (experiments E2 and E3).

mod completeness;
mod emulation;
mod to_perfect;
mod trb_to_perfect;

pub use completeness::{CompletenessBooster, SuspicionGossip};
pub use emulation::{Emulation, Instance, InstanceMsg};
pub use to_perfect::{AliveTagged, PerfectEmulation};
pub use trb_to_perfect::{TrbEmulation, TrbInstance};
