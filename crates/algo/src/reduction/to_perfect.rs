//! `T_{D⇒P}`: transforming a total-consensus-solving detector into `P`
//! (§4.3, Lemma 4.2).
//!
//! The algorithm is an infinite sequence of executions of a total
//! consensus algorithm `A`, with three additions:
//!
//! 1. every message carries the information `[pᵢ is alive]` for its
//!    sender — and, transitively, for every process in the causal past of
//!    the send (realized here as an instance-scoped `alive` set merged on
//!    receipt and attached on send);
//! 2. decision events inherit the alive-tags of their causal chain;
//! 3. at a decision event, every process whose tag is **not** attached is
//!    added to `output(P)` and never removed.
//!
//! Because `A` is total (Lemma 4.1 — with an unbounded number of possible
//! failures, *every* consensus algorithm using a realistic detector is),
//! a missing tag proves the process had crashed: strong accuracy. A
//! crashed process sends nothing in later instances, whose decisions
//! therefore lack its tag: strong completeness.

use super::emulation::{Emulation, Instance};
use crate::consensus::{ConsensusCore, Outbox};
use rfd_core::{ProcessId, ProcessSet};

/// The `T_{D⇒P}` emulation automaton, generic over the total consensus
/// core `C` (e.g. [`crate::consensus::StrongConsensus`] or
/// [`crate::consensus::FloodSetConsensus`]).
pub type PerfectEmulation<C> = Emulation<AliveTagged<C>>;

/// One `T_{D⇒P}` instance: a consensus core proposing the process's own
/// index, plus the alive-tags gathered for it.
#[derive(Debug)]
pub struct AliveTagged<C> {
    n: usize,
    core: C,
    /// Alive-tags gathered for this instance (always contains `me`).
    alive: ProcessSet,
}

impl<C> Instance for AliveTagged<C>
where
    C: ConsensusCore,
    C::Val: From<u64>,
{
    type Tag = ProcessSet;
    type Msg = C::Msg;

    fn start(me: ProcessId, n: usize, _k: u64) -> Self {
        Self {
            n,
            core: C::new(me, n, C::Val::from(me.index() as u64)),
            alive: ProcessSet::singleton(me),
        }
    }

    fn tag(&self) -> ProcessSet {
        self.alive
    }

    fn absorb(&mut self, alive: ProcessSet) {
        self.alive |= alive;
    }

    fn step(
        &mut self,
        input: Option<(ProcessId, &C::Msg)>,
        suspects: ProcessSet,
        out: &mut Outbox<C::Msg>,
    ) -> Option<ProcessSet> {
        // §4.3 step 3: suspect exactly the processes whose alive-tag is
        // missing from the decision event.
        let decided = self.core.step(input, suspects, out);
        decided.map(|_| self.alive.complement_within(self.n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::FloodSetConsensus;
    use rfd_sim::Automaton;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    type Emu = PerfectEmulation<FloodSetConsensus<u64>>;

    #[test]
    fn fresh_emulation_suspects_nobody() {
        let e = Emu::new(p(0), 3);
        assert!(e.output_p().is_empty());
        assert_eq!(e.emulated_suspects(), Some(ProcessSet::empty()));
    }

    #[test]
    fn alive_tags_start_with_self() {
        let e = Emu::new(p(2), 3);
        assert_eq!(e.current.alive, ProcessSet::singleton(p(2)));
    }

    #[test]
    fn instance_rollover_resets_alive_and_keeps_output() {
        let mut e = Emu::new(p(0), 2);
        e.current.alive.insert(p(1));
        e.output_p.insert(p(1));
        e.next_instance();
        assert_eq!(e.instance, 1);
        assert_eq!(e.current.alive, ProcessSet::singleton(p(0)));
        assert!(e.output_p.contains(p(1)), "suspicions are never retracted");
    }
}
