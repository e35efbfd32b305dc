//! Consensus algorithms (§4 and §6 of the paper).
//!
//! The uniform consensus problem: every process proposes a value;
//! *termination* — every correct process eventually decides; *(uniform)
//! agreement* — no two processes decide differently (even if one later
//! crashes); *validity* — the decided value was proposed.
//!
//! Implementations, one per failure detector class the paper discusses:
//!
//! * [`StrongConsensus`] — the Chandra–Toueg `S`-based algorithm; solves
//!   uniform consensus for **any** number of failures and is *total* with
//!   a realistic detector (footnote 4 of the paper).
//! * [`FloodSetConsensus`] — a `P`-based flood-set algorithm (the
//!   sufficiency half of Proposition 4.3); also total.
//! * [`EarlyFloodSetConsensus`] — the same algorithm with one more
//!   stopping rule (decide after two stable rounds instead of always
//!   `n`): an alias of `FloodSetConsensus<V, true>`, the latency
//!   ablation of E9b.
//! * [`RotatingConsensus`] — the Chandra–Toueg `◇S` rotating-coordinator
//!   algorithm; requires a **correct majority** and is *not* total — the
//!   baseline against which Lemma 4.1's totality argument is exhibited.
//! * [`RankedConsensus`] — the `P<`-based algorithm of §6.2: solves only
//!   *correct-restricted* consensus (uniform agreement can fail).
//! * [`MaraboutConsensus`] — the §6.1 algorithm that solves consensus
//!   with the clairvoyant Marabout for any number of failures.
//!
//! All algorithms implement [`ConsensusCore`], a value-generic,
//! engine-independent state machine, and run inside the simulator through
//! the [`ConsensusAutomaton`] adapter (or embedded in other protocols —
//! the reductions of §4.3 wrap cores directly).

mod ct_strong;
mod floodset;
mod marabout;
mod ranked;
mod rotating;

pub use ct_strong::{StrongConsensus, StrongMsg};
pub use floodset::{EarlyFloodSetConsensus, FloodSetConsensus, FloodSetMsg};
pub use marabout::{MaraboutConsensus, MaraboutMsg};
pub use ranked::{RankedConsensus, RankedMsg};
pub use rotating::{RotatingConsensus, RotatingMsg};

use rfd_core::{ProcessId, ProcessSet};
use rfd_sim::{Automaton, Envelope, StepContext};

/// Buffered sends produced by one [`ConsensusCore::step`].
#[derive(Debug)]
pub struct Outbox<M> {
    me: ProcessId,
    n: usize,
    msgs: Vec<(ProcessId, M)>,
}

impl<M> Outbox<M> {
    /// Creates an empty outbox for process `me` of `n`.
    #[must_use]
    pub fn new(me: ProcessId, n: usize) -> Self {
        Self::reuse(me, n, Vec::new())
    }

    /// An empty outbox that queues into `buf`, cleared first: a caller
    /// that steps often hands back what [`Outbox::drain`] returned and
    /// keeps its capacity.
    #[must_use]
    pub fn reuse(me: ProcessId, n: usize, mut buf: Vec<(ProcessId, M)>) -> Self {
        buf.clear();
        Self { me, n, msgs: buf }
    }

    /// Queues a message to one destination.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.msgs.push((to, msg));
    }

    /// Queues a message to every process (including the sender — cores
    /// rely on self-delivery for uniformity).
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        for ix in 0..self.n {
            self.msgs.push((ProcessId::new(ix), msg.clone()));
        }
    }

    /// The queued `(destination, message)` pairs.
    #[must_use]
    pub fn drain(self) -> Vec<(ProcessId, M)> {
        self.msgs
    }

    /// The owner of the outbox.
    #[must_use]
    pub fn me(&self) -> ProcessId {
        self.me
    }
}

/// An engine-independent consensus state machine.
///
/// One `step` corresponds to one atomic step of the paper's model:
/// `input` is the received message (or `None` for λ), `suspects` the
/// failure detector value seen, and sends go to `out`. The step at which
/// the process decides returns `Some(value)`; cores decide at most once
/// and stay quiescent (or keep relaying their decision) afterwards.
pub trait ConsensusCore {
    /// Message alphabet.
    type Msg: Clone;
    /// The proposable/decidable value type.
    type Val: Clone + Eq + Ord;

    /// Creates the process `me` of `n` with its proposal.
    fn new(me: ProcessId, n: usize, proposal: Self::Val) -> Self;

    /// Turns this core into a new instance: afterwards it must be
    /// indistinguishable from `Self::new(me, n, proposal)`. A caller
    /// running instances one after another
    /// ([`crate::driver::SlotDriver`]) renews its retired core instead of
    /// dropping it and building the next, so a core that keeps its
    /// collections' capacity across the call starts each instance
    /// without allocating. The default is exactly
    /// `*self = Self::new(me, n, proposal)`.
    fn renew(&mut self, me: ProcessId, n: usize, proposal: Self::Val)
    where
        Self: Sized,
    {
        *self = Self::new(me, n, proposal);
    }

    /// Executes one step. Returns the decision value on the deciding
    /// step, `None` otherwise (including after having decided).
    fn step(
        &mut self,
        input: Option<(ProcessId, &Self::Msg)>,
        suspects: ProcessSet,
        out: &mut Outbox<Self::Msg>,
    ) -> Option<Self::Val>;

    /// The decision, if this process has decided.
    fn decision(&self) -> Option<&Self::Val>;

    /// Re-emits the in-flight messages this process is still waiting on
    /// replies for — what a retransmission plane sends when the instance
    /// stalls on message loss. Derived from current state rather than
    /// replayed from a send log: a core playing several roles at once
    /// (participant *and* coordinator of unresolved rounds) must revive
    /// every stalled conversation, not just the most recent one.
    /// Receipt must be idempotent. The default is quiescence (no
    /// retransmission support).
    fn retransmit(&self, _out: &mut Outbox<Self::Msg>) {}
}

/// Adapter embedding a [`ConsensusCore`] into the simulator: the decision
/// becomes the run's output event.
#[derive(Debug)]
pub struct ConsensusAutomaton<C: ConsensusCore> {
    core: C,
}

impl<C: ConsensusCore> ConsensusAutomaton<C> {
    /// Wraps a core.
    #[must_use]
    pub fn new(core: C) -> Self {
        Self { core }
    }

    /// Builds one automaton per process from a proposal vector.
    ///
    /// # Panics
    ///
    /// Panics if `proposals` is empty.
    #[must_use]
    pub fn fleet(proposals: &[C::Val]) -> Vec<Self> {
        let n = proposals.len();
        assert!(n > 0, "need at least one process");
        proposals
            .iter()
            .enumerate()
            .map(|(ix, v)| Self::new(C::new(ProcessId::new(ix), n, v.clone())))
            .collect()
    }

    /// Read access to the wrapped core.
    #[must_use]
    pub fn core(&self) -> &C {
        &self.core
    }
}

impl<C: ConsensusCore> Automaton for ConsensusAutomaton<C> {
    type Msg = C::Msg;
    type Output = C::Val;

    fn on_step(
        &mut self,
        input: Option<&Envelope<Self::Msg>>,
        ctx: &mut StepContext<Self::Msg, Self::Output>,
    ) {
        let mut out = Outbox::new(ctx.me(), ctx.num_processes());
        let decided = self.core.step(
            input.map(|e| (e.from, &e.payload)),
            ctx.suspects(),
            &mut out,
        );
        for (to, msg) in out.drain() {
            ctx.send(to, msg);
        }
        if let Some(v) = decided {
            ctx.output(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_broadcast_reaches_everyone_including_self() {
        let mut out: Outbox<u8> = Outbox::new(ProcessId::new(1), 3);
        out.broadcast(9);
        let msgs = out.drain();
        assert_eq!(msgs.len(), 3);
        assert!(msgs.iter().any(|(to, _)| *to == ProcessId::new(1)));
    }
}
