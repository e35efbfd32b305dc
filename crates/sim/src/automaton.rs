//! The process automaton abstraction (§2.3 of the paper).
//!
//! In each step a process atomically (1) receives one message or the null
//! message λ, (2) queries its failure detector module, and (3) changes
//! state and sends messages, as a function of the automaton, its state,
//! the received message, and the detector value seen.
//!
//! Two documented relaxations of the paper's step (both standard, neither
//! affecting any result):
//!
//! * a step may send to **several** destinations ("send to all" is one
//!   macro-step rather than `n` micro-steps);
//! * besides state changes, a step may emit an *output event* (e.g. a
//!   consensus decision), which the engine records in the
//!   [`crate::trace::Trace`] along with its causal metadata.
//!
//! Output events and the emulated detector output
//! ([`Automaton::emulated_suspects`]) are everything an automaton
//! reports. A batch run returns them at the end in its
//! [`crate::RunResult`]; a caller watching the run reads the same trace
//! and automata after every round through [`crate::Scheduler::run_until`].

use crate::message::Envelope;
use rfd_core::{ProcessId, ProcessSet};

/// The view of a step offered to an automaton: identity, detector value,
/// and effect buffers.
#[derive(Debug)]
pub struct StepContext<M, O> {
    me: ProcessId,
    n: usize,
    suspects: ProcessSet,
    pub(crate) outbox: Vec<(ProcessId, M)>,
    pub(crate) outputs: Vec<O>,
}

impl<M, O> StepContext<M, O> {
    pub(crate) fn new(me: ProcessId, n: usize, suspects: ProcessSet) -> Self {
        Self::from_buffers(me, n, suspects, Vec::new(), Vec::new())
    }

    /// A context over caller-supplied (empty) effect buffers, so a hot
    /// loop can recycle its allocations across steps.
    pub(crate) fn from_buffers(
        me: ProcessId,
        n: usize,
        suspects: ProcessSet,
        outbox: Vec<(ProcessId, M)>,
        outputs: Vec<O>,
    ) -> Self {
        debug_assert!(outbox.is_empty() && outputs.is_empty());
        Self {
            me,
            n,
            suspects,
            outbox,
            outputs,
        }
    }

    /// Creates a detached context for *embedding* one automaton inside
    /// another (protocol composition): the wrapper drives the inner
    /// automaton with this context and then routes the collected effects
    /// through its own context via [`StepContext::into_effects`].
    #[must_use]
    pub fn new_for_embedding(me: ProcessId, n: usize, suspects: ProcessSet) -> Self {
        Self::new(me, n, suspects)
    }

    /// Consumes the context and returns its buffered effects:
    /// `(sends, outputs)`.
    #[must_use]
    pub fn into_effects(self) -> (Vec<(ProcessId, M)>, Vec<O>) {
        (self.outbox, self.outputs)
    }

    /// The identity of the stepping process.
    #[must_use]
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The number of processes `n = |Ω|`.
    #[must_use]
    pub fn num_processes(&self) -> usize {
        self.n
    }

    /// The value seen at the failure detector module in this step
    /// (the set of currently suspected processes).
    #[must_use]
    pub fn suspects(&self) -> ProcessSet {
        self.suspects
    }

    /// Sends `payload` to `to` (buffered; the engine stamps causal
    /// metadata and a delivery delay).
    pub fn send(&mut self, to: ProcessId, payload: M) {
        self.outbox.push((to, payload));
    }

    /// Sends `payload` to every process, including the sender itself.
    ///
    /// Self-delivery goes through the buffer like any other message, which
    /// keeps broadcast-based algorithms uniform.
    pub fn broadcast(&mut self, payload: M)
    where
        M: Clone,
    {
        for ix in 0..self.n {
            self.send(ProcessId::new(ix), payload.clone());
        }
    }

    /// Sends `payload` to every process except the sender.
    pub fn broadcast_others(&mut self, payload: M)
    where
        M: Clone,
    {
        for ix in 0..self.n {
            if ix != self.me.index() {
                self.send(ProcessId::new(ix), payload.clone());
            }
        }
    }

    /// Emits an output event (decision, delivery, suspicion update…)
    /// recorded by the engine with the step's causal metadata.
    pub fn output(&mut self, value: O) {
        self.outputs.push(value);
    }
}

/// A deterministic process automaton `Aᵢ`.
///
/// The engine drives one automaton per process. `Msg` is the algorithm's
/// message alphabet; `Output` the type of observable events (e.g. decided
/// values).
pub trait Automaton {
    /// Message alphabet.
    type Msg: Clone;
    /// Observable output events.
    type Output: Clone;

    /// Executes one step: `input` is the received envelope or `None` for
    /// the null message λ; the failure detector value seen is
    /// `ctx.suspects()`.
    fn on_step(
        &mut self,
        input: Option<&Envelope<Self::Msg>>,
        ctx: &mut StepContext<Self::Msg, Self::Output>,
    );

    /// The automaton's current emulated failure-detector output, if it
    /// maintains one (used by the reduction algorithms of §4.3 and §5 to
    /// expose their `output(P)` variable). The engine samples this after
    /// every step to build the emulated history.
    fn emulated_suspects(&self) -> Option<ProcessSet> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_buffers_sends_and_outputs() {
        let mut ctx: StepContext<u32, u32> =
            StepContext::new(ProcessId::new(0), 3, ProcessSet::empty());
        ctx.broadcast_others(7);
        ctx.output(1);
        assert_eq!(ctx.outbox.len(), 2);
        assert_eq!(ctx.outputs, vec![1]);
        assert!(ctx.outbox.iter().all(|(to, _)| *to != ProcessId::new(0)));
    }

    #[test]
    fn broadcast_includes_self() {
        let mut ctx: StepContext<u32, u32> =
            StepContext::new(ProcessId::new(1), 3, ProcessSet::empty());
        ctx.broadcast(9);
        assert_eq!(ctx.outbox.len(), 3);
    }
}
