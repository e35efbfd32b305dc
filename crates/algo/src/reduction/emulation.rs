//! The one driver both reductions to `P` share.
//!
//! `T_{D⇒P}` (§4.3) and the TRB reduction (§5) are the same
//! construction: an unbounded sequence of one-shot [`Instance`]s whose
//! completions name processes proven crashed, added to an `output(P)`
//! that is never retracted. [`Emulation`] owns everything but the
//! instance itself: numbering, buffering of future-instance traffic
//! (replayed, possibly cascading, when the current instance completes),
//! the monotone `output(P)`, and the simulator [`Automaton`] impl.

use crate::consensus::Outbox;
use rfd_core::{ProcessId, ProcessSet};
use rfd_sim::{Automaton, Envelope, StepContext};

/// One instance of a reduction to `P`.
pub trait Instance {
    /// What every message carries besides its instance number: the
    /// alive-tags of `T_{D⇒P}`, nothing (`()`) for TRB.
    type Tag: Copy;
    /// The instance's own message alphabet.
    type Msg: Clone;

    /// Instance number `k` (0-based) at process `me` of `n`.
    fn start(me: ProcessId, n: usize, k: u64) -> Self;

    /// The tag attached to this instance's sends.
    fn tag(&self) -> Self::Tag;

    /// Merges the tag of a received message of this instance, before the
    /// message itself is stepped.
    fn absorb(&mut self, tag: Self::Tag);

    /// Executes one step. On the completing step, returns the processes
    /// the completion proves crashed (possibly none); `None` otherwise.
    fn step(
        &mut self,
        input: Option<(ProcessId, &Self::Msg)>,
        suspects: ProcessSet,
        out: &mut Outbox<Self::Msg>,
    ) -> Option<ProcessSet>;
}

/// An instance's message wrapped with its instance number and tag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstanceMsg<Tag, M> {
    /// Instance number (0-based).
    pub instance: u64,
    /// The sending instance's tag at the send.
    pub tag: Tag,
    /// The wrapped instance message.
    pub inner: M,
}

/// The emulation automaton: instances `0, 1, 2, …` run one after
/// another, and each completion grows `output(P)`.
#[derive(Debug)]
pub struct Emulation<I: Instance> {
    me: ProcessId,
    n: usize,
    /// Number of the running instance.
    pub(super) instance: u64,
    /// The running instance.
    pub(super) current: I,
    /// The emulated Perfect detector output — grows monotonically.
    pub(super) output_p: ProcessSet,
    /// Messages for future instances, in arrival order.
    buffered: Vec<(u64, ProcessId, I::Tag, I::Msg)>,
    completed: u64,
}

impl<I: Instance> Emulation<I> {
    /// Creates the emulation process `me` of `n`.
    #[must_use]
    pub fn new(me: ProcessId, n: usize) -> Self {
        Self {
            me,
            n,
            instance: 0,
            current: I::start(me, n, 0),
            output_p: ProcessSet::empty(),
            buffered: Vec::new(),
            completed: 0,
        }
    }

    /// Builds the fleet.
    #[must_use]
    pub fn fleet(n: usize) -> Vec<Self> {
        (0..n).map(|ix| Self::new(ProcessId::new(ix), n)).collect()
    }

    /// The current `output(P)` of this process.
    #[must_use]
    pub fn output_p(&self) -> ProcessSet {
        self.output_p
    }

    /// Number of instances this process has seen complete.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    pub(super) fn next_instance(&mut self) {
        self.instance += 1;
        self.current = I::start(self.me, self.n, self.instance);
    }

    /// Runs one step of the current instance (with optional input),
    /// sending its messages wrapped with the instance number and tag.
    /// Returns `true` if the instance completed.
    fn drive(
        &mut self,
        input: Option<(ProcessId, &I::Msg)>,
        ctx: &mut StepContext<InstanceMsg<I::Tag, I::Msg>, ProcessSet>,
    ) -> bool {
        let mut out = Outbox::new(self.me, self.n);
        let crashed = self.current.step(input, ctx.suspects(), &mut out);
        let (instance, tag) = (self.instance, self.current.tag());
        for (to, inner) in out.drain() {
            let msg = InstanceMsg {
                instance,
                tag,
                inner,
            };
            ctx.send(to, msg);
        }
        let Some(crashed) = crashed else {
            return false;
        };
        self.output_p |= crashed;
        self.completed += 1;
        true
    }
}

impl<I: Instance> Automaton for Emulation<I> {
    type Msg = InstanceMsg<I::Tag, I::Msg>;
    /// Each completion outputs the updated `output(P)` snapshot.
    type Output = ProcessSet;

    fn on_step(
        &mut self,
        input: Option<&Envelope<Self::Msg>>,
        ctx: &mut StepContext<Self::Msg, Self::Output>,
    ) {
        let mut inner_input: Option<(ProcessId, I::Msg)> = None;
        if let Some(env) = input {
            let msg = &env.payload;
            if msg.instance == self.instance {
                self.current.absorb(msg.tag);
                inner_input = Some((env.from, msg.inner.clone()));
            } else if msg.instance > self.instance {
                self.buffered
                    .push((msg.instance, env.from, msg.tag, msg.inner.clone()));
            }
            // Older instances have completed here: their tags are stale
            // and suspicions are never retracted, so drop them.
        }
        // Drive the current instance; on completion, roll into the next
        // and replay its buffered traffic in arrival order (possibly
        // completing it too, and so on).
        let mut completed = self.drive(inner_input.as_ref().map(|(f, m)| (*f, m)), ctx);
        while completed {
            ctx.output(self.output_p);
            self.next_instance();
            let instance = self.instance;
            let buffered = std::mem::take(&mut self.buffered);
            completed = false;
            for (k, from, tag, msg) in buffered {
                if k == instance && !completed {
                    self.current.absorb(tag);
                    completed |= self.drive(Some((from, &msg)), ctx);
                } else if k > instance || (k == instance && completed) {
                    self.buffered.push((k, from, tag, msg));
                }
            }
        }
    }

    fn emulated_suspects(&self) -> Option<ProcessSet> {
        Some(self.output_p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfd_core::Time;

    /// Echoes every message it steps to its own process, so the driver's
    /// wrapped sends record what was stepped under which instance, and
    /// completes on a `0`.
    struct Echo;

    impl Instance for Echo {
        type Tag = ();
        type Msg = u8;

        fn start(_me: ProcessId, _n: usize, _k: u64) -> Self {
            Echo
        }

        fn tag(&self) {}

        fn absorb(&mut self, (): ()) {}

        fn step(
            &mut self,
            input: Option<(ProcessId, &u8)>,
            _suspects: ProcessSet,
            out: &mut Outbox<u8>,
        ) -> Option<ProcessSet> {
            let (_, &m) = input?;
            out.send(out.me(), m);
            (m == 0).then(ProcessSet::empty)
        }
    }

    /// Delivers `(instance, m)` to `e` and returns `(instance, m)` of
    /// every message the step sent.
    fn deliver(e: &mut Emulation<Echo>, instance: u64, m: u8) -> Vec<(u64, u8)> {
        let me = ProcessId::new(0);
        let env = Envelope {
            id: 0,
            from: me,
            to: me,
            payload: InstanceMsg {
                instance,
                tag: (),
                inner: m,
            },
            sent_at: Time::ZERO,
            causal_past: ProcessSet::singleton(me),
        };
        let mut ctx = StepContext::new_for_embedding(me, 1, ProcessSet::empty());
        e.on_step(Some(&env), &mut ctx);
        let (sends, _) = ctx.into_effects();
        sends
            .into_iter()
            .map(|(_, msg)| (msg.instance, msg.inner))
            .collect()
    }

    #[test]
    fn future_traffic_replays_in_arrival_order_and_past_traffic_is_dropped() {
        let mut e = Emulation::<Echo>::new(ProcessId::new(0), 1);
        // During instance 0, traffic for 1 and 2 is held, not stepped.
        assert!(deliver(&mut e, 1, 11).is_empty());
        assert!(deliver(&mut e, 2, 21).is_empty());
        assert!(deliver(&mut e, 1, 0).is_empty());
        assert!(deliver(&mut e, 1, 12).is_empty());
        // Completing 0 steps 1's traffic in arrival order; that completes
        // 1, so its later message is dropped and 2's traffic is stepped.
        assert_eq!(deliver(&mut e, 0, 0), [(0, 0), (1, 11), (1, 0), (2, 21)]);
        assert_eq!((e.instance, e.completed()), (2, 2));
        // A message for an earlier instance is dropped.
        assert!(deliver(&mut e, 1, 13).is_empty());
        assert!(deliver(&mut e, 0, 0).is_empty());
        assert_eq!((e.instance, e.completed()), (2, 2));
    }
}
