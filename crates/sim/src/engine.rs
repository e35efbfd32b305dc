//! The run engine: executes automata under the FLP + failure detector
//! model (§2.3–2.4).
//!
//! The engine advances a global [`Time`] (one tick per step, invisible to
//! automata), drives one step per alive process per *round* in a randomly
//! shuffled order (process fairness), delivers each message after a
//! bounded random delay (channel reliability), injects crashes from a
//! [`FailurePattern`], feeds detector values from a pre-generated oracle
//! [`History`], and records decisions with their causal pasts.
//!
//! The round-driving loop lives in the reusable [`Scheduler`]: the
//! one-shot [`run`] drives it to completion under the configured
//! [`StopCondition`], while callers that watch a run round by round, or
//! stop it on a bespoke predicate, use [`Scheduler::run_until`] or drive
//! [`Scheduler::step_round`] directly. Message delivery is heap-ordered
//! per process (see [`crate::queue::EventQueue`]) rather than the former
//! O(inbox) linear rescan per receive.

use crate::automaton::{Automaton, StepContext};
use crate::delivery::{Adversary, DeliveryModel};
use crate::message::Envelope;
use crate::queue::EventQueue;
use crate::trace::{OutputEvent, Trace};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rfd_core::{FailurePattern, History, ProcessId, ProcessSet, Time};

/// When the engine stops (besides the hard round cap).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum StopCondition {
    /// Run the full round budget.
    #[default]
    RoundBudget,
    /// Stop early once every correct process has produced at least this
    /// many output events.
    EachCorrectOutput(usize),
}

impl StopCondition {
    /// Whether the condition is met on the trace so far. The
    /// [`Scheduler`] consults this after every round; bespoke predicates
    /// plug in through [`Scheduler::run_until`] instead.
    #[must_use]
    pub fn is_met<O: Clone>(&self, pattern: &FailurePattern, trace: &Trace<O>) -> bool {
        match *self {
            StopCondition::RoundBudget => false,
            StopCondition::EachCorrectOutput(k) => pattern
                .correct()
                .iter()
                .all(|pid| trace.outputs_of(pid).count() >= k),
        }
    }
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// RNG seed for scheduling and delivery delays.
    pub seed: u64,
    /// Hard cap on rounds (each round = one step per alive process).
    pub max_rounds: u64,
    /// Message delay model.
    pub delivery: DeliveryModel,
    /// Optional schedule adversary.
    pub adversary: Adversary,
    /// Early-stop condition.
    pub stop: StopCondition,
}

impl SimConfig {
    /// A configuration with the given seed and round budget and default
    /// delivery.
    #[must_use]
    pub fn new(seed: u64, max_rounds: u64) -> Self {
        Self {
            seed,
            max_rounds,
            delivery: DeliveryModel::default(),
            adversary: Adversary::None,
            stop: StopCondition::RoundBudget,
        }
    }

    /// Sets the delivery model (builder style).
    #[must_use]
    pub fn with_delivery(mut self, delivery: DeliveryModel) -> Self {
        self.delivery = delivery;
        self
    }

    /// Sets the adversary (builder style).
    #[must_use]
    pub fn with_adversary(mut self, adversary: Adversary) -> Self {
        self.adversary = adversary;
        self
    }

    /// Sets the early-stop condition (builder style).
    #[must_use]
    pub fn with_stop(mut self, stop: StopCondition) -> Self {
        self.stop = stop;
        self
    }

    /// The same configuration with another seed (used by
    /// [`crate::campaign::Campaign`] to fan one base configuration out
    /// over a seed sweep).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Upper bound on the global time consumed by `rounds` rounds with `n`
/// processes — use it as the oracle-history horizon. Saturates at
/// [`Time::MAX`] instead of overflowing.
#[must_use]
pub fn ticks_for_rounds(n: usize, rounds: u64) -> Time {
    Time::new((n as u64).saturating_mul(rounds).saturating_add(1))
}

/// The result of a completed run.
#[derive(Debug)]
pub struct RunResult<A: Automaton> {
    /// Recorded output events and statistics.
    pub trace: Trace<A::Output>,
    /// The emulated failure-detector history, if any automaton exposed
    /// one via [`Automaton::emulated_suspects`] (the `output(P)` variable
    /// of §4.3 / §5).
    pub emulated: Option<History<ProcessSet>>,
    /// Final automata states (for inspection).
    pub automata: Vec<A>,
}

/// The reusable round-driving loop: owns all run state and advances it
/// one round at a time.
///
/// [`run`] is the one-shot wrapper. [`Scheduler::run_until`] adds a
/// predicate, called after every round, that can stop the run early or
/// just watch it (the trace so far, the automata, the time):
///
/// ```
/// use rfd_sim::{Automaton, Envelope, Scheduler, SimConfig, StepContext};
/// use rfd_core::{FailurePattern, History, ProcessSet};
///
/// struct Quiet;
/// impl Automaton for Quiet {
///     type Msg = ();
///     type Output = ();
///     fn on_step(&mut self, _: Option<&Envelope<()>>, _: &mut StepContext<(), ()>) {}
/// }
///
/// let pattern = FailurePattern::new(2);
/// let silent = History::new(2, ProcessSet::empty());
/// let config = SimConfig::new(1, 1_000);
/// let result = Scheduler::new(&pattern, &silent, vec![Quiet, Quiet], &config)
///     .run_until(|s| s.trace().steps >= 10); // custom predicate
/// assert!(result.trace.rounds < 1_000);
/// ```
pub struct Scheduler<'a, A: Automaton> {
    pattern: &'a FailurePattern,
    oracle: &'a History<ProcessSet>,
    config: &'a SimConfig,
    rng: StdRng,
    time: Time,
    next_msg_id: u64,
    queues: Vec<EventQueue<A::Msg>>,
    heard: Vec<ProcessSet>,
    order: Vec<usize>,
    trace: Trace<A::Output>,
    emulated: Option<History<ProcessSet>>,
    automata: Vec<A>,
    /// Reused step-effect buffers: every [`StepContext`] borrows these
    /// instead of allocating fresh `Vec`s, so a steady-state step
    /// allocates nothing.
    outbox_scratch: Vec<(ProcessId, A::Msg)>,
    outputs_scratch: Vec<A::Output>,
}

impl<'a, A: Automaton> Scheduler<'a, A> {
    /// Creates a scheduler over `automata` (one per process) under
    /// `pattern`, feeding detector values from `oracle_history`.
    ///
    /// # Panics
    ///
    /// Panics if the number of automata differs from the pattern's
    /// process count, or if the oracle history covers fewer processes.
    #[must_use]
    pub fn new(
        pattern: &'a FailurePattern,
        oracle_history: &'a History<ProcessSet>,
        automata: Vec<A>,
        config: &'a SimConfig,
    ) -> Self {
        let n = pattern.num_processes();
        assert_eq!(automata.len(), n, "need exactly one automaton per process");
        assert_eq!(
            oracle_history.num_processes(),
            n,
            "oracle history process count mismatch"
        );
        Self {
            pattern,
            oracle: oracle_history,
            config,
            rng: StdRng::seed_from_u64(config.seed),
            time: Time::ZERO,
            next_msg_id: 0,
            queues: (0..n).map(|_| EventQueue::new()).collect(),
            heard: (0..n)
                .map(|ix| ProcessSet::singleton(ProcessId::new(ix)))
                .collect(),
            order: (0..n).collect(),
            trace: Trace {
                events: Vec::new(),
                messages_sent: 0,
                messages_delivered: 0,
                steps: 0,
                end_time: Time::ZERO,
                rounds: 0,
            },
            emulated: None,
            automata,
            outbox_scratch: Vec::new(),
            outputs_scratch: Vec::new(),
        }
    }

    /// The automata being driven, indexed by process.
    #[must_use]
    pub fn automata(&self) -> &[A] {
        &self.automata
    }

    /// The trace recorded so far.
    #[must_use]
    pub fn trace(&self) -> &Trace<A::Output> {
        &self.trace
    }

    /// The current global time.
    #[must_use]
    pub fn time(&self) -> Time {
        self.time
    }

    /// Executes one round (one step per alive process, in a freshly
    /// shuffled order). Returns `false` — without executing anything —
    /// once the round budget is exhausted.
    pub fn step_round(&mut self) -> bool {
        if self.trace.rounds >= self.config.max_rounds {
            return false;
        }
        self.trace.rounds += 1;
        self.order.shuffle(&mut self.rng);
        for slot in 0..self.order.len() {
            let ix = self.order[slot];
            let pid = ProcessId::new(ix);
            if self.pattern.is_crashed(pid, self.time) {
                // A crashed process performs no action after its crash
                // time; global time does not advance for skipped slots.
                continue;
            }
            self.step_process(ix, pid);
        }
        true
    }

    /// One atomic step of process `ix`: receive ∥ query detector ∥
    /// transition + send (§2.3).
    fn step_process(&mut self, ix: usize, pid: ProcessId) {
        let n = self.queues.len();
        // Receive: the (due, id)-minimal due message, λ if none.
        let input = self.queues[ix].pop_due(self.time);
        if input.is_some() {
            self.trace.messages_delivered += 1;
        }
        if let Some(env) = &input {
            self.heard[ix] |= env.causal_past;
        }
        let suspects = *self.oracle.value(pid, self.time);
        let mut ctx: StepContext<A::Msg, A::Output> = StepContext::from_buffers(
            pid,
            n,
            suspects,
            std::mem::take(&mut self.outbox_scratch),
            std::mem::take(&mut self.outputs_scratch),
        );
        self.automata[ix].on_step(input.as_ref(), &mut ctx);
        // Effects: sends...
        let causal = self.heard[ix];
        let StepContext {
            mut outbox,
            mut outputs,
            ..
        } = ctx;
        for (to, payload) in outbox.drain(..) {
            let delay = self
                .rng
                .gen_range(self.config.delivery.min_delay..=self.config.delivery.max_delay);
            let mut due = self.time.advance(delay.max(1));
            if let Some(earliest) = self.config.adversary.earliest(pid, to) {
                due = due.max(earliest);
            }
            self.queues[to.index()].push(
                Envelope {
                    id: self.next_msg_id,
                    from: pid,
                    to,
                    payload,
                    sent_at: self.time,
                    causal_past: causal,
                },
                due,
            );
            self.next_msg_id += 1;
            self.trace.messages_sent += 1;
        }
        // ...outputs...
        for value in outputs.drain(..) {
            self.trace.events.push(OutputEvent {
                process: pid,
                time: self.time,
                value,
                causal_past: causal,
            });
        }
        // Return the (now empty) effect buffers for the next step.
        self.outbox_scratch = outbox;
        self.outputs_scratch = outputs;
        // ...and the emulated detector output.
        if let Some(suspected) = self.automata[ix].emulated_suspects() {
            let h = self
                .emulated
                .get_or_insert_with(|| History::new(n, ProcessSet::empty()));
            h.set_from(pid, self.time, suspected);
        }
        self.trace.steps += 1;
        self.time = self.time.next();
    }

    /// Drives rounds until the budget runs out, `stop` returns `true`, or
    /// the configured [`StopCondition`] fires. `stop` is called after
    /// every round, the last one included, so it can also watch the run:
    /// the trace so far, the automata and the time.
    pub fn run_until<F: FnMut(&Self) -> bool>(mut self, mut stop: F) -> RunResult<A> {
        while self.step_round() {
            if stop(&self) || self.config.stop.is_met(self.pattern, &self.trace) {
                break;
            }
        }
        self.finish()
    }

    /// Finalizes the run and returns the result.
    #[must_use]
    pub fn finish(mut self) -> RunResult<A> {
        self.trace.end_time = self.time;
        RunResult {
            trace: self.trace,
            emulated: self.emulated,
            automata: self.automata,
        }
    }
}

impl<A: Automaton> std::fmt::Debug for Scheduler<'_, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("time", &self.time)
            .field("rounds", &self.trace.rounds)
            .field("steps", &self.trace.steps)
            .field("max_rounds", &self.config.max_rounds)
            .finish()
    }
}

/// Executes a run of `automata` (one per process) under `pattern`,
/// feeding failure detector values from `oracle_history`, to completion
/// under `config`'s round budget and stop condition.
///
/// # Panics
///
/// Panics if the number of automata differs from the pattern's process
/// count, or if the oracle history covers fewer processes.
pub fn run<A: Automaton>(
    pattern: &FailurePattern,
    oracle_history: &History<ProcessSet>,
    automata: Vec<A>,
    config: &SimConfig,
) -> RunResult<A> {
    Scheduler::new(pattern, oracle_history, automata, config).run_until(|_| false)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every process broadcasts a token once, then outputs each received
    /// token's sender index.
    struct Gossip {
        started: bool,
    }

    impl Automaton for Gossip {
        type Msg = usize;
        type Output = usize;

        fn on_step(
            &mut self,
            input: Option<&Envelope<usize>>,
            ctx: &mut StepContext<usize, usize>,
        ) {
            if !self.started {
                self.started = true;
                ctx.broadcast_others(ctx.me().index());
            }
            if let Some(env) = input {
                ctx.output(env.payload);
            }
        }
    }

    fn gossip_automata(n: usize) -> Vec<Gossip> {
        (0..n).map(|_| Gossip { started: false }).collect()
    }

    fn silent_history(n: usize) -> History<ProcessSet> {
        History::new(n, ProcessSet::empty())
    }

    #[test]
    fn all_messages_delivered_to_correct_processes() {
        let n = 4;
        let pattern = FailurePattern::new(n);
        let config = SimConfig::new(7, 200);
        let result = run(&pattern, &silent_history(n), gossip_automata(n), &config);
        // 4 broadcasts × 3 destinations.
        assert_eq!(result.trace.messages_sent, 12);
        assert_eq!(result.trace.messages_delivered, 12);
        // Each process outputs the 3 tokens it received.
        for ix in 0..n {
            assert_eq!(result.trace.outputs_of(ProcessId::new(ix)).count(), 3);
        }
    }

    #[test]
    fn crashed_process_takes_no_steps_after_crash() {
        let n = 3;
        // p0 crashes immediately: it never gets a step.
        let pattern = FailurePattern::new(n).with_crash(ProcessId::new(0), Time::ZERO);
        let config = SimConfig::new(3, 100);
        let result = run(&pattern, &silent_history(n), gossip_automata(n), &config);
        // p0 sent nothing; p1 and p2 each broadcast 2 messages, and the
        // copy addressed to p0 is never delivered.
        assert_eq!(result.trace.messages_sent, 4);
        assert_eq!(result.trace.messages_delivered, 2);
        assert_eq!(result.trace.outputs_of(ProcessId::new(0)).count(), 0);
    }

    #[test]
    fn causal_past_propagates_transitively() {
        /// p0 sends to p1; p1 forwards to p2; p2 outputs. p2's event must
        /// have p0 in its causal past.
        struct Chain {
            sent: bool,
        }
        impl Automaton for Chain {
            type Msg = u8;
            type Output = u8;
            fn on_step(&mut self, input: Option<&Envelope<u8>>, ctx: &mut StepContext<u8, u8>) {
                let me = ctx.me().index();
                if me == 0 && !self.sent {
                    self.sent = true;
                    ctx.send(ProcessId::new(1), 1);
                }
                if let Some(env) = input {
                    if me == 1 && !self.sent {
                        self.sent = true;
                        ctx.send(ProcessId::new(2), env.payload + 1);
                    }
                    if me == 2 {
                        ctx.output(env.payload);
                    }
                }
            }
        }
        let pattern = FailurePattern::new(3);
        let config = SimConfig::new(11, 300);
        let automata = (0..3).map(|_| Chain { sent: false }).collect();
        let result = run(&pattern, &silent_history(3), automata, &config);
        let ev = result
            .trace
            .outputs_of(ProcessId::new(2))
            .next()
            .expect("p2 must output");
        assert!(ev.causal_past.contains(ProcessId::new(0)));
        assert!(ev.causal_past.contains(ProcessId::new(1)));
        assert!(ev.causal_past.contains(ProcessId::new(2)));
    }

    #[test]
    fn adversary_postpones_delivery() {
        let n = 2;
        let pattern = FailurePattern::new(n);
        let config = SimConfig::new(5, 400)
            .with_adversary(Adversary::HoldFrom(ProcessId::new(0), Time::new(300)));
        let result = run(&pattern, &silent_history(n), gossip_automata(n), &config);
        // p1's token to p0 arrives promptly; p0's token to p1 is held
        // until t=300.
        let p1_rx = result
            .trace
            .outputs_of(ProcessId::new(1))
            .next()
            .expect("p1 eventually receives");
        assert!(p1_rx.time >= Time::new(300));
        let p0_rx = result
            .trace
            .outputs_of(ProcessId::new(0))
            .next()
            .expect("p0 receives");
        assert!(p0_rx.time < Time::new(300));
    }

    #[test]
    fn early_stop_condition_halts_run() {
        let n = 3;
        let pattern = FailurePattern::new(n);
        let budget = SimConfig::new(9, 10_000).with_stop(StopCondition::EachCorrectOutput(1));
        let result = run(&pattern, &silent_history(n), gossip_automata(n), &budget);
        assert!(result.trace.rounds < 10_000, "should stop early");
    }

    #[test]
    fn deterministic_under_same_seed() {
        let n = 4;
        let pattern = FailurePattern::new(n).with_crash(ProcessId::new(3), Time::new(5));
        let config = SimConfig::new(123, 100);
        let a = run(&pattern, &silent_history(n), gossip_automata(n), &config);
        let b = run(&pattern, &silent_history(n), gossip_automata(n), &config);
        assert_eq!(a.trace.messages_sent, b.trace.messages_sent);
        assert_eq!(a.trace.steps, b.trace.steps);
        assert_eq!(a.trace.events.len(), b.trace.events.len());
        for (x, y) in a.trace.events.iter().zip(&b.trace.events) {
            assert_eq!(x.process, y.process);
            assert_eq!(x.time, y.time);
        }
    }

    /// [`Gossip`] that also emulates a detector: it suspects every process
    /// it has not heard from yet.
    struct Unheard {
        gossip: Gossip,
        heard: ProcessSet,
        n: usize,
    }

    impl Automaton for Unheard {
        type Msg = usize;
        type Output = usize;

        fn on_step(
            &mut self,
            input: Option<&Envelope<usize>>,
            ctx: &mut StepContext<usize, usize>,
        ) {
            self.heard.insert(ctx.me());
            if let Some(env) = input {
                self.heard.insert(env.from);
            }
            self.gossip.on_step(input, ctx);
        }

        fn emulated_suspects(&self) -> Option<ProcessSet> {
            Some(self.heard.complement_within(self.n))
        }
    }

    /// Watching a run through `run_until` — reading the trace and the
    /// automata after every round — executes the same run as [`run`].
    #[test]
    fn manual_scheduler_driving_matches_run() {
        let n = 4;
        let pattern = FailurePattern::new(n).with_crash(ProcessId::new(3), Time::new(5));
        let silent = silent_history(n);
        let config = SimConfig::new(21, 150).with_stop(StopCondition::EachCorrectOutput(3));
        let automata = || -> Vec<Unheard> {
            (0..n)
                .map(|_| Unheard {
                    gossip: Gossip { started: false },
                    heard: ProcessSet::empty(),
                    n,
                })
                .collect()
        };
        let via_run = run(&pattern, &silent, automata(), &config);

        let mut seen = Vec::new();
        let mut suspects = vec![ProcessSet::full(n); n];
        let mut changes = 0;
        let mut rounds_seen = 0;
        let watched = Scheduler::new(&pattern, &silent, automata(), &config).run_until(|s| {
            rounds_seen += 1;
            assert_eq!(s.trace().rounds, rounds_seen, "called after every round");
            seen.extend(s.trace().events[seen.len()..].iter().cloned());
            for (ix, automaton) in s.automata().iter().enumerate() {
                let now = automaton.emulated_suspects().expect("emulates");
                changes += usize::from(now != suspects[ix]);
                suspects[ix] = now;
            }
            false
        });

        let fields = |events: &[OutputEvent<usize>]| -> Vec<_> {
            events
                .iter()
                .map(|e| (e.process, e.time, e.value, e.causal_past))
                .collect()
        };
        let events = fields(&via_run.trace.events);
        assert!(!events.is_empty());
        assert_eq!(events, fields(&watched.trace.events));
        assert_eq!(events, fields(&seen), "each output seen once, in order");
        let emulated = via_run.emulated.expect("the automata emulate a detector");
        assert_eq!(Some(&emulated), watched.emulated.as_ref());
        assert!(changes >= n, "every process hears from someone");
        let end = via_run.trace.end_time;
        for (ix, last) in suspects.iter().enumerate() {
            assert_eq!(emulated.value(ProcessId::new(ix), end), last);
        }
        assert!(via_run.trace.rounds < 150, "the stop condition ends both");
        assert_eq!(via_run.trace.rounds, watched.trace.rounds);
        assert_eq!(via_run.trace.rounds, rounds_seen);
        assert_eq!(via_run.trace.end_time, watched.trace.end_time);
        assert_eq!(via_run.trace.steps, watched.trace.steps);
        assert_eq!(via_run.trace.messages_sent, watched.trace.messages_sent);
        assert_eq!(
            via_run.trace.messages_delivered,
            watched.trace.messages_delivered
        );
    }

    #[test]
    fn run_until_predicate_stops_early() {
        let n = 3;
        let pattern = FailurePattern::new(n);
        let config = SimConfig::new(2, 10_000);
        let result = Scheduler::new(&pattern, &silent_history(n), gossip_automata(n), &config)
            .run_until(|s| s.trace().messages_delivered >= 2);
        assert!(
            result.trace.rounds < 10_000,
            "predicate should stop the run"
        );
        assert!(result.trace.messages_delivered >= 2);
    }

    #[test]
    fn ticks_for_rounds_saturates_at_u64_max() {
        // Regression: the horizon helper must saturate, not overflow, at
        // the extremes of the round budget.
        assert_eq!(ticks_for_rounds(4, u64::MAX), Time::MAX);
        assert_eq!(ticks_for_rounds(128, u64::MAX), Time::MAX);
        assert_eq!(ticks_for_rounds(1, u64::MAX), Time::MAX);
        assert_eq!(ticks_for_rounds(3, 0), Time::new(1));
        assert_eq!(ticks_for_rounds(2, 5), Time::new(11));
    }
}
