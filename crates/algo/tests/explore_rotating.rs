//! Enumerate, don't sample: every delivery order of the rotating
//! coordinator at n = 3.
//!
//! The cores are deterministic state machines, so the only choices in a
//! run are the scheduler's: which in-flight message is delivered next,
//! whether `p0` — round 0's coordinator — crashes (after any of its
//! steps), and when each survivor's detector starts suspecting it
//! (strong accuracy: only after the crash; at any later step). This
//! walks all of them depth first, memoised on the whole system state,
//! until nothing is left to deliver or some process reaches round 3, and
//! checks uniform agreement and validity (`rfd_algo::check`) in every
//! state it visits. A crashed decider keeps its decision: that is what
//! *uniform* means, and what a round-0 lock stamped like a never-adopted
//! estimate breaks.
//!
//! A message that is never delivered needs no transition of its own:
//! safety fails in a finite prefix, and every prefix of a run that loses
//! a message is a prefix of one that only delays it.

use rfd_algo::check::check_consensus;
use rfd_algo::consensus::{ConsensusCore, Outbox, RotatingConsensus, RotatingMsg};
use rfd_core::{FailurePattern, ProcessId, ProcessSet, Time};
use rfd_sim::{OutputEvent, Trace};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

const N: usize = 3;
const PROPOSALS: [u64; N] = [10, 11, 12];
/// A state with a process in this round is checked but not expanded.
const ROUND_CAP: u64 = 3;

type Core = RotatingConsensus<u64>;
type Msg = RotatingMsg<u64>;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// The whole system between two steps.
#[derive(Clone, Hash)]
struct World {
    cores: Vec<Core>,
    /// `(to, from, message)`, sorted: a multiset, so two schedules that
    /// reach the same cores with the same messages pending are one
    /// state.
    in_flight: Vec<(ProcessId, ProcessId, Msg)>,
    /// Whether `p0` has crashed. Its core stays, frozen, for its
    /// decision.
    crashed: bool,
    /// Which survivors' detectors suspect `p0` — permanently, once on.
    suspecting: [bool; N],
}

impl World {
    /// Every process has taken its first step: `p0` has proposed.
    fn initial() -> Self {
        let mut world = Self {
            cores: (0..N).map(|i| Core::new(p(i), N, PROPOSALS[i])).collect(),
            in_flight: Vec::new(),
            crashed: false,
            suspecting: [false; N],
        };
        for i in 0..N {
            world.step(i, None);
        }
        world
    }

    /// One step of `pᵢ`; what it sends joins the messages in flight.
    fn step(&mut self, i: usize, input: Option<(ProcessId, Msg)>) {
        let suspects = if self.suspecting[i] {
            ProcessSet::singleton(p(0))
        } else {
            ProcessSet::empty()
        };
        let mut out = Outbox::new(p(i), N);
        self.cores[i].step(
            input.as_ref().map(|(from, m)| (*from, m)),
            suspects,
            &mut out,
        );
        self.in_flight
            .extend(out.drain().into_iter().map(|(to, m)| (to, p(i), m)));
        // Nothing reaches a crashed `p0`. Two more kinds of message can
        // never matter again and are dropped rather than delivered: a
        // `Decide` to a process that has decided (its step returns at
        // once), and a `Propose` for a round its recipient has left
        // (ignored, so the step is the λ-step the walk takes anyway).
        // Rounds and decisions only move forward, so both stay that way.
        let (cores, crashed) = (&self.cores, self.crashed);
        self.in_flight.retain(|(to, _, m)| match m {
            _ if crashed && *to == p(0) => false,
            Msg::Decide(_) => cores[to.index()].decision().is_none(),
            Msg::Propose { r, .. } => *r >= cores[to.index()].round(),
            _ => true,
        });
        self.in_flight.sort_unstable();
    }

    fn alive(&self, i: usize) -> bool {
        !(self.crashed && i == 0)
    }

    /// Every state one scheduler choice away.
    fn successors(&self) -> Vec<World> {
        let mut next = Vec::new();
        // Deliver any one message in flight (equal ones are one choice).
        for (ix, entry) in self.in_flight.iter().enumerate() {
            if ix > 0 && self.in_flight[ix - 1] == *entry {
                continue;
            }
            let mut world = self.clone();
            let (to, from, msg) = world.in_flight.remove(ix);
            world.step(to.index(), Some((from, msg)));
            next.push(world);
        }
        // A λ-step of any live process (it may have a buffered proposal
        // to apply; where it has nothing to do the memo absorbs it).
        for i in (0..N).filter(|&i| self.alive(i)) {
            let mut world = self.clone();
            world.step(i, None);
            next.push(world);
        }
        if self.crashed {
            // A survivor's detector catches up, in a λ-step of its own.
            for i in (1..N).filter(|&i| !self.suspecting[i]) {
                let mut world = self.clone();
                world.suspecting[i] = true;
                world.step(i, None);
                next.push(world);
            }
        } else {
            // p0 crashes where it stands; nothing reaches it any more.
            let mut world = self.clone();
            world.crashed = true;
            world.in_flight.retain(|(to, _, _)| *to != p(0));
            next.push(world);
        }
        next
    }

    /// Uniform agreement and validity over every decision taken so far,
    /// a crashed `p0`'s included.
    fn check(&self) {
        let mut pattern = FailurePattern::new(N);
        if self.crashed {
            pattern.set_crash(p(0), Time::ZERO);
        }
        let events = self
            .cores
            .iter()
            .enumerate()
            .filter_map(|(i, core)| {
                core.decision().map(|&value| OutputEvent {
                    process: p(i),
                    time: Time::ZERO,
                    value,
                    causal_past: ProcessSet::empty(),
                })
            })
            .collect();
        let trace = Trace {
            events,
            messages_sent: 0,
            messages_delivered: 0,
            steps: 0,
            end_time: Time::ZERO,
            rounds: 0,
        };
        let verdict = check_consensus(&pattern, &trace, &PROPOSALS);
        assert!(
            verdict.uniform_agreement.is_ok() && verdict.validity.is_ok(),
            "{verdict:?}\ncrashed: {}, suspecting: {:?}\ncores: {:#?}\nin flight: {:?}",
            self.crashed,
            self.suspecting,
            self.cores,
            self.in_flight,
        );
    }
}

/// A 128-bit fingerprint of a state: what the memo keeps in place of
/// the state itself (three cores and their maps are a kilobyte or two).
/// `DefaultHasher::new()` is keyed with constants, so the walk — and the
/// count it prints — repeats exactly.
fn fingerprint(world: &World) -> (u64, u64) {
    let hash_with = |salt: u8| {
        let mut hasher = DefaultHasher::new();
        salt.hash(&mut hasher);
        world.hash(&mut hasher);
        hasher.finish()
    };
    (hash_with(0), hash_with(1))
}

#[test]
fn every_schedule_of_three_processes_keeps_uniform_agreement_and_validity() {
    let mut seen = HashSet::new();
    let mut stack = vec![World::initial()];
    let (mut with_decision, mut capped) = (0u64, 0u64);
    while let Some(world) = stack.pop() {
        if !seen.insert(fingerprint(&world)) {
            continue;
        }
        world.check();
        with_decision += u64::from(world.cores.iter().any(|c| c.decision().is_some()));
        // Once every live process has decided no further decision can
        // be taken, so the verdict cannot change.
        if (0..N).all(|i| !world.alive(i) || world.cores[i].decision().is_some()) {
            continue;
        }
        if world.cores.iter().any(|c| c.round() >= ROUND_CAP) {
            capped += 1;
            continue;
        }
        stack.extend(world.successors());
    }
    println!(
        "explored {} states: {with_decision} with a decision, {capped} cut off at round {ROUND_CAP}",
        seen.len()
    );
    // The walk is only worth its verdict if it got somewhere: runs that
    // decide, and runs that survive p0's crash into later rounds.
    assert!(with_decision > 0 && capped > 0);
}
