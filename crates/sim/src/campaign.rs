//! Parallel multi-seed simulation campaigns.
//!
//! Every experiment in this reproduction has the same outer shape: run
//! the same scenario under `k` seeds and fold the per-seed results into
//! a statistic. The bench experiments E1–E10 and the heavier property
//! tests used to hand-roll that loop serially; [`Campaign`] centralizes
//! it and fans the seeds out over `std::thread::scope` workers.
//!
//! Two entry points:
//!
//! * [`Campaign::run`] — the simulation-shaped sweep: a `plan` closure
//!   builds a [`RunPlan`] (pattern + oracle history + automata fleet)
//!   per seed, the engine executes it, and a `collect` closure reduces
//!   each [`RunResult`]. Results come back **in seed order**, so a
//!   campaign's output is independent of worker interleaving.
//! * [`Campaign::map`] — the generic sweep for experiments whose
//!   per-seed work is not an engine run (oracle classification, QoS
//!   evaluation, membership scenarios).
//!
//! Per-seed randomness: a sequential loop could thread one RNG through
//! all seeds, which serializes the sweep. [`seed_rng`] instead derives
//! an independent deterministic RNG from `(stream, seed)`, so any seed's
//! work is reproducible in isolation — the property that makes the sweep
//! parallel *and* the results stable under any worker count.
//!
//! ```
//! use rfd_core::{FailurePattern, History, ProcessSet, Time};
//! use rfd_sim::{campaign::{seed_rng, Campaign, RunPlan}, Automaton, Envelope, SimConfig, StepContext};
//!
//! struct Ping { sent: bool }
//! impl Automaton for Ping {
//!     type Msg = ();
//!     type Output = ();
//!     fn on_step(&mut self, _: Option<&Envelope<()>>, ctx: &mut StepContext<(), ()>) {
//!         if !self.sent { self.sent = true; ctx.broadcast_others(()); }
//!     }
//! }
//!
//! let n = 3;
//! let sent: Vec<u64> = Campaign::new(SimConfig::new(0, 50))
//!     .seeds(0..4)
//!     .run(
//!         |_seed, config| RunPlan {
//!             pattern: FailurePattern::new(n),
//!             oracle: History::new(n, ProcessSet::empty()),
//!             automata: (0..n).map(|_| Ping { sent: false }).collect(),
//!             config,
//!         },
//!         |_seed, _pattern, result| result.trace.messages_sent,
//!     );
//! assert_eq!(sent, vec![6, 6, 6, 6]);
//! ```

use crate::automaton::Automaton;
use crate::engine::{run, RunResult, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfd_core::{FailurePattern, History, ProcessSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Everything the engine needs for one seed's run.
pub struct RunPlan<A: Automaton> {
    /// The failure pattern of this run.
    pub pattern: FailurePattern,
    /// The oracle history feeding the detector modules.
    pub oracle: History<ProcessSet>,
    /// One automaton per process.
    pub automata: Vec<A>,
    /// The engine configuration (normally the campaign base with the
    /// seed substituted — what the `plan` closure receives).
    pub config: SimConfig,
}

impl<A: Automaton + std::fmt::Debug> std::fmt::Debug for RunPlan<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunPlan")
            .field("pattern", &self.pattern)
            .field("config", &self.config)
            .finish()
    }
}

/// A multi-seed sweep over one scenario.
///
/// # Examples
///
/// The [`Campaign::map`] path — any per-seed computation, fanned out
/// over scoped worker threads, results returned in seed order:
///
/// ```
/// use rfd_sim::Campaign;
///
/// let squares: Vec<u64> = Campaign::sweep(0..4).map(|seed| seed * seed);
/// assert_eq!(squares, vec![0, 1, 4, 9]);
/// ```
///
/// The [`Campaign::run`] path (full engine executions per seed) is shown
/// in the [module docs](self).
#[derive(Clone, Debug)]
pub struct Campaign {
    base: SimConfig,
    seeds: Vec<u64>,
    threads: Option<usize>,
}

impl Campaign {
    /// A campaign over `base`; the seed field of `base` is replaced per
    /// sweep element.
    #[must_use]
    pub fn new(base: SimConfig) -> Self {
        Self {
            base,
            seeds: Vec::new(),
            threads: None,
        }
    }

    /// A campaign for [`Campaign::map`]-style sweeps that never touch the
    /// engine (oracle classification, QoS scenarios, …): just the seed
    /// list, no base configuration.
    #[must_use]
    pub fn sweep<I: IntoIterator<Item = u64>>(seeds: I) -> Self {
        Self::new(SimConfig::new(0, 0)).seeds(seeds)
    }

    /// Sets the seed sweep (builder style).
    #[must_use]
    pub fn seeds<I: IntoIterator<Item = u64>>(mut self, seeds: I) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Caps the worker count (builder style). Defaults to the machine's
    /// available parallelism.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// The worker count a sweep of `jobs` jobs would use: the explicit
    /// [`Campaign::threads`] value if set, else the machine's available
    /// parallelism — always clamped to the job count.
    #[must_use]
    pub fn effective_threads(&self, jobs: usize) -> usize {
        let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        self.threads.unwrap_or(hw).clamp(1, jobs.max(1))
    }

    /// Runs `job` once per seed on a worker pool and returns the results
    /// in seed order.
    pub fn map<T, F>(&self, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(u64) -> T + Sync,
    {
        let workers = self.effective_threads(self.seeds.len());
        if workers <= 1 {
            return self.seeds.iter().map(|&seed| job(seed)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = self.seeds.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let ix = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&seed) = self.seeds.get(ix) else {
                        break;
                    };
                    let out = job(seed);
                    *slots[ix]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .expect("every sweep slot is filled by a worker")
            })
            .collect()
    }

    /// Runs one engine execution per seed — `plan` builds the run from
    /// the seed and the seed-substituted base configuration, `collect`
    /// reduces its result (receiving the run's failure pattern, which
    /// most verdicts need) — and returns the collected values in seed
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the base configuration has a zero round budget — the
    /// signature of a campaign built with [`Campaign::sweep`] (meant for
    /// [`Campaign::map`]-only use), whose engine runs would all silently
    /// execute nothing.
    pub fn run<A, T, P, F>(&self, plan: P, collect: F) -> Vec<T>
    where
        A: Automaton,
        T: Send,
        P: Fn(u64, SimConfig) -> RunPlan<A> + Sync,
        F: Fn(u64, &FailurePattern, RunResult<A>) -> T + Sync,
    {
        assert!(
            self.base.max_rounds > 0,
            "Campaign::run with max_rounds == 0 would execute nothing; \
             sweep-only campaigns (Campaign::sweep) must use map()"
        );
        self.map(|seed| {
            let p = plan(seed, self.base.clone().with_seed(seed));
            let result = run(&p.pattern, &p.oracle, p.automata, &p.config);
            collect(seed, &p.pattern, result)
        })
    }
}

/// Derives the independent deterministic RNG for one seed of one stream
/// (use a distinct `stream` tag per experiment/sweep).
#[must_use]
pub fn seed_rng(stream: u64, seed: u64) -> StdRng {
    // SplitMix64 over the pair; the engine's own seeding is unrelated, so
    // plan-level draws (e.g. random failure patterns) stay decorrelated
    // from scheduling draws.
    let mut x = stream
        .rotate_left(17)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(seed);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    StdRng::seed_from_u64(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::StepContext;
    use crate::engine::StopCondition;
    use crate::message::Envelope;
    use rfd_core::{ProcessId, Time};

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

    fn plan(n: usize, seed: u64, config: SimConfig) -> RunPlan<Gossip> {
        let mut rng = seed_rng(0xCAFE, seed);
        RunPlan {
            pattern: FailurePattern::random(n, n - 1, Time::new(100), &mut rng),
            oracle: History::new(n, ProcessSet::empty()),
            automata: (0..n).map(|_| Gossip { started: false }).collect(),
            config,
        }
    }

    #[test]
    fn results_come_back_in_seed_order_regardless_of_workers() {
        let base = SimConfig::new(0, 300).with_stop(StopCondition::EachCorrectOutput(1));
        let serial: Vec<(u64, u64)> = Campaign::new(base.clone()).seeds(0..12).threads(1).run(
            |s, c| plan(5, s, c),
            |seed, _p, r| (seed, r.trace.messages_sent),
        );
        let parallel: Vec<(u64, u64)> = Campaign::new(base).seeds(0..12).threads(4).run(
            |s, c| plan(5, s, c),
            |seed, _p, r| (seed, r.trace.messages_sent),
        );
        assert_eq!(serial, parallel);
        let seeds: Vec<u64> = serial.iter().map(|(s, _)| *s).collect();
        assert_eq!(seeds, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn map_runs_every_seed_exactly_once() {
        let hits: Vec<u64> = Campaign::new(SimConfig::new(0, 1))
            .seeds([3, 1, 4, 1, 5])
            .threads(3)
            .map(|seed| seed * 10);
        assert_eq!(hits, vec![30, 10, 40, 10, 50]);
    }

    #[test]
    fn empty_campaign_is_empty() {
        let out: Vec<u64> = Campaign::new(SimConfig::new(0, 1)).map(|s| s);
        assert!(out.is_empty());
    }

    #[test]
    fn seed_rng_is_deterministic_and_stream_separated() {
        use rand::RngCore;
        assert_eq!(seed_rng(1, 2).next_u64(), seed_rng(1, 2).next_u64());
        assert_ne!(seed_rng(1, 2).next_u64(), seed_rng(1, 3).next_u64());
        assert_ne!(seed_rng(1, 2).next_u64(), seed_rng(2, 2).next_u64());
    }

    #[test]
    fn base_seed_is_substituted_per_sweep_element() {
        let base = SimConfig::new(999, 50);
        let seeds_seen: Vec<u64> = Campaign::new(base).seeds(5..8).run(
            |_s, c| RunPlan {
                pattern: FailurePattern::new(2),
                oracle: History::new(2, ProcessSet::empty()),
                automata: vec![Gossip { started: false }, Gossip { started: false }],
                config: c.clone(),
            },
            |seed, _p, _r| seed,
        );
        assert_eq!(seeds_seen, vec![5, 6, 7]);
        let _ = ProcessId::new(0);
    }
}
