//! Eventually Perfect (`◇P`) and Eventually Strong (`◇S`) oracles.

use super::{build_suspect_history, detection_delay, mix, perfect_edits, Edit, Oracle};
use crate::pattern::FailurePattern;
use crate::process::{ProcessId, ProcessSet};
use crate::time::Time;
use crate::History;

/// A realistic Eventually Perfect (`◇P`) failure detector generator.
///
/// Before a global stabilization time (GST), each observer makes
/// seed-determined *mistakes*: transient false suspicions of processes that
/// have not crashed. From GST on, the oracle behaves like
/// [`super::PerfectOracle`]: crashed processes are permanently suspected
/// after a bounded delay and nobody is falsely suspected.
///
/// The output at time `t` depends only on crashes up to `t` (mistakes are
/// sampled independently of the pattern's future), so the oracle is
/// realistic — `◇P ∩ R ≠ ∅`, as §3 notes.
#[derive(Clone, Debug)]
pub struct EventuallyPerfectOracle {
    gst: Time,
    base_delay: u64,
    jitter: u64,
    mistakes_per_observer: usize,
    max_mistake_duration: u64,
}

impl EventuallyPerfectOracle {
    /// Creates a `◇P` oracle stabilizing at `gst`.
    #[must_use]
    pub fn new(gst: Time, base_delay: u64, jitter: u64) -> Self {
        Self {
            gst,
            base_delay,
            jitter,
            mistakes_per_observer: 3,
            max_mistake_duration: 20,
        }
    }

    /// Sets how many transient false suspicions each observer makes before
    /// GST (builder style).
    #[must_use]
    pub fn with_mistakes(mut self, count: usize, max_duration: u64) -> Self {
        self.mistakes_per_observer = count;
        self.max_mistake_duration = max_duration.max(1);
        self
    }

    /// The global stabilization time.
    #[must_use]
    pub fn gst(&self) -> Time {
        self.gst
    }

    /// The mistake edits (false suspicions strictly before GST) for each
    /// observer. Mistakes never target an already-crashed process at their
    /// start time; they may overlap a later crash harmlessly (the perfect
    /// component re-adds the suspicion permanently).
    fn mistake_edits(
        &self,
        pattern: &FailurePattern,
        horizon: Time,
        seed: u64,
    ) -> Vec<Vec<(Time, Edit)>> {
        let n = pattern.num_processes();
        let mut events: Vec<Vec<(Time, Edit)>> = vec![Vec::new(); n];
        if self.gst == Time::ZERO {
            return events;
        }
        for (observer_ix, observer_events) in events.iter_mut().enumerate() {
            for k in 0..self.mistakes_per_observer {
                let r = mix(seed ^ 0xABCD, observer_ix as u64, k as u64);
                let target = ProcessId::new((r % n as u64) as usize);
                if target.index() == observer_ix {
                    continue;
                }
                let start = Time::new(r >> 32).ticks() % self.gst.ticks();
                let start = Time::new(start);
                // Only a *false* suspicion counts as a mistake.
                if pattern.is_crashed(target, start) {
                    continue;
                }
                let dur = 1 + (r >> 16) % self.max_mistake_duration;
                let end = start.advance(dur).min(self.gst).min(horizon);
                if start >= end {
                    continue;
                }
                // The perfect component permanently suspects `target` from
                // its detection time; do not let the mistake's removal
                // cancel that permanent suspicion.
                let removal_blocked = pattern.crash_time(target).is_some_and(|ct| {
                    let det = ct.advance(detection_delay(
                        self.base_delay,
                        self.jitter,
                        seed,
                        ProcessId::new(observer_ix),
                        target,
                    ));
                    det <= end
                });
                observer_events.push((start, Edit::Add(target)));
                if !removal_blocked {
                    observer_events.push((end, Edit::Remove(target)));
                }
            }
        }
        events
    }
}

impl Default for EventuallyPerfectOracle {
    fn default() -> Self {
        Self::new(Time::new(100), 5, 3)
    }
}

impl Oracle for EventuallyPerfectOracle {
    type Value = ProcessSet;

    fn name(&self) -> &'static str {
        "eventually-perfect"
    }

    fn generate(&self, pattern: &FailurePattern, horizon: Time, seed: u64) -> History<ProcessSet> {
        let mut events = perfect_edits(pattern, horizon, |observer, crashed| {
            detection_delay(self.base_delay, self.jitter, seed, observer, crashed)
        });
        for (observer_ix, mut list) in self
            .mistake_edits(pattern, horizon, seed)
            .into_iter()
            .enumerate()
        {
            events[observer_ix].append(&mut list);
        }
        build_suspect_history(pattern.num_processes(), events)
    }
}

/// A realistic Eventually Strong (`◇S`) generator that is *not* `◇P`.
///
/// Each observer permanently suspects every process **except** the
/// lowest-index process that has not crashed *so far* (a past-determined
/// choice, hence realistic). When that process crashes, immunity moves to
/// the next lowest-index survivor. Eventually immunity settles on the
/// lowest-index *correct* process, giving eventual weak accuracy; all other
/// correct processes stay falsely suspected forever, so eventual strong
/// accuracy fails.
#[derive(Clone, Debug, Default)]
pub struct EventuallyStrongOracle {
    detection_delay: u64,
}

impl EventuallyStrongOracle {
    /// Creates a `◇S` oracle that notices crashes `detection_delay` ticks
    /// late.
    #[must_use]
    pub fn new(detection_delay: u64) -> Self {
        Self { detection_delay }
    }
}

impl Oracle for EventuallyStrongOracle {
    type Value = ProcessSet;

    fn name(&self) -> &'static str {
        "eventually-strong"
    }

    fn generate(&self, pattern: &FailurePattern, horizon: Time, _seed: u64) -> History<ProcessSet> {
        let n = pattern.num_processes();
        // Immunity transition times: the immune process is the lowest-index
        // one not *known* crashed (crash time + detection delay elapsed).
        let mut transitions: Vec<(Time, ProcessId)> = Vec::new();
        let mut known_crashed = ProcessSet::empty();
        // Collect detection events in time order.
        let mut detections: Vec<(Time, ProcessId)> = pattern
            .iter()
            .filter_map(|(pid, ct)| ct.map(|c| (c.advance(self.detection_delay), pid)))
            .collect();
        detections.sort_by_key(|(t, _)| *t);
        let alive_min = |known: ProcessSet| -> ProcessId {
            known
                .complement_within(n)
                .min()
                .unwrap_or(ProcessId::new(0))
        };
        transitions.push((Time::ZERO, alive_min(known_crashed)));
        for (t, pid) in detections {
            if t > horizon {
                break;
            }
            known_crashed.insert(pid);
            let new_immune = alive_min(known_crashed);
            if new_immune != transitions.last().expect("nonempty").1 {
                transitions.push((t, new_immune));
            }
        }
        let mut history = History::new(n, ProcessSet::empty());
        // Every observer outputs "everyone but the immune process" at all
        // times; crashed immune candidates get folded in automatically.
        for observer_ix in 0..n {
            let observer = ProcessId::new(observer_ix);
            for &(t, immune) in &transitions {
                let mut suspects = ProcessSet::full(n);
                suspects.remove(immune);
                history.set_from(observer, t, suspects);
            }
        }
        history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{class_report, ClassId};
    use crate::properties::CheckParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn ev_perfect_histories_are_eventually_perfect_not_perfect() {
        let oracle = EventuallyPerfectOracle::new(Time::new(100), 4, 2).with_mistakes(4, 15);
        let mut rng = StdRng::seed_from_u64(11);
        let horizon = Time::new(600);
        let params = CheckParams::with_margin(horizon, 50);
        let mut saw_mistake = false;
        for seed in 0..30 {
            let f = FailurePattern::random(6, 5, Time::new(400), &mut rng);
            let h = oracle.generate(&f, horizon, seed);
            let report = class_report(&f, &h, &params);
            assert!(
                report.is_in(ClassId::EventuallyPerfect),
                "seed {seed}, pattern {f:?}: {:?}",
                report.eventual_strong_accuracy
            );
            if !report.is_in(ClassId::Perfect) {
                saw_mistake = true;
            }
        }
        assert!(saw_mistake, "◇P oracle should make at least one mistake");
    }

    #[test]
    fn ev_perfect_is_accurate_after_gst() {
        let oracle = EventuallyPerfectOracle::new(Time::new(50), 3, 0).with_mistakes(5, 30);
        let f = FailurePattern::new(4).with_crash(p(3), Time::new(200));
        let h = oracle.generate(&f, Time::new(400), 5);
        // In (GST, crash): nobody should be suspected.
        for t in [60u64, 100, 150, 199] {
            for obs in 0..4 {
                assert!(
                    h.value(p(obs), Time::new(t)).is_empty(),
                    "false suspicion after GST at t={t}"
                );
            }
        }
        // After crash + delay: p3 suspected.
        assert!(h.value(p(0), Time::new(203)).contains(p(3)));
    }

    #[test]
    fn ev_strong_is_eventually_strong_but_not_eventually_perfect() {
        let oracle = EventuallyStrongOracle::new(3);
        let horizon = Time::new(500);
        let params = CheckParams::with_margin(horizon, 50);
        let mut rng = StdRng::seed_from_u64(3);
        for seed in 0..20 {
            let f = FailurePattern::random(5, 4, Time::new(300), &mut rng);
            let h = oracle.generate(&f, horizon, seed);
            let report = class_report(&f, &h, &params);
            assert!(
                report.is_in(ClassId::EventuallyStrong),
                "pattern {f:?}: {:?}",
                report.eventual_weak_accuracy
            );
            // With ≥ 2 correct processes there is always a falsely
            // suspected correct process, so ◇P fails.
            if f.correct().len() >= 2 {
                assert!(!report.is_in(ClassId::EventuallyPerfect), "pattern {f:?}");
            }
        }
    }

    #[test]
    fn ev_strong_immunity_moves_to_next_survivor() {
        let oracle = EventuallyStrongOracle::new(2);
        let f = FailurePattern::new(3).with_crash(p(0), Time::new(10));
        let h = oracle.generate(&f, Time::new(100), 0);
        // Before detection: p0 immune.
        assert!(!h.value(p(1), Time::new(5)).contains(p(0)));
        assert!(h.value(p(1), Time::new(5)).contains(p(2)));
        // After detection (t=12): p1 immune, p0 suspected.
        assert!(h.value(p(2), Time::new(12)).contains(p(0)));
        assert!(!h.value(p(2), Time::new(12)).contains(p(1)));
    }
}
