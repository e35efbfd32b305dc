//! The Perfect oracle: class `P`, realistic.

use super::{build_suspect_history, detection_delay, perfect_edits, Oracle};
use crate::pattern::FailurePattern;
use crate::process::ProcessSet;
use crate::time::Time;
use crate::History;

/// A realistic Perfect failure detector generator.
///
/// Every observer `pⱼ` starts suspecting a crashed `pᵢ` exactly
/// `base_delay + jitter(seed, i, j)` ticks after the crash, and never
/// suspects a process that has not crashed. The output at any time is a
/// function of the crashes that already happened, so the oracle is
/// realistic in the sense of §3.1.
///
/// # Examples
///
/// ```
/// use rfd_core::oracles::{Oracle, PerfectOracle};
/// use rfd_core::{FailurePattern, ProcessId, Time};
///
/// let oracle = PerfectOracle::new(5, 3);
/// let f = FailurePattern::new(3).with_crash(ProcessId::new(0), Time::new(10));
/// let h = oracle.generate(&f, Time::new(100), 42);
/// // No suspicion before the crash...
/// assert!(h.value(ProcessId::new(1), Time::new(9)).is_empty());
/// // ...and a permanent one at most 5+3 ticks after it.
/// assert!(h.value(ProcessId::new(1), Time::new(18)).contains(ProcessId::new(0)));
/// ```
#[derive(Clone, Debug)]
pub struct PerfectOracle {
    base_delay: u64,
    jitter: u64,
}

impl PerfectOracle {
    /// Creates a Perfect oracle with detection latency in
    /// `[base_delay, base_delay + jitter]` ticks.
    #[must_use]
    pub fn new(base_delay: u64, jitter: u64) -> Self {
        Self { base_delay, jitter }
    }

    /// Maximum detection latency of the oracle.
    #[must_use]
    pub fn max_delay(&self) -> u64 {
        self.base_delay + self.jitter
    }
}

impl Default for PerfectOracle {
    fn default() -> Self {
        Self::new(5, 3)
    }
}

impl Oracle for PerfectOracle {
    type Value = ProcessSet;

    fn name(&self) -> &'static str {
        "perfect"
    }

    fn generate(&self, pattern: &FailurePattern, horizon: Time, seed: u64) -> History<ProcessSet> {
        let events = perfect_edits(pattern, horizon, |observer, crashed| {
            detection_delay(self.base_delay, self.jitter, seed, observer, crashed)
        });
        build_suspect_history(pattern.num_processes(), events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{class_report, ClassId};
    use crate::process::ProcessId;
    use crate::properties::CheckParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn generated_histories_are_perfect() {
        let oracle = PerfectOracle::new(4, 2);
        let mut rng = StdRng::seed_from_u64(7);
        let horizon = Time::new(500);
        let params = CheckParams::with_margin(horizon, 50);
        for seed in 0..20 {
            // Crashes must precede the stabilization window by at least
            // the max detection latency for completeness to be checkable.
            let f = FailurePattern::random(6, 5, Time::new(300), &mut rng);
            let h = oracle.generate(&f, horizon, seed);
            let report = class_report(&f, &h, &params);
            assert!(
                report.is_in(ClassId::Perfect),
                "seed {seed}, pattern {f:?}: {report:?}"
            );
        }
    }

    #[test]
    fn detection_latency_is_bounded() {
        let oracle = PerfectOracle::new(5, 3);
        let f = FailurePattern::new(4).with_crash(p(2), Time::new(50));
        let h = oracle.generate(&f, Time::new(200), 99);
        for obs in 0..4 {
            let first = crate::properties::first_suspicion(&h, p(obs), p(2), Time::new(200))
                .expect("crash must be detected");
            assert!(first >= Time::new(55) && first <= Time::new(58), "{first}");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let oracle = PerfectOracle::new(5, 5);
        let f = FailurePattern::new(4).with_crash(p(1), Time::new(10));
        let a = oracle.generate(&f, Time::new(100), 1);
        let b = oracle.generate(&f, Time::new(100), 1);
        let c = oracle.generate(&f, Time::new(100), 2);
        assert_eq!(a, b);
        // Different seed may (and here does) shift jitter.
        let _ = c;
    }

    #[test]
    fn all_correct_pattern_yields_silent_history() {
        let oracle = PerfectOracle::default();
        let f = FailurePattern::new(5);
        let h = oracle.generate(&f, Time::new(100), 0);
        for i in 0..5 {
            assert!(h.value(p(i), Time::new(100)).is_empty());
        }
    }
}
