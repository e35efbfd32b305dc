//! The Partially Perfect oracle: class `P<` (§6.2), realistic.

use super::{build_suspect_history, detection_delay, perfect_edits, Oracle};
use crate::pattern::FailurePattern;
use crate::process::ProcessSet;
use crate::time::Time;
use crate::History;

/// A realistic Partially Perfect (`P<`) failure detector generator.
///
/// `P<` keeps the strong accuracy of `P` but weakens completeness: when
/// `pᵢ` crashes, only correct processes `pⱼ` with `j > i` must eventually
/// permanently suspect it. Lower-index observers learn nothing — "a
/// process `pᵢ` has no knowledge about any process `pⱼ` such that `j > i`"
/// (§6.2). The paper uses `P<` to show that, even restricted to realistic
/// detectors with unbounded failures, *correct-restricted* consensus is
/// solvable below `P`, hence uniform consensus is strictly harder.
///
/// # Examples
///
/// ```
/// use rfd_core::oracles::{Oracle, RankedOracle};
/// use rfd_core::{FailurePattern, ProcessId, Time};
///
/// let oracle = RankedOracle::new(5, 0);
/// let f = FailurePattern::new(3).with_crash(ProcessId::new(1), Time::new(10));
/// let h = oracle.generate(&f, Time::new(100), 0);
/// // p2 (higher index) detects the crash of p1...
/// assert!(h.value(ProcessId::new(2), Time::new(15)).contains(ProcessId::new(1)));
/// // ...but p0 (lower index) never does.
/// assert!(h.value(ProcessId::new(0), Time::new(100)).is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct RankedOracle {
    base_delay: u64,
    jitter: u64,
}

impl RankedOracle {
    /// Creates a `P<` oracle with detection latency in
    /// `[base_delay, base_delay + jitter]` ticks (for obliged observers).
    #[must_use]
    pub fn new(base_delay: u64, jitter: u64) -> Self {
        Self { base_delay, jitter }
    }
}

impl Default for RankedOracle {
    fn default() -> Self {
        Self::new(5, 3)
    }
}

impl Oracle for RankedOracle {
    type Value = ProcessSet;

    fn name(&self) -> &'static str {
        "partially-perfect"
    }

    fn generate(&self, pattern: &FailurePattern, horizon: Time, seed: u64) -> History<ProcessSet> {
        let far = horizon.next().advance(1);
        let events = perfect_edits(pattern, horizon, |observer, crashed| {
            if observer.index() > crashed.index() {
                detection_delay(self.base_delay, self.jitter, seed, observer, crashed)
            } else {
                // Push the edit past the horizon: lower-index observers
                // never suspect.
                far.ticks()
            }
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
    fn histories_are_partially_perfect() {
        let oracle = RankedOracle::new(4, 2);
        let mut rng = StdRng::seed_from_u64(21);
        let horizon = Time::new(500);
        let params = CheckParams::with_margin(horizon, 50);
        for seed in 0..20 {
            let f = FailurePattern::random(6, 5, Time::new(300), &mut rng);
            let h = oracle.generate(&f, horizon, seed);
            let report = class_report(&f, &h, &params);
            assert!(report.is_in(ClassId::PartiallyPerfect), "{f:?}");
            assert!(report.strong_accuracy.is_ok(), "{f:?}");
        }
    }

    #[test]
    fn strictly_weaker_than_perfect_when_low_index_crashes() {
        // p0 crashes; a correct observer (p1) exists above it, so strong
        // completeness... holds for p0. The gap appears when the *highest*
        // crashed process has correct observers only below it — impossible
        // by definition; the real gap: crash of p2 with observers p0, p1.
        let oracle = RankedOracle::new(4, 0);
        let f = FailurePattern::new(3).with_crash(p(2), Time::new(10));
        let h = oracle.generate(&f, Time::new(200), 0);
        let report = class_report(&f, &h, &CheckParams::new(Time::new(200)));
        assert!(report.is_in(ClassId::PartiallyPerfect));
        // Nobody above p2 exists: no process ever suspects it.
        assert!(!report.is_in(ClassId::Perfect));
        assert!(report.strong_completeness.is_err());
    }

    #[test]
    fn lower_index_observers_stay_silent() {
        let oracle = RankedOracle::new(2, 0);
        let f = FailurePattern::new(4)
            .with_crash(p(1), Time::new(5))
            .with_crash(p(2), Time::new(7));
        let h = oracle.generate(&f, Time::new(100), 0);
        assert!(h.value(p(0), Time::new(100)).is_empty());
        // p3 sees both crashes.
        assert!(h.value(p(3), Time::new(10)).contains(p(1)));
        assert!(h.value(p(3), Time::new(10)).contains(p(2)));
        // p2 sees p1's crash (2 > 1) but p1 never sees p2's.
        assert!(h.value(p(2), Time::new(10)).contains(p(1)));
        assert!(!h.value(p(1), Time::new(100)).contains(p(2)));
    }
}
