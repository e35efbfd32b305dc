//! The Chandra–Toueg failure detector classes used in the paper.
//!
//! A class is a (completeness, accuracy) pair. The paper works with:
//!
//! | Class | Completeness | Accuracy | Paper role |
//! |-------|--------------|----------|------------|
//! | `P`  (Perfect)            | strong | strong | the collapse target (§4, §5) |
//! | `S`  (Strong)             | strong | weak   | solves consensus for any *f* (§1.2); collapses into `P` among realistic detectors (§6.3) |
//! | `◇P` (Eventually Perfect) | strong | eventual strong | realistic, intersects `R` (§3) |
//! | `◇S` (Eventually Strong)  | strong | eventual weak   | weakest for consensus only with a correct majority (§1.2) |
//! | `P<` (Partially Perfect)  | partial | strong | separates uniform from correct-restricted consensus (§6.2) |
//!
//! [`class_report`] evaluates every property of a history at once;
//! [`check_class`] tests membership in one class and returns a violation
//! witness on failure.

use crate::pattern::FailurePattern;
use crate::process::ProcessSet;
use crate::properties::{
    eventual_strong_accuracy, eventual_weak_accuracy, partial_completeness, strong_accuracy,
    strong_completeness, weak_accuracy, weak_completeness, CheckParams, PropertyResult,
};
use crate::History;
use core::fmt;

/// Identifier of a failure detector class.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ClassId {
    /// `P`: strong completeness + strong accuracy.
    Perfect,
    /// `S`: strong completeness + weak accuracy.
    Strong,
    /// `◇P`: strong completeness + eventual strong accuracy.
    EventuallyPerfect,
    /// `◇S`: strong completeness + eventual weak accuracy.
    EventuallyStrong,
    /// `P<` (§6.2): partial completeness + strong accuracy.
    PartiallyPerfect,
}

impl ClassId {
    /// All classes, strongest first.
    pub const ALL: [ClassId; 5] = [
        ClassId::Perfect,
        ClassId::Strong,
        ClassId::EventuallyPerfect,
        ClassId::EventuallyStrong,
        ClassId::PartiallyPerfect,
    ];

    /// The conventional symbol for the class.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            ClassId::Perfect => "P",
            ClassId::Strong => "S",
            ClassId::EventuallyPerfect => "◇P",
            ClassId::EventuallyStrong => "◇S",
            ClassId::PartiallyPerfect => "P<",
        }
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Per-property verdicts for one `(pattern, history)` pair.
///
/// # Examples
///
/// ```
/// use rfd_core::{class_report, CheckParams, ClassId, FailurePattern, History,
///                ProcessSet, Time};
///
/// let pattern = FailurePattern::new(3);
/// let history = History::new(3, ProcessSet::empty());
/// let report = class_report(&pattern, &history, &CheckParams::new(Time::new(100)));
/// // With no crashes and no suspicions, the history is vacuously perfect.
/// assert!(report.is_in(ClassId::Perfect));
/// ```
#[derive(Clone, Debug)]
pub struct ClassReport {
    /// Strong completeness verdict.
    pub strong_completeness: PropertyResult,
    /// Weak completeness verdict.
    pub weak_completeness: PropertyResult,
    /// Partial (`P<`) completeness verdict.
    pub partial_completeness: PropertyResult,
    /// Strong accuracy verdict.
    pub strong_accuracy: PropertyResult,
    /// Weak accuracy verdict.
    pub weak_accuracy: PropertyResult,
    /// Eventual strong accuracy verdict.
    pub eventual_strong_accuracy: PropertyResult,
    /// Eventual weak accuracy verdict.
    pub eventual_weak_accuracy: PropertyResult,
}

impl ClassReport {
    /// Tests membership in `class` according to this report.
    #[must_use]
    pub fn is_in(&self, class: ClassId) -> bool {
        let (c, a) = self.class_parts(class);
        c.is_ok() && a.is_ok()
    }

    /// The (completeness, accuracy) verdicts that define `class`.
    pub fn class_parts(&self, class: ClassId) -> (&PropertyResult, &PropertyResult) {
        match class {
            ClassId::Perfect => (&self.strong_completeness, &self.strong_accuracy),
            ClassId::Strong => (&self.strong_completeness, &self.weak_accuracy),
            ClassId::EventuallyPerfect => {
                (&self.strong_completeness, &self.eventual_strong_accuracy)
            }
            ClassId::EventuallyStrong => (&self.strong_completeness, &self.eventual_weak_accuracy),
            ClassId::PartiallyPerfect => (&self.partial_completeness, &self.strong_accuracy),
        }
    }

    /// The strongest class (in [`ClassId::ALL`] order) the history belongs
    /// to, if any.
    #[must_use]
    pub fn strongest(&self) -> Option<ClassId> {
        ClassId::ALL.into_iter().find(|c| self.is_in(*c))
    }
}

/// Evaluates every property of `history` against `pattern`.
#[must_use]
pub fn class_report(
    pattern: &FailurePattern,
    history: &History<ProcessSet>,
    params: &CheckParams,
) -> ClassReport {
    ClassReport {
        strong_completeness: strong_completeness(pattern, history, params),
        weak_completeness: weak_completeness(pattern, history, params),
        partial_completeness: partial_completeness(pattern, history, params),
        strong_accuracy: strong_accuracy(pattern, history, params),
        weak_accuracy: weak_accuracy(pattern, history, params),
        eventual_strong_accuracy: eventual_strong_accuracy(pattern, history, params),
        eventual_weak_accuracy: eventual_weak_accuracy(pattern, history, params),
    }
}

/// Tests whether `history` belongs to `class` for `pattern`, returning the
/// first violated property on failure.
pub fn check_class(
    class: ClassId,
    pattern: &FailurePattern,
    history: &History<ProcessSet>,
    params: &CheckParams,
) -> PropertyResult {
    let report = class_report(pattern, history, params);
    let (c, a) = report.class_parts(class);
    c.clone()?;
    a.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::ProcessId;
    use crate::time::Time;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn perfect_implies_all_weaker_classes() {
        let pattern = FailurePattern::new(3).with_crash(p(0), Time::new(10));
        let mut h = History::new(3, ProcessSet::empty());
        h.set_from(p(1), Time::new(12), ProcessSet::singleton(p(0)));
        h.set_from(p(2), Time::new(12), ProcessSet::singleton(p(0)));
        let report = class_report(&pattern, &h, &CheckParams::new(Time::new(100)));
        for class in ClassId::ALL {
            assert!(report.is_in(class), "perfect history should be in {class}");
        }
        assert_eq!(report.strongest(), Some(ClassId::Perfect));
    }

    #[test]
    fn early_mistake_is_eventually_perfect_but_not_perfect() {
        let pattern = FailurePattern::new(3).with_crash(p(0), Time::new(50));
        let mut h = History::new(3, ProcessSet::empty());
        // p1 falsely suspects correct p2 early, then retracts.
        h.set_from(p(1), Time::new(5), ProcessSet::singleton(p(2)));
        h.set_from(p(1), Time::new(8), ProcessSet::empty());
        // Both correct processes suspect the crashed p0 permanently.
        h.set_from(p(1), Time::new(55), ProcessSet::singleton(p(0)));
        h.set_from(p(2), Time::new(55), ProcessSet::singleton(p(0)));
        let report = class_report(&pattern, &h, &CheckParams::new(Time::new(200)));
        assert!(!report.is_in(ClassId::Perfect));
        assert!(report.is_in(ClassId::EventuallyPerfect));
        assert!(report.is_in(ClassId::EventuallyStrong));
        // p2 was suspected once, p0 is faulty: weak accuracy needs an
        // immune *correct* process; p1 qualifies (never suspected).
        assert!(report.is_in(ClassId::Strong));
        assert_eq!(report.strongest(), Some(ClassId::Strong));
    }

    #[test]
    fn check_class_returns_accuracy_violation() {
        let pattern = FailurePattern::new(2);
        let mut h = History::new(2, ProcessSet::empty());
        h.set_from(p(0), Time::new(1), ProcessSet::singleton(p(1)));
        let params = CheckParams::new(Time::new(10));
        assert!(check_class(ClassId::Perfect, &pattern, &h, &params).is_err());
        // The permanent suspicion of correct p1 also breaks ◇P...
        assert!(check_class(ClassId::EventuallyPerfect, &pattern, &h, &params).is_err());
        // ...but not ◇S: p0 itself is never suspected, so an immune
        // correct process exists.
        assert!(check_class(ClassId::EventuallyStrong, &pattern, &h, &params).is_ok());
    }

    #[test]
    fn class_symbols() {
        assert_eq!(ClassId::Perfect.to_string(), "P");
        assert_eq!(ClassId::EventuallyStrong.to_string(), "◇S");
        assert_eq!(ClassId::PartiallyPerfect.to_string(), "P<");
    }
}
