//! Completeness and accuracy properties of failure detector histories.
//!
//! Chandra–Toueg classes are defined by a *completeness* property paired
//! with an *accuracy* property. This module implements each property as a
//! predicate over a `(FailurePattern, History<ProcessSet>)` pair, returning
//! a [`PropertyViolation`] witness on failure so experiments can report
//! *why* a history fell outside a class.
//!
//! Histories are infinite objects; we check them over a finite window
//! described by [`CheckParams`]. "Eventually/permanently" properties are
//! interpreted as *holding throughout the stabilization window*
//! `[horizon − margin, horizon]` — the standard finite-trace reading, sound
//! for the generators and simulators in this workspace because they
//! quiesce before the window when correctly configured.

use crate::pattern::FailurePattern;
use crate::process::{ProcessId, ProcessSet};
use crate::time::Time;
use crate::History;
use core::fmt;

/// Finite-window parameters for property checks.
///
/// # Examples
///
/// ```
/// use rfd_core::{CheckParams, Time};
///
/// let params = CheckParams::new(Time::new(1_000));
/// assert_eq!(params.horizon, Time::new(1_000));
/// assert!(params.margin > 0);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CheckParams {
    /// Last tick examined.
    pub horizon: Time,
    /// Width (in ticks) of the stabilization window ending at `horizon`,
    /// over which "eventually permanent" properties must hold.
    pub margin: u64,
}

impl CheckParams {
    /// Creates parameters with a default margin of one tenth of the
    /// horizon (at least 1 tick).
    ///
    /// # Panics
    ///
    /// Panics if `horizon == Time::ZERO`.
    #[must_use]
    pub fn new(horizon: Time) -> Self {
        assert!(horizon > Time::ZERO, "horizon must be positive");
        Self {
            horizon,
            margin: (horizon.ticks() / 10).max(1),
        }
    }

    /// Creates parameters with an explicit margin.
    ///
    /// # Panics
    ///
    /// Panics if the margin exceeds the horizon or `horizon == Time::ZERO`.
    #[must_use]
    pub fn with_margin(horizon: Time, margin: u64) -> Self {
        assert!(horizon > Time::ZERO, "horizon must be positive");
        assert!(margin <= horizon.ticks(), "margin exceeds horizon");
        Self { horizon, margin }
    }

    /// Start of the stabilization window.
    #[must_use]
    pub fn window_start(&self) -> Time {
        Time::new(self.horizon.ticks().saturating_sub(self.margin))
    }
}

/// Witness that a history violates a property.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PropertyViolation {
    /// A crashed process was not permanently suspected by an observer that
    /// the property obliges to suspect it.
    MissingSuspicion {
        /// The module that should have suspected.
        observer: ProcessId,
        /// The crashed process.
        crashed: ProcessId,
        /// A window time at which the suspicion was absent.
        at: Time,
    },
    /// A process was suspected before it crashed (strong accuracy breach).
    FalseSuspicion {
        /// The module holding the suspicion.
        observer: ProcessId,
        /// The process wrongly suspected.
        suspect: ProcessId,
        /// The time of the wrongful suspicion.
        at: Time,
    },
    /// No correct process escaped suspicion everywhere (weak accuracy
    /// breach).
    NoImmuneProcess,
    /// A correct process was still suspected inside the stabilization
    /// window (eventual accuracy breach).
    LateSuspicion {
        /// The module holding the suspicion.
        observer: ProcessId,
        /// The correct process still suspected.
        suspect: ProcessId,
        /// A window time at which the suspicion persisted.
        at: Time,
    },
}

impl fmt::Display for PropertyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingSuspicion {
                observer,
                crashed,
                at,
            } => write!(
                f,
                "completeness violation: {observer} does not suspect crashed {crashed} at {at}"
            ),
            Self::FalseSuspicion {
                observer,
                suspect,
                at,
            } => write!(
                f,
                "strong accuracy violation: {observer} suspects {suspect} before it crashed, at {at}"
            ),
            Self::NoImmuneProcess => {
                write!(f, "weak accuracy violation: every correct process was suspected")
            }
            Self::LateSuspicion {
                observer,
                suspect,
                at,
            } => write!(
                f,
                "eventual accuracy violation: {observer} still suspects correct {suspect} at {at}"
            ),
        }
    }
}

/// Outcome of a property check: `Ok(())` or a violation witness.
pub type PropertyResult = Result<(), PropertyViolation>;

/// Returns the first time in `[0, upto]` at which `observer`'s module
/// suspects `suspect`, if any.
#[must_use]
pub fn first_suspicion(
    history: &History<ProcessSet>,
    observer: ProcessId,
    suspect: ProcessId,
    upto: Time,
) -> Option<Time> {
    for (t, v) in history.changes(observer) {
        if t > upto {
            break;
        }
        if v.contains(suspect) {
            return Some(t);
        }
    }
    None
}

/// Tests whether `observer` suspects `suspect` at every time in
/// `[from, to]`.
#[must_use]
pub fn suspected_throughout(
    history: &History<ProcessSet>,
    observer: ProcessId,
    suspect: ProcessId,
    from: Time,
    to: Time,
) -> bool {
    if !history.value(observer, from).contains(suspect) {
        return false;
    }
    history
        .changes(observer)
        .filter(|(t, _)| *t > from && *t <= to)
        .all(|(_, v)| v.contains(suspect))
}

fn first_gap(
    history: &History<ProcessSet>,
    observer: ProcessId,
    suspect: ProcessId,
    from: Time,
    to: Time,
) -> Option<Time> {
    if !history.value(observer, from).contains(suspect) {
        return Some(from);
    }
    history
        .changes(observer)
        .filter(|(t, _)| *t > from && *t <= to)
        .find(|(_, v)| !v.contains(suspect))
        .map(|(t, _)| t)
}

/// **Strong completeness**: eventually every crashed process is permanently
/// suspected by *every* correct process.
pub fn strong_completeness(
    pattern: &FailurePattern,
    history: &History<ProcessSet>,
    params: &CheckParams,
) -> PropertyResult {
    completeness_among(pattern, history, params, |_, _| true)
}

/// Eventually every crashed process is permanently suspected by every
/// correct observer that `obliged(observer, crashed)` names.
fn completeness_among(
    pattern: &FailurePattern,
    history: &History<ProcessSet>,
    params: &CheckParams,
    obliged: impl Fn(ProcessId, ProcessId) -> bool,
) -> PropertyResult {
    let start = params.window_start();
    for crashed in pattern.faulty() {
        for observer in pattern.correct() {
            if !obliged(observer, crashed) {
                continue;
            }
            if let Some(at) = first_gap(history, observer, crashed, start, params.horizon) {
                return Err(PropertyViolation::MissingSuspicion {
                    observer,
                    crashed,
                    at,
                });
            }
        }
    }
    Ok(())
}

/// **Weak completeness**: eventually every crashed process is permanently
/// suspected by *some* correct process.
pub fn weak_completeness(
    pattern: &FailurePattern,
    history: &History<ProcessSet>,
    params: &CheckParams,
) -> PropertyResult {
    let start = params.window_start();
    let correct = pattern.correct();
    for crashed in pattern.faulty() {
        let mut witness_gap = None;
        let found = correct.iter().any(|observer| {
            match first_gap(history, observer, crashed, start, params.horizon) {
                None => true,
                Some(at) => {
                    witness_gap.get_or_insert((observer, at));
                    false
                }
            }
        });
        if !found {
            let (observer, at) = witness_gap.unwrap_or((crashed, start));
            return Err(PropertyViolation::MissingSuspicion {
                observer,
                crashed,
                at,
            });
        }
    }
    Ok(())
}

/// **Partial completeness** (class `P<` of §6.2): if `pᵢ` crashes, then
/// eventually every correct `pⱼ` with `j > i` permanently suspects `pᵢ`.
pub fn partial_completeness(
    pattern: &FailurePattern,
    history: &History<ProcessSet>,
    params: &CheckParams,
) -> PropertyResult {
    completeness_among(pattern, history, params, |observer, crashed| {
        observer.index() > crashed.index()
    })
}

/// **Strong accuracy**: no process is suspected (by any module) before it
/// crashes: `∀ pⱼ, t : H(pⱼ, t) ⊆ F(t)`.
pub fn strong_accuracy(
    pattern: &FailurePattern,
    history: &History<ProcessSet>,
    params: &CheckParams,
) -> PropertyResult {
    for observer_ix in 0..pattern.num_processes() {
        let observer = ProcessId::new(observer_ix);
        for (t, suspects) in history.changes(observer) {
            if t > params.horizon {
                break;
            }
            // F is monotone, so checking at the segment start suffices.
            let premature = suspects.difference(pattern.crashed_at(t));
            if let Some(suspect) = premature.min() {
                return Err(PropertyViolation::FalseSuspicion {
                    observer,
                    suspect,
                    at: t,
                });
            }
        }
    }
    Ok(())
}

/// **Weak accuracy**: some correct process is never suspected by anyone.
pub fn weak_accuracy(
    pattern: &FailurePattern,
    history: &History<ProcessSet>,
    params: &CheckParams,
) -> PropertyResult {
    let n = pattern.num_processes();
    if pattern.correct().is_empty() {
        // With no correct process the property is vacuous (no correct
        // process can be misled); every detector satisfies it.
        return Ok(());
    }
    let immune_exists = pattern.correct().iter().any(|candidate| {
        (0..n).all(|obs_ix| {
            first_suspicion(history, ProcessId::new(obs_ix), candidate, params.horizon).is_none()
        })
    });
    if immune_exists {
        Ok(())
    } else {
        Err(PropertyViolation::NoImmuneProcess)
    }
}

/// **Eventual strong accuracy**: eventually no correct process is suspected
/// by any correct process (checked over the stabilization window).
pub fn eventual_strong_accuracy(
    pattern: &FailurePattern,
    history: &History<ProcessSet>,
    params: &CheckParams,
) -> PropertyResult {
    let start = params.window_start();
    let correct = pattern.correct();
    for observer in correct {
        for suspect in correct {
            if suspected_in_window(history, observer, suspect, start, params.horizon) {
                let at = if history.value(observer, start).contains(suspect) {
                    start
                } else {
                    history
                        .changes(observer)
                        .filter(|(t, v)| *t > start && *t <= params.horizon && v.contains(suspect))
                        .map(|(t, _)| t)
                        .next()
                        .unwrap_or(start)
                };
                return Err(PropertyViolation::LateSuspicion {
                    observer,
                    suspect,
                    at,
                });
            }
        }
    }
    Ok(())
}

/// **Eventual weak accuracy**: eventually some correct process is no longer
/// suspected by any correct process (checked over the stabilization
/// window).
pub fn eventual_weak_accuracy(
    pattern: &FailurePattern,
    history: &History<ProcessSet>,
    params: &CheckParams,
) -> PropertyResult {
    let start = params.window_start();
    let correct = pattern.correct();
    if correct.is_empty() {
        return Ok(());
    }
    let immune_exists = correct.iter().any(|candidate| {
        correct.iter().all(|observer| {
            !suspected_in_window(history, observer, candidate, start, params.horizon)
        })
    });
    if immune_exists {
        Ok(())
    } else {
        Err(PropertyViolation::NoImmuneProcess)
    }
}

fn suspected_in_window(
    history: &History<ProcessSet>,
    observer: ProcessId,
    suspect: ProcessId,
    from: Time,
    to: Time,
) -> bool {
    if history.value(observer, from).contains(suspect) {
        return true;
    }
    history
        .changes(observer)
        .filter(|(t, _)| *t > from && *t <= to)
        .any(|(_, v)| v.contains(suspect))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// 3 processes, p0 crashes at t=10; p1/p2 suspect it from t=15.
    fn perfect_scenario() -> (FailurePattern, History<ProcessSet>, CheckParams) {
        let pattern = FailurePattern::new(3).with_crash(p(0), Time::new(10));
        let mut h = History::new(3, ProcessSet::empty());
        h.set_from(p(1), Time::new(15), ProcessSet::singleton(p(0)));
        h.set_from(p(2), Time::new(15), ProcessSet::singleton(p(0)));
        (pattern, h, CheckParams::new(Time::new(100)))
    }

    #[test]
    fn perfect_history_satisfies_perfect_properties() {
        let (pattern, h, params) = perfect_scenario();
        assert_eq!(strong_completeness(&pattern, &h, &params), Ok(()));
        assert_eq!(strong_accuracy(&pattern, &h, &params), Ok(()));
        assert_eq!(weak_completeness(&pattern, &h, &params), Ok(()));
        assert_eq!(weak_accuracy(&pattern, &h, &params), Ok(()));
        assert_eq!(eventual_strong_accuracy(&pattern, &h, &params), Ok(()));
        assert_eq!(eventual_weak_accuracy(&pattern, &h, &params), Ok(()));
        assert_eq!(partial_completeness(&pattern, &h, &params), Ok(()));
    }

    #[test]
    fn missing_suspicion_breaks_strong_but_not_weak_completeness() {
        let pattern = FailurePattern::new(3).with_crash(p(0), Time::new(10));
        let mut h = History::new(3, ProcessSet::empty());
        // Only p1 suspects; p2 never does.
        h.set_from(p(1), Time::new(15), ProcessSet::singleton(p(0)));
        let params = CheckParams::new(Time::new(100));
        assert!(matches!(
            strong_completeness(&pattern, &h, &params),
            Err(PropertyViolation::MissingSuspicion { observer, crashed, .. })
                if observer == p(2) && crashed == p(0)
        ));
        assert_eq!(weak_completeness(&pattern, &h, &params), Ok(()));
    }

    #[test]
    fn premature_suspicion_breaks_strong_accuracy() {
        let pattern = FailurePattern::new(3).with_crash(p(0), Time::new(10));
        let mut h = History::new(3, ProcessSet::empty());
        h.set_from(p(1), Time::new(5), ProcessSet::singleton(p(0)));
        let params = CheckParams::new(Time::new(100));
        assert!(matches!(
            strong_accuracy(&pattern, &h, &params),
            Err(PropertyViolation::FalseSuspicion { observer, suspect, at })
                if observer == p(1) && suspect == p(0) && at == Time::new(5)
        ));
    }

    #[test]
    fn retracted_false_suspicion_still_breaks_strong_accuracy() {
        // A mistake that is later corrected still violates strong accuracy
        // (it never violates eventual accuracy though).
        let pattern = FailurePattern::new(2);
        let mut h = History::new(2, ProcessSet::empty());
        h.set_from(p(1), Time::new(5), ProcessSet::singleton(p(0)));
        h.set_from(p(1), Time::new(6), ProcessSet::empty());
        let params = CheckParams::new(Time::new(100));
        assert!(strong_accuracy(&pattern, &h, &params).is_err());
        assert_eq!(eventual_strong_accuracy(&pattern, &h, &params), Ok(()));
    }

    #[test]
    fn weak_accuracy_needs_one_immune_correct_process() {
        let pattern = FailurePattern::new(3);
        let mut h = History::new(3, ProcessSet::empty());
        // Everyone suspects everyone else briefly.
        h.set_from(p(0), Time::new(1), ProcessSet::singleton(p(1)));
        h.set_from(p(1), Time::new(1), ProcessSet::singleton(p(2)));
        h.set_from(p(2), Time::new(1), ProcessSet::singleton(p(0)));
        let params = CheckParams::new(Time::new(100));
        assert_eq!(
            weak_accuracy(&pattern, &h, &params),
            Err(PropertyViolation::NoImmuneProcess)
        );
        // Retract one suspicion: p1 becomes immune... no, p1 is suspected
        // by p0. Make p0 never suspect anyone instead.
        let mut h2 = History::new(3, ProcessSet::empty());
        h2.set_from(p(1), Time::new(1), ProcessSet::singleton(p(2)));
        h2.set_from(p(2), Time::new(1), ProcessSet::singleton(p(0)));
        assert_eq!(weak_accuracy(&pattern, &h2, &params), Ok(()));
    }

    #[test]
    fn late_suspicion_of_correct_breaks_eventual_strong_accuracy() {
        let pattern = FailurePattern::new(2);
        let mut h = History::new(2, ProcessSet::empty());
        // Inside the stabilization window [90, 100], p0 suspects correct p1.
        h.set_from(p(0), Time::new(95), ProcessSet::singleton(p(1)));
        let params = CheckParams::new(Time::new(100));
        assert!(matches!(
            eventual_strong_accuracy(&pattern, &h, &params),
            Err(PropertyViolation::LateSuspicion { .. })
        ));
    }

    #[test]
    fn partial_completeness_ignores_lower_index_observers() {
        // p2 crashes; p0 and p1 have lower index so they owe nothing.
        let pattern = FailurePattern::new(3).with_crash(p(2), Time::new(10));
        let h = History::new(3, ProcessSet::empty());
        let params = CheckParams::new(Time::new(100));
        assert_eq!(partial_completeness(&pattern, &h, &params), Ok(()));
        // p0 crashes; p1, p2 must suspect it.
        let pattern2 = FailurePattern::new(3).with_crash(p(0), Time::new(10));
        assert!(partial_completeness(&pattern2, &h, &params).is_err());
    }

    #[test]
    fn suspected_throughout_and_first_suspicion() {
        let mut h = History::new(2, ProcessSet::empty());
        h.set_from(p(0), Time::new(10), ProcessSet::singleton(p(1)));
        h.set_from(p(0), Time::new(20), ProcessSet::empty());
        h.set_from(p(0), Time::new(30), ProcessSet::singleton(p(1)));
        assert_eq!(
            first_suspicion(&h, p(0), p(1), Time::new(100)),
            Some(Time::new(10))
        );
        assert_eq!(first_suspicion(&h, p(0), p(1), Time::new(9)), None);
        assert!(suspected_throughout(
            &h,
            p(0),
            p(1),
            Time::new(10),
            Time::new(19)
        ));
        assert!(!suspected_throughout(
            &h,
            p(0),
            p(1),
            Time::new(10),
            Time::new(25)
        ));
        assert!(suspected_throughout(
            &h,
            p(0),
            p(1),
            Time::new(30),
            Time::new(999)
        ));
    }
}
