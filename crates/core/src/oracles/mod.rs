//! Oracle generators: executable failure detectors.
//!
//! The paper defines a failure detector `D` as a function mapping each
//! failure pattern `F` to a *set* of histories `D(F)` (§2.2). We make that
//! executable with the [`Oracle`] trait: a deterministic generator that,
//! given a pattern, a horizon and a `seed`, produces one history of
//! `D(F)`; the set `D(F)` is the image of the generator over all seeds.
//!
//! The module provides one generator per detector discussed in the paper:
//!
//! * [`PerfectOracle`] — class `P`, realistic.
//! * [`EventuallyPerfectOracle`] — class `◇P`, realistic (false suspicions
//!   before a global stabilization time).
//! * [`EventuallyStrongOracle`] — class `◇S \ ◇P`, realistic.
//! * [`RankedOracle`] — class `P<` (§6.2), realistic.
//! * [`ScribeOracle`] — the Scribe `C` (§3.2.1), realistic, in `P`.
//! * [`MaraboutOracle`] — the Marabout `M` (§3.2.2), **not** realistic.
//! * [`StrongOracle`] — a Strong-but-not-Perfect detector, which is
//!   necessarily **not** realistic (§6.3).
//! * [`WeakWitnessOracle`] — weak completeness (one witness per crash),
//!   the input to the completeness-boosting transformation.

mod eventually;
mod marabout;
mod perfect;
mod ranked;
mod scribe;
mod strong;
mod weak;

pub use eventually::{EventuallyPerfectOracle, EventuallyStrongOracle};
pub use marabout::MaraboutOracle;
pub use perfect::PerfectOracle;
pub use ranked::RankedOracle;
pub use scribe::{scribe_suspects, PatternPrefix, ScribeOracle};
pub use strong::StrongOracle;
pub use weak::WeakWitnessOracle;

use crate::pattern::FailurePattern;
use crate::process::{ProcessId, ProcessSet};
use crate::time::Time;
use crate::History;

/// A deterministic generator of failure detector histories.
///
/// `D(F)` of the paper is `{ generate(F, horizon, s) | s ∈ u64 }`. For
/// *realistic* detectors the generated history depends only on the prefix
/// of `F`, never on future crashes; the [`crate::realism`] module checks
/// exactly that.
pub trait Oracle {
    /// The range `R_D` of the detector.
    type Value: Clone + Eq;

    /// Human-readable detector name (for reports and tables).
    fn name(&self) -> &'static str;

    /// Generates one history of `D(pattern)` covering `[0, horizon]`.
    ///
    /// Implementations must be deterministic in `(pattern, horizon, seed)`.
    fn generate(&self, pattern: &FailurePattern, horizon: Time, seed: u64) -> History<Self::Value>;
}

/// Splitmix64-style mixer for deterministic per-(seed, key) jitter.
#[must_use]
pub(crate) fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The detection delay of a realistic crash detector: `observer` starts
/// suspecting `crashed` `base + jitter(seed, observer, crashed)` ticks
/// after the crash, the jitter drawn from `[0, jitter]`.
#[must_use]
pub(crate) fn detection_delay(
    base: u64,
    jitter: u64,
    seed: u64,
    observer: ProcessId,
    crashed: ProcessId,
) -> u64 {
    if jitter == 0 {
        return base;
    }
    base + mix(seed, observer.index() as u64, crashed.index() as u64) % (jitter + 1)
}

/// One suspicion edit in a per-observer event list.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Edit {
    /// Start suspecting the process.
    Add(ProcessId),
    /// Stop suspecting the process.
    Remove(ProcessId),
}

/// Builds a suspect-set history from per-observer edit lists.
///
/// Events may be given in any order; they are applied in time order
/// (stable: adds and removes at the same tick apply in list order).
pub(crate) fn build_suspect_history(
    n: usize,
    mut events: Vec<Vec<(Time, Edit)>>,
) -> History<ProcessSet> {
    assert_eq!(events.len(), n);
    let mut history = History::new(n, ProcessSet::empty());
    for (observer_ix, list) in events.iter_mut().enumerate() {
        list.sort_by_key(|(t, _)| *t);
        let observer = ProcessId::new(observer_ix);
        let mut current = ProcessSet::empty();
        let mut i = 0;
        while i < list.len() {
            let t = list[i].0;
            while i < list.len() && list[i].0 == t {
                match list[i].1 {
                    Edit::Add(pid) => {
                        current.insert(pid);
                    }
                    Edit::Remove(pid) => {
                        current.remove(pid);
                    }
                }
                i += 1;
            }
            history.set_from(observer, t, current);
        }
    }
    history
}

/// Convenience: the suspicion edits a *perfect* component contributes —
/// every observer starts permanently suspecting each crashed process
/// `delay_of(observer, crashed)` ticks after its crash.
pub(crate) fn perfect_edits(
    pattern: &FailurePattern,
    horizon: Time,
    mut delay_of: impl FnMut(ProcessId, ProcessId) -> u64,
) -> Vec<Vec<(Time, Edit)>> {
    let n = pattern.num_processes();
    let mut events: Vec<Vec<(Time, Edit)>> = vec![Vec::new(); n];
    for (crashed, ct) in pattern.iter() {
        let Some(ct) = ct else { continue };
        for (observer_ix, observer_events) in events.iter_mut().enumerate() {
            let observer = ProcessId::new(observer_ix);
            let at = ct.advance(delay_of(observer, crashed));
            if at <= horizon {
                observer_events.push((at, Edit::Add(crashed)));
            }
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(1, 2, 3), mix(1, 2, 3));
        assert_ne!(mix(1, 2, 3), mix(1, 3, 2));
        assert_ne!(mix(1, 2, 3), mix(2, 2, 3));
    }

    #[test]
    fn build_history_applies_edits_in_time_order() {
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        let events = vec![
            vec![
                (Time::new(10), Edit::Add(p1)),
                (Time::new(5), Edit::Add(p0)),
                (Time::new(7), Edit::Remove(p0)),
            ],
            vec![],
        ];
        let h = build_suspect_history(2, events);
        assert!(h.value(p0, Time::new(5)).contains(p0));
        assert!(!h.value(p0, Time::new(7)).contains(p0));
        assert!(h.value(p0, Time::new(10)).contains(p1));
        assert!(h.value(p1, Time::new(999)).is_empty());
    }

    #[test]
    fn same_tick_edits_apply_in_list_order() {
        let p0 = ProcessId::new(0);
        let events = vec![vec![
            (Time::new(3), Edit::Add(p0)),
            (Time::new(3), Edit::Remove(p0)),
        ]];
        let h = build_suspect_history(1, events);
        assert!(h.value(p0, Time::new(3)).is_empty());
    }
}
