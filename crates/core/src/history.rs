//! Failure detector histories (§2.2).
//!
//! A failure detector history `H` with range `R` is a function
//! `H : Ω × Φ → R`: `H(pᵢ, t)` is the value output by the module `Dᵢ` at
//! time `t`. We store each process's output as a piecewise-constant
//! timeline of change points, which is exact for every detector in this
//! crate and keeps histories compact over long horizons.

use crate::process::ProcessId;
use crate::time::Time;
use core::fmt;

/// Per-process piecewise-constant output timeline.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Timeline<R> {
    /// Change points `(t, value)`, strictly increasing in `t`, with the
    /// first entry at `Time::ZERO`.
    changes: Vec<(Time, R)>,
}

impl<R: Clone + Eq> Timeline<R> {
    fn new(initial: R) -> Self {
        Self {
            changes: vec![(Time::ZERO, initial)],
        }
    }

    fn value_at(&self, t: Time) -> &R {
        // Last change point ≤ t; the first entry is at ZERO so this
        // always exists.
        match self.changes.binary_search_by_key(&t, |(ct, _)| *ct) {
            Ok(ix) => &self.changes[ix].1,
            Err(ix) => &self.changes[ix - 1].1,
        }
    }

    fn set_from(&mut self, t: Time, value: R) {
        let last = self
            .changes
            .last()
            .expect("timeline always has an entry at ZERO");
        assert!(
            t >= last.0,
            "history updates must be appended in non-decreasing time order"
        );
        if *self.value_at(t) == value {
            return;
        }
        if last.0 == t {
            self.changes.last_mut().expect("nonempty").1 = value;
            // Collapse a no-op change that became redundant.
            let len = self.changes.len();
            if len >= 2 && self.changes[len - 2].1 == self.changes[len - 1].1 {
                self.changes.pop();
            }
        } else {
            self.changes.push((t, value));
        }
    }
}

/// A failure detector history `H : Ω × Φ → R`.
///
/// Histories are built by appending change points in non-decreasing time
/// order per process (the natural order in which an oracle or simulator
/// produces them) and queried at arbitrary times.
///
/// # Examples
///
/// ```
/// use rfd_core::{History, ProcessId, ProcessSet, Time};
///
/// let mut h: History<ProcessSet> = History::new(3, ProcessSet::empty());
/// let p0 = ProcessId::new(0);
/// // p0 starts suspecting p2 at t=5.
/// h.set_from(p0, Time::new(5), ProcessSet::singleton(ProcessId::new(2)));
/// assert!(h.value(p0, Time::new(4)).is_empty());
/// assert!(h.value(p0, Time::new(5)).contains(ProcessId::new(2)));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct History<R> {
    n: usize,
    timelines: Vec<Timeline<R>>,
}

impl<R: Clone + Eq> History<R> {
    /// Creates a history over `n` processes whose every module initially
    /// outputs `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize, initial: R) -> Self {
        assert!(n > 0, "history needs at least one process");
        Self {
            n,
            timelines: vec![Timeline::new(initial); n],
        }
    }

    /// Number of processes.
    #[must_use]
    pub fn num_processes(&self) -> usize {
        self.n
    }

    /// `H(pid, t)`: the value output by `pid`'s module at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    #[must_use]
    pub fn value(&self, pid: ProcessId, t: Time) -> &R {
        self.timelines[pid.index()].value_at(t)
    }

    /// Sets `pid`'s output to `value` from time `t` onward (until the next
    /// change point).
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range or `t` precedes an existing change
    /// point for `pid` (updates must be appended in time order).
    pub fn set_from(&mut self, pid: ProcessId, t: Time, value: R) {
        self.timelines[pid.index()].set_from(t, value);
    }

    /// Tests `∀ t₁ ≤ t, ∀ pᵢ : H(pᵢ, t₁) = H′(pᵢ, t₁)` — the prefix
    /// equality used by the realism definition (§3.1).
    #[must_use]
    pub fn eq_up_to(&self, other: &History<R>, t: Time) -> bool {
        if self.n != other.n {
            return false;
        }
        for ix in 0..self.n {
            let a = &self.timelines[ix];
            let b = &self.timelines[ix];
            let _ = (a, b);
            if !timeline_eq_up_to(&self.timelines[ix], &other.timelines[ix], t) {
                return false;
            }
        }
        true
    }

    /// All change points `(t, value)` of `pid`'s module, in time order.
    pub fn changes(&self, pid: ProcessId) -> impl Iterator<Item = (Time, &R)> + '_ {
        self.timelines[pid.index()]
            .changes
            .iter()
            .map(|(t, v)| (*t, v))
    }

    /// The largest change-point time across all processes (useful as a
    /// natural horizon when scanning a generated history).
    #[must_use]
    pub fn last_change(&self) -> Time {
        self.timelines
            .iter()
            .filter_map(|tl| tl.changes.last().map(|(t, _)| *t))
            .max()
            .unwrap_or(Time::ZERO)
    }
}

fn timeline_eq_up_to<R: Clone + Eq>(a: &Timeline<R>, b: &Timeline<R>, t: Time) -> bool {
    // Compare the sequences of change points restricted to [0, t]. Two
    // piecewise-constant functions agree on [0, t] iff their restricted
    // change sequences (after collapsing no-ops, which set_from maintains)
    // are identical.
    let cut = |tl: &Timeline<R>| -> Vec<(Time, R)> {
        tl.changes
            .iter()
            .filter(|(ct, _)| *ct <= t)
            .cloned()
            .collect()
    };
    cut(a) == cut(b)
}

impl<R: fmt::Debug> fmt::Debug for History<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "History[n={}]", self.n)?;
        for (ix, tl) in self.timelines.iter().enumerate() {
            write!(f, "  p{ix}:")?;
            for (t, v) in &tl.changes {
                write!(f, " {t}→{v:?}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::ProcessSet;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn initial_value_everywhere() {
        let h: History<u32> = History::new(2, 7);
        assert_eq!(*h.value(p(0), Time::ZERO), 7);
        assert_eq!(*h.value(p(1), Time::new(1_000_000)), 7);
    }

    #[test]
    fn change_points_take_effect_from_their_time() {
        let mut h: History<u32> = History::new(1, 0);
        h.set_from(p(0), Time::new(10), 1);
        h.set_from(p(0), Time::new(20), 2);
        assert_eq!(*h.value(p(0), Time::new(9)), 0);
        assert_eq!(*h.value(p(0), Time::new(10)), 1);
        assert_eq!(*h.value(p(0), Time::new(19)), 1);
        assert_eq!(*h.value(p(0), Time::new(20)), 2);
        assert_eq!(*h.value(p(0), Time::new(999)), 2);
    }

    #[test]
    fn redundant_updates_collapse() {
        let mut h: History<u32> = History::new(1, 0);
        h.set_from(p(0), Time::new(5), 0); // no-op
        h.set_from(p(0), Time::new(6), 1);
        h.set_from(p(0), Time::new(6), 0); // overwrite back at same tick
        assert_eq!(h.changes(p(0)).count(), 1);
        assert_eq!(*h.value(p(0), Time::new(100)), 0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn out_of_order_update_panics() {
        let mut h: History<u32> = History::new(1, 0);
        h.set_from(p(0), Time::new(10), 1);
        h.set_from(p(0), Time::new(9), 2);
    }

    #[test]
    fn prefix_equality() {
        let mut h1: History<u32> = History::new(2, 0);
        let mut h2: History<u32> = History::new(2, 0);
        h1.set_from(p(0), Time::new(5), 1);
        h2.set_from(p(0), Time::new(5), 1);
        h1.set_from(p(1), Time::new(8), 3);
        h2.set_from(p(1), Time::new(9), 3);
        assert!(h1.eq_up_to(&h2, Time::new(7)));
        assert!(!h1.eq_up_to(&h2, Time::new(8)));
    }

    #[test]
    fn suspect_set_history() {
        let mut h: History<ProcessSet> = History::new(2, ProcessSet::empty());
        h.set_from(p(1), Time::new(3), ProcessSet::singleton(p(0)));
        assert!(h.value(p(1), Time::new(3)).contains(p(0)));
        assert!(h.value(p(0), Time::new(3)).is_empty());
        assert_eq!(h.last_change(), Time::new(3));
    }
}
