//! Failure patterns (§2.1).
//!
//! A failure pattern is a function `F : Φ → 2^Ω` where `F(t)` is the set of
//! processes that have crashed *through* time `t`. Crashes are permanent
//! (crash-stop, no recovery), so `F` is monotone: `t ≤ t′ ⇒ F(t) ⊆ F(t′)`.
//! We encode a pattern by the (optional) crash time of each process, which
//! is the unique compact representation of a monotone pattern.
//!
//! The *environment* of the paper is the set of **all** failure patterns —
//! the number of faulty processes is unbounded (any `0..=n` processes may
//! crash). [`FailurePattern::random`] samples from that environment.

use crate::process::{ProcessId, ProcessSet, MAX_PROCESSES};
use crate::time::Time;
use core::fmt;
use rand::Rng;

/// A crash-stop failure pattern `F : Φ → 2^Ω` over `n` processes.
///
/// # Examples
///
/// ```
/// use rfd_core::{FailurePattern, ProcessId, Time};
///
/// // 4 processes; p1 crashes at t=10.
/// let f = FailurePattern::new(4).with_crash(ProcessId::new(1), Time::new(10));
/// assert!(!f.is_crashed(ProcessId::new(1), Time::new(9)));
/// assert!(f.is_crashed(ProcessId::new(1), Time::new(10)));
/// assert_eq!(f.correct().len(), 3);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct FailurePattern {
    n: usize,
    crash_times: Vec<Option<Time>>,
}

impl FailurePattern {
    /// Creates the all-correct pattern over `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > MAX_PROCESSES`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(
            n > 0 && n <= MAX_PROCESSES,
            "process count {n} out of range"
        );
        Self {
            n,
            crash_times: vec![None; n],
        }
    }

    /// Number of processes in Ω.
    #[must_use]
    pub fn num_processes(&self) -> usize {
        self.n
    }

    /// Schedules `pid` to crash at time `t` (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range for this pattern.
    #[must_use]
    pub fn with_crash(mut self, pid: ProcessId, t: Time) -> Self {
        self.set_crash(pid, t);
        self
    }

    /// Schedules `pid` to crash at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range for this pattern.
    pub fn set_crash(&mut self, pid: ProcessId, t: Time) {
        assert!(pid.index() < self.n, "{pid} out of range (n={})", self.n);
        self.crash_times[pid.index()] = Some(t);
    }

    /// Removes any scheduled crash of `pid`.
    pub fn clear_crash(&mut self, pid: ProcessId) {
        assert!(pid.index() < self.n, "{pid} out of range (n={})", self.n);
        self.crash_times[pid.index()] = None;
    }

    /// The crash time of `pid`, or `None` if `pid` is correct in `F`.
    #[must_use]
    pub fn crash_time(&self, pid: ProcessId) -> Option<Time> {
        self.crash_times.get(pid.index()).copied().flatten()
    }

    /// `F(t)`: the processes crashed through time `t`.
    #[must_use]
    pub fn crashed_at(&self, t: Time) -> ProcessSet {
        let mut s = ProcessSet::empty();
        for (ix, ct) in self.crash_times.iter().enumerate() {
            if matches!(ct, Some(c) if *c <= t) {
                s.insert(ProcessId::new(ix));
            }
        }
        s
    }

    /// Whether `pid` has crashed through time `t` (i.e. `pid ∈ F(t)`).
    #[must_use]
    pub fn is_crashed(&self, pid: ProcessId, t: Time) -> bool {
        matches!(self.crash_time(pid), Some(c) if c <= t)
    }

    /// `correct(F)`: the processes that never crash.
    #[must_use]
    pub fn correct(&self) -> ProcessSet {
        let mut s = ProcessSet::empty();
        for (ix, ct) in self.crash_times.iter().enumerate() {
            if ct.is_none() {
                s.insert(ProcessId::new(ix));
            }
        }
        s
    }

    /// `faulty(F)`: the processes that crash at some time.
    #[must_use]
    pub fn faulty(&self) -> ProcessSet {
        self.correct().complement_within(self.n)
    }

    /// Number of faulty processes in the pattern.
    #[must_use]
    pub fn num_faulty(&self) -> usize {
        self.faulty().len()
    }

    /// Tests whether `self` and `other` agree up to (and including) time
    /// `t`: `∀ t₁ ≤ t, F(t₁) = F′(t₁)`.
    ///
    /// This is the similarity relation used by the realism definition
    /// (§3.1): a realistic detector must not distinguish two patterns that
    /// share a prefix.
    #[must_use]
    pub fn agrees_up_to(&self, other: &FailurePattern, t: Time) -> bool {
        if self.n != other.n {
            return false;
        }
        for ix in 0..self.n {
            let a = self.crash_times[ix];
            let b = other.crash_times[ix];
            let a_vis = matches!(a, Some(c) if c <= t);
            let b_vis = matches!(b, Some(c) if c <= t);
            match (a_vis, b_vis) {
                (true, true) => {
                    if a != b {
                        return false;
                    }
                }
                (false, false) => {}
                _ => return false,
            }
        }
        true
    }

    /// Returns the pattern truncated at `t`: crashes after `t` are erased.
    ///
    /// The result is the minimal pattern agreeing with `self` up to `t` in
    /// which every process not yet crashed is correct — the "everyone else
    /// survives" extension used in the paper's indistinguishability
    /// arguments (Lemma 4.1, §6.3).
    #[must_use]
    pub fn prefix(&self, t: Time) -> FailurePattern {
        let mut p = FailurePattern::new(self.n);
        for ix in 0..self.n {
            if let Some(c) = self.crash_times[ix] {
                if c <= t {
                    p.crash_times[ix] = Some(c);
                }
            }
        }
        p
    }

    /// Samples a pattern from the unbounded-failure environment: each of a
    /// uniformly chosen number of faulty processes (`0..=max_faulty`)
    /// crashes at a uniform time in `[0, horizon)`.
    ///
    /// # Panics
    ///
    /// Panics if `max_faulty > n` or `horizon == Time::ZERO`.
    #[must_use]
    pub fn random<R: Rng + ?Sized>(
        n: usize,
        max_faulty: usize,
        horizon: Time,
        rng: &mut R,
    ) -> Self {
        assert!(max_faulty <= n, "max_faulty {max_faulty} exceeds n={n}");
        assert!(horizon > Time::ZERO, "horizon must be positive");
        let mut p = FailurePattern::new(n);
        let f = rng.gen_range(0..=max_faulty);
        let mut chosen = ProcessSet::empty();
        while chosen.len() < f {
            chosen.insert(ProcessId::new(rng.gen_range(0..n)));
        }
        for pid in chosen {
            let t = Time::new(rng.gen_range(0..horizon.ticks()));
            p.set_crash(pid, t);
        }
        p
    }

    /// Iterates over `(ProcessId, Option<Time>)` crash entries.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, Option<Time>)> + '_ {
        self.crash_times
            .iter()
            .enumerate()
            .map(|(ix, ct)| (ProcessId::new(ix), *ct))
    }
}

impl fmt::Debug for FailurePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F[n={};", self.n)?;
        let mut any = false;
        for (pid, ct) in self.iter() {
            if let Some(c) = ct {
                if any {
                    write!(f, ",")?;
                }
                write!(f, " {pid}@{c}")?;
                any = true;
            }
        }
        if !any {
            write!(f, " all-correct")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for FailurePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn all_correct_by_default() {
        let f = FailurePattern::new(5);
        assert_eq!(f.correct().len(), 5);
        assert!(f.faulty().is_empty());
        assert_eq!(f.num_faulty(), 0);
        assert!(f.crashed_at(Time::new(1_000)).is_empty());
    }

    #[test]
    fn crash_visibility_is_monotone() {
        let f = FailurePattern::new(3).with_crash(p(2), Time::new(7));
        assert!(!f.is_crashed(p(2), Time::new(6)));
        assert!(f.is_crashed(p(2), Time::new(7)));
        assert!(f.is_crashed(p(2), Time::new(1_000_000)));
        assert!(f
            .crashed_at(Time::new(6))
            .is_subset(&f.crashed_at(Time::new(8))));
    }

    #[test]
    fn faulty_and_correct_partition_omega() {
        let f = FailurePattern::new(4)
            .with_crash(p(0), Time::new(1))
            .with_crash(p(3), Time::new(9));
        assert!(f.faulty().is_disjoint(&f.correct()));
        assert_eq!(f.faulty().union(f.correct()), ProcessSet::full(4));
    }

    #[test]
    fn agreement_up_to_prefix_time() {
        // The paper's Marabout example (§3.2.2): F1 = p0 crashes at 10,
        // F2 = all correct. They agree up to time 9 but not at 10.
        let f1 = FailurePattern::new(4).with_crash(p(0), Time::new(10));
        let f2 = FailurePattern::new(4);
        assert!(f1.agrees_up_to(&f2, Time::new(9)));
        assert!(!f1.agrees_up_to(&f2, Time::new(10)));
        assert!(f1.agrees_up_to(&f1.clone(), Time::MAX));
    }

    #[test]
    fn agreement_requires_equal_crash_times() {
        let f1 = FailurePattern::new(2).with_crash(p(0), Time::new(3));
        let f2 = FailurePattern::new(2).with_crash(p(0), Time::new(5));
        assert!(f1.agrees_up_to(&f2, Time::new(2)));
        assert!(!f1.agrees_up_to(&f2, Time::new(3)));
        assert!(!f1.agrees_up_to(&f2, Time::new(4)));
        // Different sizes never agree.
        let f3 = FailurePattern::new(3);
        assert!(!f1.agrees_up_to(&f3, Time::ZERO));
    }

    #[test]
    fn prefix_erases_future_crashes() {
        let f = FailurePattern::new(3)
            .with_crash(p(0), Time::new(2))
            .with_crash(p(1), Time::new(8));
        let pre = f.prefix(Time::new(5));
        assert_eq!(pre.crash_time(p(0)), Some(Time::new(2)));
        assert_eq!(pre.crash_time(p(1)), None);
        assert!(f.agrees_up_to(&pre, Time::new(7)));
        assert!(!f.agrees_up_to(&pre, Time::new(8)));
    }

    #[test]
    fn random_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let f = FailurePattern::random(8, 8, Time::new(100), &mut rng);
            assert!(f.num_faulty() <= 8);
            for (_, ct) in f.iter() {
                if let Some(c) = ct {
                    assert!(c < Time::new(100));
                }
            }
        }
    }

    #[test]
    fn random_with_zero_max_faulty_is_all_correct() {
        let mut rng = StdRng::seed_from_u64(1);
        let f = FailurePattern::random(6, 0, Time::new(10), &mut rng);
        assert_eq!(f.num_faulty(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_processes_panics() {
        let _ = FailurePattern::new(0);
    }
}
