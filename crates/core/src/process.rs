//! Process identities and finite process sets.
//!
//! The paper's system model (§2.1) fixes a finite set of processes
//! Ω = {p₁, …, pₙ}. We represent identities as [`ProcessId`] (zero-indexed,
//! so the paper's pᵢ is `ProcessId::new(i - 1)`) and subsets of Ω as
//! [`ProcessSet`], a 128-bit bitset. All failure-detector ranges of the
//! form 2^Ω (suspect lists) use [`ProcessSet`].

use core::fmt;

/// Maximum number of processes supported by [`ProcessSet`].
pub const MAX_PROCESSES: usize = 128;

/// Identity of a process in Ω.
///
/// Identifiers are dense indices `0..n`. The paper's ordering of process
/// identities (used e.g. by the `P<` class of §6.2, where only higher-index
/// processes must detect a crash) is the natural order on the index.
///
/// # Examples
///
/// ```
/// use rfd_core::ProcessId;
///
/// let p = ProcessId::new(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(p.to_string(), "p3");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(u16);

impl ProcessId {
    /// Creates a process identity from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= MAX_PROCESSES`.
    #[must_use]
    pub fn new(index: usize) -> Self {
        assert!(
            index < MAX_PROCESSES,
            "process index {index} out of range (max {MAX_PROCESSES})"
        );
        Self(index as u16)
    }

    /// Creates a process identity from an **untrusted** dense index:
    /// `None` when `index` falls outside the `n`-process fleet (or the
    /// global [`MAX_PROCESSES`] cap).
    ///
    /// This is the constructor for wire-facing code: a corrupt or
    /// foreign datagram can claim any sender index, and the panicking
    /// [`ProcessId::new`] is forbidden there by `rfd-lint`'s
    /// wire-safety rule.
    ///
    /// # Examples
    ///
    /// ```
    /// use rfd_core::ProcessId;
    ///
    /// assert_eq!(ProcessId::try_new(3, 4), Some(ProcessId::new(3)));
    /// assert_eq!(ProcessId::try_new(4, 4), None);
    /// assert_eq!(ProcessId::try_new(9999, 4), None);
    /// ```
    #[must_use]
    pub fn try_new(index: usize, n: usize) -> Option<Self> {
        #[allow(clippy::cast_possible_truncation)]
        (index < n && index < MAX_PROCESSES).then_some(Self(index as u16))
    }

    /// Returns the dense index of this process.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<ProcessId> for usize {
    fn from(pid: ProcessId) -> Self {
        pid.index()
    }
}

/// A subset of the process universe Ω, represented as a 128-bit bitset.
///
/// `ProcessSet` is the range of all 2^Ω failure detectors of the paper
/// (§2.2): the value output by a detector module is the set of processes
/// it currently *suspects*. It is `Copy` and all operations are O(1).
///
/// # Examples
///
/// ```
/// use rfd_core::{ProcessId, ProcessSet};
///
/// let mut s = ProcessSet::empty();
/// s.insert(ProcessId::new(0));
/// s.insert(ProcessId::new(2));
/// assert!(s.contains(ProcessId::new(2)));
/// assert_eq!(s.len(), 2);
/// assert!(s.is_subset(&ProcessSet::full(4)));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
pub struct ProcessSet(u128);

impl ProcessSet {
    /// The empty set ∅.
    #[must_use]
    pub const fn empty() -> Self {
        Self(0)
    }

    /// The full universe {p₀, …, pₙ₋₁} for an `n`-process system.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_PROCESSES`.
    #[must_use]
    pub fn full(n: usize) -> Self {
        assert!(n <= MAX_PROCESSES, "process count {n} out of range");
        if n == MAX_PROCESSES {
            Self(u128::MAX)
        } else {
            Self((1u128 << n) - 1)
        }
    }

    /// The singleton set {pid}.
    #[must_use]
    pub fn singleton(pid: ProcessId) -> Self {
        Self(1u128 << pid.index())
    }

    /// Inserts a process; returns `true` if it was newly inserted.
    pub fn insert(&mut self, pid: ProcessId) -> bool {
        let bit = 1u128 << pid.index();
        let fresh = self.0 & bit == 0;
        self.0 |= bit;
        fresh
    }

    /// Removes a process; returns `true` if it was present.
    pub fn remove(&mut self, pid: ProcessId) -> bool {
        let bit = 1u128 << pid.index();
        let present = self.0 & bit != 0;
        self.0 &= !bit;
        present
    }

    /// Tests membership.
    #[must_use]
    pub fn contains(self, pid: ProcessId) -> bool {
        self.0 & (1u128 << pid.index()) != 0
    }

    /// Number of processes in the set.
    #[must_use]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Tests whether the set is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: Self) -> Self {
        Self(self.0 | other.0)
    }

    /// Set intersection.
    #[must_use]
    pub fn intersection(self, other: Self) -> Self {
        Self(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    #[must_use]
    pub fn difference(self, other: Self) -> Self {
        Self(self.0 & !other.0)
    }

    /// Complement within an `n`-process universe.
    #[must_use]
    pub fn complement_within(self, n: usize) -> Self {
        Self::full(n).difference(self)
    }

    /// Tests `self ⊆ other`.
    #[must_use]
    pub fn is_subset(self, other: &Self) -> bool {
        self.0 & !other.0 == 0
    }

    /// Tests `self ∩ other = ∅`.
    #[must_use]
    pub fn is_disjoint(self, other: &Self) -> bool {
        self.0 & other.0 == 0
    }

    /// The lowest-index member, if any.
    #[must_use]
    pub fn min(self) -> Option<ProcessId> {
        if self.0 == 0 {
            None
        } else {
            Some(ProcessId::new(self.0.trailing_zeros() as usize))
        }
    }

    /// Iterates over members in increasing index order.
    pub fn iter(self) -> Iter {
        Iter(self.0)
    }
}

/// Iterator over the members of a [`ProcessSet`], produced by
/// [`ProcessSet::iter`].
#[derive(Clone, Debug)]
pub struct Iter(u128);

impl Iterator for Iter {
    type Item = ProcessId;

    fn next(&mut self) -> Option<ProcessId> {
        if self.0 == 0 {
            None
        } else {
            let ix = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(ProcessId::new(ix))
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Iter {}

impl IntoIterator for ProcessSet {
    type Item = ProcessId;
    type IntoIter = Iter;

    fn into_iter(self) -> Iter {
        self.iter()
    }
}

impl FromIterator<ProcessId> for ProcessSet {
    fn from_iter<I: IntoIterator<Item = ProcessId>>(iter: I) -> Self {
        let mut s = Self::empty();
        for pid in iter {
            s.insert(pid);
        }
        s
    }
}

impl Extend<ProcessId> for ProcessSet {
    fn extend<I: IntoIterator<Item = ProcessId>>(&mut self, iter: I) {
        for pid in iter {
            self.insert(pid);
        }
    }
}

impl core::ops::BitOr for ProcessSet {
    type Output = Self;
    fn bitor(self, rhs: Self) -> Self {
        self.union(rhs)
    }
}

impl core::ops::BitAnd for ProcessSet {
    type Output = Self;
    fn bitand(self, rhs: Self) -> Self {
        self.intersection(rhs)
    }
}

impl core::ops::Sub for ProcessSet {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        self.difference(rhs)
    }
}

impl core::ops::BitOrAssign for ProcessSet {
    fn bitor_assign(&mut self, rhs: Self) {
        self.0 |= rhs.0;
    }
}

impl fmt::Debug for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, pid) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{pid}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_contains_only_member() {
        let s = ProcessSet::singleton(ProcessId::new(5));
        assert!(s.contains(ProcessId::new(5)));
        assert!(!s.contains(ProcessId::new(4)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn full_has_n_members() {
        assert_eq!(ProcessSet::full(7).len(), 7);
        assert_eq!(ProcessSet::full(0).len(), 0);
        assert_eq!(ProcessSet::full(MAX_PROCESSES).len(), MAX_PROCESSES);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = ProcessSet::empty();
        assert!(s.insert(ProcessId::new(3)));
        assert!(!s.insert(ProcessId::new(3)));
        assert!(s.remove(ProcessId::new(3)));
        assert!(!s.remove(ProcessId::new(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn set_algebra_identities() {
        let a: ProcessSet = [0, 1, 2].iter().map(|&i| ProcessId::new(i)).collect();
        let b: ProcessSet = [2, 3].iter().map(|&i| ProcessId::new(i)).collect();
        assert_eq!(a.union(b).len(), 4);
        assert_eq!(a.intersection(b), ProcessSet::singleton(ProcessId::new(2)));
        assert_eq!(a.difference(b).len(), 2);
        assert!(a.intersection(b).is_subset(&a));
        assert!(a.intersection(b).is_subset(&b));
    }

    #[test]
    fn complement_partitions_universe() {
        let a: ProcessSet = [1, 3].iter().map(|&i| ProcessId::new(i)).collect();
        let c = a.complement_within(5);
        assert!(a.is_disjoint(&c));
        assert_eq!(a.union(c), ProcessSet::full(5));
    }

    #[test]
    fn iteration_is_sorted() {
        let s: ProcessSet = [4, 1, 7].iter().map(|&i| ProcessId::new(i)).collect();
        let ids: Vec<usize> = s.iter().map(ProcessId::index).collect();
        assert_eq!(ids, vec![1, 4, 7]);
    }

    #[test]
    fn min_member() {
        assert_eq!(ProcessSet::empty().min(), None);
        let s: ProcessSet = [9, 2].iter().map(|&i| ProcessId::new(i)).collect();
        assert_eq!(s.min(), Some(ProcessId::new(2)));
    }

    #[test]
    fn display_formats() {
        let s: ProcessSet = [0, 2].iter().map(|&i| ProcessId::new(i)).collect();
        assert_eq!(s.to_string(), "{p0,p2}");
        assert_eq!(ProcessSet::empty().to_string(), "{}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_index_panics() {
        let _ = ProcessId::new(MAX_PROCESSES);
    }
}
