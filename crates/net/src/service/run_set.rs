//! An exact set of `u64`s stored as runs of consecutive values.

use std::collections::BTreeMap;

/// A set of `u64`s kept as maximal runs of consecutive values: each
/// run's first value maps to its last, inclusive. Dense values — request
/// ids, as a decision service usually sees them — collapse to a few
/// runs, so the set costs O(runs), not O(values); sparse values cost
/// what a `BTreeSet` would. The ends are inclusive so that `u64::MAX`
/// is a member like any other (a half-open end past it would overflow).
#[derive(Debug, Default)]
pub(crate) struct RunSet {
    runs: BTreeMap<u64, u64>,
}

impl RunSet {
    /// Whether `value` is in the set.
    pub(crate) fn contains(&self, value: u64) -> bool {
        self.runs
            .range(..=value)
            .next_back()
            .is_some_and(|(_, &last)| value <= last)
    }

    /// Adds `value`, merging it with the run that ends just below it and
    /// the one that starts just above it. Returns whether it was new.
    pub(crate) fn insert(&mut self, value: u64) -> bool {
        let mut first = value;
        if let Some((&start, &last)) = self.runs.range(..=value).next_back() {
            if value <= last {
                return false;
            }
            // `last < value`, so `last + 1` cannot overflow.
            if last + 1 == value {
                first = start;
            }
        }
        let last = value
            .checked_add(1)
            .and_then(|next| self.runs.remove(&next))
            .unwrap_or(value);
        self.runs.insert(first, last);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn runs(set: &RunSet) -> Vec<(u64, u64)> {
        set.runs
            .iter()
            .map(|(&first, &last)| (first, last))
            .collect()
    }

    #[test]
    fn an_empty_set_holds_nothing() {
        let set = RunSet::default();
        assert!(!set.contains(0));
        assert!(!set.contains(u64::MAX));
    }

    #[test]
    fn a_duplicate_insert_changes_nothing() {
        let mut set = RunSet::default();
        assert!(set.insert(7));
        assert!(!set.insert(7));
        assert_eq!(runs(&set), [(7, 7)]);
    }

    #[test]
    fn inserts_merge_on_the_left_the_right_and_both_sides() {
        let mut set = RunSet::default();
        set.insert(10);
        set.insert(11);
        assert_eq!(runs(&set), [(10, 11)], "left");
        set.insert(9);
        assert_eq!(runs(&set), [(9, 11)], "right");
        set.insert(13);
        assert_eq!(runs(&set), [(9, 11), (13, 13)], "a gap stays a gap");
        set.insert(12);
        assert_eq!(runs(&set), [(9, 13)], "both");
        assert!(!set.contains(8) && !set.contains(14));
        assert!((9..=13).all(|v| set.contains(v)));
    }

    #[test]
    fn the_extreme_values_are_members_like_any_other() {
        let mut set = RunSet::default();
        set.insert(u64::MAX);
        assert!(set.contains(u64::MAX), "an inclusive end keeps u64::MAX");
        assert!(!set.contains(u64::MAX - 1));
        set.insert(u64::MAX - 1);
        assert_eq!(runs(&set), [(u64::MAX - 1, u64::MAX)]);
        set.insert(0);
        set.insert(1);
        assert_eq!(runs(&set), [(0, 1), (u64::MAX - 1, u64::MAX)]);
        assert!(set.contains(0) && !set.contains(2));
    }

    /// A value near one of a few anchors (both ends of the range
    /// included), so runs meet and merge often.
    fn clustered() -> impl Strategy<Value = u64> {
        (0usize..3, 0u64..=8).prop_map(|(anchor, offset)| [0, 1_000, u64::MAX - 8][anchor] + offset)
    }

    proptest! {
        /// Any interleaving of inserts and lookups answers exactly as a
        /// `BTreeSet`, and the runs stay disjoint, ordered and maximal.
        #[test]
        fn matches_a_btreeset(ops in prop::collection::vec((any::<bool>(), clustered()), 0..200)) {
            let (mut set, mut reference) = (RunSet::default(), BTreeSet::new());
            for (insert, value) in ops {
                if insert {
                    prop_assert_eq!(set.insert(value), reference.insert(value));
                } else {
                    prop_assert_eq!(set.contains(value), reference.contains(&value));
                }
            }
            let runs = runs(&set);
            for pair in runs.windows(2) {
                prop_assert!(pair[0].1 + 1 < pair[1].0, "{:?} are not maximal", pair);
            }
            let members: Vec<u64> = runs.iter().flat_map(|&(first, last)| first..=last).collect();
            prop_assert_eq!(members, reference.into_iter().collect::<Vec<_>>());
        }
    }
}
