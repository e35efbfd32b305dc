//! The replicated decision log: totally ordered decisions, each stamped
//! with the membership view it was decided in, plus the reconciliation
//! rule post-heal state transfer uses to merge divergent logs, and
//! snapshot-based prefix compaction for fast rejoin.
//!
//! Compaction keeps indexing **absolute**: [`ReplicatedLog::len`] and
//! [`Decision::index`] always count from slot 0, and
//! [`ReplicatedLog::first_index`] marks where the retained tail starts.
//! Everything below `first_index` is summarised by a chained digest, so
//! two replicas can prove their compacted prefixes equal without
//! keeping them ([`ReplicatedLog::digest_at`]).

use crate::membership::ViewStamp;

/// FNV-1a offset basis: the digest chain's starting value.
const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime: the digest chain's mixing multiplier.
const DIGEST_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one big-endian word into the FNV-1a digest chain.
fn fold_word(mut digest: u64, word: u64) -> u64 {
    for byte in word.to_be_bytes() {
        digest = (digest ^ u64::from(byte)).wrapping_mul(DIGEST_PRIME);
    }
    digest
}

/// Folds one decision (index, value and full view stamp) into the
/// digest chain. Order-sensitive by construction: swapping two entries
/// changes the digest.
fn fold_decision(digest: u64, decision: &Decision) -> u64 {
    let members = decision.view.members;
    let mut d = fold_word(digest, decision.index);
    d = fold_word(d, decision.value);
    d = fold_word(d, decision.view.id);
    d = fold_word(d, members as u64);
    fold_word(d, (members >> 64) as u64)
}

/// One totally ordered decision of the service: the `index`-th entry of
/// every replica's log holds the same `value` (uniform agreement), and
/// records the view it was decided in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Position in the total order.
    pub index: u64,
    /// The decided command.
    pub value: u64,
    /// The view the decision was taken in.
    pub view: ViewStamp,
}

/// What one [`ReplicatedLog::merge_suffix`] reconciliation did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Remote entries adopted into the local log.
    pub adopted: u64,
    /// Local entries discarded to the total view order. Non-zero only
    /// if two replicas actually decided different values at one index —
    /// impossible while the consensus layer's (global-majority) safety
    /// holds, so this doubles as a safety alarm.
    pub lost: u64,
}

/// A compact, view-stamped summary of a log prefix: everything below
/// `upto` collapsed to a chained digest. Installing a snapshot
/// ([`ReplicatedLog::install_snapshot`]) replaces a rejoiner's log with
/// this summary in O(1), after which only the short retained tail needs
/// transferring — the heart of fast rejoin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// The summary covers decisions `[0, upto)`.
    pub upto: u64,
    /// Chained FNV-1a digest of the covered prefix (see
    /// [`ReplicatedLog::digest_at`]).
    pub digest: u64,
    /// The view of the last covered decision (the `Default` stamp if
    /// the snapshot covers nothing).
    pub view: ViewStamp,
}

/// An append-only decision log with prefix-consistent merging and
/// snapshot compaction.
///
/// Replicas normally grow their logs through consensus decisions and
/// decision relays; after a partition heals, the merged sides exchange
/// suffixes and [`ReplicatedLog::merge_suffix`] reconciles them:
/// matching entries are skipped (prefix consistency), gaps are adopted,
/// and a genuinely conflicting entry — two different values at one index
/// — hands the whole suffix to the side whose entry was decided in the
/// higher-ranked view ([`ViewStamp`]'s total order).
///
/// Once a prefix is stable on every replica it can be compacted away
/// with [`ReplicatedLog::truncate_prefix`]; a rejoiner older than the
/// retained tail catches up by installing a [`Snapshot`] instead of
/// replaying history ([`ReplicatedLog::install_snapshot`]).
#[derive(Clone, Debug)]
pub struct ReplicatedLog {
    entries: Vec<Decision>,
    base: u64,
    base_digest: u64,
    base_view: ViewStamp,
    transferred: u64,
    lost: u64,
    snapshots_installed: u64,
}

impl Default for ReplicatedLog {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            base: 0,
            // Every replica chains from the same FNV-1a offset basis,
            // so equal compacted prefixes yield equal digests.
            base_digest: DIGEST_SEED,
            base_view: ViewStamp::default(),
            transferred: 0,
            lost: 0,
            snapshots_installed: 0,
        }
    }
}

impl ReplicatedLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of decisions in the log, **including** the compacted
    /// prefix — indices stay absolute under compaction.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    /// Whether the log has no decisions yet (a compacted log is *not*
    /// empty — its decisions happened, they are just summarised).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first retained index: decisions below this are compacted
    /// into the digest chain and no longer individually readable.
    #[must_use]
    pub fn first_index(&self) -> u64 {
        self.base
    }

    /// The decision at `index`, if decided **and** still retained.
    #[must_use]
    pub fn get(&self, index: u64) -> Option<&Decision> {
        let slot = index.checked_sub(self.base)?;
        usize::try_from(slot).ok().and_then(|i| self.entries.get(i))
    }

    /// All retained decisions, in index order (the compacted prefix is
    /// summarised by the digest chain instead).
    #[must_use]
    pub fn entries(&self) -> &[Decision] {
        &self.entries
    }

    /// The retained decided values, in index order.
    #[must_use]
    pub fn values(&self) -> Vec<u64> {
        self.entries.iter().map(|d| d.value).collect()
    }

    /// The retained suffix from `index` on (empty if the log is
    /// shorter). If `index` falls inside the compacted prefix this is
    /// the whole retained tail — callers that need the *complete*
    /// history from `index` must check [`ReplicatedLog::first_index`]
    /// and answer with a snapshot instead.
    #[must_use]
    pub fn suffix(&self, index: u64) -> &[Decision] {
        let from = usize::try_from(index.saturating_sub(self.base))
            .unwrap_or(usize::MAX)
            .min(self.entries.len());
        self.entries.get(from..).unwrap_or(&[])
    }

    /// Entries adopted via state transfer (suffix merges and snapshot
    /// installs) over the log's lifetime.
    #[must_use]
    pub fn transferred(&self) -> u64 {
        self.transferred
    }

    /// Entries discarded to the total view order over the log's
    /// lifetime (zero while consensus safety holds).
    #[must_use]
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Snapshots adopted via [`ReplicatedLog::install_snapshot`] over
    /// the log's lifetime.
    #[must_use]
    pub fn snapshots_installed(&self) -> u64 {
        self.snapshots_installed
    }

    /// The chained digest of the prefix `[0, index)`, or `None` if
    /// `index` is below the compacted base (those entries are gone) or
    /// beyond the log end. Two replicas whose `digest_at(i)` agree held
    /// bit-identical decisions over `[0, i)` — the compaction-era form
    /// of prefix consistency.
    #[must_use]
    pub fn digest_at(&self, index: u64) -> Option<u64> {
        let skip = index.checked_sub(self.base)?;
        let skip = usize::try_from(skip).ok()?;
        if skip > self.entries.len() {
            return None;
        }
        let mut digest = self.base_digest;
        for decision in self.entries.iter().take(skip) {
            digest = fold_decision(digest, decision);
        }
        Some(digest)
    }

    /// A [`Snapshot`] summarising the prefix `[0, upto)`, or `None` if
    /// `upto` is below the compacted base or beyond the log end.
    ///
    /// ```
    /// use rfd_net::service::{ReplicatedLog, ViewStamp};
    ///
    /// let mut log = ReplicatedLog::new();
    /// let view = ViewStamp { id: 1, members: 0b1111 };
    /// for value in [10, 20, 30, 40] {
    ///     log.append(value, view);
    /// }
    /// let snap = log.snapshot(3).unwrap();
    /// assert_eq!(snap.upto, 3);
    /// assert_eq!(snap.view, view);
    /// assert_eq!(Some(snap.digest), log.digest_at(3));
    /// ```
    #[must_use]
    pub fn snapshot(&self, upto: u64) -> Option<Snapshot> {
        let digest = self.digest_at(upto)?;
        let view = if upto == self.base {
            self.base_view
        } else {
            let last = upto.checked_sub(self.base + 1)?;
            let last = usize::try_from(last).ok()?;
            self.entries.get(last)?.view
        };
        Some(Snapshot { upto, digest, view })
    }

    /// Compacts the prefix `[first_index, upto)` into the digest chain,
    /// returning how many entries were dropped. Indices stay absolute:
    /// `len()` is unchanged, reads below `upto` now return `None`.
    /// Clamped to the log end; a no-op below the current base.
    ///
    /// ```
    /// use rfd_net::service::{ReplicatedLog, ViewStamp};
    ///
    /// let mut log = ReplicatedLog::new();
    /// let view = ViewStamp { id: 0, members: 0b111 };
    /// for value in [10, 20, 30, 40] {
    ///     log.append(value, view);
    /// }
    /// let digest_before = log.digest_at(4);
    /// assert_eq!(log.truncate_prefix(2), 2);
    /// assert_eq!(log.first_index(), 2);
    /// assert_eq!(log.len(), 4); // absolute length is unchanged
    /// assert!(log.get(1).is_none()); // compacted away…
    /// assert_eq!(log.get(2).unwrap().value, 30); // …the tail remains
    /// assert_eq!(log.digest_at(4), digest_before); // digest chain too
    /// ```
    pub fn truncate_prefix(&mut self, upto: u64) -> u64 {
        let upto = upto.min(self.len());
        let Some(drop) = upto.checked_sub(self.base) else {
            return 0;
        };
        let Ok(drop) = usize::try_from(drop) else {
            return 0;
        };
        if drop == 0 {
            return 0;
        }
        for dropped in self.entries.drain(..drop) {
            self.base_digest = fold_decision(self.base_digest, &dropped);
            self.base_view = dropped.view;
        }
        self.base = upto;
        drop as u64
    }

    /// Adopts a remote [`Snapshot`] that extends past this log's end,
    /// replacing local state with the summary: the log jumps to
    /// `snapshot.upto` with an empty retained tail. Returns how many
    /// decisions the snapshot newly covered, or `None` (state
    /// untouched) if the snapshot does not extend the log — the defence
    /// against stale or forged snapshots.
    ///
    /// ```
    /// use rfd_net::service::{ReplicatedLog, ViewStamp};
    ///
    /// let mut veteran = ReplicatedLog::new();
    /// let view = ViewStamp { id: 2, members: 0b1111 };
    /// for value in [7, 8, 9] {
    ///     veteran.append(value, view);
    /// }
    /// let snap = veteran.snapshot(3).unwrap();
    ///
    /// let mut rejoiner = ReplicatedLog::new();
    /// assert_eq!(rejoiner.install_snapshot(&snap), Some(3));
    /// assert_eq!(rejoiner.len(), 3);
    /// // The compacted prefixes are provably identical:
    /// assert_eq!(rejoiner.digest_at(3), veteran.digest_at(3));
    /// // A snapshot that extends nothing is rejected:
    /// assert_eq!(rejoiner.install_snapshot(&snap), None);
    /// ```
    pub fn install_snapshot(&mut self, snapshot: &Snapshot) -> Option<u64> {
        let covered = snapshot.upto.checked_sub(self.len())?;
        if covered == 0 {
            return None;
        }
        self.entries.clear();
        self.base = snapshot.upto;
        self.base_digest = snapshot.digest;
        self.base_view = snapshot.view;
        self.transferred += covered;
        self.snapshots_installed += 1;
        Some(covered)
    }

    /// Appends the next decision, returning its (absolute) index.
    pub fn append(&mut self, value: u64, view: ViewStamp) -> u64 {
        let index = self.len();
        self.entries.push(Decision { index, value, view });
        index
    }

    /// Reconciles a remote contiguous run of `(value, view_id,
    /// view_members)` entries starting at index `start` into this log:
    ///
    /// * entries below the compacted base are skipped (already covered
    ///   by the digest chain);
    /// * entries matching the local value are skipped (already agreed);
    /// * entries extending the log are adopted;
    /// * entries beyond the current end + run (a gap) are ignored — the
    ///   caller requests the missing prefix instead;
    /// * a conflicting entry resolves by [`ViewStamp`] order: if the
    ///   remote view ranks higher, the local suffix from that index is
    ///   discarded (counted in [`MergeOutcome::lost`]) and the remote
    ///   run adopted; otherwise the rest of the remote run is ignored.
    pub fn merge_suffix(&mut self, start: u64, incoming: &[(u64, u64, u128)]) -> MergeOutcome {
        let mut outcome = MergeOutcome::default();
        for (offset, &(value, view_id, view_members)) in incoming.iter().enumerate() {
            let Some(index) = start.checked_add(offset as u64) else {
                break;
            };
            let view = ViewStamp {
                id: view_id,
                members: view_members,
            };
            if index < self.base {
                continue;
            }
            if index > self.len() {
                break;
            }
            if index == self.len() {
                self.entries.push(Decision { index, value, view });
                outcome.adopted += 1;
                continue;
            }
            let Some(&local) = self.get(index) else {
                break;
            };
            if local.value == value {
                continue;
            }
            if view > local.view {
                let dropped = self.len() - index;
                outcome.lost += dropped;
                self.entries.truncate((index - self.base) as usize);
                self.entries.push(Decision { index, value, view });
                outcome.adopted += 1;
            } else {
                break;
            }
        }
        self.transferred += outcome.adopted;
        self.lost += outcome.lost;
        outcome
    }

    /// Whether this log and `other` agree on every index both have
    /// decided **and retained** — the pairwise form of uniform
    /// agreement. Compacted prefixes are compared by digest where both
    /// sides can still compute one.
    #[must_use]
    pub fn prefix_consistent_with(&self, other: &ReplicatedLog) -> bool {
        let start = self.base.max(other.base);
        if let (Some(a), Some(b)) = (self.digest_at(start), other.digest_at(start)) {
            if a != b {
                return false;
            }
        }
        let mine = usize::try_from(start - self.base).unwrap_or(usize::MAX);
        let theirs = usize::try_from(start - other.base).unwrap_or(usize::MAX);
        self.entries
            .iter()
            .skip(mine)
            .zip(other.entries.iter().skip(theirs))
            .all(|(a, b)| a.value == b.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(id: u64, members: u128) -> ViewStamp {
        ViewStamp { id, members }
    }

    #[test]
    fn append_assigns_consecutive_indices() {
        let mut log = ReplicatedLog::new();
        assert_eq!(log.append(10, stamp(0, 0b11)), 0);
        assert_eq!(log.append(20, stamp(1, 0b01)), 1);
        assert_eq!(log.values(), vec![10, 20]);
        assert_eq!(log.get(1).unwrap().view.id, 1);
        assert!(log.get(2).is_none());
    }

    #[test]
    fn merge_adopts_missing_suffix_and_skips_agreed_prefix() {
        let mut log = ReplicatedLog::new();
        log.append(10, stamp(0, 0b111));
        let outcome = log.merge_suffix(0, &[(10, 0, 0b111), (20, 1, 0b011), (30, 1, 0b011)]);
        assert_eq!(
            outcome,
            MergeOutcome {
                adopted: 2,
                lost: 0
            }
        );
        assert_eq!(log.values(), vec![10, 20, 30]);
        assert_eq!(log.transferred(), 2);
        assert_eq!(log.lost(), 0);
    }

    #[test]
    fn merge_ignores_a_gapped_run() {
        let mut log = ReplicatedLog::new();
        log.append(10, stamp(0, 0b11));
        // A run starting at index 3 would leave a hole at 1..3.
        let outcome = log.merge_suffix(3, &[(40, 2, 0b11)]);
        assert_eq!(outcome, MergeOutcome::default());
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn conflicting_suffix_resolves_to_the_higher_view() {
        // Local: decided 20,21 in view (1, {p2,p3}); remote decided
        // 30,31 at the same indices in view (1, {p0,p1}) — same id, and
        // {p2,p3} = 0b1100 outranks {p0,p1} = 0b0011 on the bitmap
        // tiebreaker, so the local suffix must survive...
        let mut local = ReplicatedLog::new();
        local.append(20, stamp(1, 0b1100));
        local.append(21, stamp(1, 0b1100));
        let outcome = local.merge_suffix(0, &[(30, 1, 0b0011), (31, 1, 0b0011)]);
        assert_eq!(outcome, MergeOutcome::default());
        assert_eq!(local.values(), vec![20, 21]);

        // ...and the mirror side loses its whole conflicting suffix.
        let mut remote = ReplicatedLog::new();
        remote.append(30, stamp(1, 0b0011));
        remote.append(31, stamp(1, 0b0011));
        let outcome = remote.merge_suffix(0, &[(20, 1, 0b1100), (21, 1, 0b1100)]);
        assert_eq!(
            outcome,
            MergeOutcome {
                adopted: 2,
                lost: 2
            }
        );
        assert_eq!(remote.values(), vec![20, 21]);
        assert_eq!(remote.lost(), 2);
    }

    #[test]
    fn higher_view_id_beats_any_bitmap() {
        let mut log = ReplicatedLog::new();
        log.append(20, stamp(1, u128::MAX));
        let outcome = log.merge_suffix(0, &[(30, 2, 0b1)]);
        assert_eq!(outcome.adopted, 1);
        assert_eq!(outcome.lost, 1);
        assert_eq!(log.values(), vec![30]);
    }

    #[test]
    fn prefix_consistency_is_checked_on_the_common_prefix() {
        let mut a = ReplicatedLog::new();
        let mut b = ReplicatedLog::new();
        a.append(1, stamp(0, 0b11));
        a.append(2, stamp(0, 0b11));
        b.append(1, stamp(0, 0b11));
        assert!(a.prefix_consistent_with(&b));
        assert!(b.prefix_consistent_with(&a));
        b.append(9, stamp(0, 0b11));
        assert!(!a.prefix_consistent_with(&b));
    }

    #[test]
    fn truncate_prefix_keeps_absolute_indexing() {
        let mut log = ReplicatedLog::new();
        for v in [10, 20, 30, 40, 50] {
            log.append(v, stamp(0, 0b111));
        }
        assert_eq!(log.truncate_prefix(3), 3);
        assert_eq!(log.first_index(), 3);
        assert_eq!(log.len(), 5);
        assert!(!log.is_empty());
        assert!(log.get(2).is_none());
        assert_eq!(log.get(3).map(|d| d.value), Some(40));
        assert_eq!(log.get(4).map(|d| (d.index, d.value)), Some((4, 50)));
        assert_eq!(log.values(), vec![40, 50]);
        // Appends continue at the absolute tail.
        assert_eq!(log.append(60, stamp(0, 0b111)), 5);
        // Idempotent / clamped edges.
        assert_eq!(log.truncate_prefix(3), 0);
        assert_eq!(log.truncate_prefix(1), 0);
        assert_eq!(log.truncate_prefix(u64::MAX), 3);
        assert_eq!(log.len(), 6);
        assert!(log.entries().is_empty());
    }

    #[test]
    fn digest_chain_survives_compaction() {
        let mut log = ReplicatedLog::new();
        for v in [10, 20, 30, 40] {
            log.append(v, stamp(1, 0b1111));
        }
        let d2 = log.digest_at(2);
        let d4 = log.digest_at(4);
        assert!(d2.is_some() && d4.is_some());
        assert_ne!(d2, d4);
        log.truncate_prefix(2);
        assert_eq!(log.digest_at(2), d2);
        assert_eq!(log.digest_at(4), d4);
        // Below the base the prefix is gone: no digest.
        assert_eq!(log.digest_at(1), None);
        // Beyond the end: no digest either.
        assert_eq!(log.digest_at(5), None);
    }

    #[test]
    fn digest_is_order_and_value_sensitive() {
        let mut a = ReplicatedLog::new();
        let mut b = ReplicatedLog::new();
        a.append(1, stamp(0, 0b11));
        a.append(2, stamp(0, 0b11));
        b.append(2, stamp(0, 0b11));
        b.append(1, stamp(0, 0b11));
        assert_ne!(a.digest_at(2), b.digest_at(2));
    }

    #[test]
    fn snapshot_install_reproduces_the_compacted_prefix() {
        let mut veteran = ReplicatedLog::new();
        for v in 0..10 {
            veteran.append(100 + v, stamp(v, 0b1111));
        }
        veteran.truncate_prefix(6);
        let snap = veteran.snapshot(6).unwrap();
        assert_eq!(snap.view, stamp(5, 0b1111));

        let mut rejoiner = ReplicatedLog::new();
        rejoiner.append(100, stamp(0, 0b1111)); // short stale prefix
        assert_eq!(rejoiner.install_snapshot(&snap), Some(5));
        assert_eq!(rejoiner.len(), 6);
        assert_eq!(rejoiner.first_index(), 6);
        assert_eq!(rejoiner.digest_at(6), veteran.digest_at(6));
        assert_eq!(rejoiner.snapshots_installed(), 1);

        // Pull the retained tail as a plain suffix merge; the logs end
        // identical.
        let tail: Vec<_> = veteran
            .suffix(6)
            .iter()
            .map(|d| (d.value, d.view.id, d.view.members))
            .collect();
        rejoiner.merge_suffix(6, &tail);
        assert_eq!(rejoiner.values(), veteran.values());
        assert_eq!(rejoiner.digest_at(10), veteran.digest_at(10));
        assert!(rejoiner.prefix_consistent_with(&veteran));
    }

    #[test]
    fn stale_or_forged_snapshots_are_rejected() {
        let mut log = ReplicatedLog::new();
        for v in [1, 2, 3] {
            log.append(v, stamp(0, 0b11));
        }
        let before = log.clone();
        // Does not extend the log: rejected, state untouched.
        let stale = Snapshot {
            upto: 3,
            digest: 0xDEAD,
            view: stamp(9, 0b11),
        };
        assert_eq!(log.install_snapshot(&stale), None);
        assert_eq!(log.values(), before.values());
        assert_eq!(log.first_index(), 0);
        assert_eq!(log.snapshots_installed(), 0);
    }

    #[test]
    fn merge_skips_indices_below_the_base() {
        let mut log = ReplicatedLog::new();
        for v in [10, 20, 30] {
            log.append(v, stamp(0, 0b11));
        }
        log.truncate_prefix(2);
        // A run over the compacted prefix: entries below base skipped
        // (whatever their values), the retained index compared, the
        // tail adopted.
        let outcome = log.merge_suffix(
            0,
            &[(99, 5, 0b1), (98, 5, 0b1), (30, 0, 0b11), (40, 1, 0b11)],
        );
        assert_eq!(
            outcome,
            MergeOutcome {
                adopted: 1,
                lost: 0
            }
        );
        assert_eq!(log.values(), vec![30, 40]);
    }

    #[test]
    fn prefix_consistency_compares_digests_across_compaction() {
        let mut a = ReplicatedLog::new();
        let mut b = ReplicatedLog::new();
        for v in [1, 2, 3, 4] {
            a.append(v, stamp(0, 0b11));
            b.append(v, stamp(0, 0b11));
        }
        a.truncate_prefix(3);
        assert!(a.prefix_consistent_with(&b));
        assert!(b.prefix_consistent_with(&a));

        // Divergent history is caught through the digest even though
        // one side compacted it away.
        let mut c = ReplicatedLog::new();
        for v in [1, 9, 3, 4] {
            c.append(v, stamp(0, 0b11));
        }
        assert!(!a.prefix_consistent_with(&c));
        assert!(!c.prefix_consistent_with(&a));
    }

    #[test]
    fn snapshot_at_the_base_carries_the_last_compacted_view() {
        let mut log = ReplicatedLog::new();
        log.append(1, stamp(3, 0b111));
        log.append(2, stamp(4, 0b011));
        log.truncate_prefix(2);
        let snap = log.snapshot(2).unwrap();
        assert_eq!(snap.upto, 2);
        assert_eq!(snap.view, stamp(4, 0b011));
        assert!(log.snapshot(1).is_none());
        assert!(log.snapshot(3).is_none());
    }
}
