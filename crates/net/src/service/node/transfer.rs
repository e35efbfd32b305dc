//! State transfer and compaction: the half of a [`DecisionService`]
//! node that moves decided history between logs — suffix sync, snapshot
//! negotiation, the laggard push — and trims what every member holds.

use super::{DecisionService, ServiceOutput};
use crate::clock::{Clock, Nanos};
use crate::codec::{
    encode, SnapshotReply, SnapshotRequest, SyncReply, SyncRequest, WireMsg, MAX_SYNC_ENTRIES,
};
use crate::estimator::ArrivalEstimator;
use crate::service::log::{Snapshot, ViewStamp};
use crate::service::retry::Timeouts;
use crate::transport::Transport;
use rfd_core::ProcessId;

impl<E, T, C> DecisionService<E, T, C>
where
    E: ArrivalEstimator + Clone,
    T: Transport,
    C: Clock,
{
    /// The sender-side half of acknowledged delivery: every gossip
    /// period, serve the missing suffix to any view member whose acked
    /// length has stayed behind ours — **and stopped growing** — for a
    /// full RTO. A node that missed the final `Decided` relay of a
    /// burst has no pull signal of its own — the push is what keeps its
    /// lag (and hence the compaction stable index) from freezing. A
    /// peer that is behind but visibly catching up (a rejoiner mid
    /// state-transfer) is left to the pull paths: pushing in parallel
    /// would only duplicate the suffix on the wire. Per-peer
    /// exponential backoff while the peer stays stalled; the fuse
    /// re-arms on any progress.
    pub(super) fn push_to_laggards(&mut self, now: Nanos, timeouts: Timeouts) {
        let me = self.me();
        for member in self.membership.view().members {
            if member == me {
                continue;
            }
            let acked = self.acked_by(member);
            if self
                .retry
                .push_due(now, timeouts, member, acked, self.log.len())
            {
                self.retry.sent += 1;
                self.on_sync_request(member, acked);
            }
        }
    }

    /// Retry of an unanswered snapshot negotiation: while a snapshot
    /// request is outstanding and peers' acked lengths show we are
    /// genuinely behind, re-send the request to a rotated member — a
    /// single lost `SnapshotRequest`/`SnapshotReply` can no longer
    /// strand a rejoiner behind the once-per-tail-position throttle.
    pub(super) fn retry_snapshot(&mut self, now: Nanos, timeouts: Timeouts) {
        let Some(attempts) = self.retry.snapshot_due(now, timeouts) else {
            return;
        };
        let me = self.me();
        let mut members = self.membership.view().members.iter();
        if !members.any(|p| p != me && self.acked_by(p) > self.log.len()) {
            // Caught up through other channels — stand down.
            self.retry.disarm_snapshot();
            return;
        }
        if let Some(target) = self.rotated_member(attempts) {
            self.snapshot_requested_at = Some(self.log.len());
            self.send_raw(
                target,
                encode(&WireMsg::SnapshotRequest(SnapshotRequest {
                    from_index: self.log.len(),
                })),
            );
            self.retry.sent += 1;
        }
    }

    /// Trims the log behind the all-replica stable index, keeping the
    /// policy's retained tail. The stable index is the lowest log
    /// length acknowledged by any *current view member* (piggybacked
    /// acks), capped by our own length — so an excluded straggler never
    /// freezes compaction (it will fast-rejoin via snapshot), while a
    /// re-admitted one holds the base until it catches up.
    pub(super) fn maybe_compact(&mut self) {
        let Some(policy) = self.compaction else {
            return;
        };
        let me = self.me();
        let mut stable = self.log.len();
        for member in self.last_view.members {
            if member == me {
                continue;
            }
            stable = stable.min(self.acked_by(member));
        }
        let target = stable.saturating_sub(policy.retain);
        self.log.truncate_prefix(target);
    }

    /// A state-transfer request: stream the suffix back in chunks — or,
    /// if the requester's tail fell below our compacted base, signal
    /// the gap with an **empty** reply starting at the base. The
    /// requester reads that as "prefix is compacted away" and
    /// negotiates a [`SnapshotRequest`] instead.
    pub(super) fn on_sync_request(&mut self, from: ProcessId, from_index: u64) {
        if !self.is_peer(from) {
            return;
        }
        self.note_acked(from, from_index);
        if from_index < self.log.first_index() {
            self.send_raw(
                from,
                encode(&WireMsg::SyncReply(SyncReply {
                    start: self.log.first_index(),
                    entries: Vec::new(),
                })),
            );
            return;
        }
        let mut start = from_index;
        while start < self.log.len() {
            let entries: Vec<(u64, u64, u128)> = self
                .log
                .suffix(start)
                .iter()
                .take(MAX_SYNC_ENTRIES)
                .map(|d| (d.value, d.view.id, d.view.members))
                .collect();
            let sent = entries.len() as u64;
            let frame = encode(&WireMsg::SyncReply(SyncReply { start, entries }));
            self.sync_bytes_served += frame.len() as u64;
            self.send_raw(from, frame);
            start += sent;
        }
    }

    /// A state-transfer chunk (already copied out of its datagram):
    /// reconcile it into the log. An empty chunk starting above our
    /// tail is a responder's compaction gap-signal — negotiate a
    /// snapshot with that responder instead of merging.
    pub(super) fn on_sync_reply(
        &mut self,
        from: ProcessId,
        start: u64,
        entries: &[(u64, u64, u128)],
        events: &mut Vec<ServiceOutput>,
    ) {
        if entries.is_empty() && start > self.log.len() {
            self.maybe_request_snapshot(from);
            return;
        }
        let before = self.log.len();
        let outcome = self.log.merge_suffix(start, entries);
        if outcome.adopted == 0 && outcome.lost == 0 {
            // A reordered chunk that starts above our tail would merge
            // nothing; buffer its entries individually (inside the
            // bounded future window) so the stream survives arbitrary
            // chunk interleavings — they apply once the gap fills.
            if start > self.log.len() {
                for (offset, &(value, view_id, view_members)) in entries.iter().enumerate() {
                    self.buffer_future(
                        start + offset as u64,
                        value,
                        ViewStamp {
                            id: view_id,
                            members: view_members,
                        },
                    );
                }
                self.commit_ready(events);
            } else {
                // A suffix we already hold — a pusher whose acked
                // watermark for us is stale. Count the duplicate and
                // correct the watermark: the reply-from-our-tail
                // request serves nothing when the pusher is no longer
                // ahead, so it acts as a pure ack that stands the
                // pusher's fuse down.
                self.duplicate_frames_dropped += 1;
                self.request_sync(from);
            }
            return;
        }
        // Rewritten tail: retire its commands and resolve its slots. On
        // the (safety-alarm) lost path the rewrite reaches back to the
        // chunk start; otherwise only fresh entries were appended.
        let rewritten_from = if outcome.lost > 0 { start } else { before };
        for d in self.log.suffix(rewritten_from).to_vec() {
            self.note_committed(d.index, d.value);
        }
        if outcome.adopted > 0 {
            // Entries are flowing through the plain sync path after
            // all: an outstanding snapshot negotiation is moot (a late
            // reply that no longer extends the log would be rejected
            // anyway). Stand the retry down.
            self.retry.disarm_snapshot();
        }
        self.commit_ready(events);
        // Acknowledged delivery, receiver half: a short chunk is the
        // tail of the responder's stream, so confirm our new length
        // with a reply-from-our-tail request. If we are caught up it
        // serves nothing — a pure ack that keeps the responder's
        // watermark fresh and its laggard-push fuse armed-but-quiet; if
        // a middle chunk was lost it re-pulls the remainder. Full-width
        // chunks skip the confirm (more of the stream is in flight).
        if entries.len() < MAX_SYNC_ENTRIES {
            self.request_sync(from);
        }
    }

    /// Sends one [`SnapshotRequest`] to `from`, at most once per tail
    /// position — every compacted responder gap-signals, and one
    /// snapshot per stall is enough.
    fn maybe_request_snapshot(&mut self, from: ProcessId) {
        if !self.is_peer(from) {
            return;
        }
        if self.snapshot_requested_at == Some(self.log.len()) {
            return;
        }
        self.snapshot_requested_at = Some(self.log.len());
        // Arm the retry timer: a lost request (or lost reply) re-fires
        // toward a rotated member instead of stranding the rejoin.
        let now = self.membership.node.clock.now();
        self.retry.arm_snapshot(now, self.timeouts(now));
        self.send_raw(
            from,
            encode(&WireMsg::SnapshotRequest(SnapshotRequest {
                from_index: self.log.len(),
            })),
        );
    }

    /// A fast-rejoin request: serve a summary of our compacted prefix
    /// plus the first chunk of the retained tail. Falls back to the
    /// ordinary suffix exchange when the requester is within the
    /// retained tail (no snapshot needed).
    pub(super) fn on_snapshot_request(&mut self, from: ProcessId, from_index: u64) {
        if !self.is_peer(from) {
            return;
        }
        self.note_acked(from, from_index);
        let base = self.log.first_index();
        if from_index >= base {
            self.on_sync_request(from, from_index);
            return;
        }
        let Some(snap) = self.log.snapshot(base) else {
            return;
        };
        let entries: Vec<(u64, u64, u128)> = self
            .log
            .suffix(base)
            .iter()
            .take(MAX_SYNC_ENTRIES)
            .map(|d| (d.value, d.view.id, d.view.members))
            .collect();
        let frame = encode(&WireMsg::SnapshotReply(SnapshotReply {
            upto: snap.upto,
            digest: snap.digest,
            view_id: snap.view.id,
            view_members: snap.view.members,
            entries,
        }));
        self.sync_bytes_served += frame.len() as u64;
        self.snapshots_served += 1;
        self.send_raw(from, frame);
    }

    /// A fast-rejoin reply: install the summary (only if we asked for
    /// one and it extends our log — rejects change nothing), merge the
    /// included tail chunk, and pull whatever tail remains with an
    /// ordinary [`SyncRequest`]. Installing is O(1) in the covered
    /// history: the prefix arrives as a digest, not as entries.
    pub(super) fn on_snapshot_reply(
        &mut self,
        from: ProcessId,
        snapshot: &Snapshot,
        entries: &[(u64, u64, u128)],
        events: &mut Vec<ServiceOutput>,
    ) {
        if !self.is_peer(from) {
            return;
        }
        if !self.retry.awaiting_snapshot() {
            return;
        }
        if self.log.install_snapshot(snapshot).is_none() {
            return;
        }
        self.retry.disarm_snapshot();
        self.snapshot_requested_at = None;
        self.gap_synced_at = None;
        // The log jumped past every local in-flight slot: retire the
        // driver's instance and early traffic below the new base…
        self.driver.advance_base(self.log.first_index());
        // …drop buffered relays the summary already covers…
        self.future = self.future.split_off(&self.log.len());
        // …and clear the pending pool: a pooled command may have been
        // decided inside the compacted prefix, and re-proposing it
        // would decide it twice. Anything still genuinely pending is
        // in a live peer's pool (this node's own submissions were
        // repeated every period while its log stood still), and its
        // decision arrives here by relay.
        self.pool.clear();
        if !entries.is_empty() {
            self.on_sync_reply(from, snapshot.upto, entries, events);
        }
        // The responder may retain more tail than one chunk carries.
        self.request_sync(from);
    }

    /// Asks `to` for the log suffix from our tail on. Also what a
    /// caught-up node acks with: a request from the tail serves nothing.
    pub(super) fn request_sync(&self, to: ProcessId) {
        self.send_raw(
            to,
            encode(&WireMsg::SyncRequest(SyncRequest {
                from_index: self.log.len(),
            })),
        );
    }

    /// The highest log length `peer` is known to hold.
    fn acked_by(&self, peer: ProcessId) -> u64 {
        self.peer_acked.get(peer.index()).copied().unwrap_or(0)
    }

    /// Records that `from`'s log is at least `upto` long.
    pub(super) fn note_acked(&mut self, from: ProcessId, upto: u64) {
        if let Some(acked) = self.peer_acked.get_mut(from.index()) {
            *acked = (*acked).max(upto);
        }
    }
}
