//! State transfer and compaction: the half of a [`DecisionService`]
//! node that moves decided history between logs — one exchange, a
//! [`SyncRequest`] from the requester's tail answered with the suffix or,
//! below a compacted base, with a snapshot; the laggard push — and trims
//! what every member holds.

use super::{DecisionService, ServiceOutput};
use crate::clock::{Clock, Nanos};
use crate::codec::{encode, SnapshotReply, SyncReply, SyncRequest, WireMsg, MAX_SYNC_ENTRIES};
use crate::estimator::ArrivalEstimator;
use crate::membership::ViewStamp;
use crate::service::log::Snapshot;
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

    /// A state-transfer request (a `SyncRequest`, or a
    /// `SnapshotRequest`, which asks the same): stream the suffix from
    /// the requester's tail back in chunks — or, if that tail fell below
    /// our compacted base, send a [`SnapshotReply`]: a summary of the
    /// compacted prefix plus the first chunk of the retained tail.
    pub(super) fn on_sync_request(&mut self, from: ProcessId, from_index: u64) {
        if !self.is_peer(from) {
            return;
        }
        self.note_acked(from, from_index);
        let base = self.log.first_index();
        if from_index < base {
            let Some(snap) = self.log.snapshot(base) else {
                return;
            };
            let frame = encode(&WireMsg::SnapshotReply(SnapshotReply {
                upto: snap.upto,
                digest: snap.digest,
                view_id: snap.view.id,
                view_members: snap.view.members,
                entries: self.chunk_from(base),
            }));
            self.sync_bytes_served += frame.len() as u64;
            self.snapshots_served += 1;
            self.send_raw(from, frame);
            return;
        }
        let mut start = from_index;
        while start < self.log.len() {
            let entries = self.chunk_from(start);
            let sent = entries.len() as u64;
            let frame = encode(&WireMsg::SyncReply(SyncReply { start, entries }));
            self.sync_bytes_served += frame.len() as u64;
            self.send_raw(from, frame);
            start += sent;
        }
    }

    /// One chunk of the retained log from `start` on, as wire entries:
    /// what a `SyncReply` or a `SnapshotReply` carries.
    fn chunk_from(&self, start: u64) -> Vec<(u64, u64, u128)> {
        self.log
            .suffix(start)
            .iter()
            .take(MAX_SYNC_ENTRIES)
            .map(|d| (d.value, d.view.id, d.view.members))
            .collect()
    }

    /// A state-transfer chunk (already copied out of its datagram):
    /// reconcile it into the log.
    pub(super) fn on_sync_reply(
        &mut self,
        from: ProcessId,
        start: u64,
        entries: &[(u64, u64, u128)],
        events: &mut Vec<ServiceOutput>,
    ) {
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
                self.confirm_tail(from);
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
        self.commit_ready(events);
        // Acknowledged delivery, receiver half: a short chunk is the
        // tail of the responder's stream, so confirm our new length
        // with a reply-from-our-tail request. If we are caught up it
        // serves nothing — a pure ack that keeps the responder's
        // watermark fresh and its laggard-push fuse armed-but-quiet; if
        // a middle chunk was lost it re-pulls the remainder. Full-width
        // chunks skip the confirm (more of the stream is in flight).
        if entries.len() < MAX_SYNC_ENTRIES {
            self.confirm_tail(from);
        }
    }

    /// A fast-rejoin reply: install the summary, merge the included
    /// tail chunk, and pull whatever tail remains. Installing is O(1) in
    /// the covered history: the prefix arrives as a digest, not as
    /// entries.
    ///
    /// A summary is installed only in answer to a [`Self::request_sync`]
    /// made at our current length, and only if it extends the log. Any
    /// other reply — a duplicate, one overtaken by another transfer, an
    /// unasked laggard push, a forgery — changes nothing and is answered
    /// with one `SyncRequest` from our tail. That ack is what stands a
    /// pusher with a stale watermark for us down. If the reply would
    /// have extended the log, we are behind that peer's base, so the ack
    /// is an ask and the peer's answer installs.
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
        let len = self.log.len();
        if self.sync_asked_at != Some(len) || self.log.install_snapshot(snapshot).is_none() {
            if snapshot.upto > len {
                self.request_sync(from);
            } else {
                self.confirm_tail(from);
            }
            return;
        }
        // One ask, one install: the pulls below confirm, they don't ask.
        self.sync_asked_at = None;
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
        self.confirm_tail(from);
    }

    /// Asks `to` for the log suffix from our tail on, and opens the gate
    /// for one [`SnapshotReply`] at this length: a responder whose base
    /// lies above our tail answers with a snapshot.
    pub(super) fn request_sync(&mut self, to: ProcessId) {
        self.sync_asked_at = Some(self.log.len());
        self.confirm_tail(to);
    }

    /// Sends `to` a [`SyncRequest`] from our tail without opening the
    /// snapshot gate: it tells `to` our length and pulls any suffix `to`
    /// holds beyond it. From a caught-up node it serves nothing — a pure
    /// ack.
    fn confirm_tail(&self, to: ProcessId) {
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
