//! One node of the live replicated-decision service.

mod transfer;

use super::log::{Decision, ReplicatedLog, Snapshot, ViewStamp};
use super::retry::{RetryPlane, Timeouts};
use super::run_set::RunSet;
use crate::clock::{Clock, Nanos};
use crate::codec::{
    for_each_frame, set_to_members, Command, ConsensusFrame, DecidedMsg, WireMsg, WireView,
};
use crate::detector::SendRing;
use crate::estimator::ArrivalEstimator;
use crate::membership::{MembershipNode, View};
use crate::transport::Transport;
use bytes::Bytes;
use rfd_algo::consensus::{RotatingConsensus, RotatingMsg};
use rfd_algo::driver::{SlotDriver, SlotSend};
use rfd_core::{ProcessId, ProcessSet};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::ControlFlow;

/// How many pending commands (its smallest) one node re-gossips at a
/// gossip tick that has evidence someone lacks them — the anti-entropy
/// that lets a command submitted on a once-partitioned side, or one
/// whose first broadcast was lost, reach the rest of the group. A tick
/// without that evidence re-gossips nothing: see
/// [`DecisionService::poll_into`].
const GOSSIP_BATCH: usize = 8;

/// How far ahead of the local log tail a buffered decision relay may
/// sit. Anything further is dropped (the sync path re-fetches real
/// entries anyway), so a flood of forged far-future `Decided` frames
/// cannot grow the buffer without bound — the node-level counterpart of
/// the codec's allocation caps.
const FUTURE_WINDOW: u64 = 1024;

/// How far above the local log tail an incoming consensus frame's slot
/// may point: the slot span of the `SlotDriver`'s early-traffic buffer.
/// Correct peers run consensus at most a few slots ahead of any live
/// log; partitioned stragglers catch up via state transfer, not by
/// joining far-future rounds — a frame beyond it is dropped and counted.
const SLOT_HORIZON: u64 = 1024;

/// How many early consensus frames the `SlotDriver` may hold at once:
/// the size of the buffer whose span [`SLOT_HORIZON`] bounds. Honest
/// traffic keeps a few dozen; a frame that would overflow is dropped
/// and counted like a beyond-horizon one (the retransmission plane
/// re-derives an honest one), so in-horizon forged frames for a slot
/// that never opens cannot grow the heap.
const EARLY_FRAMES: usize = 1024;

/// A typed event produced by one [`DecisionService::poll_into`].
#[derive(Clone, Debug)]
pub enum ServiceOutput {
    /// A decision was appended to this node's log — the moment a real
    /// service would acknowledge the command's client.
    Decided(Decision),
    /// The node installed a new membership view.
    ViewInstalled(View),
    /// A state-transfer reconciliation ran against this node's log.
    Transferred {
        /// Entries adopted from the peer.
        adopted: u64,
        /// Local entries discarded to the total view order (zero while
        /// consensus safety holds).
        lost: u64,
    },
    /// This node served a state-transfer request (responder side):
    /// `bytes` of encoded reply frames went out, as a snapshot summary
    /// or as plain suffix chunks.
    SyncServed {
        /// Total encoded bytes of the reply frames.
        bytes: u64,
        /// Whether the reply was a compacted-prefix snapshot (`true`)
        /// or the ordinary suffix exchange (`false`).
        snapshot: bool,
    },
    /// This node fast-rejoined by installing a remote snapshot,
    /// covering `covered` decisions it was missing in O(1).
    SnapshotInstalled {
        /// Decisions newly covered by the installed summary.
        covered: u64,
    },
}

/// Snapshot-based log-compaction policy: how much decided history a
/// node keeps *behind the all-replica stable index* (the lowest log
/// length any current member has acknowledged). Everything older is
/// folded into the digest chain; a rejoiner that fell behind the
/// retained tail catches up via snapshot transfer instead of replaying
/// history.
///
/// Compaction is opt-in ([`DecisionService::with_compaction`]): without
/// a policy the log grows unboundedly and every sync is the plain
/// suffix exchange: the responder streams every entry from the
/// requester's tail on, however long that is.
///
/// ```
/// use rfd_net::service::CompactionPolicy;
///
/// let policy = CompactionPolicy::retain_last(16);
/// assert_eq!(policy.retain, 16);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Decisions to keep below the stable index (the retained tail a
    /// slightly-behind peer can still sync from without a snapshot).
    pub retain: u64,
}

impl CompactionPolicy {
    /// A retain-last-`k` policy.
    #[must_use]
    pub fn retain_last(retain: u64) -> Self {
        Self { retain }
    }
}

/// A long-lived replicated-decision service node: the paper's §1.3
/// stack, live.
///
/// Each node layers three protocols over **one** transport:
///
/// 1. the group membership ([`MembershipNode`]), whose view emulates a
///    Perfect detector by exclusion — `output(P)` = everyone outside
///    the view;
/// 2. a rotating-coordinator consensus instance per log slot, one
///    after another ([`rfd_algo::consensus::RotatingConsensus`] under a
///    [`SlotDriver`]), fed that emulated `P` as its suspect source, and
///    quorum-sized over **all** `n` processes so a partitioned minority
///    can stall but never split the log;
/// 3. a TRB-style decision relay — the **one** announcement of a
///    decision: every appender broadcasts `Decided` (index, view stamp,
///    value) once, and the consensus core's own `Decide` broadcast is
///    never put on the wire — plus post-heal **state transfer**:
///    after a view change re-admits members, nodes exchange log
///    suffixes and reconcile them prefix-consistently
///    ([`ReplicatedLog::merge_suffix`]). Under a [`CompactionPolicy`]
///    the suffix exchange is two-tier: a peer within the retained tail
///    gets plain chunks, one that fell behind the compacted base
///    negotiates a snapshot ([`Snapshot`]) and fast-rejoins in O(tail)
///    instead of O(history).
///
/// Under all three sits the **retransmission plane**, which rebuilds the
/// paper's quasi-reliable channels on a lossy wire: the open slot's
/// stalled conversations, the suffix a stalled laggard is missing and
/// an unanswered snapshot request are re-sent on exponentially
/// backed-off timeouts. The slot's timer repairs loss, so it waits a
/// measured RTO (Jacobson/Karels over this node's slot times, Karn's
/// rule, never past the horizon timeout); the other two chase peers
/// that may be gone, so they wait one heartbeat period past the
/// membership's trust horizon. The node holds the plane's timers as
/// one `RetryPlane` (`service/retry.rs`, no I/O) and only decides what
/// a firing sends; [`DecisionService::retransmits_sent`] counts the
/// frames. See "The retransmission plane" in ARCHITECTURE.md.
///
/// Commands enter through [`DecisionService::propose`] (a typed command
/// queue: the pending pool), are gossiped to the group, and leave as
/// totally ordered [`Decision`]s that record the membership view they
/// were decided in. A pending command is re-gossiped only on evidence
/// that a peer lacks it (a stalled log, or a local proposal outvoted).
/// Drive the node by calling [`DecisionService::poll_into`] once per
/// tick — [`crate::service::ServiceRunner`] does exactly that under a
/// fault schedule.
///
/// The receive path is zero-copy: datagrams drain in one batch into a
/// reusable buffer and route through the borrowed-view codec.
/// [`Batch`](WireMsg::Batch) datagrams (e.g. a coordinator's coalesced
/// heartbeat + view announcement) are unpacked by the shared receive
/// loop and each sub-frame routed as if it had arrived alone. Every
/// frame but a heartbeat is also evidence that its sender was alive
/// when it arrived: the receive loop hands it to
/// [`MembershipNode::on_evidence`], so a peer whose heartbeats are lost
/// while its acks and relays land stays trusted, and the trust horizon
/// the retry plane waits on moves with it. The deciding path reuses
/// what it touches: the slot driver steps into the node's send queue
/// and renews its retired consensus core, consensus frames, decision
/// announcements and command gossip are encoded into a ring of recycled
/// transmit buffers, and events go into the caller's buffer. So a warmed
/// fleet's tick allocates nothing that it could reuse — idle,
/// heartbeating or deciding. Nothing grows per decision either: under a
/// [`CompactionPolicy`] the log keeps its retained tail, the pending
/// pool drains, and the decided-command set keeps runs of consecutive
/// command values, so dense command ids hold the heap flat.
#[derive(Debug)]
pub struct DecisionService<E, T, C> {
    /// The membership, and through it the node's heartbeat half: the
    /// service reads `n`, the clock, the period, the receive buffer and
    /// the malformed counter there ([`crate::detector::DetectorNode`]).
    membership: MembershipNode<E, T, C>,
    driver: SlotDriver<RotatingConsensus<u64>>,
    log: ReplicatedLog,
    /// Known, not yet decided commands (ordered: proposals pick the
    /// minimum, so identical pools propose identically).
    pool: BTreeSet<u64>,
    /// Commands seen decided (dedup for late gossip), as runs of
    /// consecutive values: dense command ids cost a few runs, not one
    /// entry per decision.
    decided_values: RunSet,
    /// Decision relays that arrived ahead of the log tail (bounded to
    /// [`FUTURE_WINDOW`] entries past the tail).
    future: BTreeMap<u64, (u64, ViewStamp)>,
    /// The log length at which the last gap-triggered `SyncRequest`
    /// went out: while the tail hasn't moved, further ahead-of-tail
    /// relays don't re-request (each peer would otherwise stream the
    /// whole missing suffix once per relayed decision).
    gap_synced_at: Option<u64>,
    /// Compaction policy, if enabled.
    compaction: Option<CompactionPolicy>,
    /// Highest log length each peer is known to hold, learned from the
    /// indices piggybacked on existing traffic (`Decided` relays, sync
    /// and snapshot requests). The minimum over current view members is
    /// the stable index compaction trims behind.
    peer_acked: Vec<u64>,
    /// The log length at which the last `SnapshotRequest` went out —
    /// the same once-per-tail-position throttle as `gap_synced_at`,
    /// for snapshot negotiation.
    snapshot_requested_at: Option<u64>,
    /// Every retry timer of the retransmission plane — the open slot's,
    /// the per-peer laggard-push fuses, the outstanding snapshot
    /// negotiation's — and the count of frames it re-sent. See the
    /// "Retransmission plane" section of ARCHITECTURE.md for the timer
    /// derivation.
    retry: RetryPlane,
    /// Received frames dropped as duplicates: consensus frames for
    /// already-decided slots, re-relayed decisions, re-gossiped
    /// already-decided commands. Nonzero under retransmission (or plain
    /// in-flight races) — receipt is idempotent, so these change no
    /// protocol state.
    duplicate_frames_dropped: u64,
    last_view: View,
    next_gossip: Nanos,
    /// The log length at the previous gossip tick: a log still that
    /// long one period later made no progress, which is the first of
    /// the two kinds of evidence that re-gossip pending commands.
    gossip_tail: u64,
    /// The slot this node last opened and the command it proposed
    /// there.
    proposed: Option<(u64, u64)>,
    /// Whether, since the previous gossip tick, a slot this node
    /// proposed into was decided with another value — the second kind
    /// of evidence: the group decided without a command this node
    /// holds.
    outvoted: bool,
    /// Reusable consensus-frame inbox, refilled each poll.
    consensus_in: Vec<(u64, ProcessId, RotatingMsg<u64>)>,
    /// Reusable queue of the poll's consensus sends, drained oldest
    /// first by [`Self::flush_consensus`].
    sends: VecDeque<SlotSend<RotatingMsg<u64>>>,
    /// Reusable entry list for copying a borrowed sync-reply view out of
    /// its datagram before the merge (which needs a contiguous slice).
    sync_scratch: Vec<(u64, u64, u128)>,
    /// Recycled transmit buffers for consensus frames, decision
    /// announcements and command gossip — the service's own ring, not
    /// the membership's. (State-transfer frames are cold and can be
    /// large; they take a plain encode.)
    tx: SendRing,
}

impl<E, T, C> DecisionService<E, T, C>
where
    E: ArrivalEstimator + Clone,
    T: Transport,
    C: Clock,
{
    /// Creates a service node (initial full view, empty log) whose
    /// membership heartbeats every `period`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero ([`MembershipNode::new`]).
    #[must_use]
    pub fn new(n: usize, prototype: E, transport: T, clock: C, period: Nanos) -> Self {
        let membership = MembershipNode::new(n, prototype, transport, clock, period);
        let me = membership.transport().me();
        Self {
            last_view: membership.view(),
            membership,
            driver: SlotDriver::new(me, n),
            log: ReplicatedLog::new(),
            pool: BTreeSet::new(),
            decided_values: RunSet::default(),
            future: BTreeMap::new(),
            gap_synced_at: None,
            compaction: None,
            peer_acked: vec![0; n],
            snapshot_requested_at: None,
            retry: RetryPlane::new(n),
            duplicate_frames_dropped: 0,
            next_gossip: Nanos::ZERO,
            gossip_tail: 0,
            proposed: None,
            outvoted: false,
            consensus_in: Vec::new(),
            sends: VecDeque::new(),
            sync_scratch: Vec::new(),
            tx: SendRing::default(),
        }
    }

    /// Enables partition-heal view reconciliation on the underlying
    /// membership (builder style) — required for post-heal state
    /// transfer to have surviving nodes to transfer *to*; see
    /// [`MembershipNode::with_heal_merge`].
    #[must_use]
    pub fn with_heal_merge(mut self) -> Self {
        self.membership = self.membership.with_heal_merge();
        self
    }

    /// Enables snapshot-based log compaction under `policy` (builder
    /// style; default off). The node trims its log behind the
    /// all-replica stable index every gossip period and answers
    /// below-base sync requests with a snapshot instead of a replay.
    #[must_use]
    pub fn with_compaction(mut self, policy: CompactionPolicy) -> Self {
        self.compaction = Some(policy);
        self
    }

    /// Frames re-sent by the retransmission plane: stalled-slot
    /// consensus re-sends, tail probes, laggard pushes and snapshot
    /// re-requests. Stays **zero on a calm network** — the slot timer
    /// waits out a silence within a slot against an RTO learned from
    /// whole slots, and the other timers wait past the trust horizon,
    /// so the plane is pure insurance against loss.
    #[must_use]
    pub fn retransmits_sent(&self) -> u64 {
        self.retry.sent
    }

    /// Received frames dropped as duplicates (idempotent receipt):
    /// consensus frames for already-decided slots, re-relayed
    /// decisions, re-gossiped already-decided commands.
    #[must_use]
    pub fn duplicate_frames_dropped(&self) -> u64 {
        self.duplicate_frames_dropped
    }

    /// This node's identity.
    #[must_use]
    pub fn me(&self) -> ProcessId {
        self.membership.transport().me()
    }

    /// The current membership view.
    #[must_use]
    pub fn view(&self) -> View {
        self.membership.view()
    }

    /// Whether the node halted after a (merge-less) exclusion.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.membership.is_halted()
    }

    /// The node's decision log.
    #[must_use]
    pub fn log(&self) -> &ReplicatedLog {
        &self.log
    }

    /// Commands known but not yet decided.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pool.len()
    }

    /// Datagrams and frames this node dropped as malformed: undecodable
    /// bytes, out-of-range heartbeat senders, and consensus frames past
    /// the slot horizon or overflowing the early buffer. One counter per
    /// node, kept by its membership's heartbeat half
    /// ([`MembershipNode::malformed_frames`]). Rejected input changes no
    /// protocol state.
    #[must_use]
    pub fn malformed_frames(&self) -> u64 {
        self.membership.malformed_frames()
    }

    /// The membership-emulated Perfect-detector output this node feeds
    /// its consensus instances.
    #[must_use]
    pub fn emulated_suspects(&self) -> ProcessSet {
        self.membership.emulated_suspects()
    }

    /// Submits a client command: enqueues it in the pending pool and
    /// gossips it to the group. Returns `false` (and does nothing) if
    /// the node has halted or the command was already decided — command
    /// values identify commands, so they must be unique per run.
    pub fn propose(&mut self, value: u64) -> bool {
        if self.is_halted() || self.decided_values.contains(value) {
            return false;
        }
        if self.pool.insert(value) {
            self.broadcast(&WireMsg::Command(Command { value }));
        }
        true
    }

    /// Routes one decoded frame. Every frame but a heartbeat is first
    /// handed to the membership as evidence that `from` was alive at
    /// `delivered_at` ([`MembershipNode::on_evidence`]): an ack or a
    /// relay that lands while the sender's heartbeats are being lost
    /// keeps it trusted. Breaks if the node halted while processing the
    /// frame (the receive loop stops draining).
    fn route_frame(
        &mut self,
        from: ProcessId,
        delivered_at: Nanos,
        frame: &WireView<'_>,
        consensus_in: &mut Vec<(u64, ProcessId, RotatingMsg<u64>)>,
        events: &mut Vec<ServiceOutput>,
    ) -> ControlFlow<()> {
        if !matches!(frame, WireView::Heartbeat(_)) {
            self.membership.on_evidence(from, delivered_at);
        }
        match frame {
            WireView::Heartbeat(_) | WireView::ViewChange(_) => {
                self.membership.on_wire_view(frame, delivered_at);
                if self.membership.is_halted() {
                    return ControlFlow::Break(());
                }
            }
            WireView::Command(c) => self.learn_command(c.value),
            WireView::Consensus(cf) => {
                // Gate the slot before it reaches the driver's early
                // buffer: a correct peer only runs consensus within a
                // bounded window above its log; anything further is
                // dropped and counted like an undecodable frame.
                let in_fleet = from.index() < self.membership.node.n;
                if in_fleet && cf.slot < self.log.len().saturating_add(SLOT_HORIZON) {
                    if cf.slot < self.driver.tail() {
                        // The slot is already settled here: a stale or
                        // retransmitted frame. The driver drops it; the
                        // counter records the (harmless) duplicate.
                        self.duplicate_frames_dropped += 1;
                    }
                    consensus_in.push((cf.slot, from, cf.msg.clone()));
                } else if in_fleet {
                    self.membership.node.malformed_frames += 1;
                }
            }
            WireView::Decided(d) => self.on_decided(from, d, events),
            WireView::SyncRequest(s) => self.on_sync_request(from, s.from_index, events),
            WireView::SyncReply(view) => {
                // The merge needs a contiguous slice; copy the borrowed
                // entries into the reusable scratch instead of a fresh
                // Vec per chunk.
                let mut entries = std::mem::take(&mut self.sync_scratch);
                entries.clear();
                entries.extend(view.iter());
                self.on_sync_reply(from, view.start, &entries, events);
                self.sync_scratch = entries;
            }
            WireView::SnapshotRequest(s) => self.on_snapshot_request(from, s.from_index, events),
            WireView::SnapshotReply(view) => {
                let snapshot = Snapshot {
                    upto: view.upto,
                    digest: view.digest,
                    view: ViewStamp {
                        id: view.view_id,
                        members: view.view_members,
                    },
                };
                let mut entries = std::mem::take(&mut self.sync_scratch);
                entries.clear();
                entries.extend(view.iter());
                self.on_snapshot_reply(from, &snapshot, &entries, events);
                self.sync_scratch = entries;
            }
            // Datagram framing: the receive loop hands over sub-frames.
            WireView::Batch(_) => {}
        }
        ControlFlow::Continue(())
    }

    /// One service tick: drain and route the transport (membership,
    /// commands, consensus, relays, state transfer — each frame also
    /// evidence of its sender's liveness), run the membership
    /// duties, react to view changes, advance consensus at the log tail —
    /// open the tail slot if a command is pending, step it, send what it
    /// emitted, commit what it decided, and repeat while that grew the
    /// log, so a deciding node proposes the next command in the same
    /// poll — and, once per heartbeat period, re-gossip pending commands
    /// if there is evidence a peer lacks one, push to laggards and
    /// compact. Appends the tick's events to `events`, which a caller
    /// polling every tick reuses.
    pub fn poll_into(&mut self, events: &mut Vec<ServiceOutput>) {
        if self.is_halted() {
            return;
        }
        let now = self.membership.node.clock.now();
        let mut consensus_in = std::mem::take(&mut self.consensus_in);
        consensus_in.clear();
        let mut rx = std::mem::take(&mut self.membership.node.rx_buf);
        self.membership.transport().recv_batch(&mut rx);
        self.membership.node.malformed_frames +=
            for_each_frame(&mut rx, |from, delivered_at, frame| {
                self.route_frame(from, delivered_at, frame, &mut consensus_in, events)
            });
        self.membership.node.rx_buf = rx;
        // A node the drain halted does nothing here, and never polls
        // again.
        self.membership.tick();
        if self.membership.is_halted() {
            self.consensus_in = consensus_in;
            return;
        }
        let view = self.membership.view();
        if view != self.last_view {
            let members_changed = view.members != self.last_view.members;
            self.last_view = view;
            events.push(ServiceOutput::ViewInstalled(view));
            if members_changed {
                // State transfer: a changed member set means someone may
                // hold decisions we missed (and vice versa — they will
                // ask us symmetrically). Ask every other member for our
                // missing suffix, and allow a fresh snapshot negotiation
                // for this view.
                self.snapshot_requested_at = None;
                for to in view.members {
                    if to != self.me() {
                        self.request_sync(to);
                    }
                }
            }
        }
        // Consensus over the membership-emulated P.
        let suspects = self.membership.emulated_suspects();
        let mut sends = std::mem::take(&mut self.sends);
        for (slot, from, msg) in consensus_in.drain(..) {
            let full = self.driver.buffered() >= EARLY_FRAMES;
            if full && slot >= self.driver.tail() && !self.driver.is_open(slot) {
                self.membership.node.malformed_frames += 1;
                continue;
            }
            self.driver
                .on_message_into(slot, from, &msg, suspects, &mut sends);
        }
        self.consensus_in = consensus_in;
        // Open the tail slot, step, flush, commit — and go round again
        // while the commit grew the log, so the node that decides slot k
        // opens k + 1 in this poll rather than the next. A deciding
        // step settles slot `len(log)` in the driver, which keeps that
        // newest decision for the commit to read back and append.
        loop {
            let next = self.log.len();
            if self.driver.tail() == next && !self.driver.is_open(next) {
                if let Some(&cmd) = self.pool.iter().next() {
                    self.proposed = Some((next, cmd));
                    self.driver.open_into(next, cmd, suspects, &mut sends);
                }
            }
            self.driver.tick_into(suspects, &mut sends);
            self.flush_consensus(&mut sends, suspects);
            if let Some(&value) = self.driver.decision(next) {
                self.apply_at_tail(value, self.stamp(), events);
                self.commit_ready(events);
            }
            if self.log.len() == next {
                break;
            }
        }
        let timeouts = self.timeouts(now);
        self.run_retransmission(now, timeouts, &mut sends);
        self.sends = sends;
        if now >= self.next_gossip {
            self.next_gossip = now.saturating_add(self.membership.node.period);
            // Anti-entropy only on evidence that a peer lacks a pending
            // command. A log that did not grow for a whole period:
            // nothing is being decided, so whoever should propose these
            // may never have heard them (loss repair, and a cut-off
            // submitter after the heal). An outvoted proposal: the log
            // keeps moving, but a slot was decided without the command
            // this node put forward (its one broadcast was lost). A
            // command every peer holds reaches the log by the pool
            // order alone and is never sent twice.
            if self.outvoted || self.log.len() == self.gossip_tail {
                // GOSSIP_BATCH is small and fixed: snapshot the
                // commands into a stack array (broadcasting mutates
                // nothing, but the borrow checker cannot see that
                // through `&mut self`).
                let mut batch = [None; GOSSIP_BATCH];
                for (slot, &value) in batch.iter_mut().zip(self.pool.iter()) {
                    *slot = Some(value);
                }
                for value in batch.into_iter().flatten() {
                    self.broadcast(&WireMsg::Command(Command { value }));
                }
            }
            self.gossip_tail = self.log.len();
            self.outvoted = false;
            self.push_to_laggards(now, timeouts, events);
            self.maybe_compact();
        }
    }

    /// The horizon timeouts at `now`, from the membership's trust
    /// horizon.
    fn timeouts(&self, now: Nanos) -> Timeouts {
        Timeouts::at(
            now,
            self.membership.node.period,
            self.membership.trust_horizon(),
        )
    }

    /// The `attempts`-th current-view member other than this node
    /// (ascending order, wrapping) — rotates probe targets so one
    /// unlucky peer cannot absorb every retry.
    fn rotated_member(&self, attempts: u32) -> Option<ProcessId> {
        let me = self.me();
        let members = self.membership.view().members;
        let count = members.len() - usize::from(members.contains(me));
        if count == 0 {
            return None;
        }
        members
            .iter()
            .filter(|p| *p != me)
            .nth(attempts as usize % count)
    }

    /// The consensus half of the retransmission plane, run once per
    /// poll. An open slot that emitted fresh peer traffic this poll
    /// resets its timer (progress needs no retry); one silent past its
    /// deadline re-sends its stalled conversations, re-derived from
    /// core state ([`rfd_algo::driver::SlotDriver::retransmit_into`]: an
    /// estimate for every visited round from 1 on plus every unresolved
    /// coordinated proposal, round 0's included) — idempotent on
    /// receipt — plus a
    /// `SyncRequest` probe to one rotated member, covering the case
    /// where every peer already decided and retired the slot (plain
    /// re-sends would be dropped).
    /// Intervals back off exponentially up to the cap; attempts never
    /// stop — liveness under arbitrary loss needs unbounded retries.
    ///
    /// The re-sends go out through `sends`, the poll's (drained) send
    /// queue, and the transmit ring like every other consensus frame;
    /// the no-retry fast path (no open slot, or one making progress)
    /// touches neither.
    fn run_retransmission(
        &mut self,
        now: Nanos,
        timeouts: Timeouts,
        sends: &mut VecDeque<SlotSend<RotatingMsg<u64>>>,
    ) {
        // One slot timer, because the driver holds one instance.
        let tail = self.driver.tail();
        let open = self.driver.is_open(tail).then_some(tail);
        if let Some((slot, attempts)) = open.zip(self.retry.slot_due(now, timeouts, open)) {
            self.driver.retransmit_into(slot, sends);
            let mut resent = sends.len() as u64;
            let mut last = None;
            for (to, slot, msg) in sends.drain(..) {
                self.send_consensus(
                    to,
                    WireMsg::Consensus(ConsensusFrame { slot, msg }),
                    &mut last,
                );
            }
            // Tail probe: if the group decided this slot without us
            // hearing, one peer's suffix reply revives us.
            if let Some(target) = self.rotated_member(attempts) {
                self.request_sync(target);
                resent += 1;
            }
            self.retry.sent += resent;
        }
        self.retry_snapshot(now, timeouts);
    }

    /// Routes consensus sends, oldest first: peers get encoded frames,
    /// self-addressed messages loop straight back into the driver (cores
    /// rely on self-delivery; looping locally keeps that deterministic
    /// on any transport) and what they emit joins the back of the
    /// queue. First-in-first-out is what a channel would do, and it is
    /// load-bearing at n = 1: a lone process coordinates every round,
    /// and taking its newest send first would chase estimates through
    /// every round up to the core's cap before the round-0 ack queued
    /// ahead of them is delivered.
    ///
    /// A peer-addressed `Decide` is dropped here. The core ends an
    /// instance with a reliable broadcast of the decision, but the
    /// self-addressed copy is all this node needs from it (it is how a
    /// coordinator's own core decides): `apply_at_tail` then relays the
    /// entry as a `Decided` frame, which carries the index, the view
    /// stamp and the ack compaction reads — one announcement per slot,
    /// not two. A `Decide` *received* from a peer is still accepted.
    ///
    /// Any other emission to a peer *touches* the retry plane: fresh
    /// emission is progress, so the slot's retransmission timer resets
    /// instead of firing.
    fn flush_consensus(
        &mut self,
        sends: &mut VecDeque<SlotSend<RotatingMsg<u64>>>,
        suspects: ProcessSet,
    ) {
        let me = self.me();
        let mut last = None;
        while let Some((to, slot, msg)) = sends.pop_front() {
            if to == me {
                self.driver.on_message_into(slot, me, &msg, suspects, sends);
            } else if !matches!(msg, RotatingMsg::Decide(_)) {
                self.retry.touch();
                self.send_consensus(
                    to,
                    WireMsg::Consensus(ConsensusFrame { slot, msg }),
                    &mut last,
                );
            }
        }
    }

    /// Sends one consensus frame to peer `to`. A core's broadcast queues
    /// the same frame once per process, so a run of equal frames is
    /// encoded once, into the transmit ring, and its payload cloned per
    /// peer: `last` is the run's frame and payload.
    fn send_consensus(
        &mut self,
        to: ProcessId,
        frame: WireMsg,
        last: &mut Option<(WireMsg, Bytes)>,
    ) {
        let payload = match last.take() {
            Some((sent, payload)) if sent == frame => payload,
            _ => self.tx.encode(&frame),
        };
        self.send_raw(to, payload.clone());
        *last = Some((frame, payload));
    }

    /// Buffers an ahead-of-tail decision, inside the bounded window.
    fn buffer_future(&mut self, index: u64, value: u64, stamp: ViewStamp) {
        if index.saturating_sub(self.log.len()) <= FUTURE_WINDOW {
            self.future.insert(index, (value, stamp));
        }
    }

    /// A decision relay from `from`.
    fn on_decided(&mut self, from: ProcessId, d: &DecidedMsg, events: &mut Vec<ServiceOutput>) {
        // Relaying index i means the sender appended it: its log holds
        // at least i+1 entries — the ack compaction piggybacks on.
        self.note_acked(from, d.index.saturating_add(1));
        let stamp = ViewStamp {
            id: d.view_id,
            members: d.view_members,
        };
        match d.index.cmp(&self.log.len()) {
            std::cmp::Ordering::Less => {
                // Already appended: a re-relayed (or retransmitted)
                // decision — idempotent, counted.
                self.duplicate_frames_dropped += 1;
            }
            std::cmp::Ordering::Equal => {
                self.apply_at_tail(d.value, stamp, events);
                self.commit_ready(events);
            }
            std::cmp::Ordering::Greater => {
                self.buffer_future(d.index, d.value, stamp);
                // We are missing a prefix — ask the relay's sender, but
                // only once per tail position: every peer relays every
                // decision, and one full-suffix reply per stall is
                // enough.
                if self.gap_synced_at != Some(self.log.len()) && self.is_peer(from) {
                    self.gap_synced_at = Some(self.log.len());
                    self.request_sync(from);
                }
            }
        }
    }

    /// Appends at the log tail, retires the command, and relays the
    /// decision TRB-style (each node relays each index at most once —
    /// it can only be appended once).
    fn apply_at_tail(&mut self, value: u64, stamp: ViewStamp, events: &mut Vec<ServiceOutput>) {
        let index = self.log.append(value, stamp);
        self.note_committed(index, value);
        events.push(ServiceOutput::Decided(Decision {
            index,
            value,
            view: stamp,
        }));
        self.broadcast(&WireMsg::Decided(DecidedMsg {
            index,
            view_id: stamp.id,
            view_members: stamp.members,
            value,
        }));
    }

    /// Drains buffered future decisions that now touch the tail.
    fn commit_ready(&mut self, events: &mut Vec<ServiceOutput>) {
        while let Some((value, stamp)) = self.future.remove(&self.log.len()) {
            self.apply_at_tail(value, stamp, events);
        }
    }

    /// Whether `from` is a process of this group other than this node —
    /// the only senders state transfer answers or asks.
    fn is_peer(&self, from: ProcessId) -> bool {
        from != self.me() && from.index() < self.membership.node.n
    }

    fn learn_command(&mut self, value: u64) {
        if self.decided_values.contains(value) {
            // Request-id dedup: a re-gossiped command that already
            // decided must never re-enter the pool — a retry can never
            // double-decide a command.
            self.duplicate_frames_dropped += 1;
        } else {
            self.pool.insert(value);
        }
    }

    /// Bookkeeping shared by every way an entry enters the log.
    fn note_committed(&mut self, index: u64, value: u64) {
        self.outvoted |= self
            .proposed
            .is_some_and(|(slot, proposal)| slot == index && proposal != value);
        self.pool.remove(&value);
        self.decided_values.insert(value);
        self.driver.resolve(index, value);
    }

    /// The current view as a [`ViewStamp`].
    fn stamp(&self) -> ViewStamp {
        let view = self.membership.view();
        ViewStamp {
            id: view.id,
            members: set_to_members(view.members),
        }
    }

    fn send_raw(&self, to: ProcessId, payload: Bytes) {
        self.membership.transport().send(to, payload);
    }

    fn broadcast(&mut self, msg: &WireMsg) {
        let payload = self.tx.encode(msg);
        let node = &self.membership.node;
        node.fan_out(ProcessSet::full(node.n), &payload);
    }
}
