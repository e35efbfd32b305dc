//! A group membership service that **emulates a Perfect failure
//! detector** — the paper's §1.3 observation made executable.
//!
//! > "developers of reliable distributed systems have been considering,
//! > as a basic building block, a group membership service, which
//! > precisely aims at emulating a Perfect failure detector, i.e., when a
//! > process is suspected, i.e., timed-out, it is excluded from the
//! > group: every suspicion hence turns out to be accurate."
//!
//! Design: the lowest-index member of the current view is its
//! *coordinator*. Every member heartbeats every other member; when the
//! coordinator's local (unreliable, `◇P`-grade) detector suspects a
//! member, it installs the next view excluding every current suspect and
//! announces it. Members adopt any higher-numbered view. A process that
//! learns it has been excluded **halts** — this is the enforcement that
//! converts possibly-wrong suspicion into by-fiat accuracy: the emulated
//! `P` output of a node is exactly the complement of its current view.
//!
//! That default deliberately **split-brains under partitions**: each
//! side excludes the other, forever. The opt-in
//! [`MembershipNode::with_heal_merge`] mode trades the by-fiat guarantee
//! for *partition-heal reconciliation* — healed sides rejoin each other
//! and the fleet reconverges onto a single view (measured by experiment
//! E12 via [`crate::online::MembershipWatcher`]).
//!
//! ## Heartbeat coalescing
//!
//! In the announcing steady state (any installed view past the initial
//! one) the acting coordinator owes every member two frames per period:
//! its heartbeat and the view re-announcement. Those are **coalesced**
//! into one [`Batch`](WireMsg::Batch) datagram per destination, halving
//! the coordinator's send rate without changing what any receiver
//! observes (frames inside a batch are processed in order at the same
//! delivery instant).

// Wire-safety: no datagram may panic this module (ARCHITECTURE.md,
// "Determinism & wire-safety invariants"); its unit tests are exempt.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::allow_attributes_without_reason
)]

use crate::clock::{Clock, Nanos};
use crate::codec::{
    encode, for_each_frame, members_to_set, set_to_members, Heartbeat, ViewChange, WireMsg,
    WireView,
};
use crate::detector::DetectorNode;
use crate::estimator::ArrivalEstimator;
use crate::online::{membership_fleet, OnlineScenario};
use crate::transport::Transport;
use rfd_core::{FailurePattern, History, ProcessId, ProcessSet, Time};
use std::ops::ControlFlow;

/// A membership view: numbered, with a member set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct View {
    /// Monotone view identifier.
    pub id: u64,
    /// Current members.
    pub members: ProcessSet,
}

impl View {
    /// The coordinator: the lowest-index member.
    #[must_use]
    pub fn coordinator(&self) -> Option<ProcessId> {
        self.members.min()
    }

    /// This view as a [`ViewStamp`], whose order is the total view order.
    pub(crate) fn stamp(&self) -> ViewStamp {
        ViewStamp {
            id: self.id,
            members: set_to_members(self.members),
        }
    }
}

/// A view as the wire and the decision log carry it, and the **total
/// view order** of the heal-merge membership: primary key the monotone
/// view id, tiebreaker the member bitmap. Concurrent merge proposals
/// from two healed sides can carry the same id; comparing bitmaps makes
/// every node pick the same winner, so the fleet converges instead of
/// holding equal-id, different-member views. The derived `Ord` is
/// exactly that `(id, members)` lexicographic order, so heal-merge
/// adoption and the log's conflict rule are plain comparisons. The
/// `Default` stamp `(0, ∅)` is the bottom of that order, used before any
/// view is installed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct ViewStamp {
    /// Monotone view identifier.
    pub id: u64,
    /// Member bitmap of the view (bit `i` = `pᵢ`).
    pub members: u128,
}

impl ViewStamp {
    /// The members as a [`ProcessSet`] (restricted to an `n`-process
    /// universe).
    #[must_use]
    pub fn member_set(&self, n: usize) -> ProcessSet {
        members_to_set(self.members, n)
    }
}

/// One membership node: a [`DetectorNode`] plus views. The detector node
/// is the heartbeat half — detector, transport, clock, period, beat
/// schedule, receive buffer, send ring and malformed counter — and this
/// layer adds only the view, exclusion and heal-merge state.
#[derive(Debug)]
pub struct MembershipNode<E, T, C> {
    /// The heartbeat half; its send ring also carries the view
    /// announcements and the batches coalescing them.
    pub(crate) node: DetectorNode<E, T, C>,
    view: View,
    halted: bool,
    views_installed: u64,
    heal_merge: bool,
    /// Reusable frame list for the coalesced `[heartbeat, view change]`
    /// batch.
    batch_scratch: Vec<WireMsg>,
}

impl<E, T, C> MembershipNode<E, T, C>
where
    E: ArrivalEstimator + Clone,
    T: Transport,
    C: Clock,
{
    /// Creates a member with the initial full view, heartbeating every
    /// `period`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero ([`DetectorNode::new`]).
    #[must_use]
    pub fn new(n: usize, prototype: E, transport: T, clock: C, period: Nanos) -> Self {
        Self {
            node: DetectorNode::new(n, prototype, transport, clock, period),
            view: View {
                id: 0,
                members: ProcessSet::full(n),
            },
            halted: false,
            views_installed: 0,
            heal_merge: false,
            batch_scratch: Vec::new(),
        }
    }

    /// Datagrams/frames dropped as malformed: undecodable bytes, or a
    /// heartbeat whose claimed sender index falls outside the fleet.
    /// Frames of other protocol layers multiplexed over the same socket
    /// are *not* counted. This is the node's one counter
    /// ([`DetectorNode::malformed_frames`]), which a decision service
    /// layered on the membership adds its own rejections to.
    #[must_use]
    pub fn malformed_frames(&self) -> u64 {
        self.node.malformed_frames
    }

    /// Enables **partition-heal view reconciliation** (builder style).
    ///
    /// The classic §1.3 service split-brains by design: each side of a
    /// partition excludes the other, an excluded node halts when it
    /// learns of its exclusion, and the two surviving views never meet
    /// again. In heal-merge mode the node instead:
    ///
    /// * heartbeats **all** `n` processes (not just its view) and accepts
    ///   heartbeats from all of them, so liveness evidence keeps flowing
    ///   across a healed cut;
    /// * never halts on exclusion — it ignores views that omit it and
    ///   keeps announcing its own, waiting to be merged back;
    /// * as acting coordinator, **rejoins** any non-member with fresh
    ///   heartbeat evidence (heard at least once, not currently
    ///   suspected) by installing a higher view containing it;
    /// * totally orders views by `(id, member bitmap)`, so concurrent
    ///   merge proposals from the two healed sides cannot deadlock — the
    ///   fleet adopts the unique maximum and reconverges.
    ///
    /// Detection of a genuine crash is unaffected: a crashed process
    /// produces no fresh heartbeats, stays suspected, and is never
    /// rejoined.
    #[must_use]
    pub fn with_heal_merge(mut self) -> Self {
        self.heal_merge = true;
        self
    }

    /// The current view.
    #[must_use]
    pub fn view(&self) -> View {
        self.view
    }

    /// The emulated Perfect detector output: everyone outside the view.
    #[must_use]
    pub fn emulated_suspects(&self) -> ProcessSet {
        self.view.members.complement_within(self.node.n)
    }

    /// Whether this node halted after being excluded.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Number of view changes this node installed.
    #[must_use]
    pub fn views_installed(&self) -> u64 {
        self.views_installed
    }

    /// The node's transport handle — layers stacked on top of the
    /// membership (the decision service) send their own traffic through
    /// the same socket.
    #[must_use]
    pub fn transport(&self) -> &T {
        &self.node.transport
    }

    /// The estimator-derived **trust horizon**: the latest deadline the
    /// detector holds for any monitored view member — the instant by
    /// which every trusted peer will either have produced fresh traffic
    /// or have become a suspect (and hence been excluded). Each deadline
    /// is the detector's
    /// [`deadline`](crate::detector::HeartbeatDetector::deadline): the
    /// freshness point the peer's latest heartbeat fixed, raised by any
    /// later frame of its ([`on_evidence`](Self::on_evidence)). `None`
    /// until the first heartbeat arrives. Both were fixed on arrival, so
    /// asking costs one stored read per member however often it is
    /// asked.
    ///
    /// The decision service derives its horizon timeout from this: the
    /// laggard push, which chases a peer that may be gone, waits past
    /// it, so a crashed peer is excluded first. The
    /// open slot's retry timer only repairs loss; it runs on a measured
    /// round-trip estimate and uses this horizon only as an upper bound
    /// (and before its first sample).
    #[must_use]
    pub fn trust_horizon(&self) -> Option<Nanos> {
        let mut horizon: Option<Nanos> = None;
        for peer in self.view.members {
            if peer == self.transport().me() {
                continue;
            }
            if let Some(d) = self.node.detector.deadline(peer) {
                horizon = Some(horizon.map_or(d, |h| h.max(d)));
            }
        }
        horizon
    }

    fn adopt(&mut self, view: View) {
        if self.heal_merge {
            // Reconciliation mode: never halt. A view that omits this
            // (live) node is ignored — the node keeps its own view and
            // keeps heartbeating until a coordinator merges it back in.
            if view.members.contains(self.transport().me()) && view.stamp() > self.view.stamp() {
                self.view = view;
                self.views_installed += 1;
            }
        } else if view.id > self.view.id {
            self.view = view;
            self.views_installed += 1;
            if !view.members.contains(self.transport().me()) {
                // Excluded: enforce the suspicion — halt.
                self.halted = true;
            }
        }
    }

    /// One iteration of the membership loop: drain the transport, then
    /// run the periodic duties ([`MembershipNode::tick`]). A node that
    /// halts mid-drain never polls again, so the rest of the drain is
    /// dropped.
    pub fn poll(&mut self) {
        if self.halted {
            return;
        }
        let mut rx = std::mem::take(&mut self.node.rx_buf);
        self.transport().recv_batch(&mut rx);
        self.node.malformed_frames += for_each_frame(&mut rx, |_, delivered_at, frame| {
            self.on_wire_view(frame, delivered_at);
            if self.halted {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        self.node.rx_buf = rx;
        self.tick();
    }

    fn on_heartbeat_frame(&mut self, hb: &Heartbeat, delivered_at: Nanos) {
        if let Some(from) = self.node.heartbeat_sender(hb) {
            if self.listens_to(from) {
                self.node.detector.on_heartbeat(from, delivered_at);
            }
        }
    }

    /// Whether liveness evidence from `from` reaches the detector: a
    /// member's always, and anyone's in heal-merge mode — a frame from
    /// outside the view is exactly the evidence a rejoin needs.
    fn listens_to(&self, from: ProcessId) -> bool {
        self.heal_merge || self.view.members.contains(from)
    }

    /// Records that a frame other than a heartbeat arrived from `from`
    /// at `at` — evidence it was alive then (the detector's
    /// [`on_evidence`](crate::detector::HeartbeatDetector::on_evidence)).
    /// Filtered like a heartbeat: a non-member counts only in heal-merge
    /// mode, and this node and senders outside the fleet have no monitor
    /// to raise. A layer multiplexed over the same transport calls this
    /// for each of its frames; the membership's own
    /// [`poll`](Self::poll) does not.
    pub fn on_evidence(&mut self, from: ProcessId, at: Nanos) {
        if !self.halted && self.listens_to(from) {
            self.node.detector.on_evidence(from, at);
        }
    }

    /// Feeds one borrowed wire frame into the membership state machine
    /// (heartbeats and view changes; other protocol layers' frames are
    /// ignored). A caller that multiplexes several protocols over one
    /// transport — e.g. [`crate::service::DecisionService`] — drains the
    /// socket itself, routes membership traffic here, and then calls
    /// [`MembershipNode::tick`] once per loop iteration. A
    /// [`Batch`](WireMsg::Batch) is datagram framing, not a protocol
    /// message: hand its sub-frames over one by one
    /// ([`crate::codec::BatchView::iter`]).
    pub fn on_wire_view(&mut self, msg: &WireView<'_>, delivered_at: Nanos) {
        if self.halted {
            return;
        }
        match msg {
            WireView::Heartbeat(hb) => self.on_heartbeat_frame(hb, delivered_at),
            WireView::ViewChange(vc) => self.adopt(View {
                id: vc.view_id,
                members: members_to_set(vc.members, self.node.n),
            }),
            _ => {}
        }
    }

    /// The periodic (send-side) half of the membership loop: heartbeat
    /// emission, view re-announcement, and coordinator exclusion/rejoin
    /// duty. [`MembershipNode::poll`] calls this after draining the
    /// transport. Returns whether this call emitted the period's
    /// heartbeat — the beat a layer above runs its own per-period
    /// duties on.
    pub fn tick(&mut self) -> bool {
        if self.halted {
            return false;
        }
        let now = self.node.clock.now();
        let me = self.transport().me();
        let n = self.node.n;
        // Coordinator duty: exclude suspected members. The acting
        // coordinator is the lowest-index member *this node does not
        // suspect*; when the nominal coordinator crashes, duty fails
        // over to the next survivor.
        let suspects_now = self.node.detector.suspects(now);
        let acting_coordinator = self
            .view
            .members
            .difference(suspects_now)
            .min()
            .unwrap_or(me);
        // Heartbeat the current members — or, in heal-merge mode, every
        // process: cross-cut liveness evidence is what lets the healed
        // sides find each other again.
        let beat = self.node.due_heartbeat(now);
        let beating = beat.is_some();
        if let Some(hb) = beat {
            let hb_targets = if self.heal_merge {
                ProcessSet::full(n)
            } else {
                self.view.members
            };
            // Re-announce the installed view each period: announcements
            // travel over the same lossy channel as everything else, and a
            // member that misses a one-shot announcement would otherwise
            // stay on the stale view forever (breaking the emulated
            // detector's strong completeness).
            let announcing = acting_coordinator == me && self.view.id > 0;
            if announcing {
                let vc = WireMsg::ViewChange(ViewChange {
                    view_id: self.view.id,
                    members: set_to_members(self.view.members),
                });
                // Coalesced: one [heartbeat, view change] batch per
                // member, the view change alone to non-members — one
                // datagram per destination either way.
                let vc_only = self.node.tx.encode(&vc);
                let mut frames = std::mem::take(&mut self.batch_scratch);
                frames.clear();
                frames.push(hb);
                frames.push(vc);
                let both = self.node.tx.encode_batch(&frames);
                self.batch_scratch = frames;
                for to in ProcessSet::full(n) {
                    if to == me {
                        continue;
                    }
                    if hb_targets.contains(to) {
                        self.node.transport.send(to, both.clone());
                    } else {
                        self.node.transport.send(to, vc_only.clone());
                    }
                }
            } else {
                let hb_payload = self.node.tx.encode(&hb);
                self.node.fan_out(hb_targets, &hb_payload);
            }
        }
        if acting_coordinator == me {
            let suspected = suspects_now.intersection(self.view.members);
            // Heal-merge duty: re-admit any non-member with fresh
            // heartbeat evidence — heard at least once (the estimator has
            // a deadline) and not currently suspected. A crashed process
            // fails both forever, so only healed/recovered peers rejoin.
            let rejoiners = if self.heal_merge {
                self.view
                    .members
                    .complement_within(n)
                    .iter()
                    .filter(|p| {
                        self.node.detector.deadline(*p).is_some() && !suspects_now.contains(*p)
                    })
                    .collect()
            } else {
                ProcessSet::empty()
            };
            let new_members = self.view.members.difference(suspected).union(rejoiners);
            if new_members != self.view.members {
                let new_view = View {
                    id: self.view.id + 1,
                    members: new_members,
                };
                // Cold path (at most once per view change): a plain owned
                // encode is fine here.
                let payload = encode(&WireMsg::ViewChange(ViewChange {
                    view_id: new_view.id,
                    members: set_to_members(new_view.members),
                }));
                // Announce to everyone (including the excluded, so they
                // halt — or, under heal-merge, eventually rejoin).
                self.node.fan_out(ProcessSet::full(n), &payload);
                self.adopt(new_view);
            }
        }
        beating
    }
}

/// Outcome of a simulated membership scenario.
#[derive(Debug)]
pub struct MembershipOutcome {
    /// The emulated `P` history (1 tick = 1 ms of virtual time).
    pub emulated: History<ProcessSet>,
    /// The ground-truth pattern in the same time unit.
    pub pattern: FailurePattern,
    /// Correct processes excluded although they had not crashed (count
    /// of distinct false exclusions across the final views).
    pub false_exclusions: usize,
    /// Total view changes installed across nodes.
    pub view_changes: u64,
    /// Datagrams sent on the network.
    pub messages: u64,
    /// Virtual duration covered, in ms.
    pub duration_ms: u64,
}

/// Runs a full membership scenario over the virtual network and returns
/// the emulated history plus accounting. The history records every
/// node's emulated-`P` output once per `scenario.sample_every` tick, at
/// millisecond resolution (sample every 1 ms for a gapless history); the
/// ground-truth pattern holds each process's final crash — a crash
/// followed by a `Recover` is churn, not a crash-stop failure.
pub fn run_membership<E: ArrivalEstimator + Clone>(
    prototype: E,
    scenario: &OnlineScenario,
) -> MembershipOutcome {
    let n = scenario.n;
    let (endpoints, net, clock) = scenario.simulated_substrate();
    let mut fleet = membership_fleet(prototype, scenario, endpoints, net, clock);
    let mut pattern = FailurePattern::new(n);
    for pid in ProcessSet::full(n) {
        if let Some(t) = scenario.schedule.final_crash(pid) {
            pattern.set_crash(pid, Time::new(t.as_millis()));
        }
    }
    let mut emulated: History<ProcessSet> = History::new(n, ProcessSet::empty());
    fleet.run(|mut tick| {
        for (_, node) in tick.up_nodes() {
            node.poll();
        }
        let at = Time::new(tick.now.as_millis());
        for (pid, node) in ProcessSet::full(n).iter().zip(tick.nodes.iter()) {
            emulated.set_from(pid, at, node.emulated_suspects());
        }
    });
    // False exclusions: correct processes missing from any surviving
    // correct node's final view.
    let correct = pattern.correct();
    let mut falsely_excluded = ProcessSet::empty();
    for pid in correct {
        for other in correct {
            let excluded_by_other = fleet
                .nodes
                .get(other.index())
                .is_some_and(|node| !node.view().members.contains(pid));
            if excluded_by_other {
                falsely_excluded.insert(pid);
            }
        }
    }
    MembershipOutcome {
        emulated,
        pattern,
        false_exclusions: falsely_excluded.len(),
        view_changes: fleet
            .nodes
            .iter()
            .map(MembershipNode::views_installed)
            .sum(),
        messages: fleet.net.stats().0,
        duration_ms: scenario.duration.as_millis(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::ChenEstimator;
    use crate::online::{Fault, FaultSchedule};
    use crate::transport::{InMemoryNetwork, NetworkConfig};

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn chen() -> ChenEstimator {
        ChenEstimator::new(ms(150), 16, ms(600))
    }

    /// Four nodes, 50 ms heartbeats, 1–5 ms delays, 30 s sampled every
    /// millisecond.
    fn scenario() -> OnlineScenario {
        OnlineScenario {
            period: ms(50),
            delay: (ms(1), ms(5)),
            sample_every: ms(1),
            ..OnlineScenario::default()
        }
    }

    #[test]
    fn stable_group_keeps_the_full_view() {
        let outcome = run_membership(chen(), &scenario());
        assert_eq!(outcome.view_changes, 0);
        assert_eq!(outcome.false_exclusions, 0);
    }

    #[test]
    fn crashed_member_is_excluded_everywhere() {
        let scenario = OnlineScenario {
            schedule: FaultSchedule::new().at(ms(5_000), Fault::Crash(ProcessId::new(2))),
            ..scenario()
        };
        let outcome = run_membership(chen(), &scenario);
        assert!(outcome.view_changes >= 1);
        assert_eq!(outcome.false_exclusions, 0);
        // The emulated history is a Perfect history for the ms-scale
        // pattern (margin generous vs detection latency).
        let params = rfd_core::CheckParams::with_margin(Time::new(outcome.duration_ms), 5_000);
        let report = rfd_core::class_report(&outcome.pattern, &outcome.emulated, &params);
        assert!(
            report.is_in(rfd_core::ClassId::Perfect),
            "completeness {:?} accuracy {:?}",
            report.strong_completeness,
            report.strong_accuracy
        );
    }

    #[test]
    fn coordinator_crash_promotes_the_next_member() {
        let scenario = OnlineScenario {
            schedule: FaultSchedule::new().at(ms(5_000), Fault::Crash(ProcessId::new(0))),
            ..scenario()
        };
        let outcome = run_membership(chen(), &scenario);
        assert_eq!(outcome.false_exclusions, 0);
        // p0 (the initial coordinator) must be excluded: the new
        // coordinator p1 installed a view without it.
        let final_suspects = *outcome
            .emulated
            .value(ProcessId::new(1), Time::new(outcome.duration_ms - 1));
        assert!(final_suspects.contains(ProcessId::new(0)));
    }

    /// The recover-path contrast between the two policies. Under the
    /// default §1.3 enforcement a member excluded while down never gets
    /// back: it either halts on learning of its exclusion or — having
    /// already suspected everyone during its outage — lingers in a stale
    /// view of its own (equal view ids are never adopted), so the
    /// authoritative group stays split from it either way. Under
    /// heal-merge it is rejoined and the fleet reconverges.
    #[test]
    fn heal_merge_rejoins_a_recovered_member_instead_of_halting() {
        for merge in [false, true] {
            let n = 3;
            let clock = crate::clock::VirtualClock::new();
            let net = InMemoryNetwork::new(n, NetworkConfig::reliable(ms(1), ms(4)), clock.clone());
            let mut nodes: Vec<_> = (0..n)
                .map(|ix| {
                    let node = MembershipNode::new(
                        n,
                        ChenEstimator::new(ms(150), 16, ms(600)),
                        net.endpoint(ProcessId::new(ix)),
                        clock.clone(),
                        ms(50),
                    );
                    if merge {
                        node.with_heal_merge()
                    } else {
                        node
                    }
                })
                .collect();
            let victim = ProcessId::new(2);
            let mut down = false;
            while clock.now() < ms(20_000) {
                let now = clock.now();
                // One outage, [5 s, 10 s): without the upper bound the
                // guard would fire again on every tick after recovery.
                if !down && now >= ms(5_000) && now < ms(10_000) {
                    down = true;
                    net.take_down(victim);
                }
                if down && now >= ms(10_000) {
                    down = false;
                    net.bring_up(victim);
                }
                for (ix, node) in nodes.iter_mut().enumerate() {
                    if !(down && ix == victim.index()) {
                        node.poll();
                    }
                }
                clock.advance(ms(1));
            }
            // In both modes the outage was excluded by the coordinator.
            assert!(nodes[0].views_installed() >= 1, "merge={merge}");
            if merge {
                assert!(!nodes[2].is_halted(), "heal-merge never halts");
                for node in &nodes {
                    assert_eq!(
                        node.view().members,
                        ProcessSet::full(n),
                        "the recovered member was merged back (merge={merge})"
                    );
                }
            } else {
                // Exclusion is forever: the survivors' authoritative
                // view never re-admits the recovered member, and the
                // member either halted or split off into a stale view.
                assert!(!nodes[0].view().members.contains(victim));
                assert!(
                    nodes[2].is_halted() || nodes[2].view() != nodes[0].view(),
                    "default mode must not reconverge: {:?} vs {:?}",
                    nodes[2].view(),
                    nodes[0].view()
                );
            }
        }
    }

    #[test]
    fn excluded_node_halts_making_suspicion_accurate_by_fiat() {
        // Under heavy loss with an aggressive timeout, a correct process
        // may be excluded — the membership enforces the suspicion by
        // halting it. This is precisely the §1.3 mechanism.
        let scenario = OnlineScenario {
            loss: 0.45,
            period: ms(100),
            duration: ms(40_000),
            seed: 11,
            ..scenario()
        };
        let aggressive = crate::estimator::FixedTimeout::new(ms(220));
        let outcome = run_membership(aggressive, &scenario);
        // Whether or not a false exclusion happened under this seed, the
        // run must stay consistent: every view change monotone, and the
        // outcome accountable.
        assert!(outcome.view_changes < 100);
        if outcome.false_exclusions > 0 {
            // By-fiat accuracy: the falsely excluded node halted, so the
            // remaining group's view is still coherent.
            assert!(outcome.false_exclusions <= scenario.n);
        }
    }
}
