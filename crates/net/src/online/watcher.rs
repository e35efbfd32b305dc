//! The membership-fleet observer and the churn driver that feeds it.

use super::fleet::Fleet;
use super::schedule::{Fault, OnlineScenario};
use crate::clock::{Nanos, Pacer, SkewedClock};
use crate::estimator::ArrivalEstimator;
use crate::membership::MembershipNode;
use crate::transport::{ChurnableTransport, Transport};
use rfd_core::{ProcessId, ProcessSet};

/// The report of a [`MembershipWatcher`].
#[derive(Clone, Debug)]
pub struct MembershipChurnReport {
    /// Per process: time from its first crash to its exclusion from the
    /// authoritative view. `None` if it never crashed, was never
    /// excluded, or was excluded *before* it crashed (that exclusion did
    /// not detect the crash — it shows up in
    /// [`MembershipChurnReport::false_exclusions`] instead).
    pub exclusion_latency: Vec<Option<Nanos>>,
    /// Processes excluded although they had neither crashed nor been
    /// down before — the by-fiat accuracy enforcement of §1.3 (typical
    /// under partitions).
    pub false_exclusions: ProcessSet,
    /// View installations observed across the fleet.
    pub view_changes: u64,
    /// Total time the fleet spent **split-brained**: live, non-halted
    /// members holding at least two distinct views (id or member set).
    /// Accumulated between observation ticks, so its resolution is the
    /// observation cadence and the partial interval after the final
    /// observation is not counted (an undercount of at most one tick).
    pub split_brain_duration: Nanos,
    /// Per noted heal ([`MembershipWatcher::note_heal`]), the time from
    /// the heal to the first observation at which every live member held
    /// one single view again. `None` if the fleet never reconverged
    /// before the observation ended — the default (merge-less) service
    /// split-brains forever; the heal-merge reconciliation is what makes
    /// these finite.
    pub time_to_reconverge: Vec<Option<Nanos>>,
    /// Decision-log entries adopted via post-heal **state transfer**
    /// (suffix merges and snapshot installs) across the fleet — the work
    /// the heal-merge re-sync did. Filled by the service runner (each
    /// log's `transferred()` summed); a bare [`MembershipWatcher`]
    /// reports zero.
    pub decisions_transferred: u64,
    /// Decision-log entries *discarded* while reconciling (a conflicting
    /// suffix lost to the total view order). Zero as long as the service
    /// layer's agreement holds; any other value is a safety red flag.
    /// Filled by the service runner (each log's `lost()` summed); a bare
    /// [`MembershipWatcher`] reports zero.
    pub decisions_lost: u64,
    /// Snapshot summaries served to fast-rejoining peers — the
    /// compaction fast path of the service layer. Filled by the service
    /// runner (each node's `snapshots_served()` summed); a bare
    /// [`MembershipWatcher`] reports zero.
    pub snapshots_sent: u64,
    /// Total encoded bytes of sync and snapshot reply frames served
    /// across the fleet — the transfer cost experiment E14 plots
    /// against log length. Filled by the service runner (each node's
    /// `sync_bytes_served()` summed); a bare [`MembershipWatcher`]
    /// reports zero.
    pub sync_bytes_sent: u64,
    /// Per resolved heal: the time from the heal until every live
    /// replica caught up to the pre-heal log length — E14's rejoin
    /// latency. Filled by the service runner, which times the heals; a
    /// bare [`MembershipWatcher`] reports none.
    pub rejoin_latencies: Vec<Nanos>,
    /// Adversarial-weather directives applied during the run
    /// ([`MembershipWatcher::note_weather`]) — zero on a crash-only
    /// schedule, so a report can attest which fault vocabulary the
    /// fleet was actually exposed to.
    pub weather_directives: u64,
    /// Frames re-sent by the service layer's retransmission plane
    /// across the fleet. Zero on a calm network — retransmission is
    /// pure insurance against loss. Filled by the service runner
    /// (node-level counters summed); a bare [`MembershipWatcher`]
    /// reports zero.
    pub retransmits_sent: u64,
    /// Received frames the service layer dropped as duplicates
    /// (idempotent receipt of retransmitted or raced frames), summed
    /// across the fleet. Filled by the service runner; a bare
    /// [`MembershipWatcher`] reports zero.
    pub duplicate_frames_dropped: u64,
}

/// An incremental observer of a membership fleet under churn: feed it
/// ground-truth fault notes and periodic view observations; read the
/// report at any time.
#[derive(Clone, Debug)]
pub struct MembershipWatcher {
    n: usize,
    down: ProcessSet,
    first_crash: Vec<Option<Nanos>>,
    excluded_at: Vec<Option<Nanos>>,
    false_exclusions: ProcessSet,
    last_view_ids: Vec<u64>,
    /// Last observed member set per node: heal-merge adoption is ordered
    /// by `(id, member bitmap)`, so an installation can keep the id and
    /// change only the members — counted as a view change too.
    last_view_members: Vec<Option<ProcessSet>>,
    view_changes: u64,
    /// Whether the previous observation saw divergent views, and when it
    /// was taken — the state that turns per-tick observations into the
    /// accumulated split-brain duration.
    diverged: bool,
    last_observed: Option<Nanos>,
    split_brain: Nanos,
    /// `(heal time, time to reconverge)` per noted heal; the second
    /// component stays `None` until a convergent observation follows.
    heals: Vec<(Nanos, Option<Nanos>)>,
    weather_directives: u64,
}

impl MembershipWatcher {
    /// A watcher over `n` processes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            n,
            down: ProcessSet::empty(),
            first_crash: vec![None; n],
            excluded_at: vec![None; n],
            false_exclusions: ProcessSet::empty(),
            last_view_ids: vec![0; n],
            last_view_members: vec![None; n],
            view_changes: 0,
            diverged: false,
            last_observed: None,
            split_brain: Nanos::ZERO,
            heals: Vec::new(),
            weather_directives: 0,
        }
    }

    /// Notes one applied ground-truth [`Fault`] — the one mapping from
    /// the fault vocabulary onto the `note_*` family, shared by every
    /// driver that watches a fleet.
    pub fn note_fault(&mut self, at: Nanos, fault: &Fault) {
        match fault {
            Fault::Crash(p) => self.note_crash(*p, at),
            Fault::Recover(p) => self.note_recover(*p),
            Fault::Heal => self.note_heal(at),
            Fault::Partition(_) => {}
            Fault::Weather(_) => self.note_weather(),
        }
    }

    /// Notes a ground-truth crash of `p` at `at`. Out-of-range processes
    /// (`p.index() >= n`) are ignored — the watcher tracks only the
    /// fleet it was sized for.
    pub fn note_crash(&mut self, p: ProcessId, at: Nanos) {
        if p.index() >= self.n {
            return;
        }
        self.down.insert(p);
        if self.first_crash[p.index()].is_none() {
            self.first_crash[p.index()] = Some(at);
        }
    }

    /// Notes a ground-truth recovery of `p` (out-of-range ignored, as in
    /// [`MembershipWatcher::note_crash`]).
    pub fn note_recover(&mut self, p: ProcessId) {
        if p.index() >= self.n {
            return;
        }
        self.down.remove(p);
    }

    /// Notes one applied adversarial-weather directive (see
    /// [`Fault::Weather`]): the report's attestation that the run was
    /// weathered, not calm.
    pub fn note_weather(&mut self) {
        self.weather_directives += 1;
    }

    /// Notes that the network partition healed at `at`: the fleet's time
    /// to reconverge onto a single view is measured from here (reported
    /// in [`MembershipChurnReport::time_to_reconverge`]).
    pub fn note_heal(&mut self, at: Nanos) {
        self.heals.push((at, None));
    }

    /// Feeds one observation tick: `views` holds, for each live
    /// (non-halted) member, its current view id and member set. A
    /// process counts as *excluded* once the **authoritative view** —
    /// the one held by the lowest-index live member, i.e. the
    /// coordinator lineage — omits it. (Judging against *every* view
    /// would deadlock under split-brain: a partitioned minority keeps a
    /// stale view containing itself until it learns of its exclusion.)
    ///
    /// Members with an out-of-range index (`>= n`) are skipped rather
    /// than indexed — the same latent panic family as the heartbeat
    /// sender guard in
    /// [`crate::membership::MembershipNode::on_wire_view`].
    pub fn observe<I>(&mut self, now: Nanos, views: I)
    where
        I: IntoIterator<Item = (ProcessId, u64, ProcessSet)>,
    {
        let mut authority: Option<(ProcessId, ProcessSet)> = None;
        let mut first_view: Option<(u64, ProcessSet)> = None;
        let mut saw_view = false;
        let mut diverged_now = false;
        for (member, view_id, members) in views {
            if member.index() >= self.n {
                continue;
            }
            match &authority {
                Some((lowest, _)) if member >= *lowest => {}
                _ => authority = Some((member, members)),
            }
            match first_view {
                Some(v) if v != (view_id, members) => diverged_now = true,
                None => first_view = Some((view_id, members)),
                Some(_) => {}
            }
            saw_view = true;
            let last = &mut self.last_view_ids[member.index()];
            if view_id > *last {
                self.view_changes += view_id - *last;
                *last = view_id;
            } else if view_id == *last
                && self.last_view_members[member.index()].is_some_and(|m| m != members)
            {
                // A same-id, different-members installation: the
                // heal-merge total order advanced on the bitmap alone.
                self.view_changes += 1;
            }
            self.last_view_members[member.index()] = Some(members);
        }
        // Split-brain accounting: the interval since the previous
        // observation carries that observation's divergence verdict.
        if self.diverged {
            if let Some(prev) = self.last_observed {
                self.split_brain = self.split_brain.saturating_add(now.saturating_sub(prev));
            }
        }
        self.diverged = diverged_now;
        self.last_observed = Some(now);
        if saw_view && !diverged_now {
            for (healed_at, reconverged) in &mut self.heals {
                if reconverged.is_none() && now >= *healed_at {
                    *reconverged = Some(now.saturating_sub(*healed_at));
                }
            }
        }
        let Some((_, authoritative_members)) = authority else {
            return;
        };
        let excluded = authoritative_members.complement_within(self.n);
        for p in excluded {
            if self.excluded_at[p.index()].is_none() {
                self.excluded_at[p.index()] = Some(now);
                if !self.down.contains(p) && self.first_crash[p.index()].is_none() {
                    self.false_exclusions.insert(p);
                }
            }
        }
    }

    /// The report so far.
    #[must_use]
    pub fn report(&self) -> MembershipChurnReport {
        let exclusion_latency = (0..self.n)
            .map(|ix| match (self.first_crash[ix], self.excluded_at[ix]) {
                // An exclusion that precedes the crash did not detect it
                // (e.g. a partition exclusion before a later crash): a
                // saturated 0 here would read as instant detection.
                (Some(c), Some(e)) if e >= c => Some(e.saturating_sub(c)),
                _ => None,
            })
            .collect();
        MembershipChurnReport {
            exclusion_latency,
            false_exclusions: self.false_exclusions,
            view_changes: self.view_changes,
            split_brain_duration: self.split_brain,
            time_to_reconverge: self.heals.iter().map(|(_, r)| *r).collect(),
            decisions_transferred: 0,
            decisions_lost: 0,
            snapshots_sent: 0,
            sync_bytes_sent: 0,
            rejoin_latencies: Vec::new(),
            weather_directives: self.weather_directives,
            retransmits_sent: 0,
            duplicate_frames_dropped: 0,
        }
    }
}

/// Drives a [`MembershipNode`] fleet through the scenario's fault
/// schedule over the simulated network (deterministic per seed),
/// observing it live with a [`MembershipWatcher`], and returns the
/// watcher's report. Delegates to [`run_membership_churn_over`].
///
/// With `scenario.heal_merge` off (the default), exclusion is forever —
/// the §1.3 enforcement: a process excluded while down or partitioned
/// either halts on learning of a newer view that omits it, or (having
/// suspected everyone during its outage) splits off into a stale view of
/// its own that the authoritative group never readopts. With it on, the
/// fleet instead reconciles after partitions heal: divergent views merge
/// back into a single one and
/// [`MembershipChurnReport::time_to_reconverge`] becomes finite.
pub fn run_membership_churn<E: ArrivalEstimator + Clone>(
    prototype: E,
    scenario: &OnlineScenario,
) -> MembershipChurnReport {
    let (endpoints, net, clock) = scenario.simulated_substrate();
    run_membership_churn_over(prototype, scenario, endpoints, net, clock)
}

/// A [`MembershipNode`] fleet for `scenario` over an arbitrary
/// substrate, reconciling after heals iff `scenario.heal_merge`.
pub(crate) fn membership_fleet<E, T, C, N>(
    prototype: E,
    scenario: &OnlineScenario,
    endpoints: Vec<T>,
    net: N,
    clock: C,
) -> Fleet<MembershipNode<E, T, SkewedClock<C>>, C, N>
where
    E: ArrivalEstimator + Clone,
    T: Transport,
    C: Pacer + Clone,
    N: ChurnableTransport,
{
    let (n, period, heal_merge) = (scenario.n, scenario.period, scenario.heal_merge);
    Fleet::over(
        scenario.clone(),
        endpoints,
        net,
        clock,
        |endpoint, clock| {
            let node = MembershipNode::new(n, prototype.clone(), endpoint, clock, period);
            if heal_merge {
                node.with_heal_merge()
            } else {
                node
            }
        },
    )
}

/// The transport-generic membership churn driver behind
/// [`run_membership_churn`]: one [`Transport`] per node, the
/// [`ChurnableTransport`] control plane the schedule acts on, and the
/// [`Pacer`] clock that paces the observation ticks — pass
/// [`crate::transport::FaultyTransport`]-wrapped UDP sockets and a
/// [`crate::clock::SystemClock`] to churn a membership fleet over real
/// sockets in wall time.
///
/// # Panics
///
/// Panics if `endpoints.len() != scenario.n`, if an endpoint's identity
/// disagrees with its position, or if the schedule crashes or recovers
/// a process outside the fleet.
pub fn run_membership_churn_over<E, T, C, N>(
    prototype: E,
    scenario: &OnlineScenario,
    endpoints: Vec<T>,
    net: N,
    clock: C,
) -> MembershipChurnReport
where
    E: ArrivalEstimator + Clone,
    T: Transport,
    C: Pacer + Clone,
    N: ChurnableTransport,
{
    let mut fleet = membership_fleet(prototype, scenario, endpoints, net, clock);
    let mut watcher = MembershipWatcher::new(scenario.n);
    fleet.run(|mut tick| {
        for (at, fault) in tick.faults {
            watcher.note_fault(*at, fault);
        }
        for (_, node) in tick.up_nodes() {
            node.poll();
        }
        watcher.observe(
            tick.now,
            tick.up_nodes()
                .filter(|(_, node)| !node.is_halted())
                .map(|(pid, node)| {
                    let v = node.view();
                    (pid, v.id, v.members)
                }),
        );
    });
    watcher.report()
}
