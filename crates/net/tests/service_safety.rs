//! Adversarial safety battery for the live replicated-decision service.
//!
//! The contract under test is the paper's reason group membership
//! exists: the service's log must behave like `P`-based consensus —
//! **no two nodes ever decide different values at the same log index**,
//! whatever crash / recover / partition / heal schedule the run is put
//! through, and post-heal state transfer must never lose a decision
//! that was acknowledged to a client. Schedules are random (the same
//! generator family as `reconverge.rs`), runs are deterministic per
//! seed, and the checks read the *event timeline*, not just the final
//! state, so even a transient disagreement would fail the property.
//!
//! The same contract is re-run under the adversarial weather catalogue
//! ([`rfd_net::weather`]): proptest composes random subsets of all
//! seven weather primitives — one-way partitions, flapping links,
//! duplication, bounded reordering, gray failure, clock skew,
//! correlated zone crashes — into one schedule, and the agreement /
//! no-fork / acked-never-lost properties must survive every
//! composition, reproducibly per seed.
//!
//! The deterministic half regression-tests the out-of-range
//! `ProcessId` handling fixed alongside this layer: wild heartbeat
//! senders, oversized watcher members, and hostile service frames.

use proptest::prelude::*;
use rfd_core::{ProcessId, ProcessSet};
use rfd_net::clock::{ClockSkew, Nanos, Pacer, VirtualClock};
use rfd_net::codec::{
    decode_borrowed, encode, DecidedMsg, Heartbeat, SnapshotReply, SyncReply, SyncRequest, WireMsg,
    WireView, MAX_SYNC_ENTRIES,
};
use rfd_net::estimator::{ArrivalEstimator, ChenEstimator};
use rfd_net::membership::MembershipNode;
use rfd_net::online::{Fault, FaultSchedule, MembershipWatcher, OnlineScenario};
use rfd_net::service::{
    run_service, CompactionPolicy, DecisionService, ServiceEvent, ServiceRunner, ServiceScenario,
};
use rfd_net::transport::{ChurnableTransport, InMemoryNetwork, NetworkConfig, Transport};
use rfd_net::weather::Weather;
use rfd_net::DetectorNode;
use std::collections::BTreeMap;

fn ms(v: u64) -> Nanos {
    Nanos::from_millis(v)
}

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

fn chen() -> ChenEstimator {
    ChenEstimator::new(ms(150), 16, ms(600))
}

/// Builds a service scenario from generated churn: `cuts` are
/// `(gap, hold, side_bits)` partition/heal rounds, `crash` an optional
/// `(victim, at, recovery_hold)` cycle, commands spaced through the run.
fn churn_scenario(
    seed: u64,
    heal_merge: bool,
    cuts: &[(u64, u64, u8)],
    crash: Option<(usize, u64, u64)>,
) -> ServiceScenario {
    let n = 4;
    let mut schedule = FaultSchedule::new();
    let mut t = 0u64;
    for &(gap, hold, side_bits) in cuts {
        t += gap;
        let side: ProcessSet = (0..n)
            .filter(|ix| side_bits & (1 << ix) != 0)
            .map(p)
            .collect();
        schedule = schedule.at(ms(t), Fault::Partition(side));
        t += hold;
        schedule = schedule.at(ms(t), Fault::Heal);
    }
    if let Some((victim, at, hold)) = crash {
        schedule = schedule
            .at(ms(at), Fault::Crash(p(victim)))
            .at(ms(at + hold), Fault::Recover(p(victim)));
    }
    let duration = ms(t.max(10_000) + 12_000);
    let mut scenario = ServiceScenario {
        online: OnlineScenario {
            n,
            duration,
            seed,
            heal_merge,
            schedule,
            ..OnlineScenario::default()
        },
        ..ServiceScenario::default()
    };
    // Six commands spread across the run, round-robin clients.
    let gap = duration.as_millis() / 8;
    for i in 0..6u64 {
        scenario = scenario.command(ms(gap * (i + 1)), p((i as usize) % n), 100 + i);
    }
    scenario
}

/// Drives the scenario over the default in-memory substrate and checks
/// the safety contract (panics on violation, so it works both as a
/// property body and as a plain test helper).
fn assert_safety(scenario: &ServiceScenario) {
    check_safety(ServiceRunner::new(chen(), scenario.clone()));
}

/// The substrate-agnostic safety checker: drives any [`ServiceRunner`]
/// to completion checking the contract on the live event stream *and*
/// the final logs.
fn check_safety<E, T, C, N>(mut runner: ServiceRunner<E, T, C, N>)
where
    E: ArrivalEstimator + Clone,
    T: Transport,
    C: Pacer + Clone,
    N: ChurnableTransport,
{
    // index -> first value ever acknowledged at that index, across the
    // whole fleet and the whole run.
    let mut acked: BTreeMap<u64, u64> = BTreeMap::new();
    while let Some(events) = runner.step() {
        for event in events {
            if let ServiceEvent::Decided { decision, node, .. } = event {
                let first = *acked.entry(decision.index).or_insert(decision.value);
                assert_eq!(
                    first, decision.value,
                    "agreement violated live at index {} by {node}",
                    decision.index
                );
            }
        }
    }
    let report = runner.report();
    assert!(
        report.agreement_holds(),
        "final logs disagree: {:?}",
        report.logs
    );
    assert_eq!(
        report.membership.decisions_lost, 0,
        "state transfer discarded decided entries"
    );
    // No double-decide: command values identify requests, so a value
    // appearing at two log indices means a retry (re-gossip or
    // retransmission) re-entered the pipeline past the dedup layer.
    for (node, log) in report.logs.iter().enumerate() {
        let mut values: Vec<u64> = log.iter().map(|d| d.value).collect();
        values.sort_unstable();
        let before = values.len();
        values.dedup();
        assert_eq!(
            before,
            values.len(),
            "node {node} decided some command at two indices: {log:?}"
        );
    }
    // No acknowledged decision is ever lost: every final log that
    // retains an acked index still holds the acked value, and each
    // acked index is either retained somewhere or compacted — folded
    // into a digest chain, which only ever happens to decided prefixes
    // every current member acknowledged.
    for (&index, &value) in &acked {
        let mut holders = 0;
        let mut compacted = 0;
        for (log, &base) in report.logs.iter().zip(&report.bases) {
            if index < base {
                compacted += 1;
                continue;
            }
            if let Some(d) = log.iter().find(|d| d.index == index) {
                assert_eq!(d.value, value, "acked decision rewritten at {index}");
                holders += 1;
            }
        }
        assert!(
            holders + compacted > 0,
            "acked index {index} vanished from every log"
        );
    }
}

proptest! {
    // Each case is a full multi-second virtual run; keep the count
    // modest (CI runs this file on every push).
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Safety under random crash/partition/heal churn, with heal-merge
    /// reconciliation (and therefore live state transfer) enabled.
    #[test]
    fn no_two_nodes_ever_decide_differently_under_heal_merge_churn(
        seed in 0u64..1024,
        cuts in prop::collection::vec((2_000u64..7_000, 2_000u64..6_000, 1u8..15), 1..3),
        crash in prop::option::of((1usize..4, 3_000u64..15_000, 2_000u64..6_000)),
    ) {
        assert_safety(&churn_scenario(seed, true, &cuts, crash));
    }

    /// The same contract under the default merge-less policy: excluded
    /// nodes halt (by-fiat accuracy) but the logs never fork.
    #[test]
    fn merge_less_exclusion_preserves_agreement_too(
        seed in 0u64..1024,
        cuts in prop::collection::vec((2_000u64..7_000, 2_000u64..6_000, 1u8..15), 1..2),
        crash in prop::option::of((1usize..4, 3_000u64..15_000, 2_000u64..6_000)),
    ) {
        assert_safety(&churn_scenario(seed, false, &cuts, crash));
    }

    /// The same agreement + acked-never-lost contract with snapshot
    /// compaction enabled: random churn, random (small) retained tails,
    /// so runs routinely compact past what a partitioned node holds and
    /// the post-heal catch-up exercises the snapshot path.
    #[test]
    fn compaction_preserves_agreement_and_acked_decisions_under_churn(
        seed in 0u64..1024,
        retain in 1u64..6,
        cuts in prop::collection::vec((2_000u64..7_000, 2_000u64..6_000, 1u8..15), 1..3),
        crash in prop::option::of((1usize..4, 3_000u64..15_000, 2_000u64..6_000)),
    ) {
        let scenario = churn_scenario(seed, true, &cuts, crash)
            .with_compaction(CompactionPolicy::retain_last(retain));
        assert_safety(&scenario);
    }

    /// The compaction contract without heal-merge reconciliation:
    /// excluded nodes halt instead of rejoining, so the stable index is
    /// driven purely by the surviving view's acks — compaction must
    /// never outrun an acked decision (every acked index stays retained
    /// on some live log or digest-covered behind a base), and the
    /// halted logs must still never fork from the survivors'.
    #[test]
    fn merge_less_compaction_preserves_agreement_and_acked_decisions(
        seed in 0u64..1024,
        retain in 1u64..6,
        cuts in prop::collection::vec((2_000u64..7_000, 2_000u64..6_000, 1u8..15), 1..3),
        crash in prop::option::of((1usize..4, 3_000u64..15_000, 2_000u64..6_000)),
    ) {
        let scenario = churn_scenario(seed, false, &cuts, crash)
            .with_compaction(CompactionPolicy::retain_last(retain));
        assert_safety(&scenario);
    }

    /// Determinism: the full report of a churned service run is a pure
    /// function of the scenario seed.
    #[test]
    fn churned_service_reports_reproduce_per_seed(
        seed in 0u64..64,
        cuts in prop::collection::vec((2_000u64..7_000, 2_000u64..6_000, 1u8..15), 1..2),
    ) {
        let scenario = churn_scenario(seed, true, &cuts, None);
        let mut runner_a = ServiceRunner::new(chen(), scenario.clone());
        let mut runner_b = ServiceRunner::new(chen(), scenario);
        prop_assert_eq!(runner_a.run_to_end(), runner_b.run_to_end());
        let (a, b) = (runner_a.report(), runner_b.report());
        prop_assert_eq!(a.logs, b.logs);
        prop_assert_eq!(a.membership.view_changes, b.membership.view_changes);
        prop_assert_eq!(a.membership.decisions_transferred, b.membership.decisions_transferred);
    }
}

// ---- composed adversarial weather ------------------------------------

/// A proptest-shaped composition over all seven weather primitives:
/// every field optional, so cases range from clear skies to the full
/// storm. Times are milliseconds inside the 14 s run.
#[derive(Clone, Debug)]
struct WeatherSpec {
    one_way: Option<(usize, usize, u64, u64)>,
    flap: Option<(usize, usize, u64, u64, u64)>,
    dup: Option<(u16, u64)>,
    reorder: Option<(u16, u64, u64)>,
    gray: Option<(usize, u64, u64, u64)>,
    skew: Option<(usize, u32, u32)>,
    zone: Option<(u8, u64, Option<u64>)>,
}

fn weather_spec() -> impl Strategy<Value = WeatherSpec> {
    (
        prop::option::of((0usize..4, 0usize..4, 1_500u64..6_000, 1_000u64..4_000)),
        prop::option::of((
            0usize..4,
            0usize..4,
            200u64..800,
            1_500u64..5_000,
            1_000u64..3_000,
        )),
        prop::option::of((0u16..700, 1_000u64..4_000)),
        prop::option::of((0u16..500, 10u64..80, 1_000u64..4_000)),
        prop::option::of((0usize..4, 100u64..1_200, 2_000u64..6_000, 1_000u64..4_000)),
        prop::option::of((0usize..4, 1u32..4, 1u32..4)),
        prop::option::of((1u8..8, 3_000u64..8_000, prop::option::of(1_000u64..4_000))),
    )
        .prop_map(
            |(one_way, flap, dup, reorder, gray, skew, zone)| WeatherSpec {
                one_way,
                flap,
                dup,
                reorder,
                gray,
                skew,
                zone,
            },
        )
}

/// Compiles a spec into a [`Weather`]. Degenerate draws (self-links,
/// zero probabilities, identity skews) stay in on purpose: they are
/// legal compositions and must also be safe.
fn build_weather(spec: &WeatherSpec) -> Weather {
    let mut w = Weather::new();
    if let Some((from, to, at, hold)) = spec.one_way {
        w = w.one_way(
            ProcessSet::singleton(p(from)),
            ProcessSet::singleton(p(to)),
            ms(at),
            Some(ms(at + hold)),
        );
    }
    if let Some((a, b, half, at, span)) = spec.flap {
        w = w.flap(p(a), p(b), ms(half), ms(at), ms(at + span));
    }
    if let Some((per_mille, at)) = spec.dup {
        w = w.duplicate(per_mille, ms(at), Some(ms(at + 4_000)));
    }
    if let Some((per_mille, hold, at)) = spec.reorder {
        w = w.reorder(per_mille, ms(hold), ms(at), Some(ms(at + 4_000)));
    }
    if let Some((node, extra, at, hold)) = spec.gray {
        w = w.gray(p(node), ms(extra), ms(at), Some(ms(at + hold)));
    }
    if let Some((node, num, den)) = spec.skew {
        w = w.skew(p(node), ClockSkew::ratio(num, den));
    }
    if let Some((bits, at, recover)) = spec.zone {
        // The zone draws from {p1, p2, p3}; p0 stays up so the QoS and
        // command paths always have a live anchor.
        let zone: ProcessSet = (1..4)
            .filter(|ix| bits & (1 << (ix - 1)) != 0)
            .map(p)
            .collect();
        w = w.correlated_crash(zone, ms(at), recover.map(|hold| ms(at + hold)));
    }
    w
}

/// The workload every weather composition runs under: n=4, 14 s,
/// heal-merge on, six commands spread through calm and storm.
fn weather_scenario(spec: &WeatherSpec, seed: u64) -> ServiceScenario {
    let mut scenario = ServiceScenario {
        online: build_weather(spec).apply_to(OnlineScenario {
            n: 4,
            duration: ms(14_000),
            seed,
            heal_merge: true,
            ..OnlineScenario::default()
        }),
        ..ServiceScenario::default()
    };
    for i in 0..6u64 {
        scenario = scenario.command(ms(1_500 * (i + 1)), p((i as usize) % 4), 300 + i);
    }
    scenario
}

proptest! {
    // Weather runs drive four fault planes at once; keep the per-push
    // case count modest like the churn battery above.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Agreement at every index, no log forks, and no acked decision
    /// lost under random compositions of all seven weather primitives.
    #[test]
    fn composed_weather_never_breaks_agreement_or_loses_acked_decisions(
        seed in 0u64..1024,
        spec in weather_spec(),
    ) {
        let scenario = weather_scenario(&spec, seed);
        check_safety(ServiceRunner::new(chen(), scenario));
    }

    /// Every composed weather run is a pure function of (spec, seed):
    /// the full report replays bit-identically.
    #[test]
    fn composed_weather_runs_reproduce_per_seed(
        seed in 0u64..64,
        spec in weather_spec(),
    ) {
        let scenario = weather_scenario(&spec, seed);
        let mut runner_a = ServiceRunner::new(chen(), scenario.clone());
        let mut runner_b = ServiceRunner::new(chen(), scenario);
        prop_assert_eq!(runner_a.run_to_end(), runner_b.run_to_end());
        let (a, b) = (runner_a.report(), runner_b.report());
        prop_assert_eq!(a.logs, b.logs);
        prop_assert_eq!(a.bases, b.bases);
        prop_assert_eq!(a.membership.view_changes, b.membership.view_changes);
        prop_assert_eq!(a.membership.weather_directives, b.membership.weather_directives);
    }

    /// Retry safety: random weather compositions with uniform datagram
    /// loss stacked on top, so the retransmission plane actually fires
    /// (duplicated consensus frames, re-pushed suffixes, re-gossiped
    /// commands). Retransmissions must behave as delayed duplicates:
    /// no fork at any index, no command decided twice
    /// ([`check_safety`]'s dedup check), no acked decision lost.
    #[test]
    fn retransmissions_under_weather_and_loss_never_fork_or_double_decide(
        seed in 0u64..1024,
        loss_pct in 0u64..=20,
        spec in weather_spec(),
    ) {
        let mut scenario = weather_scenario(&spec, seed);
        scenario.online.loss = loss_pct as f64 / 100.0;
        check_safety(ServiceRunner::new(chen(), scenario));
    }

    /// And the lossy runs stay a pure function of (spec, loss, seed):
    /// whether and when each retry fires is part of the deterministic
    /// schedule, so the whole report replays bit-identically.
    #[test]
    fn lossy_weather_runs_reproduce_per_seed(
        seed in 0u64..64,
        loss_pct in 1u64..=20,
        spec in weather_spec(),
    ) {
        let mut scenario = weather_scenario(&spec, seed);
        scenario.online.loss = loss_pct as f64 / 100.0;
        let mut runner_a = ServiceRunner::new(chen(), scenario.clone());
        let mut runner_b = ServiceRunner::new(chen(), scenario);
        prop_assert_eq!(runner_a.run_to_end(), runner_b.run_to_end());
        let (a, b) = (runner_a.report(), runner_b.report());
        prop_assert_eq!(a.logs, b.logs);
        prop_assert_eq!(a.bases, b.bases);
        prop_assert_eq!(
            a.membership.retransmits_sent,
            b.membership.retransmits_sent
        );
        prop_assert_eq!(
            a.membership.duplicate_frames_dropped,
            b.membership.duplicate_frames_dropped
        );
    }
}

/// A heal with traffic on both sides: the majority decides during the
/// cut, the healed minority catches up purely by state transfer, and
/// every acknowledged decision survives — the deterministic anchor of
/// the property above.
#[test]
fn healed_minority_recovers_every_acknowledged_decision() {
    let scenario = churn_scenario(3, true, &[(4_000, 8_000, 0b1000)], None);
    let report = run_service(chen(), &scenario);
    assert!(report.agreement_holds());
    assert!(report.live_logs_converged(), "{:?}", report.logs);
    assert_eq!(
        report.decided_values().len(),
        6,
        "{:?}",
        report.decided_values()
    );
    assert!(report.membership.decisions_transferred > 0);
    assert_eq!(report.membership.decisions_lost, 0);
}

/// A long single-node outage with the workload fully decided before the
/// heal, so the rejoin is pure catch-up: p3 is cut off at 2 s, the
/// majority decides ~40 commands, the partition heals at 14 s.
fn rejoin_scenario(retain: Option<u64>) -> ServiceScenario {
    let mut scenario = ServiceScenario {
        online: OnlineScenario {
            n: 4,
            period: ms(50),
            duration: ms(22_000),
            seed: 11,
            heal_merge: true,
            schedule: FaultSchedule::new()
                .at(ms(2_000), Fault::Partition(ProcessSet::singleton(p(3))))
                .at(ms(14_000), Fault::Heal),
            ..OnlineScenario::default()
        },
        ..ServiceScenario::default()
    };
    if let Some(k) = retain {
        scenario = scenario.with_compaction(CompactionPolicy::retain_last(k));
    }
    let mut at = 1_000;
    let mut value = 500;
    while at <= 13_000 {
        scenario = scenario.command(ms(at), p((value as usize) % 3), value);
        at += 300;
        value += 1;
    }
    scenario
}

/// Snapshot rejoin and suffix rejoin are *equivalent*: the same outage
/// replayed with and without compaction converges on the same decided
/// sequence — the snapshot path changes how state moves, never what
/// state is.
#[test]
fn snapshot_rejoin_matches_suffix_rejoin_final_state() {
    let suffix = run_service(chen(), &rejoin_scenario(None));
    let snapshot = run_service(chen(), &rejoin_scenario(Some(4)));
    for report in [&suffix, &snapshot] {
        assert!(report.agreement_holds());
        assert!(report.live_logs_converged(), "{:?}", report.logs);
        assert_eq!(report.membership.decisions_lost, 0);
    }
    assert_eq!(suffix.membership.snapshots_sent, 0);
    assert!(
        snapshot.membership.snapshots_sent > 0,
        "the rejoiner fell past the retained tail, so a snapshot must move: {:?}",
        snapshot.membership
    );
    assert_eq!(suffix.decided_len(), snapshot.decided_len());
    // Every decision the compacted run still retains matches the
    // uncompacted run's value at the same absolute index; everything
    // below the compacted base is digest-covered but must exist in the
    // suffix run's full history.
    let full = &suffix.logs[0];
    for log in &snapshot.logs {
        for d in log {
            let witness = full
                .iter()
                .find(|w| w.index == d.index)
                .unwrap_or_else(|| panic!("index {} missing from the full history", d.index));
            assert_eq!(witness.value, d.value, "divergence at index {}", d.index);
        }
    }
}

/// A rejoiner *far* older than the retained tail (retain-last-2 against
/// ~40 missed decisions) still converges: the snapshot answering its
/// `SyncRequest`, the install, and follow-up suffix chunks compose
/// across any gap size.
#[test]
fn rejoiner_far_older_than_the_retained_tail_converges() {
    let report = run_service(chen(), &rejoin_scenario(Some(2)));
    assert!(report.agreement_holds());
    assert!(report.live_logs_converged(), "{:?}", report.logs);
    assert_eq!(report.membership.decisions_lost, 0);
    assert!(report.membership.snapshots_sent > 0);
    assert!(
        report.bases.iter().any(|&b| b > 0),
        "retain-last-2 must actually compact: {:?}",
        report.bases
    );
    assert!(
        !report.membership.rejoin_latencies.is_empty(),
        "the heal must resolve into a measured rejoin"
    );
}

/// Same outage family as [`rejoin_scenario`] but with a workload deep
/// enough (~57 decisions) that the compacted base passes the rejoiner
/// even when the retained tail is wider than one sync datagram.
fn deep_rejoin_scenario(retain: u64) -> ServiceScenario {
    let mut scenario = ServiceScenario {
        online: OnlineScenario {
            n: 4,
            period: ms(50),
            duration: ms(30_000),
            seed: 11,
            heal_merge: true,
            schedule: FaultSchedule::new()
                .at(ms(2_000), Fault::Partition(ProcessSet::singleton(p(3))))
                .at(ms(19_000), Fault::Heal),
            ..OnlineScenario::default()
        },
        ..ServiceScenario::default()
    }
    .with_compaction(CompactionPolicy::retain_last(retain));
    let mut at = 1_000;
    let mut value = 500;
    while at <= 17_800 {
        scenario = scenario.command(ms(at), p((value as usize) % 3), value);
        at += 300;
        value += 1;
    }
    scenario
}

/// A retained tail wider than one sync datagram (`MAX_SYNC_ENTRIES` =
/// 32) must still hand off completely: the snapshot reply carries the
/// digest summary plus only the *first* 32-entry chunk, and the
/// rejoiner's follow-up suffix request pulls the remainder. The healed
/// log must match the majority's entry-exactly — values *and* view
/// stamps — not merely value-wise.
#[test]
fn snapshot_handoff_chunks_a_retained_tail_wider_than_one_datagram() {
    let report = run_service(chen(), &deep_rejoin_scenario(40));
    assert!(report.agreement_holds());
    assert!(report.live_logs_converged(), "{:?}", report.logs);
    assert_eq!(report.membership.decisions_lost, 0);
    assert!(
        report.membership.snapshots_sent > 0,
        "the rejoiner fell past the retained tail, so a snapshot must move: {:?}",
        report.membership
    );
    assert!(
        report.bases.iter().any(|&b| b > 0),
        "retain-last-40 must actually compact ~57 decisions: {:?}",
        report.bases
    );
    // The cell only proves chunking if some final retained tail is
    // genuinely wider than one datagram.
    assert!(
        report.logs.iter().any(|log| log.len() > MAX_SYNC_ENTRIES),
        "retained tails never exceeded one sync chunk: {:?}",
        report.logs.iter().map(Vec::len).collect::<Vec<_>>()
    );
    // Entry-exact convergence across the fleet: every retained decision
    // matches the reference replica's full record at the same absolute
    // index (value, view id, view membership), so the snapshot + chunked
    // suffix handoff reconstructed the tail verbatim.
    let reference = &report.logs[0];
    for log in &report.logs {
        for d in log {
            let witness = reference
                .iter()
                .find(|w| w.index == d.index)
                .unwrap_or_else(|| panic!("index {} missing from the reference log", d.index));
            assert_eq!(
                witness, d,
                "handoff rewrote the record at index {}",
                d.index
            );
        }
    }
}

/// When the links into p3 heal in [`lost_reply_scenario`], in ms.
const REPLIES_LOST_UNTIL: u64 = 14_300;

/// [`rejoin_scenario`] under retain-last-2 with every reply to p3's
/// asks dropped. p3 first merges p1 alone (14 005 ms) and asks it, then
/// adopts the full view (14 020 ms) and asks everyone; its links from p1
/// and then from p0 and p2 are blocked until [`REPLIES_LOST_UNTIL`], so
/// each snapshot those asks fetch is lost. No view change after that
/// alters p3's members, so p3 asks nothing more.
fn lost_reply_scenario() -> ServiceScenario {
    let p3 = ProcessSet::singleton(p(3));
    let healed = Some(ms(REPLIES_LOST_UNTIL));
    Weather::new()
        .one_way(ProcessSet::singleton(p(1)), p3, ms(14_006), healed)
        .one_way([p(0), p(2)].into_iter().collect(), p3, ms(14_021), healed)
        .apply_to_service(rejoin_scenario(Some(2)))
}

/// A rejoiner whose snapshot replies are all lost is repaired by no
/// timer of its own: the peers' laggard push re-sends the snapshot once
/// the links heal, and the rejoiner, still at the length it asked at,
/// installs it.
#[test]
fn a_lost_snapshot_reply_is_repaired_by_the_laggard_push() {
    let mut runner = ServiceRunner::new(chen(), lost_reply_scenario());
    let full = ProcessSet::full(4);
    let mut installed_at = None;
    while runner.step().is_some() {
        let now = runner.now();
        let p3 = runner.node(3);
        if now > ms(14_030) {
            assert_eq!(
                p3.view().members,
                full,
                "p3 holds the full view from 14 030 ms on, so it asks nothing more"
            );
        }
        if installed_at.is_none() && p3.log().snapshots_installed() > 0 {
            installed_at = Some(now);
        }
    }
    let installed_at = installed_at.expect("p3 never installed a snapshot");
    assert!(
        installed_at > ms(REPLIES_LOST_UNTIL),
        "the replies to p3's asks were to be lost, yet it installed at {installed_at}"
    );
    let pushed: u64 = (0..3).map(|ix| runner.node(ix).retransmits_sent()).sum();
    assert!(pushed > 0, "only a laggard push can have repaired p3");
    let report = runner.report();
    assert!(report.agreement_holds());
    assert!(report.live_logs_converged(), "{:?}", report.logs);
    assert_eq!(report.membership.decisions_lost, 0);
}

/// A snapshot reply that extends nothing is acked: the receiver answers
/// with exactly one `SyncRequest` from its tail and changes nothing. The
/// ack is what stands a pusher with a stale watermark down — without it,
/// each peer that answered a rejoiner's ask with a snapshot it no longer
/// needed kept pushing one every backoff interval until the run ended.
#[test]
fn a_stale_snapshot_reply_is_acked_so_the_pusher_stands_down() {
    let clock = VirtualClock::new();
    let net = InMemoryNetwork::new(3, NetworkConfig::reliable(ms(1), ms(2)), clock.clone());
    let mut node = DecisionService::new(3, chen(), net.endpoint(p(0)), clock.clone(), ms(50));
    let pusher = net.endpoint(p(1));
    let members = (1u128 << 3) - 1;
    for index in 0..10 {
        pusher.send(
            p(0),
            encode(&WireMsg::Decided(DecidedMsg {
                index,
                view_id: 0,
                view_members: members,
                value: 100 + index,
            })),
        );
    }
    clock.advance(ms(2));
    node.poll_into(&mut Vec::new());
    assert_eq!(node.log().len(), 10);
    clock.advance(ms(2));
    pusher.recv_batch(&mut Vec::new());
    pusher.send(
        p(0),
        encode(&WireMsg::SnapshotReply(SnapshotReply {
            upto: 8,
            digest: 0xDEAD_BEEF,
            view_id: 0,
            view_members: members,
            entries: vec![(108, 0, members), (109, 0, members)],
        })),
    );
    clock.advance(ms(2));
    node.poll_into(&mut Vec::new());
    clock.advance(ms(2));
    let mut inbox = Vec::new();
    pusher.recv_batch(&mut inbox);
    let state_transfer: Vec<WireView<'_>> = inbox
        .iter()
        .filter_map(|d| decode_borrowed(&d.payload).ok())
        .filter(|frame| {
            matches!(
                frame,
                WireView::SyncRequest(_)
                    | WireView::SyncReply(_)
                    | WireView::SnapshotRequest(_)
                    | WireView::SnapshotReply(_)
            )
        })
        .collect();
    assert!(
        matches!(
            state_transfer[..],
            [WireView::SyncRequest(SyncRequest { from_index: 10 })]
        ),
        "{state_transfer:?}"
    );
    assert_eq!(node.log().len(), 10);
    assert_eq!(node.log().snapshots_installed(), 0);

    // The fleet: p3 rejoins after a 6 s outage with the workload still
    // running until 1 s before the heal. The peers whose snapshots it
    // no longer needed hear its ack, so no node serves a snapshot in the
    // last six seconds of the run.
    for seed in 0..2 {
        let mut runner = ServiceRunner::new(chen(), short_outage_scenario(seed));
        let served = |runner: &ServiceRunner<ChenEstimator>| -> Vec<u64> {
            (0..4)
                .map(|ix| runner.node(ix).snapshots_served())
                .collect()
        };
        while runner.now() < ms(10_000) {
            runner.step();
        }
        let settled = served(&runner);
        assert!(settled.iter().sum::<u64>() > 0, "{settled:?}");
        runner.run_to_end();
        assert_eq!(
            served(&runner),
            settled,
            "seed {seed}: a pusher kept pushing"
        );
        assert!(runner.report().live_logs_converged());
    }
}

/// p3 is cut off from 2 s to 8 s under retain-last-8 while the others
/// decide a command every 300 ms until 7 s; the run ends at 16 s.
fn short_outage_scenario(seed: u64) -> ServiceScenario {
    let mut scenario = ServiceScenario {
        online: OnlineScenario {
            n: 4,
            period: ms(50),
            duration: ms(16_000),
            seed,
            heal_merge: true,
            schedule: FaultSchedule::new()
                .at(ms(2_000), Fault::Partition(ProcessSet::singleton(p(3))))
                .at(ms(8_000), Fault::Heal),
            ..OnlineScenario::default()
        },
        ..ServiceScenario::default()
    }
    .with_compaction(CompactionPolicy::retain_last(8));
    for (k, at) in (1_000..=7_000).step_by(300).enumerate() {
        let value = 100 + k as u64;
        scenario = scenario.command(ms(at), p(k % 3), value);
    }
    scenario
}

// ---- every frame is evidence of life ---------------------------------

/// `lossy_n5`'s fleet (the benchmark workload `loss_repair.rs` also
/// runs): five nodes, 10 % datagram loss, 2–10 ms one-way delay, 50 ms
/// heartbeats, 5 ms ticks, Chen's estimator with α = 150 ms, a 16-entry
/// compaction tail, one command every 200 ms for `secs` seconds.
fn lossy_fleet(seed: u64, secs: u64, schedule: FaultSchedule) -> ServiceScenario {
    let n = 5;
    let commands = secs * 5;
    let due = |k: u64| ms(1_000 + k * 200);
    ServiceScenario {
        online: OnlineScenario {
            n,
            period: ms(50),
            loss: 0.10,
            delay: (ms(2), ms(10)),
            sample_every: ms(5),
            duration: due(commands).saturating_add(ms(5_000)),
            seed,
            heal_merge: true,
            schedule,
            ..OnlineScenario::default()
        },
        commands: (0..commands)
            .map(|k| (due(k), p(k as usize % n), k + 1))
            .collect(),
        ..ServiceScenario::default()
    }
    .with_compaction(CompactionPolicy::retain_last(16))
}

/// Every view installed in `scenario`'s run: when, by whom, which
/// members. Agreement and convergence are checked on the way.
fn view_installs(scenario: ServiceScenario) -> Vec<(Nanos, ProcessId, ProcessSet)> {
    let mut runner = ServiceRunner::new(chen(), scenario);
    let installs = runner
        .run_to_end()
        .into_iter()
        .filter_map(|event| match event {
            ServiceEvent::ViewInstalled { at, node, view } => Some((at, node, view.members)),
            _ => None,
        })
        .collect();
    let report = runner.report();
    assert!(report.agreement_holds() && report.live_logs_converged());
    installs
}

/// When each node first held a view without `peer` at or after `from`.
fn excluded_at(
    installs: &[(Nanos, ProcessId, ProcessSet)],
    peer: ProcessId,
    from: Nanos,
) -> Vec<Option<Nanos>> {
    let mut first = vec![None; 5];
    for &(at, node, members) in installs {
        if at >= from && !members.contains(peer) {
            first[node.index()].get_or_insert(at);
        }
    }
    first
}

/// A live peer whose heartbeats are lost but whose other frames arrive
/// stays in the view (ROADMAP finding (ii)). Heartbeat-only detection
/// installed 143 views over these four 300 s runs, one false exclusion
/// and rejoin every few seconds of virtual time; reading every frame as
/// evidence of life must cut that at least tenfold. Evidence cannot
/// cross a cut, so a partitioned member is still excluded before the
/// heal. A frame still in flight when its sender crashes delays the
/// exclusion by at most one margin: heartbeat-only detection excluded
/// crashed p2 at 20.160 s (p0) and 20.165 s (p1, p3, p4), and no
/// survivor may do so more than [`CHEN_MARGIN`] later.
#[test]
fn every_frame_is_evidence_of_life_under_ten_percent_loss() {
    const HEARTBEAT_ONLY_INSTALLS: usize = 143;
    /// Chen's margin here: the window's mean gap (one 50 ms period,
    /// stretched by lost beats) plus α = 150 ms.
    const CHEN_MARGIN: Nanos = Nanos::from_millis(250);
    let calm: usize = (1..=4)
        .map(|seed| view_installs(lossy_fleet(seed, 300, FaultSchedule::new())).len())
        .sum();
    assert!(
        calm * 10 < HEARTBEAT_ONLY_INSTALLS,
        "{calm} views installed on a calm lossy fleet"
    );

    let cut = FaultSchedule::new()
        .at(ms(20_000), Fault::Partition(ProcessSet::singleton(p(4))))
        .at(ms(25_000), Fault::Heal);
    let out = excluded_at(&view_installs(lossy_fleet(1, 60, cut)), p(4), ms(20_000));
    for (node, at) in out.iter().enumerate().take(4) {
        assert!(
            at.is_some_and(|at| at < ms(25_000)),
            "p{node} kept the cut-off p4 in its view: {at:?}"
        );
    }

    let crash = FaultSchedule::new().at(ms(20_000), Fault::Crash(p(2)));
    let out = excluded_at(&view_installs(lossy_fleet(1, 60, crash)), p(2), ms(20_000));
    let heartbeat_only = [20_160, 20_165, 0, 20_165, 20_165];
    for (node, (at, before)) in out.iter().zip(heartbeat_only).enumerate() {
        if node == 2 {
            continue;
        }
        let bound = ms(before).saturating_add(CHEN_MARGIN);
        assert!(
            at.is_some_and(|at| at <= bound),
            "p{node} excluded crashed p2 at {at:?}, past {bound}"
        );
    }
}

// ---- out-of-range ProcessId regressions (the PR 2 panic family) ------

/// `MembershipWatcher::observe` with a member index beyond the fleet
/// used to panic on its per-member bookkeeping vectors.
#[test]
fn watcher_observe_ignores_out_of_range_members() {
    let mut w = MembershipWatcher::new(3);
    let v = ProcessSet::full(3);
    w.observe(ms(10), vec![(p(0), 1, v), (p(120), 7, v)]);
    let report = w.report();
    assert_eq!(report.view_changes, 1, "only the in-range member counts");
}

/// Ground-truth notes about processes outside the fleet are ignored
/// rather than indexed.
#[test]
fn watcher_notes_ignore_out_of_range_processes() {
    let mut w = MembershipWatcher::new(2);
    w.note_crash(p(90), ms(5));
    w.note_recover(p(91));
    let report = w.report();
    assert_eq!(report.exclusion_latency.len(), 2);
    assert!(report.false_exclusions.is_empty());
}

/// A heartbeat claiming a wild sender index (arbitrary u16 from the
/// wire) used to panic `ProcessId::new` inside the membership drain.
#[test]
fn membership_survives_heartbeats_with_wild_senders() {
    let clock = VirtualClock::new();
    let net = InMemoryNetwork::new(2, NetworkConfig::reliable(ms(1), ms(2)), clock.clone());
    let mut node =
        MembershipNode::new(2, chen(), net.endpoint(p(1)), clock.clone(), ms(50)).with_heal_merge();
    let hostile = net.endpoint(p(0));
    for sender in [2u16, 127, 128, 999, u16::MAX] {
        hostile.send(
            p(1),
            encode(&WireMsg::Heartbeat(Heartbeat {
                sender,
                seq: 1,
                sent_at: Nanos::ZERO,
            })),
        );
    }
    clock.advance(ms(10));
    node.poll(); // must not panic
    assert_eq!(node.view().members, ProcessSet::full(2));
}

/// Same guard on the plain detector node loop.
#[test]
fn detector_node_survives_heartbeats_with_wild_senders() {
    let clock = VirtualClock::new();
    let net = InMemoryNetwork::new(2, NetworkConfig::reliable(ms(1), ms(2)), clock.clone());
    let mut node = DetectorNode::new(2, chen(), net.endpoint(p(1)), clock.clone(), ms(50));
    let hostile = net.endpoint(p(0));
    hostile.send(
        p(1),
        encode(&WireMsg::Heartbeat(Heartbeat {
            sender: 40_000,
            seq: 0,
            sent_at: Nanos::ZERO,
        })),
    );
    clock.advance(ms(10));
    assert!(node.poll().is_empty());
}

/// Hostile service frames: a decision relay at an absurd index and a
/// sync chunk claiming a near-overflow start must be absorbed without
/// panicking or corrupting the log.
#[test]
fn service_node_absorbs_hostile_frames() {
    let n = 3;
    let clock = VirtualClock::new();
    let net = InMemoryNetwork::new(n, NetworkConfig::reliable(ms(1), ms(2)), clock.clone());
    let mut runner = ServiceRunner::new(
        chen(),
        ServiceScenario {
            online: OnlineScenario {
                n,
                duration: ms(2_000),
                ..OnlineScenario::default()
            },
            ..ServiceScenario::default()
        },
    );
    // The runner owns its own network; craft hostile traffic on a
    // second fleet sharing the codec instead.
    let mut victim = rfd_net::service::DecisionService::new(
        n,
        chen(),
        net.endpoint(p(1)),
        clock.clone(),
        ms(50),
    );
    let hostile = net.endpoint(p(0));
    hostile.send(
        p(1),
        encode(&WireMsg::Decided(DecidedMsg {
            index: u64::MAX,
            view_id: u64::MAX,
            view_members: u128::MAX,
            value: 7,
        })),
    );
    hostile.send(
        p(1),
        encode(&WireMsg::SyncReply(SyncReply {
            start: u64::MAX - 1,
            entries: vec![(1, 1, 1), (2, 2, 2)],
        })),
    );
    hostile.send(p(1), bytes::Bytes::from_static(b"\xfd\x02\x07garbage"));
    clock.advance(ms(10));
    victim.poll_into(&mut Vec::new()); // must not panic
    assert!(
        victim.log().is_empty(),
        "hostile frames must not mint decisions"
    );
    // And the real runner still works end to end afterwards.
    runner.run_to_end();
    assert!(runner.report().agreement_holds());
}
