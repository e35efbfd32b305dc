//! The five workloads: each turns `(seed, scale)` into the
//! [`ServiceScenario`] the program is given, plus the due instant of
//! every command (what latency is timed from).
//!
//! All of them are **open loop on a virtual-time schedule**: a command
//! is due at a fixed virtual instant and `ServiceRunner::step` submits
//! it at the first poll tick at or after that instant, whatever the
//! backlog. The generator cannot run late — the schedule is data — so
//! generator lateness is 0 by construction.

use rfd_core::{ProcessId, ProcessSet};
use rfd_net::clock::Nanos;
use rfd_net::estimator::ChenEstimator;
use rfd_net::online::{Fault, FaultSchedule, OnlineScenario};
use rfd_net::service::{CompactionPolicy, ServiceScenario};

/// Heartbeat period.
pub const PERIOD_MS: u64 = 50;
/// Poll tick (`OnlineScenario::sample_every`).
pub const TICK_MS: u64 = 5;
/// Injected one-way delay, uniform in this range. With instant
/// delivery, latency would be processor time only.
pub const DELAY_MS: (u64, u64) = (2, 10);
/// Compaction tail.
pub const RETAIN: u64 = 16;
/// The first command is due here, after the heartbeats have warmed the
/// estimators.
const FIRST_DUE_MS: u64 = 1_000;
/// The horizon is the last due instant plus this much virtual time,
/// plus [`HORIZON_PER_COMMAND_MS`] for every command (a backlog drains
/// at some 30 decisions a second): a failure cap, not the stop
/// condition.
const HORIZON_SLACK_MS: u64 = 60_000;
const HORIZON_PER_COMMAND_MS: u64 = 100;

/// The estimator every node runs.
pub fn estimator() -> ChenEstimator {
    ChenEstimator::new(ms(150), 16, ms(600))
}

pub fn ms(v: u64) -> Nanos {
    Nanos::from_millis(v)
}

pub fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// What distinguishes the workloads beyond size and loss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    /// One command per `gap_ms`, round-robin over the first `clients`
    /// nodes starting at node `first_client`.
    Paced {
        gap_ms: u64,
        first_client: usize,
        clients: usize,
    },
    /// Every command due at the first due instant.
    Backlog,
}

/// One workload's fixed parameters.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (also in `BENCHMARK.json` and the README).
    pub why: &'static str,
    pub n: usize,
    /// Commands per round at full scale.
    pub commands: u64,
    pub loss: f64,
    shape: Shape,
    /// Partition p4 for 3 s of every 10 s and crash p0 at the midpoint.
    churn: bool,
}

impl Spec {
    /// Whether no datagram is ever dropped — no loss, no partition, no
    /// crash — so the retransmission plane must stay silent.
    pub fn drops_nothing(&self) -> bool {
        self.loss == 0.0 && !self.churn
    }
}

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "steady_n5",
        why: "reference mix: 20 commands/s under capacity at n=5, so idle poll ticks and heartbeats dominate",
        n: 5,
        commands: 20_000,
        loss: 0.0,
        shape: Shape::Paced { gap_ms: 50, first_client: 0, clients: 5 },
        churn: false,
    },
    Spec {
        name: "steady_n16",
        why: "same cadence at n=16: all-to-all heartbeats and fan-out grow as n^2, stressing membership, transport and codec",
        n: 16,
        commands: 4_000,
        loss: 0.0,
        shape: Shape::Paced { gap_ms: 50, first_client: 0, clients: 16 },
        churn: false,
    },
    Spec {
        name: "backlog_n5",
        why: "every command due at once: back-to-back slots over a deep pool stress slot_driver, consensus traffic and the service pool",
        n: 5,
        commands: 12_000,
        loss: 0.0,
        shape: Shape::Backlog,
        churn: false,
    },
    Spec {
        name: "lossy_n5",
        why: "10% datagram loss at one command per 200 ms: the only workload where the retransmission plane fires; tail latency is the point",
        n: 5,
        commands: 8_000,
        loss: 0.10,
        shape: Shape::Paced { gap_ms: 200, first_client: 0, clients: 5 },
        churn: false,
    },
    Spec {
        name: "churn_n5",
        why: "p4 partitioned 3 s of every 10 s and coordinator p0 crashed at the midpoint: view changes, sync/snapshot frames and log merge/install",
        n: 5,
        commands: 20_000,
        loss: 0.0,
        shape: Shape::Paced { gap_ms: 50, first_client: 1, clients: 3 },
        churn: true,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the generator's only randomness, a pure function of the
/// seed.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of round `round` of a run started with `--seed seed`.
pub fn round_seed(seed: u64, round: u64) -> u64 {
    mix(mix(seed) ^ round)
}

/// A generated round: what the program is given, and what the harness
/// keeps to time and verify it.
#[derive(Clone, Debug)]
pub struct Generated {
    pub scenario: ServiceScenario,
    /// `due[k]` is the due instant of the command with value `k + 1`.
    pub due: Vec<Nanos>,
}

/// Generates one round. `scale_div` divides the command count
/// (`--check` runs at 1/20).
///
/// Due instants carry a seed-derived offset below one poll tick, as
/// independent clients' would: a command waits for the next tick, and
/// that wait is part of its latency.
pub fn generate(spec: &Spec, seed: u64, scale_div: u64) -> Generated {
    let commands = (spec.commands / scale_div).max(1);
    let tick_ns = ms(TICK_MS).as_nanos();
    let mut due = Vec::with_capacity(usize::try_from(commands).expect("command count fits"));
    let mut scenario = ServiceScenario {
        online: OnlineScenario {
            n: spec.n,
            period: ms(PERIOD_MS),
            loss: spec.loss,
            delay: (ms(DELAY_MS.0), ms(DELAY_MS.1)),
            sample_every: ms(TICK_MS),
            seed,
            heal_merge: true,
            ..OnlineScenario::default()
        },
        ..ServiceScenario::default()
    }
    .with_compaction(CompactionPolicy::retain_last(RETAIN));
    for k in 0..commands {
        let (base_ms, client) = match spec.shape {
            Shape::Paced {
                gap_ms,
                first_client,
                clients,
            } => (
                FIRST_DUE_MS + k * gap_ms,
                first_client + usize::try_from(k).expect("fits") % clients,
            ),
            Shape::Backlog => (FIRST_DUE_MS, usize::try_from(k).expect("fits") % spec.n),
        };
        let at = Nanos::from_nanos(ms(base_ms).as_nanos() + mix(seed ^ mix(k)) % tick_ns);
        due.push(at);
        scenario.commands.push((at, p(client), k + 1));
    }
    let last_due = due.iter().copied().max().unwrap_or(Nanos::ZERO);
    if spec.churn {
        scenario.online.schedule = churn_schedule(last_due);
    }
    scenario.online.duration =
        last_due.saturating_add(ms(HORIZON_SLACK_MS + commands * HORIZON_PER_COMMAND_MS));
    Generated { scenario, due }
}

/// p4 is cut off for seconds 4–7 of every 10 s while commands are due
/// (each outage outlasts the detector's timeout and the 16-entry tail,
/// so it ends in exclusion and a snapshot rejoin); p0 — round-0
/// coordinator of every slot — crashes for good one second into the
/// cycle that holds the midpoint, outside a partition window.
fn churn_schedule(last_due: Nanos) -> FaultSchedule {
    let last_ms = last_due.as_millis();
    let mut schedule = FaultSchedule::new();
    let mut cycle = 0;
    while cycle * 10_000 + 7_000 <= last_ms {
        schedule = schedule
            .at(
                ms(cycle * 10_000 + 4_000),
                Fault::Partition(ProcessSet::singleton(p(4))),
            )
            .at(ms(cycle * 10_000 + 7_000), Fault::Heal);
        cycle += 1;
    }
    let mid_ms = (FIRST_DUE_MS + last_ms) / 2;
    schedule.at(ms(mid_ms / 10_000 * 10_000 + 1_000), Fault::Crash(p(0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        let spec = find("lossy_n5").expect("known workload");
        let a = generate(spec, 7, 20);
        let b = generate(spec, 7, 20);
        let c = generate(spec, 8, 20);
        assert_eq!(a.scenario.commands, b.scenario.commands);
        assert_ne!(a.scenario.commands, c.scenario.commands);
        assert_eq!(a.due.len(), 400);
    }

    #[test]
    fn churn_crashes_p0_outside_every_partition_window() {
        for div in [1, 20] {
            let spec = find("churn_n5").expect("known workload");
            let g = generate(spec, 1, div);
            let events = g.scenario.online.schedule.events();
            let crash = events
                .iter()
                .find_map(|(at, f)| matches!(f, Fault::Crash(_)).then_some(at.as_millis()))
                .expect("p0 crashes");
            assert_eq!(crash % 10_000, 1_000, "one second into a cycle");
            let last = events.last().expect("non-empty schedule");
            assert!(
                matches!(last.1, Fault::Heal | Fault::Crash(_)),
                "the run never ends inside a partition: {last:?}"
            );
            // Commands go to p1..p3 only, which stay up and connected.
            assert!(g
                .scenario
                .commands
                .iter()
                .all(|(_, node, _)| (1..=3).contains(&node.index())));
        }
    }

    #[test]
    fn names_are_plain() {
        for w in &WORKLOADS {
            assert!(crate::report::plain_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }
}
