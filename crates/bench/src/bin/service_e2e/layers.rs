//! The per-layer replays of a traced round. Every layer is measured
//! **from outside**, by timing calls into public functions on the same
//! workload the fleet just ran: what happens inside the program is not
//! visible here (spans inside it are a later change).

use crate::probe::ProbeShared;
use crate::workload::{self, Generated, Spec};
use rfd_algo::consensus::{RotatingConsensus, RotatingMsg};
use rfd_algo::driver::SlotDriver;
use rfd_core::{ProcessId, ProcessSet};
use rfd_net::clock::Nanos;
use rfd_net::detector::HeartbeatDetector;
use rfd_net::membership::MembershipNode;
use rfd_net::online::Fault;
use rfd_net::service::{ReplicatedLog, ViewStamp};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

fn ns(since: Instant) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let v = since.elapsed().as_nanos() as f64;
    v
}

fn per(total: f64, count: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let c = count.max(1) as f64;
    total / c
}

/// `detector.`: one `HeartbeatDetector` fed the observer's captured
/// heartbeat arrivals, then asked for its suspect set at each arrival
/// instant. Returns `(on_heartbeat_ns, suspects_ns)` per call.
pub fn detector(n: usize, observer: usize, arrivals: &[(usize, Nanos)]) -> (f64, f64) {
    let mut detector = HeartbeatDetector::new(ProcessId::new(observer), n, workload::estimator());
    let valid: Vec<(ProcessId, Nanos)> = arrivals
        .iter()
        .filter_map(|&(from, at)| ProcessId::try_new(from, n).map(|p| (p, at)))
        .collect();
    let started = Instant::now();
    for &(from, at) in &valid {
        detector.on_heartbeat(from, at);
    }
    let on_heartbeat = per(ns(started), valid.len() as u64);
    let started = Instant::now();
    let mut suspected = 0;
    for &(_, at) in &valid {
        suspected += detector.suspects(at).len();
    }
    black_box(suspected);
    (on_heartbeat, per(ns(started), valid.len() as u64))
}

/// What the bare membership fleet measured.
#[derive(Clone, Copy, Debug)]
pub struct Membership {
    pub poll_ns: f64,
    pub total_ns: f64,
    /// Wall ns inside the fleet's `send` + `recv_batch` calls.
    pub transport_ns: f64,
    pub datagrams_delivered: u64,
    pub heartbeats_delivered: u64,
    pub polls: u64,
    pub datagrams_per_period: f64,
    pub view_changes: u64,
}

/// `membership.`: a bare `MembershipNode` fleet over the same
/// `OnlineScenario` — same seed, delays, loss and fault schedule —
/// through probes, polled on the same tick until `until`.
pub fn membership(spec: &Spec, generated: &Generated, until: Nanos) -> Membership {
    let online = &generated.scenario.online;
    let shared = ProbeShared::tracing(crate::run::OBSERVER);
    let (net, clock, endpoints) = crate::run::network(generated, &shared);
    let mut nodes: Vec<_> = endpoints
        .into_iter()
        .map(|endpoint| {
            MembershipNode::new(
                spec.n,
                workload::estimator(),
                endpoint,
                clock.clone(),
                online.period,
            )
            .with_heal_merge()
        })
        .collect();
    let mut up = vec![true; spec.n];
    let mut faults = online.schedule.events().iter().peekable();
    let mut polls = 0_u64;
    let started = Instant::now();
    let mut now = Nanos::ZERO;
    while now < until {
        while let Some((_, fault)) = faults.next_if(|(at, _)| *at <= now) {
            match fault {
                Fault::Crash(p) => {
                    net.take_down(*p);
                    up[p.index()] = false;
                }
                Fault::Partition(side) => net.set_partition(*side),
                Fault::Heal => net.heal_partition(),
                Fault::Recover(_) | Fault::Weather(_) => {
                    unreachable!("no workload schedules {fault:?}")
                }
            }
        }
        for (node, _) in nodes.iter_mut().zip(&up).filter(|(_, &up)| up) {
            node.poll();
            polls += 1;
        }
        now = now.saturating_add(online.sample_every);
        clock.set(now);
    }
    let total_ns = ns(started) - {
        #[allow(clippy::cast_precision_loss)]
        let replay = shared.harness_ns() as f64;
        replay
    };
    let (send_ns, recv_ns) = shared.call_ns();
    let (tally, _, _) = shared.finish();
    #[allow(clippy::cast_precision_loss)]
    let periods = until.as_nanos() as f64 / online.period.as_nanos() as f64;
    #[allow(clippy::cast_precision_loss)]
    Membership {
        poll_ns: per(total_ns, polls),
        total_ns,
        transport_ns: (send_ns + recv_ns) as f64,
        datagrams_delivered: shared.datagrams_received(),
        heartbeats_delivered: tally.by_tag[usize::from(rfd_net::codec::tags::HEARTBEAT)],
        polls,
        datagrams_per_period: shared.datagrams_sent() as f64 / periods.max(1.0),
        view_changes: nodes.iter().map(MembershipNode::views_installed).sum(),
    }
}

/// `slot_driver.`: an `n`-process `SlotDriver<RotatingConsensus<u64>>`
/// fleet deciding `slots` slots one after another with FIFO in-process
/// delivery and nobody suspected. Returns `(ns_per_decision,
/// msgs_per_decision)`, the fleet's whole consensus work per slot.
pub fn slot_driver(n: usize, slots: u64) -> (f64, f64) {
    let nobody = ProcessSet::empty();
    let mut drivers: Vec<SlotDriver<RotatingConsensus<u64>>> = ProcessSet::full(n)
        .iter()
        .map(|pid| SlotDriver::new(pid, n))
        .collect();
    let mut queue: VecDeque<(ProcessId, ProcessId, u64, RotatingMsg<u64>)> = VecDeque::new();
    let mut delivered = 0_u64;
    let started = Instant::now();
    for slot in 0..slots {
        for (ix, driver) in drivers.iter_mut().enumerate() {
            let from = ProcessId::new(ix);
            let (sends, _) = driver.open(slot, slot + 1, nobody);
            queue.extend(sends.into_iter().map(|(to, s, msg)| (to, from, s, msg)));
        }
        while let Some((to, from, s, msg)) = queue.pop_front() {
            delivered += 1;
            let (sends, _) = drivers[to.index()].on_message(s, from, &msg, nobody);
            queue.extend(sends.into_iter().map(|(next, s, msg)| (next, to, s, msg)));
        }
        assert!(
            drivers
                .iter()
                .all(|d| d.decision(slot) == Some(&(slot + 1))),
            "slot {slot} must decide its one proposal on a calm FIFO wire"
        );
    }
    let total = ns(started);
    #[allow(clippy::cast_precision_loss)]
    let msgs = delivered as f64 / slots.max(1) as f64;
    (per(total, slots), msgs)
}

/// What the log replay measured, ns per operation.
#[derive(Clone, Copy, Debug)]
pub struct Log {
    pub append_ns: f64,
    pub truncate_ns_per_entry: f64,
    pub snapshot_install_ns: f64,
}

/// `log.`: `decisions` appends into one `ReplicatedLog`, compacted down
/// to the retained tail every `CHUNK` entries, then snapshot + install
/// into fresh logs.
pub fn log(decisions: u64) -> Log {
    const CHUNK: u64 = 1024;
    const INSTALLS: u64 = 1024;
    let view = ViewStamp {
        id: 3,
        members: 0b1_1111,
    };
    let mut log = ReplicatedLog::new();
    let (mut append_ns, mut truncate_ns, mut truncated) = (0.0, 0.0, 0_u64);
    let mut next = 0;
    while next < decisions {
        let chunk = CHUNK.min(decisions - next);
        let started = Instant::now();
        for value in next..next + chunk {
            log.append(value + 1, view);
        }
        append_ns += ns(started);
        next += chunk;
        let started = Instant::now();
        truncated += log.truncate_prefix(log.len().saturating_sub(workload::RETAIN));
        truncate_ns += ns(started);
    }
    let started = Instant::now();
    for _ in 0..INSTALLS {
        let snapshot = log.snapshot(log.len()).expect("the log end is retained");
        let mut rejoiner = ReplicatedLog::new();
        black_box(rejoiner.install_snapshot(black_box(&snapshot)));
    }
    Log {
        append_ns: per(append_ns, decisions),
        truncate_ns_per_entry: per(truncate_ns, truncated),
        snapshot_install_ns: per(ns(started), INSTALLS),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_driver_fleet_decides_every_slot() {
        let (ns_per, msgs_per) = slot_driver(5, 50);
        assert!(ns_per > 0.0);
        // Every process sends at least its estimate and gets a proposal
        // back: well over n messages per slot.
        assert!(msgs_per >= 10.0, "{msgs_per}");
    }

    #[test]
    fn log_replay_compacts_to_the_tail() {
        let measured = log(5_000);
        assert!(measured.append_ns > 0.0 && measured.truncate_ns_per_entry > 0.0);
        assert!(measured.snapshot_install_ns > 0.0);
    }

    #[test]
    fn detector_replay_skips_out_of_range_senders() {
        let arrivals: Vec<(usize, Nanos)> = (0..100_u64)
            .map(|i| ((i % 3) as usize * 4, Nanos::from_millis(i * 50)))
            .collect();
        // Senders 0, 4 (valid for n = 5) and 8 (dropped).
        let (on_heartbeat, suspects) = detector(5, 1, &arrivals);
        assert!(on_heartbeat > 0.0 && suspects > 0.0);
    }
}
