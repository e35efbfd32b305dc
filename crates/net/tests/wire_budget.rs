//! The service's wire budget on a calm network: what one decision may
//! put on the wire, counted frame by frame at `Transport::send`.
//!
//! A decision is announced **once** — every appender's `Decided` relay;
//! the consensus core's own `Decide` broadcast never reaches a peer —
//! and a pending command is broadcast **once**, by its submitter: the
//! anti-entropy re-gossip needs evidence that a peer lacks the command
//! (a stalled log, or an outvoted proposal), and a calm fleet with
//! identical pools never produces any. The retransmission plane stays
//! silent throughout, at n = 5 and at n = 16: the open slot's timer
//! waits out a silence within a slot against an RTO learned from whole
//! slots.

use rfd_algo::consensus::RotatingMsg;
use rfd_core::ProcessId;
use rfd_net::bytes::Bytes;
use rfd_net::clock::{Nanos, VirtualClock};
use rfd_net::codec::{decode_borrowed, WireView};
use rfd_net::estimator::ChenEstimator;
use rfd_net::online::OnlineScenario;
use rfd_net::service::{CompactionPolicy, ServiceReport, ServiceRunner, ServiceScenario};
use rfd_net::transport::{Datagram, InMemoryNetwork, NetworkConfig, Transport};
use std::cell::RefCell;
use std::rc::Rc;

/// Frames one broadcast puts on the wire in a fleet of `n`.
fn peers(n: usize) -> u64 {
    n as u64 - 1
}

fn ms(v: u64) -> Nanos {
    Nanos::from_millis(v)
}

/// Frames handed to `Transport::send`, fleet-wide, by kind.
#[derive(Debug, Default)]
struct Sent {
    command: u64,
    /// `Consensus` frames carrying `RotatingMsg::Decide`.
    consensus_decide: u64,
    decided: u64,
}

impl Sent {
    fn count(&mut self, frame: &WireView<'_>) {
        match frame {
            WireView::Command(_) => self.command += 1,
            WireView::Consensus(cf) if matches!(cf.msg, RotatingMsg::Decide(_)) => {
                self.consensus_decide += 1;
            }
            WireView::Decided(_) => self.decided += 1,
            WireView::Batch(batch) => {
                for sub in batch.iter() {
                    self.count(&sub);
                }
            }
            _ => {}
        }
    }
}

/// A transport that counts what its node sends and changes nothing.
struct Counting<T> {
    inner: T,
    sent: Rc<RefCell<Sent>>,
}

impl<T: Transport> Transport for Counting<T> {
    fn me(&self) -> ProcessId {
        self.inner.me()
    }

    fn send(&self, to: ProcessId, payload: Bytes) {
        let frame = decode_borrowed(&payload).expect("a node sends decodable frames");
        self.sent.borrow_mut().count(&frame);
        self.inner.send(to, payload);
    }

    fn recv(&self) -> Option<Datagram> {
        self.inner.recv()
    }

    fn recv_batch(&self, into: &mut Vec<Datagram>) -> usize {
        self.inner.recv_batch(into)
    }
}

/// Runs `commands` on a calm, compacting, heal-merge fleet of `n` —
/// the benchmark's cadence: 50 ms heartbeats, 5 ms ticks, 2–10 ms
/// one-way delay — and returns what was sent and the report.
fn run_calm(
    n: usize,
    commands: Vec<(Nanos, ProcessId, u64)>,
    duration: Nanos,
) -> (Sent, ServiceReport) {
    let scenario = ServiceScenario {
        online: OnlineScenario {
            n,
            period: ms(50),
            delay: (ms(2), ms(10)),
            sample_every: ms(5),
            duration,
            seed: 19,
            heal_merge: true,
            ..OnlineScenario::default()
        },
        commands,
        ..ServiceScenario::default()
    }
    .with_compaction(CompactionPolicy::retain_last(16));
    let clock = VirtualClock::new();
    let config = NetworkConfig::reliable(ms(2), ms(10)).with_seed(scenario.online.seed);
    let net = InMemoryNetwork::new(n, config, clock.clone());
    let sent = Rc::new(RefCell::new(Sent::default()));
    let endpoints = (0..n)
        .map(|ix| Counting {
            inner: net.endpoint(ProcessId::new(ix)),
            sent: Rc::clone(&sent),
        })
        .collect();
    let mut runner = ServiceRunner::over(
        ChenEstimator::new(ms(150), 16, ms(600)),
        scenario,
        endpoints,
        net,
        clock,
    );
    runner.run_to_end();
    (sent.take(), runner.report())
}

/// What every calm run owes, whatever its command schedule.
fn assert_one_announcement(n: usize, sent: &Sent, report: &ServiceReport, decisions: u64) {
    assert_eq!(report.decided_len(), decisions, "every command decided");
    assert!(report.agreement_holds() && report.live_logs_converged());
    assert_eq!(report.membership.retransmits_sent, 0, "calm: no retries");
    assert_eq!(
        sent.consensus_decide, 0,
        "the core's Decide broadcast never reaches a peer"
    );
    assert_eq!(
        sent.decided,
        decisions * n as u64 * peers(n),
        "every node relays every decision to every peer, once"
    );
}

/// 20 commands a second, round-robin over a fleet of `n`: each command
/// is broadcast by its submitter and never again — but for the first,
/// which meets a log that has not moved yet (to its submitter, a
/// stalled one) and is repeated at that gossip tick.
fn paced_stream(n: usize, decisions: u64) {
    let commands = (0..decisions)
        .map(|k| (ms(1_000 + k * 50), ProcessId::new(k as usize % n), k + 1))
        .collect();
    let (sent, report) = run_calm(n, commands, ms(1_000 + decisions * 50 + 2_000));
    assert_one_announcement(n, &sent, &report, decisions);
    assert!(
        (decisions * peers(n)..=(decisions + 1) * peers(n)).contains(&sent.command),
        "{sent:?}"
    );
}

/// `decisions` commands due at once over a fleet of `n`: the pools
/// converge in one delay and the fleet then decides pool minimum after
/// pool minimum. Re-gossip during the opening race (pools differ,
/// proposals are outvoted) is all the budget allows — the unconditional
/// every-period re-gossip spent some 100 `Command` frames per decision
/// at n = 5.
fn backlog(n: usize, decisions: u64) {
    let commands = (0..decisions)
        .map(|k| (ms(1_000), ProcessId::new(k as usize % n), k + 1))
        .collect();
    let (sent, report) = run_calm(n, commands, ms(1_000 + decisions * 50));
    assert_one_announcement(n, &sent, &report, decisions);
    assert!(
        sent.command <= 2 * decisions * peers(n),
        "{} Command frames for {decisions} decisions",
        sent.command
    );
}

#[test]
fn a_paced_stream_sends_each_command_once_and_each_decision_once() {
    paced_stream(5, 400);
}

#[test]
fn a_backlog_is_not_re_gossiped_while_it_drains() {
    backlog(5, 2_000);
}

#[test]
fn a_paced_stream_at_n16_sends_each_command_once_and_never_retries() {
    paced_stream(16, 400);
}

#[test]
fn a_backlog_at_n16_is_not_re_gossiped_and_never_retries() {
    backlog(16, 500);
}
