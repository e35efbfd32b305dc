//! One measured fleet run: build a real `ServiceRunner::over(..)` fleet
//! on `InMemoryNetwork` + `VirtualClock` behind [`Probe`]s, drive it
//! step by step through the timed window, and verify what it decided.
//!
//! The timed window runs from the first `step()` to the step in which
//! every live, non-halted replica has appended the last command. The
//! scenario's horizon only caps a run that never gets there.

use crate::alloc;
use crate::probe::{ChildSpan, CodecTally, Probe, ProbeShared};
use crate::workload::{self, Generated, Spec};
use rfd_core::ProcessSet;
use rfd_net::clock::{Nanos, VirtualClock};
use rfd_net::estimator::ChenEstimator;
use rfd_net::online::{Fault, MembershipChurnReport};
use rfd_net::service::{ServiceEvent, ServiceRunner};
use rfd_net::transport::{Endpoint, InMemoryNetwork, NetworkConfig};
use std::rc::Rc;
use std::time::Instant;

/// The node whose heartbeat arrivals feed the detector replay: p1 is a
/// client in every workload and never crashes or is cut off.
pub const OBSERVER: usize = 1;
/// One `step()` in this many gets a parent span with child spans.
const STEP_SPAN_EVERY: u64 = 64;

type Fleet = ServiceRunner<ChenEstimator, Probe<Endpoint>, VirtualClock, InMemoryNetwork>;

/// What only a traced run collects.
#[derive(Debug)]
pub struct Traced {
    /// Wall ns of every `step()`, the probe's own replay time taken out.
    pub step_ns: Vec<u64>,
    pub send_ns: u64,
    pub recv_ns: u64,
    pub codec: CodecTally,
    /// `(sender, delivery time)` of heartbeats delivered to [`OBSERVER`].
    pub arrivals: Vec<(usize, Nanos)>,
    /// `(step id, start, end)` of sampled steps, wall ns since the epoch.
    pub step_spans: Vec<(u64, u64, u64)>,
    pub child_spans: Vec<ChildSpan>,
}

/// Everything one fleet run measured.
#[derive(Debug)]
pub struct FleetRun {
    pub commands: u64,
    /// Commands not decided at every live replica when the run stopped
    /// (a refused `propose` never decides, so it lands here too).
    pub undecided: u64,
    /// Why the correctness gate failed; empty when it passed.
    pub gate_failures: Vec<String>,
    pub setup_s: f64,
    pub wall_s: f64,
    pub steps: u64,
    /// Node polls: one per up node per step.
    pub polls: u64,
    /// Virtual instant the timed window ended at.
    pub end: Nanos,
    pub first_due: Nanos,
    pub last_first_decision: Nanos,
    /// Per command (index = value − 1): first decision anywhere and
    /// decided at every live replica, `None` if never.
    pub first_decided: Vec<Option<Nanos>>,
    pub everywhere: Vec<Option<Nanos>>,
    pub datagrams_sent: u64,
    pub bytes_sent: u64,
    pub drains: u64,
    pub datagrams_received: u64,
    /// `InMemoryNetwork::stats()`: sent, lost, delivered.
    pub net: (u64, u64, u64),
    pub peak_heap: u64,
    pub allocs: u64,
    /// Live-heap slope between the 50 % and the 100 % checkpoint.
    pub heap_slope_bytes: f64,
    pub retained_max: u64,
    /// The report's membership block (state transfer, retransmission
    /// and duplicate counters).
    pub membership: MembershipChurnReport,
    pub traced: Option<Traced>,
}

impl FleetRun {
    pub fn decided(&self) -> u64 {
        self.commands - self.undecided
    }

    /// Due → first decision, ns, for every decided command.
    pub fn latencies_ns(&self, due: &[Nanos]) -> Vec<u64> {
        self.first_decided
            .iter()
            .zip(due)
            .filter_map(|(at, due)| at.map(|at| at.as_nanos().saturating_sub(due.as_nanos())))
            .collect()
    }
}

/// The round's simulated network with one probed endpoint per node,
/// configured from the scenario as `ServiceRunner::new` would.
pub fn network(
    generated: &Generated,
    shared: &Rc<ProbeShared>,
) -> (InMemoryNetwork, VirtualClock, Vec<Probe<Endpoint>>) {
    let online = &generated.scenario.online;
    let clock = VirtualClock::new();
    let config = NetworkConfig::reliable(online.delay.0, online.delay.1)
        .with_loss(online.loss)
        .with_seed(online.seed);
    let net = InMemoryNetwork::new(online.n, config, clock.clone());
    let endpoints = ProcessSet::full(online.n)
        .iter()
        .map(|pid| Probe::new(net.endpoint(pid), Rc::clone(shared)))
        .collect();
    (net, clock, endpoints)
}

/// Generates the round's inputs, builds the fleet (both timed as
/// set-up), runs the timed window and checks the outcome.
pub fn run_fleet(spec: &Spec, seed: u64, scale_div: u64, trace: bool) -> (FleetRun, Generated) {
    let heap_before = alloc::live();
    let setup_started = Instant::now();
    let generated = workload::generate(spec, seed, scale_div);
    let shared = if trace {
        ProbeShared::tracing(OBSERVER)
    } else {
        ProbeShared::counting()
    };
    let (net, clock, endpoints) = network(&generated, &shared);
    // The runner owns its network handle; `net` stays for `stats()`.
    let mut runner: Fleet = ServiceRunner::over(
        workload::estimator(),
        generated.scenario.clone(),
        endpoints,
        net.clone(),
        clock,
    );
    let commands = generated.due.len();
    let mut first_decided: Vec<Option<Nanos>> = vec![None; commands];
    let mut everywhere: Vec<Option<Nanos>> = vec![None; commands];
    // Log order as first observed, to check it is a permutation of the
    // submitted values.
    let mut sequence: Vec<u64> = vec![0; commands];
    let mut step_ns: Vec<u64> = Vec::new();
    let mut step_spans = Vec::new();
    let setup_s = setup_started.elapsed().as_secs_f64();

    let mut up = vec![true; spec.n];
    let mut gate_failures = Vec::new();
    let (mut steps, mut polls, mut decided_first, mut everywhere_upto) = (0_u64, 0_u64, 0, 0);
    let mut last_first_decision = Nanos::ZERO;
    let mut heap_mid = None;
    alloc::reset_peak();
    let allocs_before = alloc::allocs();
    let window_started = Instant::now();
    let end = loop {
        let now = runner.now();
        let sampled = trace && steps % STEP_SPAN_EVERY == 0;
        shared.set_parent(sampled.then_some(steps));
        let timer = trace.then(|| (Instant::now(), shared.harness_ns()));
        let Some(events) = runner.step() else {
            break now;
        };
        if let Some((started, harness_before)) = timer {
            let spent = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            step_ns.push(spent.saturating_sub(shared.harness_ns() - harness_before));
            if sampled {
                let start = shared.since_epoch_ns(started);
                step_spans.push((steps, start, start + spent));
            }
        }
        steps += 1;
        polls += up.iter().filter(|&&u| u).count() as u64;
        for event in &events {
            match event {
                ServiceEvent::Decided { at, decision, .. } => {
                    let slot = usize::try_from(decision.index).ok();
                    match slot.and_then(|ix| sequence.get_mut(ix)) {
                        Some(seen) if *seen == 0 => *seen = decision.value,
                        Some(seen) if *seen == decision.value => {}
                        _ => gate_failures.push(format!("conflicting decision {decision:?}")),
                    }
                    let command = usize::try_from(decision.value.wrapping_sub(1)).ok();
                    if let Some(first) = command.and_then(|ix| first_decided.get_mut(ix)) {
                        if first.is_none() {
                            *first = Some(*at);
                            decided_first += 1;
                            last_first_decision = *at;
                            if decided_first == commands / 2 {
                                heap_mid = Some(alloc::live());
                            }
                        }
                    }
                }
                ServiceEvent::Fault { fault, .. } => match fault {
                    Fault::Crash(p) => up[p.index()] = false,
                    Fault::Recover(p) => up[p.index()] = true,
                    _ => {}
                },
                _ => {}
            }
        }
        // Decided everywhere: the shortest log among live replicas.
        let everywhere_now = (0..spec.n)
            .filter(|&ix| up[ix] && !runner.node(ix).is_halted())
            .map(|ix| runner.node(ix).log().len())
            .min()
            .map_or(0, |len| usize::try_from(len).unwrap_or(usize::MAX));
        while everywhere_upto < everywhere_now.min(commands) {
            let value = sequence[everywhere_upto];
            if let Some(slot) = usize::try_from(value.wrapping_sub(1))
                .ok()
                .and_then(|ix| everywhere.get_mut(ix))
            {
                *slot = Some(now);
            }
            everywhere_upto += 1;
        }
        if everywhere_upto >= commands {
            break now;
        }
    };
    let wall_s = window_started.elapsed().as_secs_f64();
    let heap_end = alloc::live();
    let allocs = alloc::allocs() - allocs_before;
    let peak_heap = alloc::peak().saturating_sub(heap_before);

    let report = runner.report();
    let undecided = everywhere.iter().filter(|at| at.is_none()).count() as u64;
    if undecided > 0 {
        gate_failures.push(format!(
            "{undecided} of {commands} commands undecided at the horizon"
        ));
    }
    if !report.agreement_holds() {
        gate_failures.push("agreement_holds() is false".into());
    }
    if !report.live_logs_converged() {
        gate_failures.push("live_logs_converged() is false".into());
    }
    if report.membership.decisions_lost != 0 {
        gate_failures.push(format!(
            "decisions_lost = {}",
            report.membership.decisions_lost
        ));
    }
    let mut sorted = sequence.clone();
    sorted.sort_unstable();
    if !sorted.iter().copied().eq(1..=commands as u64) {
        gate_failures.push("decided sequence is not a permutation of the submitted values".into());
    }
    for ix in 0..spec.n {
        let malformed = runner.node(ix).malformed_frames();
        if malformed != 0 {
            gate_failures.push(format!("node {ix}: malformed_frames = {malformed}"));
        }
    }
    let retransmits = report.membership.retransmits_sent;
    if spec.drops_nothing() && retransmits != 0 {
        gate_failures.push(format!(
            "retransmits_sent = {retransmits} on a wire that drops nothing"
        ));
    }

    let (codec, arrivals, child_spans) = shared.finish();
    if codec.decode_errors != 0 {
        gate_failures.push(format!("codec.decode_errors = {}", codec.decode_errors));
    }
    let (send_ns, recv_ns) = shared.call_ns();
    let traced = trace.then_some(Traced {
        step_ns,
        send_ns,
        recv_ns,
        codec,
        arrivals,
        step_spans,
        child_spans,
    });
    #[allow(clippy::cast_precision_loss)]
    let heap_slope_bytes = heap_mid.map_or(0.0, |mid| {
        (heap_end as f64 - mid as f64) / (commands - commands / 2).max(1) as f64
    });
    let run = FleetRun {
        commands: commands as u64,
        undecided,
        gate_failures,
        setup_s,
        wall_s,
        steps,
        polls,
        end,
        first_due: generated.due.iter().copied().min().unwrap_or(Nanos::ZERO),
        last_first_decision,
        first_decided,
        everywhere,
        datagrams_sent: shared.datagrams_sent(),
        bytes_sent: shared.bytes_sent(),
        drains: shared.drains(),
        datagrams_received: shared.datagrams_received(),
        net: net.stats(),
        peak_heap,
        allocs,
        heap_slope_bytes,
        retained_max: report.logs.iter().map(Vec::len).max().unwrap_or(0) as u64,
        membership: report.membership,
        traced,
    };
    (run, generated)
}
