//! `service_e2e` — what a submitted command costs, end to end and layer
//! by layer: a real `DecisionService` fleet on `InMemoryNetwork` +
//! `VirtualClock`, driven from one process and one thread through five
//! named workloads. See `README.md` beside this file for every metric
//! and workload definition.
//!
//! ```text
//! service_e2e --workload <name> [--seed N] [--seconds S | --rounds R] [--trace 0|1]
//! service_e2e --check
//! service_e2e --compare A B
//! ```
//!
//! A run repeats fixed-size rounds (each a fresh scenario and fleet,
//! seeded from `--seed` and the round number) until `--seconds` of wall
//! time have passed, or for exactly `--rounds` rounds, and reports the
//! median over rounds of every metric — latency percentiles come from
//! the rounds' pooled samples. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` reruns every round with timing probes on,
//! replays each layer on the same inputs, prints the per-layer metrics
//! and writes `<target dir>/service_e2e/trace_<workload>.jsonl`.

mod alloc;
mod layers;
mod probe;
mod report;
mod run;
mod stats;
mod workload;

use report::{Json, Measured, MetricDef};
use rfd_net::clock::Nanos;
use rfd_net::codec::tags;
use run::{FleetRun, OBSERVER};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Spec;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// `--check` runs every workload at this fraction of a round.
const CHECK_SCALE_DIV: u64 = 20;

#[allow(clippy::cast_precision_loss)]
fn f(v: u64) -> f64 {
    v as f64
}

fn ms_of(ns: u64) -> f64 {
    f(ns) / 1e6
}

/// What one round contributes to the run's report.
struct Round {
    /// `(catalogue name, value)` for everything but the pooled latency
    /// percentiles.
    values: Vec<(&'static str, f64)>,
    latencies_ns: Vec<u64>,
    commands: u64,
    undecided: u64,
    failures: Vec<String>,
    /// Span lines, kept for the run's first traced round only.
    trace_lines: String,
}

fn end_to_end_values(run: &FleetRun) -> Vec<(&'static str, f64)> {
    let decided = f(run.decided().max(1));
    let span_s = f(run
        .last_first_decision
        .as_nanos()
        .saturating_sub(run.first_due.as_nanos())
        .max(1))
        / 1e9;
    vec![
        ("setup_s", run.setup_s),
        ("decisions_per_wall_s", decided / run.wall_s),
        ("decisions_per_virtual_s", decided / span_s),
        ("datagrams_per_decision", f(run.datagrams_sent) / decided),
        ("bytes_per_decision", f(run.bytes_sent) / decided),
        ("peak_heap_bytes", f(run.peak_heap)),
    ]
}

fn end_to_end_round(spec: &Spec, seed: u64, scale_div: u64) -> Round {
    let (run, generated) = run::run_fleet(spec, seed, scale_div, false);
    Round {
        values: end_to_end_values(&run),
        latencies_ns: run.latencies_ns(&generated.due),
        commands: run.commands,
        undecided: run.undecided,
        failures: run.gate_failures,
        trace_lines: String::new(),
    }
}

/// The same round untraced and traced, then every layer replayed on
/// its inputs. Times come from the traced fleet; counts, allocations
/// and heap from the untraced one, which carries no harness state.
fn per_layer_round(spec: &Spec, seed: u64, scale_div: u64, want_spans: bool) -> Round {
    let (plain, generated) = run::run_fleet(spec, seed, scale_div, false);
    let (mut traced, _) = run::run_fleet(spec, seed, scale_div, true);
    let mut failures = plain.gate_failures.clone();
    failures.append(&mut traced.gate_failures);
    if plain.first_decided != traced.first_decided || plain.datagrams_sent != traced.datagrams_sent
    {
        failures.push("the traced fleet diverged from the untraced one: the probe perturbs".into());
    }
    let t = traced.traced.take().expect("traced run");
    let decided = f(traced.decided().max(1));
    let step_total = f(t.step_ns.iter().sum::<u64>()).max(1.0);

    let decode_ns = f(t.codec.replay_ns) / f(t.codec.datagrams.max(1));
    let (on_heartbeat_ns, suspects_ns) = layers::detector(spec.n, OBSERVER, &t.arrivals);
    let bare = layers::membership(spec, &generated, traced.end);
    let (slot_ns, slot_msgs) = layers::slot_driver(spec.n, traced.commands);
    let log = layers::log(traced.commands);

    // Exclusive time per layer, as a share of the traced fleet's
    // `step()` time. The bare membership fleet's transport, codec and
    // detector time is taken out of its total so nothing counts twice.
    let heartbeats = f(t.codec.by_tag[usize::from(tags::HEARTBEAT)]);
    let transport_share = f(t.send_ns + t.recv_ns) / step_total;
    let codec_share = decode_ns * f(traced.datagrams_received) / step_total;
    let detector_share =
        (on_heartbeat_ns * heartbeats + suspects_ns * f(traced.polls)) / step_total;
    let membership_self_ns = bare.total_ns
        - bare.transport_ns
        - decode_ns * f(bare.datagrams_delivered)
        - on_heartbeat_ns * f(bare.heartbeats_delivered)
        - suspects_ns * f(bare.polls);
    let membership_share = membership_self_ns.max(0.0) / step_total;
    let slot_share = slot_ns * decided / step_total;
    let below = transport_share + codec_share + detector_share + membership_share + slot_share;
    if below > 1.0 {
        failures.push(format!(
            "layer busy shares sum to {below:.3} > 1: the harness counts something twice"
        ));
    }

    let mut steps_sorted = t.step_ns.clone();
    steps_sorted.sort_unstable();
    let step_pct = |q| f(stats::percentile(&steps_sorted, q).unwrap_or(0));
    let latencies = traced.latencies_ns(&generated.due);
    let membership = &traced.membership;
    let mut rejoins: Vec<u64> = membership
        .rejoin_latencies
        .iter()
        .map(|l| l.as_nanos())
        .collect();
    rejoins.sort_unstable();
    let per_decision = |count: u64| f(count) / decided;
    let frames = |tag: u8| per_decision(t.codec.by_tag[usize::from(tag)]);
    let (net_sent, net_lost, net_delivered) = traced.net;
    // The network counts a send only between two up nodes and a
    // delivery even into a crashed node's inbox, so these are ordered,
    // not equal (the unit test pins equality on a fault-free wire).
    if !(traced.datagrams_received <= net_delivered
        && net_delivered <= net_sent
        && net_sent <= traced.datagrams_sent)
    {
        failures.push(format!(
            "probe counted {} sent / {} received, the network {net_sent} sent / {net_delivered} delivered",
            traced.datagrams_sent, traced.datagrams_received
        ));
    }

    let values = vec![
        ("transport.datagrams_sent", f(traced.datagrams_sent)),
        ("transport.datagrams_lost", f(net_lost)),
        ("transport.datagrams_delivered", f(net_delivered)),
        ("transport.bytes_sent", f(traced.bytes_sent)),
        (
            "transport.send_ns",
            f(t.send_ns) / f(traced.datagrams_sent.max(1)),
        ),
        (
            "transport.recv_batch_ns",
            f(t.recv_ns) / f(traced.drains.max(1)),
        ),
        (
            "transport.datagrams_per_drain",
            f(traced.datagrams_received) / f(traced.drains.max(1)),
        ),
        ("transport.busy_share", transport_share),
        ("codec.decode_ns_per_datagram", decode_ns),
        (
            "codec.frames_per_datagram",
            f(t.codec.frames) / f(t.codec.datagrams.max(1)),
        ),
        ("codec.decode_errors", f(t.codec.decode_errors)),
        ("codec.busy_share", codec_share),
        ("codec.frames.heartbeat", frames(tags::HEARTBEAT)),
        ("codec.frames.view_change", frames(tags::VIEW_CHANGE)),
        ("codec.frames.command", frames(tags::COMMAND)),
        ("codec.frames.consensus", frames(tags::CONSENSUS)),
        ("codec.frames.decided", frames(tags::DECIDED)),
        ("codec.frames.sync_request", frames(tags::SYNC_REQUEST)),
        ("codec.frames.sync_reply", frames(tags::SYNC_REPLY)),
        (
            "codec.frames.snapshot_request",
            frames(tags::SNAPSHOT_REQUEST),
        ),
        ("codec.frames.snapshot_reply", frames(tags::SNAPSHOT_REPLY)),
        ("detector.on_heartbeat_ns", on_heartbeat_ns),
        ("detector.suspects_ns", suspects_ns),
        ("detector.busy_share", detector_share),
        ("membership.poll_ns", bare.poll_ns),
        ("membership.datagrams_per_period", bare.datagrams_per_period),
        ("membership.view_changes", f(bare.view_changes)),
        ("membership.busy_share", membership_share),
        ("slot_driver.ns_per_decision", slot_ns),
        ("slot_driver.msgs_per_decision", slot_msgs),
        ("slot_driver.busy_share", slot_share),
        ("log.append_ns", log.append_ns),
        ("log.truncate_ns_per_entry", log.truncate_ns_per_entry),
        ("log.snapshot_install_ns", log.snapshot_install_ns),
        ("log.retained_max", f(plain.retained_max)),
        (
            "retx.retransmits_per_decision",
            per_decision(membership.retransmits_sent),
        ),
        ("service.step_ns_p50", step_pct(0.50)),
        ("service.step_ns_p99", step_pct(0.99)),
        ("service.steps_per_decision", per_decision(traced.steps)),
        (
            "service.duplicate_frames_per_decision",
            per_decision(membership.duplicate_frames_dropped),
        ),
        ("service.allocs_per_decision", per_decision(plain.allocs)),
        (
            "service.live_heap_bytes_per_decision",
            plain.heap_slope_bytes,
        ),
        (
            "service.latency_virtual_ms_max",
            ms_of(latencies.iter().copied().max().unwrap_or(0)),
        ),
        ("service.view_changes", f(membership.view_changes)),
        ("service.snapshots_sent", f(membership.snapshots_sent)),
        ("service.sync_bytes_sent", f(membership.sync_bytes_sent)),
        (
            "service.decisions_transferred",
            f(membership.decisions_transferred),
        ),
        (
            "service.rejoin_virtual_ms_p50",
            ms_of(stats::percentile(&rejoins, 0.5).unwrap_or(0)),
        ),
        (
            "service.rejoin_virtual_ms_max",
            ms_of(rejoins.last().copied().unwrap_or(0)),
        ),
        (
            "service.undecided_share",
            f(traced.undecided) / f(traced.commands.max(1)),
        ),
        ("service.self_share", 1.0 - below),
        ("trace.overhead_ratio", traced.wall_s / plain.wall_s),
    ];
    Round {
        values,
        latencies_ns: latencies,
        commands: traced.commands,
        undecided: traced.undecided.max(plain.undecided),
        failures,
        trace_lines: if want_spans {
            span_lines(&traced, &t, &generated.due)
        } else {
            String::new()
        },
    }
}

/// The span file of one traced round: a request span per command
/// (virtual ns) and, for the sampled steps, a parent span with a child
/// span per probe call inside it (wall ns since the fleet's epoch).
fn span_lines(run: &FleetRun, t: &run::Traced, due: &[Nanos]) -> String {
    let mut out = String::new();
    let opt = |at: &Option<Nanos>| at.map_or("null".to_owned(), |at| at.as_nanos().to_string());
    for (ix, due) in due.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"span\":\"request\",\"id\":{},\"due_ns\":{},\"first_decided_ns\":{},\"decided_everywhere_ns\":{}}}",
            ix + 1,
            due.as_nanos(),
            opt(&run.first_decided[ix]),
            opt(&run.everywhere[ix]),
        );
    }
    for (id, start, end) in &t.step_spans {
        let _ = writeln!(
            out,
            "{{\"span\":\"step\",\"id\":{id},\"start_ns\":{start},\"end_ns\":{end}}}"
        );
    }
    for child in &t.child_spans {
        let _ = writeln!(
            out,
            "{{\"span\":\"{}\",\"parent\":{},\"node\":{},\"start_ns\":{},\"end_ns\":{}}}",
            if child.send { "send" } else { "recv_batch" },
            child.parent,
            child.node,
            child.start_ns,
            child.end_ns,
        );
    }
    out
}

/// How long a run goes on.
#[derive(Clone, Copy, Debug)]
enum Budget {
    /// Rounds until this much wall time has passed (at least one).
    Seconds(f64),
    /// Exactly this many rounds: every `exact` metric then repeats bit
    /// for bit.
    Rounds(u64),
}

/// A finished run: what is printed.
struct Outcome {
    metrics: Vec<Measured>,
    rounds: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    pooled: usize,
    trace_lines: String,
}

fn measure(spec: &Spec, seed: u64, budget: Budget, trace: bool, scale_div: u64) -> Outcome {
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let round_seed = workload::round_seed(seed, rounds.len() as u64);
        rounds.push(if trace {
            per_layer_round(spec, round_seed, scale_div, rounds.is_empty())
        } else {
            end_to_end_round(spec, round_seed, scale_div)
        });
        let done = match budget {
            Budget::Seconds(s) => started.elapsed() >= Duration::from_secs_f64(s),
            Budget::Rounds(r) => rounds.len() as u64 >= r,
        };
        if done {
            break;
        }
    }
    let mut pooled: Vec<u64> = rounds
        .iter()
        .flat_map(|r| r.latencies_ns.iter().copied())
        .collect();
    pooled.sort_unstable();
    let catalogue: &[MetricDef] = if trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    let metrics = catalogue
        .iter()
        .map(|def| {
            let pooled_pct = |q| Measured {
                name: def.name,
                value: ms_of(stats::percentile(&pooled, q).unwrap_or(0)),
                samples: pooled.len() as u64,
            };
            match def.name {
                "latency_virtual_ms_p50" => pooled_pct(0.50),
                "latency_virtual_ms_p99" => pooled_pct(0.99),
                "latency_virtual_ms_p999" => pooled_pct(0.999),
                name => {
                    let per_round: Vec<f64> = rounds
                        .iter()
                        .filter_map(|r| r.values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
                        .collect();
                    assert_eq!(per_round.len(), rounds.len(), "{name} missing from a round");
                    Measured {
                        name,
                        value: stats::median(&per_round),
                        samples: rounds.len() as u64,
                    }
                }
            }
        })
        .collect();
    Outcome {
        metrics,
        rounds: rounds.len() as u64,
        attempted: rounds.iter().map(|r| r.commands).sum(),
        failed: rounds.iter().map(|r| r.undecided).sum(),
        failures: rounds.iter().flat_map(|r| r.failures.clone()).collect(),
        pooled: pooled.len(),
        trace_lines: rounds
            .first_mut()
            .map(|r| std::mem::take(&mut r.trace_lines))
            .unwrap_or_default(),
    }
}

/// The fixed parameters, stated with every output.
fn info_line(spec: &Spec, seed: u64, trace: bool, outcome: &Outcome) -> String {
    format!(
        "{{\"info\":{{\"workload\":\"{}\",\"seed\":{seed},\"trace\":{},\"rounds\":{},\
         \"commands_per_round\":{},\"n\":{},\"loss\":{},\"one_way_delay_ms\":[{},{}],\
         \"heartbeat_period_ms\":{},\"poll_tick_ms\":{},\"estimator\":\"ChenEstimator(150ms,16,600ms)\",\
         \"heal_merge\":true,\"compaction\":\"retain_last({})\",\"load\":\"open loop on a virtual-time schedule\",\
         \"generator_lateness_ns\":0,\"latency_samples\":{},\"highest_supported_percentile\":\"{}\",\
         \"threads\":1}}}}",
        spec.name,
        u8::from(trace),
        outcome.rounds,
        outcome.attempted / outcome.rounds.max(1),
        spec.n,
        spec.loss,
        workload::DELAY_MS.0,
        workload::DELAY_MS.1,
        workload::PERIOD_MS,
        workload::TICK_MS,
        workload::RETAIN,
        outcome.pooled,
        stats::highest_supported(outcome.pooled).unwrap_or("none"),
    )
}

fn write_trace(spec: &Spec, lines: &str) -> std::io::Result<std::path::PathBuf> {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let dir = std::path::Path::new(&target).join("service_e2e");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace_{}.jsonl", spec.name));
    std::fs::write(&path, lines)?;
    Ok(path)
}

fn run_workload(spec: &Spec, seed: u64, budget: Budget, trace: bool) -> ExitCode {
    let outcome = measure(spec, seed, budget, trace, 1);
    println!("{}", info_line(spec, seed, trace, &outcome));
    for m in &outcome.metrics {
        println!("{}", report::metric_line(spec.name, m));
    }
    if trace {
        match write_trace(spec, &outcome.trace_lines) {
            Ok(path) => eprintln!("spans written to {}", path.display()),
            Err(err) => {
                eprintln!("cannot write the span file: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    for failure in &outcome.failures {
        eprintln!("correctness gate: {failure}");
    }
    let correct = outcome.failures.is_empty();
    println!(
        "{}",
        report::result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One `BENCHMARK.json` section as `field|field|…` rows, to compare
/// against what the binary would list.
fn listed(doc: &Json, section: &str, fields: &[&str]) -> Vec<String> {
    let field = |item: &Json, key: &str| match item.get(key) {
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Num(v)) => v.to_string(),
        other => format!("{other:?}"),
    };
    doc.get(section)
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .map(|item| {
            let row: Vec<String> = fields.iter().map(|key| field(item, key)).collect();
            row.join("|")
        })
        .collect()
}

fn catalogue_rows(defs: &[MetricDef]) -> Vec<String> {
    defs.iter()
        .map(|d| {
            let better = match d.better {
                report::Better::Lower => "lower",
                report::Better::Higher => "higher",
            };
            let bound = d.bound.map_or(String::new(), |b| format!("|{b}"));
            format!("{}|{}|{better}{bound}", d.name, d.unit)
        })
        .collect()
}

/// `--check`: every workload at 1/20 scale, two same-seed two-round
/// runs back to back, traced and untraced. Returns what is wrong.
fn check(benchmark_json: &str) -> Vec<String> {
    let mut wrong = Vec::new();
    let Some(doc) = report::parse_json(benchmark_json) else {
        return vec!["BENCHMARK.json does not parse".into()];
    };
    let workloads = workload::WORKLOADS
        .iter()
        .map(|w| format!("{}|{}", w.name, w.why))
        .collect();
    for (section, fields, ours) in [
        ("workloads", &["name", "why"][..], workloads),
        (
            "end_to_end",
            &["name", "unit", "better", "bound"][..],
            catalogue_rows(&report::END_TO_END),
        ),
        (
            "per_layer",
            &["name", "unit", "better"][..],
            catalogue_rows(&report::PER_LAYER),
        ),
    ] {
        let theirs = listed(&doc, section, fields);
        if theirs != ours {
            wrong.push(format!(
                "BENCHMARK.json {section} lists {theirs:?}, the binary {ours:?}"
            ));
        }
        for name in ours.iter().filter_map(|row| row.split('|').next()) {
            if !report::plain_name(name) {
                wrong.push(format!("{name:?} is not a plain name"));
            }
        }
    }
    for spec in &workload::WORKLOADS {
        for trace in [false, true] {
            let a = measure(spec, 1, Budget::Rounds(2), trace, CHECK_SCALE_DIV);
            let b = measure(spec, 1, Budget::Rounds(2), trace, CHECK_SCALE_DIV);
            for failure in a.failures.iter().chain(&b.failures) {
                wrong.push(format!("{} trace={trace}: {failure}", spec.name));
            }
            for (ma, mb) in a.metrics.iter().zip(&b.metrics) {
                let exact = report::find(ma.name).is_some_and(|d| d.exact);
                if exact && ma.value.to_bits() != mb.value.to_bits() {
                    wrong.push(format!(
                        "{} {}: exact metric differs between same-seed runs: {} vs {}",
                        spec.name, ma.name, ma.value, mb.value
                    ));
                }
                if !ma.value.is_finite() {
                    wrong.push(format!("{} {}: not a finite number", spec.name, ma.name));
                }
            }
            if trace {
                let retx = a
                    .metrics
                    .iter()
                    .find(|m| m.name == "retx.retransmits_per_decision")
                    .map_or(0.0, |m| m.value);
                if spec.drops_nothing() != (retx == 0.0) {
                    wrong.push(format!(
                        "{}: retransmits_per_decision = {retx} (wire drops nothing: {})",
                        spec.name,
                        spec.drops_nothing()
                    ));
                }
            }
            eprintln!(
                "checked {} trace={} ({} commands)",
                spec.name,
                u8::from(trace),
                a.attempted
            );
        }
    }
    wrong
}

struct Args {
    workload: Option<String>,
    seed: u64,
    budget: Budget,
    trace: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: service_e2e --workload <{}> [--seed N] [--seconds S | --rounds R] [--trace 0|1]\n       \
         service_e2e --check          (run from the repository root: reads BENCHMARK.json)\n       \
         service_e2e --compare A B    (two captured outputs of this binary)",
        workload::WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

fn parse_args(raw: &[String]) -> Option<Args> {
    let mut args = Args {
        workload: None,
        seed: 1,
        budget: Budget::Seconds(10.0),
        trace: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => {
                let seconds: f64 = value.parse().ok()?;
                if !seconds.is_finite() || seconds < 0.0 {
                    return None;
                }
                args.budget = Budget::Seconds(seconds);
            }
            "--rounds" => args.budget = Budget::Rounds(value.parse().ok().filter(|r| *r > 0)?),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    Some(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("--check") if raw.len() == 1 => {
            let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
                eprintln!("--check reads BENCHMARK.json: run it from the repository root");
                return ExitCode::from(2);
            };
            let wrong = check(&text);
            for line in &wrong {
                eprintln!("check failed: {line}");
            }
            if wrong.is_empty() {
                println!("check ok");
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some("--compare") if raw.len() == 3 => {
            let read = |path: &String| {
                std::fs::read_to_string(path).map_err(|err| eprintln!("cannot read {path}: {err}"))
            };
            let (Ok(a), Ok(b)) = (read(&raw[1]), read(&raw[2])) else {
                return ExitCode::from(2);
            };
            let (text, regressed) = report::compare(&a, &b);
            print!("{text}");
            if regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        _ => {
            let Some(args) = parse_args(&raw) else {
                return usage();
            };
            let Some(spec) = args.workload.as_deref().and_then(workload::find) else {
                return usage();
            };
            run_workload(spec, args.seed, args.budget, args.trace)
        }
    }
}
