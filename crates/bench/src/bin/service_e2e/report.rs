//! The metric catalogue (names, units, directions, bounds — the same
//! set `BENCHMARK.json` lists), the hand-written JSON emitter and
//! reader (`rfd-bench` has no `serde_json` dependency), and the bound
//! logic of `--compare`.

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}
use Better::{Higher, Lower};

/// One metric of the catalogue.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
    /// A pure function of `(workload, seed, rounds)`: virtual-time
    /// results and counts repeat bit for bit; the rest is wall clock.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact,
    }
}

/// What a client of the service sees (untraced run).
pub const END_TO_END: [MetricDef; 9] = [
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("decisions_per_wall_s", "1/s", Higher, 0.20, false),
    e2e("decisions_per_virtual_s", "1/s", Higher, 0.02, true),
    e2e("latency_virtual_ms_p50", "ms", Lower, 0.10, true),
    e2e("latency_virtual_ms_p99", "ms", Lower, 0.10, true),
    e2e("latency_virtual_ms_p999", "ms", Lower, 0.15, true),
    e2e("datagrams_per_decision", "count", Lower, 0.02, true),
    e2e("bytes_per_decision", "B", Lower, 0.02, true),
    e2e("peak_heap_bytes", "B", Lower, 0.05, true),
];

/// Single layers, from the `--trace 1` run. Layers are module names.
pub const PER_LAYER: [MetricDef; 52] = [
    layer("transport.datagrams_sent", "count", Lower, true),
    layer("transport.datagrams_lost", "count", Lower, true),
    layer("transport.datagrams_delivered", "count", Lower, true),
    layer("transport.bytes_sent", "B", Lower, true),
    layer("transport.send_ns", "ns", Lower, false),
    layer("transport.recv_batch_ns", "ns", Lower, false),
    layer("transport.datagrams_per_drain", "count", Higher, true),
    layer("transport.busy_share", "ratio", Lower, false),
    layer("codec.decode_ns_per_datagram", "ns", Lower, false),
    layer("codec.frames_per_datagram", "count", Higher, true),
    layer("codec.decode_errors", "count", Lower, true),
    layer("codec.busy_share", "ratio", Lower, false),
    layer("codec.frames.heartbeat", "count", Lower, true),
    layer("codec.frames.view_change", "count", Lower, true),
    layer("codec.frames.command", "count", Lower, true),
    layer("codec.frames.consensus", "count", Lower, true),
    layer("codec.frames.decided", "count", Lower, true),
    layer("codec.frames.sync_request", "count", Lower, true),
    layer("codec.frames.sync_reply", "count", Lower, true),
    layer("codec.frames.snapshot_request", "count", Lower, true),
    layer("codec.frames.snapshot_reply", "count", Lower, true),
    layer("detector.on_heartbeat_ns", "ns", Lower, false),
    layer("detector.suspects_ns", "ns", Lower, false),
    layer("detector.busy_share", "ratio", Lower, false),
    layer("membership.poll_ns", "ns", Lower, false),
    layer("membership.datagrams_per_period", "count", Lower, true),
    layer("membership.view_changes", "count", Lower, true),
    layer("membership.busy_share", "ratio", Lower, false),
    layer("slot_driver.ns_per_decision", "ns", Lower, false),
    layer("slot_driver.msgs_per_decision", "count", Lower, true),
    layer("slot_driver.busy_share", "ratio", Lower, false),
    layer("log.append_ns", "ns", Lower, false),
    layer("log.truncate_ns_per_entry", "ns", Lower, false),
    layer("log.snapshot_install_ns", "ns", Lower, false),
    layer("log.retained_max", "count", Lower, true),
    layer("retx.retransmits_per_decision", "count", Lower, true),
    layer("service.step_ns_p50", "ns", Lower, false),
    layer("service.step_ns_p99", "ns", Lower, false),
    layer("service.steps_per_decision", "count", Lower, true),
    layer(
        "service.duplicate_frames_per_decision",
        "count",
        Lower,
        true,
    ),
    layer("service.allocs_per_decision", "count", Lower, true),
    layer("service.live_heap_bytes_per_decision", "B", Lower, true),
    layer("service.latency_virtual_ms_max", "ms", Lower, true),
    layer("service.view_changes", "count", Lower, true),
    layer("service.snapshots_sent", "count", Lower, true),
    layer("service.sync_bytes_sent", "B", Lower, true),
    layer("service.decisions_transferred", "count", Lower, true),
    layer("service.rejoin_virtual_ms_p50", "ms", Lower, true),
    layer("service.rejoin_virtual_ms_max", "ms", Lower, true),
    layer("service.undecided_share", "ratio", Lower, true),
    layer("service.self_share", "ratio", Lower, false),
    layer("trace.overhead_ratio", "ratio", Lower, false),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// `[A-Za-z0-9][A-Za-z0-9_.-]*`, at most 64 characters: the shape
/// `BENCHMARK.json` demands of metric and workload names.
pub fn plain_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// One measured value: a catalogue name, the number, and how many
/// samples stand behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub samples: u64,
}

// ------------------------------------------------------------------ JSON

/// A parsed JSON value. Objects keep their key order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_array(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }
}

/// Parses one JSON document; `None` on any syntax error or trailing
/// input.
pub fn parse_json(text: &str) -> Option<Json> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = parser.value()?;
    parser.skip_space();
    (parser.at == parser.bytes.len()).then_some(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Option<()> {
        self.skip_space();
        (self.bytes.get(self.at) == Some(&byte)).then(|| self.at += 1)
    }

    fn literal(&mut self, word: &str, value: Json) -> Option<Json> {
        let end = self.at + word.len();
        (self.bytes.get(self.at..end)? == word.as_bytes()).then(|| {
            self.at = end;
            value
        })
    }

    fn value(&mut self) -> Option<Json> {
        self.skip_space();
        match *self.bytes.get(self.at)? {
            b'{' => {
                self.at += 1;
                let mut fields = Vec::new();
                if self.eat(b'}').is_some() {
                    return Some(Json::Obj(fields));
                }
                loop {
                    self.skip_space();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    if self.eat(b',').is_none() {
                        break;
                    }
                }
                self.eat(b'}')?;
                Some(Json::Obj(fields))
            }
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                if self.eat(b']').is_some() {
                    return Some(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    if self.eat(b',').is_none() {
                        break;
                    }
                }
                self.eat(b']')?;
                Some(Json::Arr(items))
            }
            b'"' => self.string().map(Json::Str),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.at += 1;
                }
                std::str::from_utf8(self.bytes.get(start..self.at)?)
                    .ok()?
                    .parse()
                    .ok()
                    .map(Json::Num)
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        if self.bytes.get(self.at) != Some(&b'"') {
            return None;
        }
        self.at += 1;
        let mut out = Vec::new();
        loop {
            let byte = *self.bytes.get(self.at)?;
            self.at += 1;
            match byte {
                b'"' => break,
                b'\\' => {
                    let escaped = *self.bytes.get(self.at)?;
                    self.at += 1;
                    match escaped {
                        b'"' | b'\\' | b'/' => out.push(escaped),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex =
                                std::str::from_utf8(self.bytes.get(self.at..self.at + 4)?).ok()?;
                            let ch = char::from_u32(u32::from_str_radix(hex, 16).ok()?)?;
                            self.at += 4;
                            out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return None,
                    }
                }
                other => out.push(other),
            }
        }
        String::from_utf8(out).ok()
    }
}

fn quote(text: &str, out: &mut String) {
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A number as measured, with all its digits (Rust prints the shortest
/// text that reads back to the same `f64`). JSON has no NaN or
/// infinity; the harness never divides by zero, so neither can occur —
/// but a reader must not choke if one ever does.
fn number(value: f64, out: &mut String) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

/// One line per metric:
/// `{"workload":…,"metric":…,"value":…,"unit":…,"samples":…}`.
pub fn metric_line(workload: &str, m: &Measured) -> String {
    let unit = find(m.name).map_or("", |d| d.unit);
    let mut out = String::from("{\"workload\":");
    quote(workload, &mut out);
    out.push_str(",\"metric\":");
    quote(m.name, &mut out);
    out.push_str(",\"value\":");
    number(m.value, &mut out);
    out.push_str(",\"unit\":");
    quote(unit, &mut out);
    let _ = write!(out, ",\"samples\":{}}}", m.samples);
    out
}

/// The driver's result line: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Measured]) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (ix, m) in metrics.iter().enumerate() {
        if ix > 0 {
            out.push(',');
        }
        quote(m.name, &mut out);
        out.push_str(":{\"value\":");
        number(m.value, &mut out);
        out.push_str(",\"unit\":");
        quote(find(m.name).map_or("", |d| d.unit), &mut out);
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// Every metric line of a captured output, keyed by `(workload,
/// metric)`; several runs appended to one file give several values per
/// key. Lines that are not metric lines are skipped.
pub fn read_metric_lines(text: &str) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for line in text.lines() {
        let Some(json) = parse_json(line) else {
            continue;
        };
        let (Some(workload), Some(metric), Some(value)) = (
            json.get("workload").and_then(Json::as_str),
            json.get("metric").and_then(Json::as_str),
            json.get("value").and_then(Json::as_f64),
        ) else {
            continue;
        };
        out.entry((workload.to_owned(), metric.to_owned()))
            .or_default()
            .push(value);
    }
    out
}

// --------------------------------------------------------------- compare

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread is wider than the bound, so a change within
    /// it cannot be told from noise.
    Unresolved,
}

/// Judges `b` (the change) against `a` (the parent) under `def`'s
/// bound. Returns the verdict and by how much `b`'s median is *worse*,
/// as a share of `a`'s median (negative: better).
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let bound = def.bound.unwrap_or(0.0);
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse = match (ma == 0.0, def.better) {
        (true, _) if mb == 0.0 => 0.0,
        (true, Lower) => f64::INFINITY,
        (true, Higher) => f64::NEG_INFINITY,
        (false, Lower) => (mb - ma) / ma.abs(),
        (false, Higher) => (ma - mb) / ma.abs(),
    };
    let noise = stats::spread(a).max(stats::spread(b));
    let b_beats_all_a = b.iter().all(|&vb| {
        a.iter().all(|&va| match def.better {
            Lower => vb < va,
            Higher => vb > va,
        })
    });
    let verdict = if worse > bound {
        Verdict::Regressed
    } else if noise > bound {
        if b_beats_all_a {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if -worse > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (verdict, worse)
}

/// `--compare A B`: one row per (workload, end-to-end metric) found in
/// both outputs. Returns the report and whether anything regressed.
pub fn compare(a_text: &str, b_text: &str) -> (String, bool) {
    let (a, b) = (read_metric_lines(a_text), read_metric_lines(b_text));
    let mut out = String::new();
    let mut regressed = false;
    let mut counts = [0_usize; 4];
    for ((workload, metric), a_values) in &a {
        let (Some(def), Some(b_values)) =
            (find(metric), b.get(&(workload.clone(), metric.clone())))
        else {
            continue;
        };
        if def.bound.is_none() {
            continue;
        }
        let (verdict, worse) = judge(def, a_values, b_values);
        regressed |= verdict == Verdict::Regressed;
        counts[verdict as usize] += 1;
        let _ = writeln!(
            out,
            "{verdict:?}\t{workload}\t{metric}\t{} -> {} {}\tworse by {:+.2}% (bound {:.0}%, n={}/{})",
            stats::median(a_values),
            stats::median(b_values),
            def.unit,
            worse * 100.0,
            def.bound.unwrap_or(0.0) * 100.0,
            a_values.len(),
            b_values.len(),
        );
    }
    let _ = writeln!(
        out,
        "improved {} / unchanged {} / regressed {} / unresolved {}",
        counts[Verdict::Improved as usize],
        counts[Verdict::Unchanged as usize],
        counts[Verdict::Regressed as usize],
        counts[Verdict::Unresolved as usize],
    );
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_plain_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(plain_name(def.name), "{}", def.name);
            assert!(seen.insert(def.name), "duplicate {}", def.name);
            assert!(def.unit.len() <= 16);
        }
        assert!(!plain_name(".hidden") && !plain_name("a b") && !plain_name(""));
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
    }

    #[test]
    fn emitter_and_reader_round_trip() {
        let a = Measured {
            name: "latency_virtual_ms_p99",
            value: 36.123_456_789_012_3,
            samples: 400_000,
        };
        let b = Measured {
            name: "setup_s",
            value: 1.5e-4,
            samples: 20,
        };
        let text = format!(
            "{}\nnot json\n{}\n{}\n{}\n",
            metric_line("steady_n5", &a),
            metric_line("steady_n5", &b),
            metric_line("steady_n5", &a),
            result_line(true, 10, 0, &[a.clone(), b.clone()])
        );
        let read = read_metric_lines(&text);
        assert_eq!(read.len(), 2);
        let key = ("steady_n5".to_owned(), a.name.to_owned());
        assert_eq!(read[&key], vec![a.value, a.value], "all digits survive");
        let key = ("steady_n5".to_owned(), b.name.to_owned());
        assert_eq!(read[&key], vec![b.value]);

        let result = parse_json(text.lines().last().expect("result line")).expect("valid JSON");
        let Json::Obj(fields) = &result else {
            panic!("object expected")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let p99 = result
            .get("metrics")
            .and_then(|m| m.get(a.name))
            .expect("metric present");
        assert_eq!(p99.get("value").and_then(Json::as_f64), Some(a.value));
        assert_eq!(p99.get("unit").and_then(Json::as_str), Some("ms"));
    }

    #[test]
    fn parser_handles_nesting_escapes_and_rejects_garbage() {
        let doc = r#" {"a": [1, -2.5e3, true, null], "b": {"c": "x\"yA\n"}} "#;
        let json = parse_json(doc).expect("valid");
        assert_eq!(
            json.get("a").map(Json::as_array).map(<[Json]>::len),
            Some(4)
        );
        assert_eq!(
            json.get("b")
                .and_then(|b| b.get("c"))
                .and_then(Json::as_str),
            Some("x\"yA\n")
        );
        for bad in ["", "{", "{\"a\":}", "[1,]", "{} x", "\"open"] {
            assert!(parse_json(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn compare_applies_the_bound_in_the_metric_direction() {
        let lower = find("latency_virtual_ms_p99").expect("known"); // bound 10 %
        let higher = find("decisions_per_wall_s").expect("known"); // bound 20 %
        assert_eq!(judge(lower, &[100.0], &[105.0]).0, Verdict::Unchanged);
        assert_eq!(judge(lower, &[100.0], &[111.0]).0, Verdict::Regressed);
        assert_eq!(judge(lower, &[100.0], &[80.0]).0, Verdict::Improved);
        assert_eq!(judge(higher, &[1000.0], &[780.0]).0, Verdict::Regressed);
        assert_eq!(judge(higher, &[1000.0], &[900.0]).0, Verdict::Unchanged);
        assert_eq!(judge(higher, &[1000.0], &[1300.0]).0, Verdict::Improved);
        // Spread wider than the bound: a small shift is unresolved, not
        // unchanged — unless every run of B beats every run of A.
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        assert_eq!(
            judge(lower, &noisy, &[82.0, 91.0, 99.0, 108.0, 118.0]).0,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(lower, &noisy, &[60.0, 65.0, 70.0, 72.0, 79.0]).0,
            Verdict::Improved
        );
        // A zero parent median cannot hide a regression.
        assert_eq!(judge(lower, &[0.0], &[1.0]).0, Verdict::Regressed);
        assert_eq!(judge(lower, &[0.0], &[0.0]).0, Verdict::Unchanged);
    }

    #[test]
    fn compare_report_flags_a_regression() {
        let line = |v: f64| {
            metric_line(
                "backlog_n5",
                &Measured {
                    name: "datagrams_per_decision",
                    value: v,
                    samples: 1,
                },
            )
        };
        let (text, regressed) = compare(&line(50.0), &line(50.5));
        assert!(!regressed, "{text}");
        let (text, regressed) = compare(&line(50.0), &line(52.0));
        assert!(regressed && text.starts_with("Regressed"), "{text}");
    }
}
