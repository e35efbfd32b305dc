//! `rfd-lint`: the workspace's static-analysis pass.
//!
//! Every correctness claim this repro makes — the `=batch` gates, the
//! stream/online differential suites, per-seed reproducibility — rests
//! on invariants the compiler does not check: no wall-clock or entropy
//! leaks outside `clock.rs`, no iteration-order-nondeterministic
//! containers in simulated paths, and no panics reachable from an
//! arbitrary datagram. This crate machine-enforces them with a
//! hand-rolled lexer (comments and literals stripped, `#[cfg(test)]`
//! modules blanked) feeding token/path pattern rules; it has no
//! dependencies.
//!
//! Three rules (see ARCHITECTURE.md, "Determinism & wire-safety
//! invariants", for the full rationale):
//!
//! * [`RULE_DETERMINISM`] — forbids `HashMap`/`HashSet`, wall-clock
//!   reads, real sleeps and entropy-seeded RNGs outside the allowlist
//!   (`clock.rs`, `transport/udp.rs`, `crates/bench`).
//! * [`RULE_WIRE_SAFETY`] — forbids `.unwrap()`, `.expect(`, `panic!`,
//!   unchecked slice indexing and unchecked `ProcessId::new` in
//!   datagram-facing modules of `crates/net`.
//! * [`RULE_WIRE_TAGS`] — cross-checks the wire-tag constants against
//!   encode, decode, both view enums and the ARCHITECTURE.md tag table.
//!
//! Any single site can be waived with a trailing or preceding comment
//! `rfd-lint: allow(<rule>, <justification>)`; a waiver without a
//! justification is itself a violation ([`RULE_DIRECTIVE`]).
//!
//! Run as `cargo test -p rfd-lint` (the `workspace_is_clean` test) or
//! as the `rfd-lint` binary, which exits non-zero on violations.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod lexer;
pub mod rules;
pub mod tags;
pub mod walk;

use std::fmt;
use std::fs;
use std::path::Path;

pub use tags::check_tags;
pub use walk::{source_files, workspace_root};

/// Rule id: deterministic-replay hazards (nondeterministic containers,
/// wall clocks, sleeps, entropy).
pub const RULE_DETERMINISM: &str = "determinism";
/// Rule id: panics reachable from attacker-controlled datagrams.
pub const RULE_WIRE_SAFETY: &str = "wire-safety";
/// Rule id: wire-tag exhaustiveness across codec and docs.
pub const RULE_WIRE_TAGS: &str = "wire-tags";
/// Rule id: malformed escape-hatch directives.
pub const RULE_DIRECTIVE: &str = "directive";

/// One finding: a rule hit at a file/line, with an explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Display path (workspace-relative where possible).
    pub file: String,
    /// 1-indexed source line.
    pub line: usize,
    /// Which rule fired (one of the `RULE_*` ids).
    pub rule: &'static str,
    /// What matched and what to do instead.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Which rule sets apply to a given file (decided by path; see
/// [`context_for`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Context {
    /// Determinism rule active (file is outside the clock/udp/bench
    /// allowlist).
    pub determinism: bool,
    /// Wire-safety rule active (file is datagram-facing).
    pub wire_safety: bool,
}

/// Paths (workspace-relative, `/`-separated) where the determinism rule
/// is waived wholesale: the two modules whose entire *job* is touching
/// the wall clock and the sockets, plus benchmark code.
const DETERMINISM_ALLOWLIST_FILES: &[&str] =
    &["crates/net/src/clock.rs", "crates/net/src/transport/udp.rs"];
const DETERMINISM_ALLOWLIST_PREFIXES: &[&str] = &["crates/bench/"];

/// Datagram-facing modules: everything that parses or routes bytes an
/// arbitrary peer controls.
const WIRE_FACING_FILES: &[&str] = &[
    "crates/net/src/codec.rs",
    "crates/net/src/membership.rs",
    "crates/net/src/detector.rs",
];
const WIRE_FACING_PREFIXES: &[&str] = &["crates/net/src/service/", "crates/net/src/transport/"];

/// Resolves which rules apply to a workspace-relative path.
#[must_use]
pub fn context_for(rel: &str) -> Context {
    let determinism = !DETERMINISM_ALLOWLIST_FILES.contains(&rel)
        && !DETERMINISM_ALLOWLIST_PREFIXES
            .iter()
            .any(|p| rel.starts_with(p));
    let wire_safety =
        WIRE_FACING_FILES.contains(&rel) || WIRE_FACING_PREFIXES.iter().any(|p| rel.starts_with(p));
    Context {
        determinism,
        wire_safety,
    }
}

/// Lints one file's source under the rules its (workspace-relative)
/// path selects. This is the per-file half of the pass; the cross-file
/// tag check is [`check_tags`].
#[must_use]
pub fn lint_source(rel: &str, source: &str) -> Vec<Violation> {
    let (allows, mut violations) = lexer::directives(rel, source);
    let ctx = context_for(rel);
    if !ctx.determinism && !ctx.wire_safety {
        return violations;
    }
    let prepared = lexer::blank_test_mods(&lexer::strip(source));
    let mut raw = Vec::new();
    for (ix, line) in prepared.lines().enumerate() {
        rules::scan_line(rel, ix + 1, line, ctx, &mut raw);
    }
    violations.extend(raw.into_iter().filter(|v| {
        !allows
            .iter()
            .any(|a| a.covers == v.line && a.rule == v.rule)
    }));
    violations
}

/// Lints the whole workspace rooted at `root`: every library source
/// tree (see [`source_files`]) plus the wire-tag cross-check between
/// `crates/net/src/codec.rs` and the two tag tables — ARCHITECTURE.md's
/// summary and the authoritative frame reference `docs/WIRE.md`.
#[must_use]
pub fn lint_workspace(root: &Path) -> Vec<Violation> {
    let mut violations = Vec::new();
    for path in source_files(root) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        match fs::read_to_string(&path) {
            Ok(source) => violations.extend(lint_source(&rel, &source)),
            Err(err) => violations.push(Violation {
                file: rel,
                line: 1,
                rule: RULE_DIRECTIVE,
                message: format!("unreadable source file: {err}"),
            }),
        }
    }
    let codec_rel = "crates/net/src/codec.rs";
    let arch_rel = "ARCHITECTURE.md";
    let wire_rel = "docs/WIRE.md";
    let codec = fs::read_to_string(root.join(codec_rel)).unwrap_or_default();
    let arch = fs::read_to_string(root.join(arch_rel)).unwrap_or_default();
    let wire = fs::read_to_string(root.join(wire_rel)).unwrap_or_default();
    violations.extend(check_tags(
        codec_rel,
        &codec,
        &[(arch_rel, arch.as_str()), (wire_rel, wire.as_str())],
    ));
    violations
}
