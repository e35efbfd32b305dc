//! The linter's own test battery: per-rule fixtures (one known-bad
//! snippet that must flag, one escaped/allowlisted snippet that must
//! pass), the wire-tag cross-check against doctored inputs, and the
//! acceptance gate — a whole-tree run asserting the live workspace is
//! clean.

use rfd_lint::{
    check_tags, lint_source, lint_workspace, workspace_root, RULE_DETERMINISM, RULE_DIRECTIVE,
    RULE_WIRE_SAFETY,
};
use std::fs;
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).expect("fixture readable")
}

#[test]
fn determinism_fixture_is_flagged_per_pattern() {
    let bad = fixture("determinism_bad.rs");
    // Vendored shims are linted like first-party code: a leak in one
    // voids the experiment tables just the same.
    for path in ["crates/sim/src/fixture.rs", "vendor/rand/src/fixture.rs"] {
        let violations = lint_source(path, &bad);
        assert!(violations.iter().all(|v| v.rule == RULE_DETERMINISM));
        for pattern in [
            "HashMap",
            "HashSet",
            "Instant::now",
            "SystemTime::now",
            "thread::sleep",
            "thread_rng",
            "from_entropy",
        ] {
            assert!(
                violations
                    .iter()
                    .any(|v| v.message.contains(&format!("`{pattern}`"))),
                "pattern {pattern} not flagged at {path}: {violations:?}"
            );
        }
    }
}

#[test]
fn determinism_fixture_passes_on_allowlisted_paths() {
    let bad = fixture("determinism_bad.rs");
    for allowlisted in [
        "crates/net/src/clock.rs",
        "crates/net/src/transport/udp.rs",
        "crates/bench/src/fixture.rs",
    ] {
        let violations: Vec<_> = lint_source(allowlisted, &bad)
            .into_iter()
            .filter(|v| v.rule == RULE_DETERMINISM)
            .collect();
        assert!(
            violations.is_empty(),
            "allowlisted path {allowlisted} flagged: {violations:?}"
        );
    }
}

#[test]
fn determinism_escapes_suppress_every_hit() {
    let violations = lint_source(
        "crates/sim/src/fixture.rs",
        &fixture("determinism_escaped.rs"),
    );
    assert!(
        violations.is_empty(),
        "escaped fixture flagged: {violations:?}"
    );
}

#[test]
fn wire_fixture_is_flagged_per_pattern() {
    let violations = lint_source("crates/net/src/codec.rs", &fixture("wire_bad.rs"));
    assert!(violations.iter().all(|v| v.rule == RULE_WIRE_SAFETY));
    for needle in [
        "unchecked slice indexing",
        ".unwrap()",
        ".expect(",
        "panic!",
        "ProcessId::new(",
    ] {
        assert!(
            violations.iter().any(|v| v.message.contains(needle)),
            "wire pattern {needle} not flagged: {violations:?}"
        );
    }
}

#[test]
fn wire_fixture_passes_outside_datagram_facing_modules() {
    let violations: Vec<_> = lint_source("crates/algo/src/consensus.rs", &fixture("wire_bad.rs"))
        .into_iter()
        .filter(|v| v.rule == RULE_WIRE_SAFETY)
        .collect();
    assert!(
        violations.is_empty(),
        "non-wire path flagged: {violations:?}"
    );
}

#[test]
fn wire_escapes_suppress_every_hit() {
    let violations = lint_source("crates/net/src/membership.rs", &fixture("wire_escaped.rs"));
    assert!(
        violations.is_empty(),
        "escaped fixture flagged: {violations:?}"
    );
}

#[test]
fn unjustified_directives_are_violations() {
    let violations = lint_source("crates/sim/src/fixture.rs", &fixture("directive_bad.rs"));
    assert_eq!(
        violations.len(),
        2,
        "expected both malformed directives flagged: {violations:?}"
    );
    assert!(violations.iter().all(|v| v.rule == RULE_DIRECTIVE));
}

#[test]
fn comments_strings_and_test_mods_are_invisible() {
    let source = r##"
//! Module docs mentioning HashMap and Instant::now are fine.

/// So are doc examples with `x.unwrap()` and panic!.
fn describe() -> &'static str {
    "string literals with HashMap, thread_rng and payload[0] are data"
}

fn raw() -> &'static str {
    r#"raw strings with SystemTime::now are data too"#
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn tests_may_unwrap_and_index() {
        let m: HashMap<u8, u8> = HashMap::new();
        let v = vec![1u8];
        assert_eq!(v[0], *m.get(&1).unwrap_or(&1));
        let x: Option<u8> = Some(1);
        x.unwrap();
    }
}
"##;
    let violations = lint_source("crates/net/src/codec.rs", source);
    assert!(
        violations.is_empty(),
        "non-code text flagged: {violations:?}"
    );
}

fn live(rel: &str) -> String {
    fs::read_to_string(workspace_root().join(rel)).expect("live file readable")
}

#[test]
fn tag_cross_check_is_clean_on_the_live_tree() {
    let arch = live("ARCHITECTURE.md");
    let wire = live("docs/WIRE.md");
    let violations = check_tags(
        "crates/net/src/codec.rs",
        &live("crates/net/src/codec.rs"),
        &[
            ("ARCHITECTURE.md", arch.as_str()),
            ("docs/WIRE.md", wire.as_str()),
        ],
    );
    assert!(
        violations.is_empty(),
        "live tag table drifted: {violations:?}"
    );
}

#[test]
fn tag_cross_check_fails_when_architecture_drifts() {
    // Renumber the Batch row: the doc now documents tag 99, which the
    // codec does not define, and stops documenting tag 8.
    let doctored = live("ARCHITECTURE.md").replace("| 8 | `Batch`", "| 99 | `Batch`");
    let violations = check_tags(
        "crates/net/src/codec.rs",
        &live("crates/net/src/codec.rs"),
        &[("ARCHITECTURE.md", doctored.as_str())],
    );
    assert!(
        violations
            .iter()
            .any(|v| v.message.contains("missing from")),
        "renumbered doc row not caught: {violations:?}"
    );
    assert!(
        violations
            .iter()
            .any(|v| v.message.contains("does not define")),
        "phantom doc tag not caught: {violations:?}"
    );
}

#[test]
fn tag_cross_check_fails_when_the_wire_reference_drifts() {
    // A clean ARCHITECTURE.md does not excuse a stale docs/WIRE.md: a
    // renumbered SnapshotReply row must flag against the wire reference.
    let arch = live("ARCHITECTURE.md");
    let doctored =
        live("docs/WIRE.md").replace("| 10 | `SnapshotReply`", "| 100 | `SnapshotReply`");
    let violations = check_tags(
        "crates/net/src/codec.rs",
        &live("crates/net/src/codec.rs"),
        &[
            ("ARCHITECTURE.md", arch.as_str()),
            ("docs/WIRE.md", doctored.as_str()),
        ],
    );
    assert!(
        violations
            .iter()
            .any(|v| v.file == "docs/WIRE.md" && v.message.contains("missing from")),
        "stale wire reference not caught: {violations:?}"
    );
    assert!(
        !violations.iter().any(|v| v.file == "ARCHITECTURE.md"),
        "the clean doc must not flag: {violations:?}"
    );
}

#[test]
fn tag_cross_check_fails_on_a_half_wired_tag() {
    let codec = live("crates/net/src/codec.rs");
    // Remove the decode arm for Batch: the tag still encodes, still has
    // enum variants, but can no longer be decoded.
    let doctored = codec.replace("tags::BATCH =>", "255 =>");
    assert_ne!(codec, doctored, "replacement target must exist");
    let arch = live("ARCHITECTURE.md");
    let violations = check_tags(
        "crates/net/src/codec.rs",
        &doctored,
        &[("ARCHITECTURE.md", arch.as_str())],
    );
    assert!(
        violations
            .iter()
            .any(|v| v.message.contains("no decode match arm")),
        "missing decode arm not caught: {violations:?}"
    );
}

/// The acceptance gate: the live workspace — every `crates/*/src`,
/// `vendor/*/src` and the facade `src/` — is clean under all rules.
#[test]
fn workspace_is_clean() {
    let violations = lint_workspace(&workspace_root());
    assert!(
        violations.is_empty(),
        "workspace has {} lint violation(s):\n{}",
        violations.len(),
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
