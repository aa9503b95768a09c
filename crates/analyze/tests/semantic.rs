//! End-to-end tests for the semantic passes over a committed fixture
//! workspace: the determinism-provenance chain must be reported with
//! its exact three-hop path (file:line per hop), the seeded lock-order
//! inversion must be detected, and the whole report must be
//! byte-identical across runs.

use std::path::{Path, PathBuf};

use xps_analyze::{analyze_source, Finding};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/semantic")
}

fn cold_findings() -> Vec<Finding> {
    analyze_source(&fixture_root())
        .expect("walk semantic fixture")
        .findings
}

/// 1-based line whose text contains `needle` in the fixture file.
fn line_in(rel: &str, needle: &str) -> u32 {
    let src = std::fs::read_to_string(fixture_root().join(rel)).expect("read fixture");
    let idx = src
        .lines()
        .position(|l| l.contains(needle))
        .unwrap_or_else(|| panic!("`{needle}` in {rel}"));
    u32::try_from(idx).expect("fixture fits u32") + 1
}

#[test]
fn three_hop_cross_crate_chain_is_reported_with_exact_path() {
    let findings = cold_findings();
    let taint: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == "determinism-provenance")
        .collect();
    assert_eq!(taint.len(), 1, "{findings:#?}");
    let f = taint[0];
    assert_eq!(f.file, "crates/alpha/src/lib.rs");
    assert_eq!(f.line, line_in("crates/alpha/src/lib.rs", "Instant::now()"));
    let chain = format!(
        "xps_alpha::tick (crates/alpha/src/lib.rs:{}) \u{2192} \
         xps_beta::relay (crates/beta/src/lib.rs:{}) \u{2192} \
         xps_beta::out::emit (crates/beta/src/lib.rs:{})",
        line_in("crates/alpha/src/lib.rs", "pub fn tick"),
        line_in("crates/beta/src/lib.rs", "pub fn relay"),
        line_in("crates/beta/src/lib.rs", "pub fn emit"),
    );
    assert!(
        f.message.contains(&chain),
        "expected chain `{chain}` in message `{}`",
        f.message
    );
    assert!(f.message.contains("wall clock"), "{}", f.message);
}

#[test]
fn seeded_lock_order_inversion_is_detected() {
    let findings = cold_findings();
    let locks: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == "lock-discipline")
        .collect();
    assert_eq!(locks.len(), 1, "{findings:#?}");
    let f = locks[0];
    assert!(f.message.contains("lock-order inversion"), "{}", f.message);
    assert!(f.message.contains("xps_alpha:a"), "{}", f.message);
    assert!(f.message.contains("xps_alpha:b"), "{}", f.message);
    // Both witness sites appear with file:line.
    assert!(
        f.message.matches("crates/alpha/src/lib.rs:").count() >= 1,
        "{}",
        f.message
    );
}

#[test]
fn report_json_is_byte_identical_across_runs() {
    let root = fixture_root();
    let cold_a = analyze_source(&root)
        .expect("cold run")
        .render_json("source");
    let cold_b = analyze_source(&root)
        .expect("cold run")
        .render_json("source");
    assert_eq!(cold_a, cold_b, "cold runs must be byte-identical");
}
