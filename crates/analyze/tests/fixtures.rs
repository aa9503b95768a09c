//! Fixture-driven end-to-end tests: seeded source violations must be
//! reported with exact rule ids and positions, valid suppressions must
//! silence them, malformed suppressions must themselves be findings,
//! seeded bad artifacts must be rejected — and the standalone binary
//! must turn each of those into a non-zero exit code.

use std::path::{Path, PathBuf};
use std::process::Command;

use xps_analyze::{analyze_file, artifact, FileClass, Finding, Severity};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture(name: &str) -> String {
    std::fs::read_to_string(fixture_dir().join(name)).expect("read fixture")
}

/// Lint a fixture as if it were a library source file.
fn lint_as_lib(name: &str) -> Vec<Finding> {
    let src = fixture(name);
    let mut f = analyze_file(Path::new("crates/fix/src/lib.rs"), FileClass::Lib, &src);
    f.sort_by_key(|f| (f.line, f.col, f.rule));
    f
}

/// 1-based column of `needle` on 1-based `line` of the fixture — the
/// expected positions are derived from the fixture text itself, so the
/// assertions stay exact without hand-counted magic columns.
fn col_of(src: &str, line: u32, needle: &str) -> u32 {
    let text = src
        .lines()
        .nth(line as usize - 1)
        .expect("fixture line exists");
    text.find(needle).expect("needle on fixture line") as u32 + 1
}

/// 1-based line whose text contains `needle`.
fn line_of(src: &str, needle: &str) -> u32 {
    src.lines()
        .position(|l| l.contains(needle))
        .expect("needle in fixture") as u32
        + 1
}

#[test]
fn violations_fixture_reports_every_rule_at_exact_positions() {
    let src = fixture("violations.rs");
    let findings = lint_as_lib("violations.rs");

    let wallclock = line_of(&src, "Instant::now()");
    let write = line_of(&src, "std::fs::write");
    let iter = line_of(&src, "for (k, v)");
    let panic = line_of(&src, "panic!(\"boom\")");

    let got: Vec<(u32, u32, &str)> = findings.iter().map(|f| (f.line, f.col, f.rule)).collect();
    let want = vec![
        (
            wallclock,
            col_of(&src, wallclock, "Instant"),
            "determinism-provenance",
        ),
        (write, col_of(&src, write, "fs"), "no-raw-fs-write"),
        (write, col_of(&src, write, "unwrap"), "no-unwrap-in-lib"),
        (iter, col_of(&src, iter, "rows"), "determinism-provenance"),
        (panic, col_of(&src, panic, "panic"), "no-panic-in-worker"),
    ];
    assert_eq!(got, want, "full findings: {findings:#?}");
    assert!(
        findings.iter().all(|f| f.severity == Severity::Deny),
        "all seeded rules are deny severity"
    );
    assert!(
        findings.iter().all(|f| !f.suggestion.is_empty()),
        "every finding must carry a suggestion"
    );
}

#[test]
fn violations_fixture_is_exempt_in_test_code() {
    let src = fixture("violations.rs");
    let findings = analyze_file(
        Path::new("crates/fix/tests/golden.rs"),
        FileClass::Test,
        &src,
    );
    let lib_only: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == "no-unwrap-in-lib")
        .collect();
    assert!(
        lib_only.is_empty(),
        "no-unwrap-in-lib must not apply to test code: {lib_only:?}"
    );
}

#[test]
fn suppressed_fixture_is_clean() {
    let findings = lint_as_lib("suppressed.rs");
    assert!(
        findings.is_empty(),
        "valid xps-allow with a reason silences the finding: {findings:#?}"
    );
}

#[test]
fn malformed_suppressions_are_deny_findings_and_do_not_silence() {
    let src = fixture("bad_allow.rs");
    let findings = lint_as_lib("bad_allow.rs");
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();

    // Both bad allows are reported...
    assert_eq!(
        rules
            .iter()
            .filter(|r| **r == "malformed-suppression")
            .count(),
        2,
        "reason-less and unknown-rule allows are each findings: {findings:#?}"
    );
    // ...and the reason-less one does NOT suppress the wallclock hit.
    let wallclock = line_of(&src, "Instant::now()");
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "determinism-provenance" && f.line == wallclock),
        "a malformed allow must not silence anything: {findings:#?}"
    );
}

#[test]
fn seeded_bad_artifacts_are_all_rejected() {
    let report = artifact::check_dir(&fixture_dir().join("data")).expect("walk fixture data");
    assert_eq!(report.files_checked, 3);
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    for expected in ["journal-record", "store-record", "measured-envelope"] {
        assert!(
            rules.contains(&expected),
            "expected a {expected} finding, got {rules:?}"
        );
    }
    assert!(report.deny_count() >= 3);
}

#[test]
fn binary_exits_nonzero_on_bad_artifacts_and_names_the_rules() {
    let out = Command::new(env!("CARGO_BIN_EXE_xps-analyze"))
        .arg("data")
        .arg(fixture_dir().join("data"))
        .output()
        .expect("run xps-analyze");
    assert_eq!(
        out.status.code(),
        Some(1),
        "seeded violations must fail the run: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in ["journal-record", "store-record", "measured-envelope"] {
        assert!(stdout.contains(rule), "diagnostics name {rule}: {stdout}");
    }
}

#[test]
fn binary_exits_nonzero_on_seeded_source_violations() {
    // The walker skips directories named `fixtures`, so stage the
    // seeded file into a scratch tree shaped like a real crate.
    let scratch = std::env::temp_dir().join(format!("xps-analyze-fix-{}", std::process::id()));
    let src_dir = scratch.join("crates/fix/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir scratch");
    std::fs::write(src_dir.join("lib.rs"), fixture("violations.rs")).expect("stage fixture");

    let out = Command::new(env!("CARGO_BIN_EXE_xps-analyze"))
        .arg("source")
        .arg(&scratch)
        .output()
        .expect("run xps-analyze");
    std::fs::remove_dir_all(&scratch).ok();

    assert_eq!(
        out.status.code(),
        Some(1),
        "seeded source violations must fail the run: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("determinism-provenance"),
        "human output names the rule id: {stdout}"
    );
    assert!(stdout.contains("help:"), "diagnostics carry help: {stdout}");
}

/// A stray argument after the root is bad usage, not something to
/// ignore: a script still passing a flag the binary no longer reads
/// must fail rather than run with a different meaning.
#[test]
fn binary_refuses_extra_source_arguments() {
    let out = Command::new(env!("CARGO_BIN_EXE_xps-analyze"))
        .args(["source", ".", "--incremental"])
        .output()
        .expect("run xps-analyze");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn binary_json_output_is_machine_readable() {
    let out = Command::new(env!("CARGO_BIN_EXE_xps-analyze"))
        .arg("--json")
        .arg("data")
        .arg(fixture_dir().join("data"))
        .output()
        .expect("run xps-analyze");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v: serde::Value = serde_json::from_str(stdout.trim()).expect("valid JSON report");
    let findings = v.member("findings").expect("findings array");
    if let serde::Value::Arr(items) = findings {
        assert!(!items.is_empty());
        let first = &items[0];
        for key in [
            "file",
            "line",
            "col",
            "rule",
            "severity",
            "message",
            "suggestion",
        ] {
            assert!(first.member(key).is_ok(), "finding has `{key}`: {stdout}");
        }
    } else {
        panic!("findings is not an array: {stdout}");
    }
}
