//! # xps-analyze — project-specific static analysis
//!
//! The workspace's invariants — bit-identical parallel output,
//! byte-identical journal resume, checksummed atomic persistence —
//! were enforced by convention until this crate. It makes them
//! *structural*: a source lint pass forbids the known nondeterminism
//! and crash-unsafety leak vectors, and an artifact checker validates
//! every on-disk data file against the model domains, so a regression
//! in either shows up as a red CI job instead of an irreproducible
//! matrix three PRs later.
//!
//! Three layers share one diagnostic/suppression/JSON spine:
//!
//! * **Textual rules** — [`analyze_source`] lexes every library and
//!   binary `.rs` file of the workspace (never `tests/`, `benches/` or
//!   `examples/`) with the hand-rolled lossless [`lexer`] (the
//!   workspace is offline; no `syn`) and runs the [`rules`] registry
//!   over the significant-token stream. Findings carry
//!   `file:line:col`, a rule id, a message, and a suggestion;
//!   `// xps-allow(rule-id): reason` suppresses a finding on the same
//!   or next line, and the reason is mandatory.
//! * **Semantic passes** — [`parse`] extracts items, imports, calls
//!   and per-function marks into per-file summaries; [`graph`] links
//!   them into a cross-crate call graph with path-qualified
//!   resolution; [`taint`] reports any wall-clock / entropy /
//!   hash-order source connected to serialized output as a
//!   `determinism-provenance` finding carrying the full call chain
//!   (`file:line` per hop); [`locks`] builds the
//!   lock-acquisition-order graph, reports cycles (`lock-discipline`
//!   inversions) and blocking operations performed while a guard is
//!   live. [`analyze_source`] runs everything: it lexes, parses and
//!   summarizes every file, then runs both passes over the full
//!   summary set.
//! * **Artifact checker** — [`artifact::check_dir`] validates
//!   journals, store records, and measured-results files against
//!   their checksum formats and the model domains, without running a
//!   simulation.
//!
//! Rules that only match a name are not here: clippy matches resolved
//! paths and CI already runs it with `-D warnings`. Every library crate
//! root denies `clippy::unwrap_used` and `clippy::expect_used`, and the
//! `clippy.toml` files disallow raw `std::fs::write`/`File::create`
//! (and, in the generator crates, `Instant::now`/`SystemTime::now`);
//! an exception is `#[expect(clippy::…, reason = "…")]` on its
//! statement.
//!
//! All three are exposed through the `xps-analyze` binary and the
//! `repro analyze` subcommand; `.github/workflows/ci.yml` runs them as
//! a required job, and `xps-analyze --catalog` emits the rule table
//! embedded (and drift-checked) in `README.md` and `DESIGN.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::allow_attributes_without_reason
)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        reason = "unit tests stage fixture files directly"
    )
)]

pub mod artifact;
pub mod diag;
pub mod graph;
pub mod lexer;
pub mod locks;
pub mod parse;
pub mod rules;
pub mod taint;

pub use diag::{Finding, Report, Severity};
pub use rules::{all_rules, catalog_markdown, semantic_rules, Rule};

use parse::FileSummary;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Directory names the source walker never descends into: build
/// output, vendored third-party code, VCS metadata, lint-fixture trees
/// (which contain *seeded* violations by design), and test, bench and
/// example trees, whose clocks, prints and panics are harness
/// behaviour, not product behaviour.
const SKIP_DIRS: [&str; 7] = [
    "target", "vendor", ".git", "fixtures", "tests", "benches", "examples",
];

/// Is this workspace-relative `.rs` path product code the lint pass
/// reads: under a crate's `src/` (library or binary), and in no
/// skipped directory?
pub fn is_product_source(rel: &Path) -> bool {
    let comps: Vec<&str> = rel
        .components()
        .filter_map(|c| c.as_os_str().to_str())
        .collect();
    comps.contains(&"src") && !comps.iter().any(|c| SKIP_DIRS.contains(c))
}

/// Every lintable `.rs` file under `root`, workspace-relative and
/// sorted (deterministic report order for any filesystem).
///
/// # Errors
///
/// Returns a message naming the unreadable directory.
pub fn workspace_sources(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    walk(root, root, &mut out).map_err(|e| format!("walk {}: {e}", root.display()))?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) && !name.starts_with('.') {
                walk(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            if is_product_source(rel) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// The lib-ident of the crate owning a workspace-relative path:
/// `crates/serve/…` → `xps_serve` (hyphens folded), anything else →
/// the root package (`xpscalar`). The mapping is derived from the
/// fixed `crates/<dir>` ↔ `xps-<dir>` layout rather than parsed from
/// Cargo.toml — a new crate breaking the convention would surface
/// immediately as unresolved cross-crate edges in the self-check.
pub fn crate_name_for(rel: &Path) -> String {
    let comps: Vec<&str> = rel
        .components()
        .filter_map(|c| c.as_os_str().to_str())
        .collect();
    if comps.first() == Some(&"crates") {
        if let Some(dir) = comps.get(1) {
            return format!("xps_{}", dir.replace('-', "_"));
        }
    }
    "xpscalar".to_string()
}

/// Lint one source text as if it lived at `rel` (workspace-relative):
/// the textual pass plus the semantic passes run over the singleton
/// graph of this one file.
pub fn analyze_file(rel: &Path, src: &str) -> Vec<Finding> {
    let relpath = rel.display().to_string();
    let summaries = vec![parse::summarize_file(&relpath, &crate_name_for(rel), src)];
    semantic_report(summaries).findings
}

/// Run the full analysis — textual rules per file, then the
/// determinism-provenance and lock-discipline passes over the
/// cross-crate call graph — over every workspace `.rs` file under
/// `root`.
///
/// # Errors
///
/// Returns a message when the tree cannot be walked or a source file
/// cannot be read — an unreadable workspace must not report "clean".
pub fn analyze_source(root: &Path) -> Result<Report, String> {
    let mut summaries: Vec<FileSummary> = Vec::new();
    for rel in workspace_sources(root)? {
        let src = std::fs::read_to_string(root.join(&rel))
            .map_err(|e| format!("read {}: {e}", rel.display()))?;
        summaries.push(parse::summarize_file(
            &rel.display().to_string(),
            &crate_name_for(&rel),
            &src,
        ));
    }
    Ok(semantic_report(summaries))
}

/// Findings from a summary set: the per-file textual findings, the
/// two semantic passes over the linked graph, then staleness warns
/// for suppressions no pass consumed.
fn semantic_report(mut summaries: Vec<FileSummary>) -> Report {
    let mut report = Report {
        files_checked: summaries.len(),
        ..Report::default()
    };
    for s in &mut summaries {
        report.findings.append(&mut s.textual);
    }
    let g = graph::build(&summaries);
    let (taint_findings, taint_used) = taint::check(&summaries, &g);
    let (lock_findings, lock_used) = locks::check(&summaries, &g);
    report.findings.extend(taint_findings);
    report.findings.extend(lock_findings);
    let used: BTreeSet<(String, u32)> = taint_used.union(&lock_used).cloned().collect();
    for s in &summaries {
        for sp in &s.suppressions {
            if !sp.used_by_textual && !used.contains(&(s.relpath.clone(), sp.line)) {
                report.findings.push(rules::unused_suppression_finding(
                    &s.relpath, &sp.rule, sp.line,
                ));
            }
        }
    }
    report.sort();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn product_sources_are_library_and_binary_code_only() {
        let linted = |p: &str| is_product_source(Path::new(p));
        assert!(linted("crates/sim/src/config.rs"));
        assert!(linted("crates/bench/src/bin/repro.rs"));
        assert!(linted("crates/bench/src/bin/xps-perf/src/main.rs"));
        assert!(linted("src/lib.rs"));
        assert!(!linted("crates/sim/tests/golden.rs"));
        assert!(!linted("crates/bench/benches/explore.rs"));
        assert!(!linted("crates/cacti/examples/sweep.rs"));
        assert!(!linted("crates/bench/src/bin/xps-perf/tests/smoke.rs"));
        assert!(!linted("vendor/serde/src/lib.rs"));
        assert!(!linted("target/debug/build/out.rs"));
        assert!(!linted("crates/analyze/tests/fixtures/bad.rs"));
        assert!(!linted("build.rs"));
    }

    #[test]
    fn walker_finds_this_crate_and_skips_vendor() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let sources = workspace_sources(&root).expect("walk");
        assert!(
            sources
                .iter()
                .any(|p| p.ends_with("crates/analyze/src/lib.rs")),
            "must see itself"
        );
        assert!(
            !sources.iter().any(|p| p.starts_with("vendor")),
            "vendored code is not ours to lint"
        );
        let mut sorted = sources.clone();
        sorted.sort();
        assert_eq!(sources, sorted, "walk order is deterministic");
    }
}
