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
//! * **Textual rules** — [`analyze_source`] lexes every workspace
//!   `.rs` file with the hand-rolled lossless [`lexer`] (the workspace
//!   is offline; no `syn`) and runs the [`rules`] registry over the
//!   significant-token stream. Findings carry `file:line:col`, a rule
//!   id, a message, and a suggestion; `// xps-allow(rule-id): reason`
//!   suppresses a finding on the same or next line, and the reason is
//!   mandatory.
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
//! All three are exposed through the `xps-analyze` binary and the
//! `repro analyze` subcommand; `.github/workflows/ci.yml` runs them as
//! a required job, and `xps-analyze --catalog` emits the rule table
//! embedded (and drift-checked) in `README.md` and `DESIGN.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod diag;
pub mod graph;
pub mod lexer;
pub mod locks;
pub mod parse;
pub mod rules;
pub mod taint;

pub use diag::{Finding, Report, Severity};
pub use rules::{all_rules, catalog_markdown, semantic_rules, FileClass, Rule};

use parse::FileSummary;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Directory names the source walker never descends into: build
/// output, vendored third-party code, VCS metadata, and lint-fixture
/// trees (which contain *seeded* violations by design).
const SKIP_DIRS: [&str; 4] = ["target", "vendor", ".git", "fixtures"];

/// Classify a workspace-relative `.rs` path into the file class that
/// decides rule applicability, or `None` for paths the lint pass
/// ignores entirely.
pub fn classify_path(rel: &Path) -> Option<FileClass> {
    let comps: Vec<&str> = rel
        .components()
        .filter_map(|c| c.as_os_str().to_str())
        .collect();
    if comps.iter().any(|c| SKIP_DIRS.contains(c)) {
        return None;
    }
    if comps.contains(&"examples") {
        return Some(FileClass::Example);
    }
    if comps.contains(&"tests") || comps.contains(&"benches") {
        return Some(FileClass::Test);
    }
    if let Some(src) = comps.iter().position(|&c| c == "src") {
        if comps.get(src + 1) == Some(&"bin") {
            return Some(FileClass::Bin);
        }
        return Some(FileClass::Lib);
    }
    None
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
            if classify_path(rel).is_some() {
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
pub fn analyze_file(rel: &Path, class: FileClass, src: &str) -> Vec<Finding> {
    let relpath = rel.display().to_string();
    let summaries = vec![parse::summarize_file(
        &relpath,
        class,
        &crate_name_for(rel),
        src,
    )];
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
        let class = classify_path(&rel).unwrap_or(FileClass::Lib);
        let src = std::fs::read_to_string(root.join(&rel))
            .map_err(|e| format!("read {}: {e}", rel.display()))?;
        summaries.push(parse::summarize_file(
            &rel.display().to_string(),
            class,
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
    fn path_classes_cover_the_layout() {
        let class = |p: &str| classify_path(Path::new(p));
        assert_eq!(class("crates/sim/src/config.rs"), Some(FileClass::Lib));
        assert_eq!(class("crates/bench/src/bin/repro.rs"), Some(FileClass::Bin));
        assert_eq!(class("crates/sim/tests/golden.rs"), Some(FileClass::Test));
        assert_eq!(
            class("crates/bench/benches/explore.rs"),
            Some(FileClass::Test)
        );
        assert_eq!(
            class("crates/cacti/examples/sweep.rs"),
            Some(FileClass::Example)
        );
        assert_eq!(class("vendor/serde/src/lib.rs"), None);
        assert_eq!(class("target/debug/build/out.rs"), None);
        assert_eq!(class("crates/analyze/tests/fixtures/bad.rs"), None);
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
