//! The analyzer's own acceptance gate: the workspace it ships in must
//! lint clean (every remaining finding is fixed or carries a reasoned
//! `xps-allow`), the checked-in measured results must validate against
//! the model domains, and the clippy configuration that took over the
//! name-matching rules (unwrap/expect in library code, raw writes,
//! clocks in the generator crates) must still be in place. CI runs the
//! same checks through the binary and clippy; these tests keep `cargo
//! test` equivalent to that gate.

use std::path::{Path, PathBuf};

use xps_analyze::{analyze_source, artifact, rules, Severity};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_sources_lint_clean() {
    let report = analyze_source(&workspace_root()).expect("walk workspace");
    assert!(
        report.files_checked > 50,
        "the walker must actually see the workspace ({} files)",
        report.files_checked
    );
    assert!(
        report.is_clean(),
        "the workspace must lint clean; fix or suppress (with a reason):\n{}",
        report.render_human("source")
    );
}

#[test]
fn workspace_has_no_warn_findings_either() {
    // Unused suppressions are warn-severity; a clean tree has none, so
    // stale allows cannot accumulate.
    let report = analyze_source(&workspace_root()).expect("walk workspace");
    let warns: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Warn)
        .collect();
    assert!(warns.is_empty(), "stale suppressions: {warns:#?}");
}

#[test]
fn docs_carry_the_current_rule_catalog() {
    // README.md and DESIGN.md embed the `xps-analyze --catalog` output
    // between `<!-- analyzer-catalog:begin/end -->` markers; the CI
    // drift check diffs those regions against the binary, and this
    // test keeps `cargo test` equivalent to that gate.
    let expected = rules::catalog_markdown();
    for doc in ["README.md", "DESIGN.md"] {
        let text = std::fs::read_to_string(workspace_root().join(doc))
            .unwrap_or_else(|e| panic!("read {doc}: {e}"));
        let begin = "<!-- analyzer-catalog:begin -->";
        let end = "<!-- analyzer-catalog:end -->";
        let start = text
            .find(begin)
            .unwrap_or_else(|| panic!("{doc} is missing the `{begin}` marker"));
        let stop = text
            .find(end)
            .unwrap_or_else(|| panic!("{doc} is missing the `{end}` marker"));
        let region = text[start + begin.len()..stop].trim_matches('\n');
        assert_eq!(
            region,
            expected.trim_end_matches('\n'),
            "{doc} analyzer catalog is stale; paste `xps-analyze --catalog` between the markers"
        );
    }
}

#[test]
fn checked_in_results_validate_against_model_domains() {
    let results = workspace_root().join("results");
    if !results.is_dir() {
        return; // a fresh checkout before any experiment has no results
    }
    let report = artifact::check_dir(&results).expect("walk results");
    assert!(
        report.is_clean(),
        "checked-in artifacts violate the model domains:\n{}",
        report.render_human("data")
    );
}

/// The crate-root attribute that hands unwrap/expect hygiene to
/// clippy, whitespace removed (rustfmt wraps it).
const DENY: &str =
    "#![deny(clippy::unwrap_used,clippy::expect_used,clippy::allow_attributes_without_reason)]";

#[test]
fn every_library_crate_root_denies_unwrap_and_expect() {
    let crates = std::fs::read_dir(workspace_root().join("crates")).expect("list crates");
    let mut roots = vec![PathBuf::from("src/lib.rs")];
    for entry in crates {
        let lib = Path::new("crates")
            .join(entry.expect("crate dir").file_name())
            .join("src/lib.rs");
        if workspace_root().join(&lib).is_file() {
            roots.push(lib);
        }
    }
    assert!(roots.len() >= 12, "library crate roots: {roots:?}");
    for root in roots {
        let text = std::fs::read_to_string(workspace_root().join(&root))
            .unwrap_or_else(|e| panic!("read {}: {e}", root.display()));
        let squashed: String = text.split_whitespace().collect();
        assert!(
            squashed.contains(DENY),
            "{} must carry `{DENY}`",
            root.display()
        );
    }
}

#[test]
fn clippy_configs_list_their_disallowed_methods() {
    let writes = ["std::fs::write", "std::fs::File::create"];
    let clocks = ["std::time::Instant::now", "std::time::SystemTime::now"];
    let configs: [(&str, &[&str]); 3] = [
        ("clippy.toml", &[]),
        ("crates/workload/clippy.toml", &clocks),
        ("crates/scenario/clippy.toml", &clocks),
    ];
    for (file, extra) in configs {
        let text = std::fs::read_to_string(workspace_root().join(file))
            .unwrap_or_else(|e| panic!("read {file}: {e}"));
        for setting in [
            "allow-unwrap-in-tests = true",
            "allow-expect-in-tests = true",
        ] {
            assert!(text.contains(setting), "{file} must set `{setting}`");
        }
        for method in writes.iter().chain(extra) {
            assert!(
                text.contains(&format!("path = \"{method}\"")),
                "{file} must list `{method}` under disallowed-methods"
            );
        }
    }
}

#[test]
fn no_suppression_names_a_rule_clippy_took_over() {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("read dir") {
            let path = entry.expect("entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if !matches!(name, "target" | "vendor") && !name.starts_with('.') {
                    walk(&path, out);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(&workspace_root(), &mut files);
    assert!(
        files.len() > 100,
        "the walk must see tests and fixtures too"
    );
    let gone = [
        "no-unwrap-in-lib",
        "no-raw-fs-write",
        "seeded-rng-only-in-generators",
    ];
    for file in files {
        let text = std::fs::read_to_string(&file).expect("read source");
        for id in gone {
            let allow = format!("xps-allow({id})");
            assert!(
                !text.contains(&allow),
                "{} names `{id}`; use #[expect(clippy::..., reason = ...)]",
                file.display()
            );
        }
    }
}
