//! Determinism provenance: connect nondeterminism *sources* to
//! serialized-output *sinks* through the call graph.
//!
//! Sources (marked by [`crate::parse`]): wall-clock reads
//! (`Instant::now`, `SystemTime::now`), ambient entropy
//! (`thread_rng`/`from_entropy`/`OsRng`/`getrandom`), and iteration
//! over `HashMap`/`HashSet` contents in hash order. Sinks: functions
//! that emit serialized output — `println!`/`print!`,
//! `write_atomic`, `serde_json::to_string{,_pretty}`/`to_writer`,
//! `.to_value()`/`.serialize()`.
//!
//! A source mark in fn `S` is a deny finding when either
//!
//! * **`S` reaches a sink** — `S` (or something it transitively
//!   calls) emits serialized output, so the nondeterministic value can
//!   flow down into a document; or
//! * **a sink reaches `S`** — an emitting function transitively calls
//!   `S`, the classic laundering helper: `document()` calls
//!   `stamp()`, `stamp()` returns the wall clock, the document
//!   serializes it.
//!
//! Either way the diagnostic prints the full call chain in forward
//! call order, each hop with `file:line`. The finding anchors at the
//! source site, where a reasoned
//! `// xps-allow(determinism-provenance): …` suppresses it.

use crate::diag::{Finding, Severity};
use crate::graph::Graph;
use crate::parse::FileSummary;
use std::collections::BTreeSet;

/// Run the pass. Returns the findings plus the set of
/// `(relpath, allow-line)` suppressions it consumed, so the driver
/// can decide staleness after every pass has run.
pub fn check(files: &[FileSummary], graph: &Graph) -> (Vec<Finding>, BTreeSet<(String, u32)>) {
    let mut findings = Vec::new();
    let mut used: BTreeSet<(String, u32)> = BTreeSet::new();

    // Every fn that directly emits serialized output.
    let mut sinks: BTreeSet<String> = BTreeSet::new();
    for (q, site) in &graph.nodes {
        let (fi, gi) = site.fn_ref;
        if !files[fi].fns[gi].sinks.is_empty() {
            sinks.insert(q.clone());
        }
    }

    for (q, site) in &graph.nodes {
        let (fi, gi) = site.fn_ref;
        let file = &files[fi];
        let f = &file.fns[gi];
        for mark in &f.sources {
            // Chain preference: forward (source fn feeds a sink it
            // calls), then reverse (a sink launders the source fn's
            // return value).
            let chain = graph
                .shortest_path_to(q, &sinks)
                .or_else(|| graph.shortest_path_from_any(q, &sinks));
            let Some(chain) = chain else { continue };
            // Anchor-line suppression (same or previous line).
            let allow = file.suppressions.iter().find(|s| {
                s.rule == "determinism-provenance"
                    && (s.line == mark.line || s.line + 1 == mark.line)
            });
            if let Some(a) = allow {
                used.insert((file.relpath.clone(), a.line));
                continue;
            }
            let via = if chain.len() == 1 {
                format!("this function itself emits serialized output ({q})")
            } else {
                graph.render_chain(&chain)
            };
            findings.push(Finding {
                file: file.relpath.clone(),
                line: mark.line,
                col: mark.col,
                rule: "determinism-provenance",
                severity: Severity::Deny,
                message: format!(
                    "{} is connected to serialized output through the call graph: {via}",
                    mark.what
                ),
                suggestion: "derive the value deterministically (seeded RNG, logical clock, \
                             BTree ordering), keep it out of emitted documents, or justify \
                             with `// xps-allow(determinism-provenance): reason` at this line"
                    .to_string(),
            });
        }
    }
    (findings, used)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build;
    use crate::parse::summarize_file;

    fn run(srcs: &[(&str, &str, &str)]) -> (Vec<Finding>, BTreeSet<(String, u32)>) {
        let files: Vec<FileSummary> = srcs
            .iter()
            .map(|(rel, krate, src)| summarize_file(rel, krate, src))
            .collect();
        let g = build(&files);
        check(&files, &g)
    }

    #[test]
    fn forward_chain_from_source_to_sink_is_found_with_full_chain() {
        let (f, _) = run(&[
            (
                "crates/a/src/lib.rs",
                "xps_a",
                "use xps_b::mid;\npub fn tick() { let t = Instant::now(); mid(t); }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "xps_b",
                "pub fn mid(t: T) { crate::out::emit(t); }\n\
                 pub mod out { pub fn emit(t: T) { println!(\"{t:?}\"); } }\n",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "determinism-provenance");
        assert_eq!((f[0].file.as_str(), f[0].line), ("crates/a/src/lib.rs", 2));
        assert!(
            f[0].message.contains(
                "xps_a::tick (crates/a/src/lib.rs:2) \u{2192} xps_b::mid (crates/b/src/lib.rs:1) \
                 \u{2192} xps_b::out::emit (crates/b/src/lib.rs:2)"
            ),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn laundering_helper_is_found_via_reverse_reachability() {
        // The helper never calls a sink — the *document* calls the
        // helper and serializes its return value.
        let (f, _) = run(&[(
            "crates/a/src/lib.rs",
            "xps_a",
            "fn stamp() -> u64 { SystemTime::now().into() }\n\
             pub fn document() { let s = stamp(); println!(\"{s}\"); }\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
        assert!(
            f[0].message
                .contains("xps_a::document (crates/a/src/lib.rs:2) \u{2192} xps_a::stamp"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn disconnected_source_is_quiet_and_allow_is_consumed() {
        // A wall clock feeding only a comparison never reaches output.
        let (f, _) = run(&[(
            "crates/a/src/lib.rs",
            "xps_a",
            "pub fn deadline() -> bool { Instant::now() > LIMIT }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
        // With a sink in reach, an allow at the source line suppresses
        // and is recorded as used.
        let (f, used) = run(&[(
            "crates/a/src/lib.rs",
            "xps_a",
            "// xps-allow(determinism-provenance): CLI timing line, stderr only in spirit\n\
             pub fn timed() { let t = Instant::now(); println!(\"{t:?}\"); }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(
            used.into_iter().collect::<Vec<_>>(),
            vec![("crates/a/src/lib.rs".to_string(), 1)]
        );
    }

    #[test]
    fn zero_hop_source_and_sink_in_one_fn() {
        let (f, _) = run(&[(
            "crates/a/src/lib.rs",
            "xps_a",
            "pub fn bad() { println!(\"{:?}\", Instant::now()); }\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].message.contains("itself emits serialized output"),
            "{}",
            f[0].message
        );
    }
}
