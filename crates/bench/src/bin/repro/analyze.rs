//! `repro analyze`: the static-analysis gate.

use crate::cli::{Opts, Outcome};

/// `repro analyze`: the project's static analyzer — lint every
/// workspace source against the textual rule registry, run the
/// determinism-provenance and lock-discipline passes over the
/// cross-crate call graph, then validate
/// the on-disk artifacts under `results/` (and the serve data dir,
/// when present) against the model domains. Exits non-zero on any
/// deny-severity finding, like CI does.
pub fn analyze(_: &Opts) -> Outcome {
    let root = std::path::Path::new(".");
    let source = xps_analyze::analyze_source(root)?;
    print!("{}", source.render_human("source"));
    let mut data = xps_analyze::Report::default();
    for dir in ["results", "serve-data"] {
        let dir = root.join(dir);
        if dir.is_dir() {
            data.merge(xps_analyze::artifact::check_dir(&dir)?);
        }
    }
    data.sort();
    print!("{}", data.render_human("data"));
    if source.is_clean() && data.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "{} deny finding(s); see diagnostics above",
            source.deny_count() + data.deny_count()
        )
        .into())
    }
}
