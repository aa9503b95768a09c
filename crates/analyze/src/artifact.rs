//! The artifact checker: static validation of on-disk data files.
//!
//! `xps-analyze data <dir>` walks a results/data directory and
//! validates every artifact the toolchain produces, without running a
//! single simulation. Journals and store records are read by the very
//! readers that load them, so the checker accepts exactly what a
//! resumed run or a worker would:
//!
//! * **journals** (`*.jsonl`) — [`parse_journal`], the reader behind
//!   `Journal::open`: every complete line is a record whose FNV
//!   checksum matches its payload (a torn final line is dropped, as
//!   `open` drops it);
//! * **store records** (`<16 hex>.json`, or `task-<16 hex>.json` as a
//!   worker files them) — [`decode_record`], the
//!   reader behind `ResultStore::get`: the header id matches the
//!   filename and the body matches the header checksum; any embedded
//!   cross-performance matrix must also be well-formed;
//! * **measured results** (`measured*.json`) — [`open_measured`], the
//!   reader behind `load_measured`: the envelope checksum recomputes
//!   from the payload; then every design point and realized
//!   configuration lies inside the model domains (clock range,
//!   candidate associativities/blocks, CACTI size lists, `iq ≤ rob`,
//!   `L2 ≥ L1`), and the matrix holds no NaN, non-positive, or
//!   undocumented-subnormal IPT (only [`FAILED_CELL_IPT`] marks a
//!   failed cell).
//!
//! Artifacts cannot carry `xps-allow` comments, so every artifact
//! finding is deny severity: a bad artifact is corrupt, not stylistic.

use crate::diag::{Finding, Report, Severity};
use serde::Value;
use std::path::Path;
use xps_core::cacti::fit;
use xps_core::explore::{parse_journal, EnvelopeError, JournalError};
use xps_core::{open_measured, FAILED_CELL_IPT};
use xps_serve::decode_record;

/// Every rule id the artifact checker can emit. Part of the known-id
/// set an `xps-allow` may name (naming any other id is a deny), and
/// of the catalog.
pub(crate) const RULE_IDS: [&str; 5] = [
    "config-domain",
    "journal-record",
    "matrix-domain",
    "measured-envelope",
    "store-record",
];

/// One-line catalog summaries for [`RULE_IDS`], in the same order.
pub(crate) const RULE_SUMMARIES: [(&str, &str); 5] = [
    (
        "config-domain",
        "a realized configuration outside the model domains (clock range, candidate \
         associativities/blocks, CACTI size lists, iq <= rob, L2 >= L1)",
    ),
    (
        "journal-record",
        "a complete journal line that is not a record or whose FNV checksum mismatches \
         its payload (the file Journal::open would refuse)",
    ),
    (
        "matrix-domain",
        "a cross-performance matrix cell that is NaN, non-positive, or an undocumented \
         subnormal (only FAILED_CELL_IPT marks a failed cell)",
    ),
    (
        "measured-envelope",
        "a measured-results envelope whose checksum does not recompute from its payload",
    ),
    (
        "store-record",
        "a store record whose header id mismatches the filename or whose body fails the \
         header checksum",
    ),
];

/// Clock-period domain (ns) from `DesignPoint::realize`.
const CLOCK_NS: std::ops::RangeInclusive<f64> = 0.05..=2.0;
/// Pipeline width domain from `CoreConfig::validate`.
const WIDTH: std::ops::RangeInclusive<u64> = 1..=16;
/// Anything positive but below this that is not the sentinel is a
/// numerically-broken cell, not a measured IPT.
const SUBNORMAL_FLOOR: f64 = 1e-300;

fn deny(file: &str, line: u32, rule: &'static str, message: String, suggestion: &str) -> Finding {
    Finding {
        file: file.to_string(),
        line,
        col: 1,
        rule,
        severity: Severity::Deny,
        message,
        suggestion: suggestion.to_string(),
    }
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

fn uint(v: &Value) -> Option<u64> {
    match v {
        Value::U64(x) => Some(*x),
        Value::I64(x) if *x >= 0 => Some(*x as u64),
        _ => None,
    }
}

/// Validate every recognized artifact under `dir`, recursively.
/// Findings name files relative to `dir`. I/O failure walking the
/// tree is an error (the caller cannot distinguish "clean" from
/// "unreadable"); per-file read failures become findings.
pub fn check_dir(dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mut files = Vec::new();
    collect_files(dir, &mut files).map_err(|e| format!("walk {}: {e}", dir.display()))?;
    files.sort();
    for path in files {
        let rel = path
            .strip_prefix(dir)
            .unwrap_or(&path)
            .display()
            .to_string();
        let Some(kind) = classify(&path) else {
            continue;
        };
        report.files_checked += 1;
        let raw = match std::fs::read(&path) {
            Ok(raw) => raw,
            Err(e) => {
                report.findings.push(deny(
                    &rel,
                    1,
                    "artifact-unreadable",
                    format!("cannot read artifact: {e}"),
                    "fix permissions or remove the unreadable file",
                ));
                continue;
            }
        };
        match kind {
            ArtifactKind::Journal => check_journal(&rel, &raw, &mut report.findings),
            ArtifactKind::StoreRecord(id) => {
                check_store_record(&rel, &id, &raw, &mut report.findings)
            }
            ArtifactKind::Measured => check_measured(&rel, &raw, &mut report.findings),
        }
    }
    report.sort();
    Ok(report)
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out)?;
        } else {
            out.push(path);
        }
    }
    Ok(())
}

enum ArtifactKind {
    Journal,
    StoreRecord(String),
    Measured,
}

fn classify(path: &Path) -> Option<ArtifactKind> {
    let name = path.file_name()?.to_str()?;
    if name.ends_with(".jsonl") {
        return Some(ArtifactKind::Journal);
    }
    if let Some(stem) = name.strip_suffix(".json") {
        // A worker files each task result as `task-<id>.json`.
        let hex = stem.strip_prefix("task-").unwrap_or(stem);
        if hex.len() == 16
            && hex
                .bytes()
                .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
        {
            return Some(ArtifactKind::StoreRecord(stem.to_string()));
        }
        if stem.starts_with("measured") {
            return Some(ArtifactKind::Measured);
        }
    }
    None
}

// ---------------------------------------------------------------------
// journals

fn check_journal(rel: &str, raw: &[u8], out: &mut Vec<Finding>) {
    let (line, message) = match parse_journal(Path::new(rel), raw) {
        Ok(_) => return,
        Err(JournalError::Checksum { task, line }) => {
            (line, format!("checksum mismatch on task `{task}`"))
        }
        Err(JournalError::Corrupt { line, detail, .. }) => {
            (line, format!("corrupt record: {detail}"))
        }
        Err(e) => (1, e.to_string()),
    };
    out.push(deny(
        rel,
        line as u32,
        "journal-record",
        message,
        "a resumed run refuses this journal; delete it and re-run",
    ));
}

// ---------------------------------------------------------------------
// store records

fn check_store_record(rel: &str, id: &str, raw: &[u8], out: &mut Vec<Finding>) {
    let body = match decode_record(id, raw) {
        Ok(body) => body,
        Err(detail) => {
            out.push(deny(
                rel,
                1,
                "store-record",
                detail,
                "a worker refuses this record; remove it",
            ));
            return;
        }
    };
    // Body is intact — if it embeds a matrix and cores (a campaign
    // document), hold them to the model domains too.
    let Ok(v) = serde_json::from_str::<Value>(body) else {
        out.push(deny(
            rel,
            2,
            "store-record",
            "record body is not valid JSON".to_string(),
            "store bodies are JSON documents; remove the record",
        ));
        return;
    };
    if let Ok(matrix) = v.member("matrix") {
        check_matrix(rel, "matrix", matrix, out);
    }
    if let Ok(Value::Arr(cores)) = v.member("cores") {
        for (i, core) in cores.iter().enumerate() {
            check_core(rel, &format!("cores[{i}]"), core, out);
        }
    }
}

// ---------------------------------------------------------------------
// measured results

fn check_measured(rel: &str, raw: &[u8], out: &mut Vec<Finding>) {
    let measured = match open_measured(raw) {
        Ok(measured) => measured,
        Err(EnvelopeError::Torn(_)) => {
            out.push(deny(
                rel,
                1,
                "measured-envelope",
                "measured-results file is not valid JSON".to_string(),
                "re-run the measurement; the file is torn",
            ));
            return;
        }
        Err(EnvelopeError::Checksum { stored, computed }) => {
            out.push(deny(
                rel,
                1,
                "measured-envelope",
                format!("envelope checksum `{stored}` does not match payload (`{computed}`)"),
                "the results were edited after measurement; re-run or restore them",
            ));
            // The payload is unchecked: its domains mean nothing.
            return;
        }
    };
    if let Ok(matrix) = measured.member("matrix") {
        check_matrix(rel, "measured.matrix", matrix, out);
    }
    if let Ok(Value::Arr(cores)) = measured.member("cores") {
        for (i, core) in cores.iter().enumerate() {
            check_core(rel, &format!("measured.cores[{i}]"), core, out);
        }
    }
}

// ---------------------------------------------------------------------
// model domains

fn check_matrix(rel: &str, at: &str, matrix: &Value, out: &mut Vec<Finding>) {
    let names = match matrix.member("names") {
        Ok(Value::Arr(names)) => names.len(),
        _ => {
            out.push(deny(
                rel,
                1,
                "matrix-domain",
                format!("{at} has no `names` array"),
                "cross-performance matrices carry names, ipt rows, and weights",
            ));
            return;
        }
    };
    match matrix.member("weights") {
        Ok(Value::Arr(w)) if w.len() == names => {}
        Ok(Value::Arr(w)) => out.push(deny(
            rel,
            1,
            "matrix-domain",
            format!("{at} has {} weights for {names} workloads", w.len()),
            "weights must be one per workload row",
        )),
        _ => out.push(deny(
            rel,
            1,
            "matrix-domain",
            format!("{at} has no `weights` array"),
            "cross-performance matrices carry names, ipt rows, and weights",
        )),
    }
    let Ok(Value::Arr(rows)) = matrix.member("ipt") else {
        out.push(deny(
            rel,
            1,
            "matrix-domain",
            format!("{at} has no `ipt` rows"),
            "cross-performance matrices carry names, ipt rows, and weights",
        ));
        return;
    };
    if rows.len() != names {
        out.push(deny(
            rel,
            1,
            "matrix-domain",
            format!("{at} is {} rows over {names} workloads", rows.len()),
            "the matrix must be square over the workload names",
        ));
    }
    for (w, row) in rows.iter().enumerate() {
        let Value::Arr(cells) = row else {
            out.push(deny(
                rel,
                1,
                "matrix-domain",
                format!("{at}.ipt[{w}] is not an array"),
                "every row is one IPT per configuration",
            ));
            continue;
        };
        if cells.len() != names {
            out.push(deny(
                rel,
                1,
                "matrix-domain",
                format!(
                    "{at}.ipt[{w}] has {} cells over {names} configs",
                    cells.len()
                ),
                "the matrix must be square over the workload names",
            ));
        }
        for (c, cell) in cells.iter().enumerate() {
            let Some(x) = num(cell) else {
                out.push(deny(
                    rel,
                    1,
                    "matrix-domain",
                    format!("{at}.ipt[{w}][{c}] is not a number"),
                    "IPT cells are positive floats",
                ));
                continue;
            };
            let bad = if x.is_nan() {
                Some("NaN")
            } else if x.is_infinite() {
                Some("infinite")
            } else if x < 0.0 {
                Some("negative")
            } else if x == 0.0 {
                Some("zero")
            } else if x < SUBNORMAL_FLOOR && x != FAILED_CELL_IPT {
                Some("an undocumented subnormal")
            } else {
                None
            };
            if let Some(why) = bad {
                out.push(deny(
                    rel,
                    1,
                    "matrix-domain",
                    format!("{at}.ipt[{w}][{c}] = {x:?} is {why}"),
                    "cells are positive IPT; a failed cell is exactly the \
                     FAILED_CELL_IPT sentinel",
                ));
            }
        }
    }
}

/// Validate one customized-core document: the design point against the
/// annealer's move domains, the realized config against the CACTI
/// candidate lists and the simulator's structural rules.
fn check_core(rel: &str, at: &str, core: &Value, out: &mut Vec<Finding>) {
    if let Ok(point) = core.member("point") {
        check_point(rel, &format!("{at}.point"), point, out);
    }
    if let Ok(config) = core.member("config") {
        check_config(rel, &format!("{at}.config"), config, out);
    }
    if let Ok(ipt) = core.member("ipt") {
        match num(ipt) {
            Some(x) if x.is_finite() && x > 0.0 => {}
            _ => out.push(deny(
                rel,
                1,
                "matrix-domain",
                format!("{at}.ipt is not a positive finite IPT"),
                "a customized core's own-workload IPT must be measured and positive",
            )),
        }
    }
}

fn check_point(rel: &str, at: &str, point: &Value, out: &mut Vec<Finding>) {
    let bad = |field: &str, detail: String| {
        deny(
            rel,
            1,
            "point-domain",
            format!("{at}.{field} {detail}"),
            "design points must lie inside the annealer's move domains \
             (crates/explore/src/point.rs)",
        )
    };
    match point.member("clock_ns").ok().and_then(num) {
        Some(x) if CLOCK_NS.contains(&x) => {}
        Some(x) => out.push(bad("clock_ns", format!("= {x} is outside {CLOCK_NS:?} ns"))),
        None => out.push(bad("clock_ns", "is missing or non-numeric".to_string())),
    }
    match point.member("width").ok().and_then(uint) {
        Some(x) if WIDTH.contains(&x) => {}
        Some(x) => out.push(bad("width", format!("= {x} is outside {WIDTH:?}"))),
        None => out.push(bad("width", "is missing or non-numeric".to_string())),
    }
    for field in ["sched_depth", "lsq_depth", "l1_cycles", "l2_cycles"] {
        match point.member(field).ok().and_then(uint) {
            Some(x) if x >= 1 => {}
            _ => out.push(bad(field, "must be a depth of at least 1".to_string())),
        }
    }
    if let Some(x) = point.member("wakeup_slack").ok().and_then(uint) {
        if x > 1 {
            out.push(bad("wakeup_slack", format!("= {x}; the domain is 0 or 1")));
        }
    }
    for field in ["l1_assoc", "l2_assoc"] {
        match point.member(field).ok().and_then(uint) {
            Some(x) if fit::CACHE_ASSOC.contains(&(x as u32)) => {}
            Some(x) => out.push(bad(
                field,
                format!(
                    "= {x} is not a candidate associativity {:?}",
                    fit::CACHE_ASSOC
                ),
            )),
            None => out.push(bad(field, "is missing or non-numeric".to_string())),
        }
    }
    for field in ["l1_block", "l2_block"] {
        match point.member(field).ok().and_then(uint) {
            Some(x) if fit::CACHE_BLOCKS.contains(&(x as u32)) => {}
            Some(x) => out.push(bad(
                field,
                format!(
                    "= {x} is not a candidate block size {:?}",
                    fit::CACHE_BLOCKS
                ),
            )),
            None => out.push(bad(field, "is missing or non-numeric".to_string())),
        }
    }
}

fn check_config(rel: &str, at: &str, config: &Value, out: &mut Vec<Finding>) {
    let bad = |field: &str, detail: String| {
        deny(
            rel,
            1,
            "config-domain",
            format!("{at}.{field} {detail}"),
            "realized configurations must come from the CACTI candidate lists \
             (crates/cacti/src/fit.rs) and satisfy CoreConfig::validate",
        )
    };
    let mut sized_check = |field: &str, domain: &[u32]| -> Option<u64> {
        match config.member(field).ok().and_then(uint) {
            Some(x) if domain.contains(&(x as u32)) => Some(x),
            Some(x) => {
                out.push(bad(
                    field,
                    format!("= {x} is not in the candidate list {domain:?}"),
                ));
                None
            }
            None => {
                out.push(bad(field, "is missing or non-numeric".to_string()));
                None
            }
        }
    };
    let iq = sized_check("iq_size", &fit::IQ_SIZES);
    let rob = sized_check("rob_size", &fit::ROB_SIZES);
    sized_check("lsq_size", &fit::LSQ_SIZES);
    if let (Some(iq), Some(rob)) = (iq, rob) {
        if iq > rob {
            out.push(bad("iq_size", format!("= {iq} exceeds rob_size = {rob}")));
        }
    }
    match config.member("width").ok().and_then(uint) {
        Some(x) if WIDTH.contains(&x) => {}
        Some(x) => out.push(bad("width", format!("= {x} is outside {WIDTH:?}"))),
        None => out.push(bad("width", "is missing or non-numeric".to_string())),
    }
    let mut capacity = |level: &str| -> Option<u64> {
        let geom = config.member(level).ok()?.member("geometry").ok()?;
        let sets = geom.member("sets").ok().and_then(uint)?;
        let assoc = geom.member("assoc").ok().and_then(uint)?;
        let block = geom.member("block_bytes").ok().and_then(uint)?;
        if !fit::CACHE_SETS.contains(&(sets as u32)) {
            out.push(bad(
                level,
                format!(".geometry.sets = {sets} is not a candidate set count"),
            ));
        }
        if !fit::CACHE_ASSOC.contains(&(assoc as u32)) {
            out.push(bad(
                level,
                format!(".geometry.assoc = {assoc} is not a candidate associativity"),
            ));
        }
        if !fit::CACHE_BLOCKS.contains(&(block as u32)) {
            out.push(bad(
                level,
                format!(".geometry.block_bytes = {block} is not a candidate block size"),
            ));
        }
        Some(sets * assoc * block)
    };
    let l1 = capacity("l1");
    let l2 = capacity("l2");
    if let (Some(l1), Some(l2)) = (l1, l2) {
        if l2 < l1 {
            out.push(bad(
                "l2",
                format!("capacity {l2} B is below l1 capacity {l1} B"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::path::PathBuf;
    use xps_core::explore::{fnv64, Journal};
    use xps_serve::{body_checksum, content_id, ResultStore};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xps-analyze-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn rules_of(report: &Report) -> Vec<&'static str> {
        report.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn valid_journal_is_clean_and_tampered_is_not() {
        let dir = tmp("journal");
        // Completion order with a re-recorded task: `Journal::open`
        // accepts it (the later line wins), so the checker does too.
        let journal = Journal::create(dir.join("run.jsonl")).expect("create");
        for (task, value) in [("b#0", "2"), ("a#0", "1"), ("a#0", "1")] {
            journal.record(task, value.into()).expect("record");
        }
        let r = check_dir(&dir).expect("walk");
        assert!(r.is_clean(), "{:?}", r.findings);
        assert_eq!(r.files_checked, 1);

        let text = std::fs::read_to_string(dir.join("run.jsonl")).expect("read");
        std::fs::write(
            dir.join("bad.jsonl"),
            text.replace("\"value\":\"2\"", "\"value\":\"3\""), // breaks b#0's crc
        )
        .expect("write");
        let r = check_dir(&dir).expect("walk");
        assert_eq!(rules_of(&r), vec!["journal-record"], "{:?}", r.findings);
        assert_eq!(
            (r.findings[0].file.as_str(), r.findings[0].line),
            ("bad.jsonl", 1)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_record_checksum_and_address_are_checked() {
        let dir = tmp("store");
        let id = content_id("req");
        let body = "{\"ok\":true}";
        std::fs::write(
            dir.join(format!("{id}.json")),
            format!("{id} {}\n{body}", body_checksum(body)),
        )
        .expect("write");
        // A record as a worker's store files it.
        let task = format!("task-{id}");
        ResultStore::open(&dir)
            .expect("store")
            .put(&task, body)
            .expect("put");
        let r = check_dir(&dir).expect("walk");
        assert!(r.is_clean(), "{:?}", r.findings);
        assert_eq!(r.files_checked, 2);

        // Tampered bodies.
        for name in [&id, &task] {
            std::fs::write(
                dir.join(format!("{name}.json")),
                format!("{name} {}\n{{\"ok\":false}}", body_checksum(body)),
            )
            .expect("write");
        }
        let r = check_dir(&dir).expect("walk");
        assert_eq!(rules_of(&r), vec!["store-record", "store-record"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn matrix_domains_catch_nan_shape_and_sentinel() {
        let dir = tmp("matrix");
        let body = format!(
            "{{\"matrix\":{{\"names\":[\"a\",\"b\"],\
             \"ipt\":[[1.5,{FAILED_CELL_IPT:?}],[0.5]],\
             \"weights\":[1.0,1.0]}}}}"
        );
        let id = content_id("m");
        std::fs::write(
            dir.join(format!("{id}.json")),
            format!("{id} {}\n{body}", body_checksum(&body)),
        )
        .expect("write");
        let r = check_dir(&dir).expect("walk");
        // One finding: the ragged second row. The sentinel passes.
        assert_eq!(rules_of(&r), vec!["matrix-domain"], "{:?}", r.findings);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn measured_envelope_crc_recomputes() {
        let dir = tmp("measured");
        let payload =
            "{\"cores\":[],\"matrix\":{\"names\":[],\"ipt\":[],\"weights\":[]},\"quick\":true}";
        let crc = format!("{:016x}", fnv64(0, payload.as_bytes()));
        std::fs::write(
            dir.join("measured.json"),
            format!("{{\"crc\":\"{crc}\",\"measured\":{payload}}}"),
        )
        .expect("write");
        let r = check_dir(&dir).expect("walk");
        assert!(r.is_clean(), "{:?}", r.findings);

        std::fs::write(
            dir.join("measured.json"),
            format!(
                "{{\"crc\":\"{crc}\",\"measured\":{}}}",
                payload.replace("true", "false")
            ),
        )
        .expect("write");
        let r = check_dir(&dir).expect("walk");
        assert_eq!(rules_of(&r), vec!["measured-envelope"], "{:?}", r.findings);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn point_and_config_domains_are_enforced() {
        let dir = tmp("domains");
        let core = "{\"point\":{\"clock_ns\":3.5,\"width\":3,\"sched_depth\":1,\
                    \"wakeup_slack\":0,\"lsq_depth\":2,\"l1_cycles\":3,\"l2_cycles\":12,\
                    \"l1_assoc\":3,\"l1_block\":64,\"l2_assoc\":4,\"l2_block\":128},\
                    \"config\":{\"width\":3,\"rob_size\":128,\"iq_size\":256,\
                    \"lsq_size\":64,\
                    \"l1\":{\"geometry\":{\"sets\":64,\"assoc\":2,\"block_bytes\":64}},\
                    \"l2\":{\"geometry\":{\"sets\":32,\"assoc\":1,\"block_bytes\":8}}},\
                    \"ipt\":1.0}";
        let body = format!("{{\"cores\":[{core}]}}");
        let id = content_id("c");
        std::fs::write(
            dir.join(format!("{id}.json")),
            format!("{id} {}\n{body}", body_checksum(&body)),
        )
        .expect("write");
        let r = check_dir(&dir).expect("walk");
        let rules = rules_of(&r);
        // clock_ns out of range, l1_assoc not a candidate, iq_size not a
        // candidate, and L2 capacity (256 B) below L1 (8 KiB).
        assert_eq!(
            rules,
            vec![
                "config-domain",
                "config-domain",
                "point-domain",
                "point-domain"
            ],
            "{:?}",
            r.findings
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every checkout tracks `results/measured-quick.json`, a
    /// `repro explore --quick` campaign saved by the real writer; the
    /// untracked artifacts a local run leaves beside it are checked
    /// too.
    #[test]
    fn real_repo_results_validate_clean() {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let r = check_dir(&results).expect("walk");
        assert!(r.is_clean(), "{}", r.render_human("data"));
        assert!(
            r.files_checked >= 1,
            "results/measured-quick.json must be checked"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The checker reads a journal with `parse_journal`, the reader
        /// behind `Journal::open`: it flags a file exactly when that
        /// reader refuses it.
        #[test]
        fn journal_findings_agree_with_the_shared_reader(
            noise in proptest::collection::vec(any::<u8>(), 64),
            mutate in any::<bool>(),
            at in 0usize..1_000,
            byte in any::<u8>(),
            cut in 0usize..1_000,
        ) {
            let dir = tmp(&format!("agree-{at}-{byte}-{cut}"));
            let path = dir.join("x.jsonl");
            let mut bytes = if mutate {
                // A real journal with one byte replaced.
                let journal = Journal::create(&path).expect("create");
                for (task, value) in [("anneal#0/0", "1.25"), ("seed#1/2", "[0.5,2.0]")] {
                    journal.record(task, value.into()).expect("record");
                }
                let mut bytes = std::fs::read(&path).expect("read");
                let at = at % bytes.len();
                bytes[at] = byte;
                bytes
            } else {
                noise
            };
            bytes.truncate(bytes.len() - cut % (bytes.len() + 1));
            std::fs::write(&path, &bytes).expect("write");
            let r = check_dir(&dir).expect("walk");
            let flagged = r.findings.iter().any(|f| f.rule == "journal-record");
            let refused = parse_journal(Path::new("x.jsonl"), &bytes).is_err();
            prop_assert_eq!(flagged, refused, "{:?}", r.findings);
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// The checker opens a measured-results file with
        /// `open_measured`, the decoder behind `load_measured`: it
        /// reports `measured-envelope` exactly when that decoder
        /// refuses the file as torn or edited.
        #[test]
        fn measured_findings_agree_with_the_shared_decoder(
            noise in proptest::collection::vec(any::<u8>(), 64),
            mutate in any::<bool>(),
            at in 0usize..1_000_000,
            digit in proptest::sample::select(b"0123456789".to_vec()),
            tear in any::<bool>(),
            cut in 0usize..1_000_000,
        ) {
            let mut bytes = if mutate {
                // The tracked quick campaign with one byte replaced by
                // a digit: in a number, a string or the crc that keeps
                // the JSON valid and breaks the checksum.
                let quick = Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join("../../results/measured-quick.json");
                let mut bytes = std::fs::read(quick).expect("tracked quick results");
                let at = at % bytes.len();
                bytes[at] = digit;
                bytes
            } else {
                noise
            };
            if tear {
                bytes.truncate(bytes.len() - cut % (bytes.len() + 1));
            }
            let dir = tmp(&format!("agree-measured-{at}-{digit}-{cut}"));
            std::fs::write(dir.join("measured.json"), &bytes).expect("write");
            let r = check_dir(&dir).expect("walk");
            let flagged = r.findings.iter().any(|f| f.rule == "measured-envelope");
            let refused = open_measured(&bytes).is_err();
            prop_assert_eq!(flagged, refused, "{:?}", r.findings);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
