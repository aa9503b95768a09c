//! End-to-end crash-safety guarantees of the measured pipeline:
//!
//! * fault-injected runs (transient panics in ~20% of tasks) retry to
//!   success and produce **byte-identical** Table 4 / Table 5 output
//!   to a fault-free single-threaded run;
//! * a run interrupted mid-campaign resumes from its journal, re-runs
//!   only the unjournaled tasks (the counters prove it), and again
//!   reproduces the identical bytes;
//! * a permanently failing task degrades the run instead of aborting
//!   it, and is reported by name.

use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use xps_core::explore::{
    fnv64, ExploreError, FaultKind, FaultPlan, Journal, JournalError, RunContext,
};
use xps_core::pipeline::{cross_matrix_recoverable, Pipeline, PipelineResult};
use xps_core::workload::{spec, WorkloadProfile};
use xps_core::{paper, PipelineError};

fn profiles() -> Vec<WorkloadProfile> {
    ["gzip", "mcf", "crafty"]
        .iter()
        .map(|n| spec::profile(n).expect("known benchmark"))
        .collect()
}

/// A reduced-budget pipeline so each test run stays in the seconds
/// range; the crash-safety machinery is budget-independent.
fn mini(jobs: usize) -> Pipeline {
    let mut p = Pipeline::quick();
    p.explore.anneal.iterations = 40;
    p.explore.anneal.eval_ops_early = 10_000;
    p.explore.anneal.eval_ops_late = 20_000;
    p.explore.reanneal_iterations = 8;
    p.explore.jobs = jobs;
    p.matrix_ops = 20_000;
    p
}

/// The deliverable bytes of a run: the serialized Table 4 (customized
/// cores) and Table 5 (cross-configuration matrix). Stats are
/// excluded — counters legitimately differ between runs.
fn deliverable(r: &PipelineResult) -> String {
    serde_json::to_string(&(&r.cores, &r.matrix)).expect("results serialize")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("xps-crash-safety");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{name}-{}.jsonl", std::process::id()))
}

#[test]
fn transient_faults_retry_to_byte_identical_output() {
    let p = profiles();
    let clean = mini(1)
        .run_recoverable(&p, &RunContext::new())
        .expect("clean run");

    // ~20% of first attempts panic, selected deterministically by task
    // key; every task succeeds on retry.
    let ctx = RunContext::new()
        .with_faults(FaultPlan::rate(20, 7, 1, FaultKind::Panic))
        .with_retries(2);
    let faulted = mini(2).run_recoverable(&p, &ctx).expect("faulted run");

    let rec = &faulted.stats.recovery;
    assert!(rec.faults_injected > 0, "the plan must actually fire");
    assert!(rec.retried > 0, "faulted tasks must be retried");
    assert!(
        rec.failed_tasks.is_empty(),
        "single-attempt faults must never exhaust a 2-retry budget"
    );
    assert_eq!(
        deliverable(&faulted),
        deliverable(&clean),
        "recovered output must be byte-identical to the fault-free run"
    );
}

#[test]
fn interrupted_run_resumes_from_journal_bit_for_bit() {
    let p = profiles();
    let path = tmp("resume");

    // Full journaled run — the reference output and the journal an
    // interrupted campaign would have left behind (a kill between
    // tasks leaves a clean prefix of it; we simulate one below).
    let mut ctx = RunContext::new().with_journal(Journal::create(&path).expect("create"));
    let full = mini(2).run_recoverable(&p, &ctx).expect("full run");
    let total = ctx.stats().executed;
    assert_eq!(ctx.stats().salvaged, 0);
    drop(ctx.take_journal());

    // Interrupt: keep only the first half of the journal's records, as
    // if the process died mid-campaign.
    let text = std::fs::read_to_string(&path).expect("journal readable");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len() as u64, total, "one record per executed task");
    let keep = lines.len() / 2;
    let mut truncated: String = lines[..keep].join("\n");
    truncated.push('\n');
    std::fs::write(&path, truncated).expect("truncate journal");

    // Resume: journaled tasks are salvaged, the rest re-run, and the
    // deliverable bytes match the uninterrupted run exactly.
    let ctx = RunContext::new().with_journal(Journal::open(&path).expect("open"));
    let resumed = mini(2).run_recoverable(&p, &ctx).expect("resumed run");
    let rec = ctx.stats();
    assert_eq!(rec.salvaged, keep as u64, "salvage exactly the journal");
    assert_eq!(
        rec.executed,
        total - keep as u64,
        "re-run exactly the missing tasks"
    );
    assert_eq!(
        deliverable(&resumed),
        deliverable(&full),
        "resumed output must be byte-identical to the uninterrupted run"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn permanent_matrix_failures_degrade_and_are_reported() {
    let p = profiles();
    // Every cross-matrix cell fails every attempt; the pipeline must
    // still complete (cells degrade to the failed-cell sentinel) and
    // name what it lost.
    let ctx = RunContext::new()
        .with_faults(FaultPlan::targets(["matrix#"], u32::MAX, FaultKind::Panic))
        .with_retries(1);
    let r = mini(2)
        .run_recoverable(&p, &ctx)
        .expect("degraded run still completes");
    let rec = &r.stats.recovery;
    assert!(
        rec.failed_tasks.iter().all(|t| t.starts_with("matrix#")),
        "only matrix tasks were targeted: {:?}",
        rec.failed_tasks
    );
    // No cell can win a replacement, so the configurations are the
    // explored ones and the fan was one task per (row, column group).
    let configs: Vec<_> = r.cores.iter().map(|c| c.config.clone()).collect();
    let groups = xps_core::sim::lockstep_groups(&configs);
    let mut expected: Vec<String> = (0..p.len() * groups.len())
        .map(|t| {
            let fan = rec.failed_tasks[0].split(['#', '/']).nth(1).expect("fan");
            format!("matrix#{fan}/{t}")
        })
        .collect();
    let mut failed = rec.failed_tasks.clone();
    failed.sort();
    expected.sort();
    assert_eq!(
        failed, expected,
        "every group task of the matrix fan is listed"
    );
    for w in 0..r.matrix.len() {
        for c in 0..r.matrix.len() {
            assert_eq!(
                r.matrix.ipt(w, c),
                xps_core::FAILED_CELL_IPT,
                "failed cells must carry the sentinel"
            );
        }
    }
}

/// The lock-step matrix at a streamed length (past the replay cache,
/// so each group task drives its cores from one generator) is
/// byte-identical for any worker count, clean and under injected
/// faults.
#[test]
fn streamed_group_matrix_is_identical_across_jobs_and_faults() {
    let names = ["gzip", "mcf", "crafty", "gcc"];
    let profiles: Vec<WorkloadProfile> = names
        .iter()
        .map(|n| spec::profile(n).expect("known benchmark"))
        .collect();
    let cores: Vec<_> = names
        .iter()
        .map(|n| paper::table4_config(n).expect("Table 4 core"))
        .collect();
    assert!(
        xps_core::sim::lockstep_groups(&cores)
            .iter()
            .any(|g| g.len() > 1),
        "the inputs must form a multi-core group"
    );
    let run = |jobs: usize, ctx: RunContext| {
        let mut configs = cores.clone();
        let (m, _) = cross_matrix_recoverable(&profiles, &mut configs, 70_000, 2, jobs, None, &ctx)
            .expect("matrix");
        let rec = ctx.stats();
        assert!(rec.failed_tasks.is_empty());
        (
            serde_json::to_string(&(m, configs)).expect("serializes"),
            rec.faults_injected,
        )
    };
    let (reference, _) = run(1, RunContext::new());
    for jobs in [1, 2, 4] {
        assert_eq!(
            run(jobs, RunContext::new()).0,
            reference,
            "clean, jobs {jobs}"
        );
        let faulted = RunContext::new()
            .with_faults(FaultPlan::rate(30, 11, 1, FaultKind::Panic))
            .with_retries(2);
        let (doc, injected) = run(jobs, faulted);
        assert!(injected > 0, "the plan must fire");
        assert_eq!(doc, reference, "faulted, jobs {jobs}");
    }
}

/// One journal record, as persisted.
#[derive(Serialize, Deserialize)]
struct Record {
    task: String,
    crc: String,
    value: String,
}

/// Rewrite each journal record's value with `edit(task, value)`,
/// re-checksummed so the journal still opens.
fn rewrite_journal(text: &str, edit: impl Fn(&str, &str) -> String) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let mut r: Record = serde_json::from_str(line).expect("journal record");
        r.value = edit(&r.task, &r.value);
        r.crc = format!(
            "{:016x}",
            fnv64(fnv64(0, r.task.as_bytes()), r.value.as_bytes())
        );
        out.push_str(&serde_json::to_string(&r).expect("serializes"));
        out.push('\n');
    }
    out
}

/// Rewrite the eval records whose task key starts with one of
/// `labels` into the form the single-cell eval task journaled: one
/// bare IPT instead of a group's array.
fn as_single_cell_journal(text: &str, labels: &[&str]) -> String {
    rewrite_journal(text, |task, value| {
        if labels.iter().any(|l| task.starts_with(l)) && value.starts_with('[') {
            let first = value[1..].split([',', ']']).next().expect("an element");
            first.to_string()
        } else {
            value.to_string()
        }
    })
}

/// A journal of single-cell eval records (the format before eval
/// tasks carried groups) never resumes into a wrong value: its
/// records fail to decode as group results, which is the typed
/// `JournalError::Corrupt`.
#[test]
fn single_cell_eval_journal_fails_to_resume_as_corrupt() {
    let p = profiles();
    let path = tmp("single-cell");
    let mut ctx = RunContext::new().with_journal(Journal::create(&path).expect("create"));
    mini(2).run_recoverable(&p, &ctx).expect("journaled run");
    drop(ctx.take_journal());
    let text = std::fs::read_to_string(&path).expect("journal readable");
    // Every eval fan in the old form fails at the first cross-seeding
    // record; with only the matrix in the old form, the cross fans
    // resume and the matrix fan fails.
    for labels in [&["cross#", "matrix#", "rematrix#"][..], &["matrix#"][..]] {
        std::fs::write(&path, as_single_cell_journal(&text, labels)).expect("rewrite");
        let ctx = RunContext::new().with_journal(Journal::open(&path).expect("checksums hold"));
        match mini(2).run_recoverable(&p, &ctx) {
            Err(PipelineError::Explore(ExploreError::Journal(JournalError::Corrupt {
                detail,
                ..
            }))) => assert!(
                detail.contains(labels[0]),
                "the first old-form fan is named: {detail}"
            ),
            other => panic!("resumed {labels:?} as {:?}", other.map(|r| r.matrix)),
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// A group record of the wrong length (as a journal written under
/// other options or another column partition can hold) deserializes
/// as a group result, but is not its task's shape: resume fails as
/// `JournalError::Corrupt` naming the task, never merging too few
/// values into the matrix.
#[test]
fn truncated_group_record_fails_to_resume_as_corrupt() {
    let p = profiles();
    let path = tmp("truncated-group");
    let mut ctx = RunContext::new().with_journal(Journal::create(&path).expect("create"));
    mini(2).run_recoverable(&p, &ctx).expect("journaled run");
    drop(ctx.take_journal());
    let text = std::fs::read_to_string(&path).expect("journal readable");
    // Drop the last IPT of the first matrix group.
    let victim = text
        .lines()
        .map(|l| serde_json::from_str::<Record>(l).expect("journal record"))
        .find(|r| r.task.starts_with("matrix#"))
        .expect("a matrix group record")
        .task;
    let truncated = rewrite_journal(&text, |task, value| {
        if task == victim {
            let cut = value.rfind(',').unwrap_or(1);
            format!("{}]", &value[..cut])
        } else {
            value.to_string()
        }
    });
    std::fs::write(&path, truncated).expect("rewrite");
    let ctx = RunContext::new().with_journal(Journal::open(&path).expect("checksums hold"));
    match mini(2).run_recoverable(&p, &ctx) {
        Err(PipelineError::Explore(ExploreError::Journal(JournalError::Corrupt {
            detail,
            ..
        }))) => assert!(detail.contains(&victim), "names the task: {detail}"),
        other => panic!("resumed a truncated group as {:?}", other.map(|r| r.matrix)),
    }
    let _ = std::fs::remove_file(&path);
}

/// A journal written when the cross-seeding fan was labelled `seed`
/// and held one item per workload (`seed#f/j`, the diagonal `j == i`
/// a `null`). Under the `cross` label the fan holds only the foreign
/// cells, so the old keys would number them differently. The doctored
/// records below carry IPTs that would force an adoption if merged,
/// and the diagonal `null`s are missing, as in a torn run: the
/// resumed campaign must re-run every cross cell and match a clean
/// run byte for byte.
#[test]
fn parent_seed_records_are_rerun_not_merged() {
    let p = profiles();
    let path = tmp("seed-label");
    let mut ctx = RunContext::new().with_journal(Journal::create(&path).expect("create"));
    let clean = mini(2).run_recoverable(&p, &ctx).expect("journaled run");
    drop(ctx.take_journal());
    let text = std::fs::read_to_string(&path).expect("journal readable");
    let records: Vec<Record> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("journal record"))
        .collect();
    // The k-th cross fan (by fan number) evaluated workload k mod n.
    let fan_of = |task: &str| -> u64 {
        let fan = task.split(['#', '/']).nth(1).expect("fan number");
        fan.parse().expect("numeric fan")
    };
    let mut cross_fans: Vec<u64> = records
        .iter()
        .filter(|r| r.task.starts_with("cross#"))
        .map(|r| fan_of(&r.task))
        .collect();
    cross_fans.sort_unstable();
    cross_fans.dedup();
    assert!(!cross_fans.is_empty(), "the run cross-seeded");
    let mut doctored = String::new();
    for r in &records {
        let (task, value) = match r.task.strip_prefix("cross#") {
            Some(rest) => {
                let f = fan_of(&r.task);
                let i = cross_fans
                    .iter()
                    .position(|&x| x == f)
                    .expect("a cross fan")
                    % p.len();
                let k: usize = rest
                    .split('/')
                    .nth(1)
                    .expect("item")
                    .parse()
                    .expect("index");
                let j = if k < i { k } else { k + 1 };
                (format!("seed#{f}/{j}"), "[1000000.0]".to_string())
            }
            None => (r.task.clone(), r.value.clone()),
        };
        let crc = format!(
            "{:016x}",
            fnv64(fnv64(0, task.as_bytes()), value.as_bytes())
        );
        doctored
            .push_str(&serde_json::to_string(&Record { task, crc, value }).expect("serializes"));
        doctored.push('\n');
    }
    std::fs::write(&path, doctored).expect("rewrite");
    let ctx = RunContext::new().with_journal(Journal::open(&path).expect("checksums hold"));
    let resumed = mini(2).run_recoverable(&p, &ctx).expect("resumes");
    let rec = ctx.stats();
    assert!(rec.salvaged > 0, "the other fans resume");
    assert!(rec.executed > 0, "the cross cells re-run");
    assert_eq!(
        deliverable(&resumed),
        deliverable(&clean),
        "old seed records must not merge"
    );
    let _ = std::fs::remove_file(&path);
}
