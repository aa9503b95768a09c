//! The trace journal is part of the deterministic output surface:
//! running the identical campaign on one worker and on four must
//! produce byte-identical NDJSON, because tracks are keyed by task —
//! not by thread or completion order — and logical clocks are
//! per-task.

use xps_explore::{Campaign, EvalCache, ExploreOptions, RunContext};
use xps_trace::{with_recorder, TraceSink};
use xps_workload::{spec, WorkloadProfile};

/// Run one quick two-benchmark campaign under `jobs` workers and
/// return the serialized trace.
fn traced_run(jobs: usize) -> String {
    let profiles: Vec<_> = ["gzip", "mcf"]
        .iter()
        .map(|n| spec::profile(n).expect("known benchmark"))
        .collect();
    traced_campaign(&profiles, jobs).to_ndjson()
}

/// Run one small campaign over `profiles` under `jobs` workers and
/// return its trace.
fn traced_campaign(profiles: &[WorkloadProfile], jobs: usize) -> TraceSink {
    let mut opts = ExploreOptions::quick();
    opts.anneal.iterations = 6;
    opts.anneal.eval_ops_early = 2_000;
    opts.anneal.eval_ops_late = 4_000;
    opts.reanneal_iterations = 2;
    opts.jobs = jobs;
    let trace = TraceSink::new();
    let ctx = RunContext::new().with_trace(trace.clone());
    let cache = EvalCache::new();
    let explorer = Campaign::new(opts);
    let (root, result) = with_recorder(trace.recorder(), || {
        explorer.explore_recoverable(profiles, &cache, &ctx)
    });
    trace.attach("main", root);
    result.expect("campaign succeeds");
    trace
}

#[test]
fn trace_journal_is_byte_identical_across_worker_counts() {
    let serial = traced_run(1);
    let parallel = traced_run(4);
    assert!(!serial.is_empty(), "the trace must record something");
    if serial != parallel {
        let diff = serial
            .lines()
            .zip(parallel.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        match diff {
            Some((i, (a, b))) => panic!(
                "trace diverges at line {}:\n  jobs=1: {a}\n  jobs=4: {b}",
                i + 1
            ),
            None => panic!(
                "trace lengths differ: {} vs {} bytes",
                serial.len(),
                parallel.len()
            ),
        }
    }
}

#[test]
fn trace_journal_is_stable_across_repeated_runs() {
    // Same worker count twice: catches any wall-clock or iteration-
    // order leak into the serialized events that the cross-jobs test
    // could miss if it leaked identically.
    assert_eq!(traced_run(2), traced_run(2));
}

#[test]
fn trace_materializations_are_profiled_but_never_journaled() {
    // Profiles no other test in this binary evaluates, so the
    // process-wide replay cache cannot already hold their traces.
    let profiles: Vec<WorkloadProfile> = ["vpr", "twolf"]
        .iter()
        .map(|n| {
            let mut p = spec::profile(n).expect("known benchmark");
            p.seed ^= 0x7ace;
            p
        })
        .collect();
    let trace = traced_campaign(&profiles, 2);
    let row = trace
        .profile()
        .row("workload.materialize")
        .expect("the phase table counts materializations");
    // At least one trace per profile, each at least the early budget.
    assert!(row.count >= 2, "{row:?}");
    assert!(row.ops >= row.count * 2_000, "{row:?}");
    assert!(
        !trace.to_ndjson().contains("workload.materialize"),
        "which racer materializes is scheduling: never journaled"
    );
}
