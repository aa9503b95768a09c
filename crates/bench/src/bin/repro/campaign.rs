//! The measured exploration campaign (`explore`, on local threads or
//! over `--workers`), the cached results every measured table reads
//! ([`measured`]), the self-profile of a small campaign (`profile`),
//! and the recovery plumbing — journal, retries, fault injection —
//! that `bakeoff` shares.

use crate::cli::{Opts, Outcome};
use crate::serving::{print_fleet_stats, with_fleet};
use std::error::Error;
use std::path::PathBuf;
use xps_bench::{load_measured, measured_path, save_measured, Measured};
use xps_core::explore::{Journal, RunContext};
use xps_core::pipeline::Pipeline;
use xps_core::workload::spec;

/// Default location of the campaign checkpoint journal.
pub const JOURNAL_PATH: &str = "results/journal.jsonl";

/// Open the checkpoint journal at `--journal` (else `default`):
/// replayed under `--resume`, started fresh otherwise.
pub fn open_journal(o: &Opts, default: &str) -> Result<Journal, Box<dyn Error>> {
    let path = o.journal.clone().unwrap_or_else(|| PathBuf::from(default));
    if !o.resume {
        return Ok(Journal::create(&path)?);
    }
    let journal = Journal::open(&path)?;
    eprintln!(
        "[resuming from {}: {} journaled task(s)]",
        path.display(),
        journal.loaded()
    );
    Ok(journal)
}

/// The run context of the environment (`XPS_FAULTS`) with the
/// `--retries` and `--faults` overrides applied.
pub fn run_context(o: &Opts) -> Result<RunContext, Box<dyn Error>> {
    let mut ctx = RunContext::from_env()?;
    if let Some(r) = o.retries {
        ctx = ctx.with_retries(r);
    }
    if let Some(plan) = o.faults.clone() {
        ctx = ctx.with_faults(plan);
    }
    Ok(ctx)
}

/// Run (or reuse) the measured campaign. A missing results file means
/// "no campaign yet" and triggers one; a corrupt or truncated file is
/// an error — it is never silently explored over.
pub fn measured(o: &Opts) -> Result<Measured, Box<dyn Error>> {
    let path = measured_path();
    match load_measured(&path) {
        Ok(m) if m.quick == o.quick => {
            eprintln!(
                "[using cached {} — delete it to re-explore]",
                path.display()
            );
            return Ok(m);
        }
        Ok(_) => {} // budget mismatch: re-explore
        Err(e) if e.is_not_found() => {}
        Err(e) => return Err(format!("{e}; delete the file to re-explore").into()),
    }
    explore(o)
}

/// `repro explore`: run the measured campaign over every paper
/// benchmark and persist it, journaling each task. With `--workers`
/// the same campaign dispatches its tasks to those fleet workers; the
/// saved bytes are the same either way.
pub fn explore(o: &Opts) -> Result<Measured, Box<dyn Error>> {
    let quick = o.quick;
    eprintln!(
        "[running measured exploration campaign ({}) — this simulates ~10^9 micro-ops]",
        if quick { "quick" } else { "full" }
    );
    let mut pipeline = if quick {
        Pipeline::quick()
    } else {
        Pipeline::default()
    };
    pipeline.explore.jobs = o.jobs;
    let (mut ctx, fleet) = with_fleet(
        run_context(o)?.with_journal(open_journal(o, JOURNAL_PATH)?),
        o,
    )?;
    // xps-allow(determinism-provenance): CLI progress timing printed to stderr; measured results never see it
    let t0 = std::time::Instant::now();
    let result = pipeline.run_recoverable(&spec::all_profiles(), &ctx)?;
    let wall = t0.elapsed().as_secs_f64();
    let s = &result.stats;
    eprintln!(
        "[{wall:.1}s wall on {} worker(s); cache {} hits / {} misses ({:.1}% hit rate); evals per worker: {}]",
        s.workers,
        s.cache.hits,
        s.cache.misses,
        s.cache.hit_rate() * 100.0,
        s.per_worker_tasks
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("/"),
    );
    let r = &s.recovery;
    eprintln!(
        "[crash-safety: {} task(s) executed, {} salvaged from the journal, {} retried, {} fault(s) injected{}]",
        r.executed,
        r.salvaged,
        r.retried,
        r.faults_injected,
        if r.failed_tasks.is_empty() {
            String::new()
        } else {
            format!("; degraded around failed tasks: {}", r.failed_tasks.join(", "))
        }
    );
    if let Some(fleet) = fleet {
        print_fleet_stats(&fleet);
    }
    let m = Measured::from((result, quick));
    save_measured(&m, &measured_path())?;
    eprintln!("[saved {}]", measured_path().display());
    // The campaign is persisted; the checkpoints have served their
    // purpose.
    if let Some(j) = ctx.take_journal() {
        j.discard()?;
    }
    Ok(m)
}

/// `repro profile`: self-profile a two-benchmark exploration through
/// the trace layer — print the per-phase table (counts, simulated ops,
/// logical ticks, wall time), write the deterministic span journal to
/// `results/trace.jsonl`, and write collapsed stacks to
/// `results/trace.folded` for flamegraph tools. The journal carries
/// only logical clocks, so it is byte-identical for every `--jobs N`;
/// `--quick` shrinks the run to smoke scale (the trace structure is
/// identical, only the op counts differ).
pub fn profile(o: &Opts) -> Outcome {
    use xps_core::explore::write_atomic;
    use xps_core::trace::{with_recorder, TraceSink};
    let quick = o.quick;
    let mut pipeline = if quick {
        Pipeline::smoke()
    } else {
        Pipeline::quick()
    };
    pipeline.explore.jobs = o.jobs;
    let profiles: Vec<_> = ["gzip", "mcf"]
        .iter()
        .map(|n| spec::profile(n).expect("known benchmark"))
        .collect();
    eprintln!(
        "[profiling a {} exploration of gzip+mcf]",
        if quick { "smoke-scale" } else { "quick" }
    );
    // The CLI edge is the one place wall time may enter the trace: the
    // stamps feed only the table below, never the span journal.
    let trace = TraceSink::with_wall_clock();
    let ctx = RunContext::from_env()?.with_trace(trace.clone());
    let (root, outcome) = with_recorder(trace.recorder(), || {
        pipeline.run_recoverable(&profiles, &ctx)
    });
    trace.attach("main", root);
    outcome?;
    let profile = trace.profile();
    println!("Self-profile: per-phase logical work and wall time\n");
    print!("{}", profile.render());
    let journal = PathBuf::from("results/trace.jsonl");
    write_atomic(&journal, &trace.to_ndjson())?;
    let folded = PathBuf::from("results/trace.folded");
    write_atomic(&folded, &profile.collapsed())?;
    println!(
        "\n[span journal {} — byte-identical for every --jobs N]",
        journal.display()
    );
    println!(
        "[collapsed stacks {} — render with any flamegraph tool]",
        folded.display()
    );
    Ok(())
}
