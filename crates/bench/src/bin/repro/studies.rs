//! The population-scale studies: the subsetting-at-scale study
//! (`scale`) and the equal-budget explorer bake-off (`bakeoff`). Both
//! fan out through the task-dispatcher seam, so `--workers` scales
//! them over a fleet without changing a byte of their reports.

use crate::campaign::{open_journal, run_context};
use crate::cli::{Opts, Outcome};
use crate::serving::{placement, print_fleet_stats, with_fleet};
use std::path::PathBuf;
use xps_scenario::{Family, PopulationSpec};

/// Default destination of the scale-study report.
pub const SCALE_OUT: &str = "results/scale.json";
/// Default destination of the bake-off report.
pub const BAKEOFF_OUT: &str = "results/bakeoff.json";
/// Default location of the bake-off checkpoint journal (distinct from
/// the campaign journal so an interrupted `explore` and an interrupted
/// `bakeoff` never replay each other's tasks).
pub const BAKEOFF_JOURNAL_PATH: &str = "results/bakeoff-journal.jsonl";

/// `repro bakeoff`: run every explorer at the same evaluation budget
/// over the SPEC profiles plus seeded scenario panels and write the
/// canonical bake-off report. The fan-out goes through the task
/// dispatcher seam, so `--workers` scales it over a fleet without
/// changing a byte of the output.
pub fn bakeoff(o: &Opts) -> Outcome {
    use xps_scenario::{run_bakeoff, BakeoffOptions};
    let mut bake = if o.quick {
        BakeoffOptions::smoke()
    } else {
        BakeoffOptions::quick()
    };
    bake.jobs = o.jobs;
    if let Some(b) = o.budget {
        bake.search.budget = b;
    }
    if let Some(s) = o.seed {
        bake.search.seed = s;
    }
    if o.families.is_some() || o.n.is_some() {
        let (n0, seed0) = bake
            .scenario
            .as_ref()
            .map(|s| (s.n, s.seed))
            .unwrap_or((6, 11));
        bake.scenario = Some(PopulationSpec {
            families: o.families.clone().unwrap_or_else(|| Family::ALL.to_vec()),
            n: o.n.unwrap_or(n0),
            seed: seed0,
        });
    }
    let journal = open_journal(o, BAKEOFF_JOURNAL_PATH)?;
    let (mut ctx, fleet) = with_fleet(run_context(o)?.with_journal(journal), o)?;
    eprintln!(
        "[bake-off: budget={} seed={} spec={} scenario={} worker(s)={}]",
        bake.search.budget,
        bake.search.seed,
        bake.spec_workloads.len(),
        bake.scenario.as_ref().map(|s| s.n).unwrap_or(0),
        placement(o)
    );
    // xps-allow(determinism-provenance): CLI progress timing printed to stderr; the report never sees it
    let t0 = std::time::Instant::now();
    let report = run_bakeoff(&bake, &ctx)?;
    let wall = t0.elapsed().as_secs_f64();
    eprintln!("[{wall:.1}s wall]");
    if let Some(fleet) = fleet {
        print_fleet_stats(&fleet);
    }
    print!("{}", report.render_human());
    let out = o.out.clone().unwrap_or_else(|| PathBuf::from(BAKEOFF_OUT));
    xps_core::explore::write_atomic(&out, &report.canonical())?;
    println!(
        "\n[bake-off report {} — byte-identical for any --jobs, rerun, or worker count]",
        out.display()
    );
    // The bake-off is persisted; the checkpoints have served their
    // purpose.
    if let Some(j) = ctx.take_journal() {
        j.discard()?;
    }
    Ok(())
}

/// `repro scale`: generate a synthetic workload population and run
/// the subsetting-at-scale study. `--families/--n/--seed` shape the
/// population; `--quick` shrinks each panel campaign to smoke scale;
/// `--workers` scatters anneals and matrix cells over fleet workers
/// through the same dispatcher seam as `repro explore`. The canonical
/// report (gap distribution, pitfall rate) is a pure function of the
/// population spec and study options — byte-identical for any
/// `--jobs` value or worker count — and lands at `--out`; execution
/// statistics go to stderr.
pub fn scale(o: &Opts) -> Outcome {
    use xps_scenario::{run_study, StudyOptions};
    let spec = PopulationSpec {
        families: o.families.clone().unwrap_or_else(|| Family::ALL.to_vec()),
        n: o.n.unwrap_or(96),
        seed: o.seed.unwrap_or(42),
    };
    let mut study = if o.quick {
        StudyOptions::smoke()
    } else {
        StudyOptions::quick()
    };
    study.pipeline.explore.jobs = o.jobs;
    let (ctx, fleet) = with_fleet(run_context(o)?, o)?;
    eprintln!(
        "[scale study: n={} seed={} families={} budget={} worker(s)={}]",
        spec.n,
        spec.seed,
        spec.families
            .iter()
            .map(|f| f.name())
            .collect::<Vec<_>>()
            .join("+"),
        if o.quick { "smoke" } else { "quick" },
        placement(o)
    );
    // xps-allow(determinism-provenance): CLI progress timing printed to stderr; the report never sees it
    let t0 = std::time::Instant::now();
    let report = run_study(&spec, &study, &ctx)?;
    let wall = t0.elapsed().as_secs_f64();
    eprintln!("[{wall:.1}s wall]");
    if let Some(fleet) = fleet {
        print_fleet_stats(&fleet);
    }
    print!("{}", report.render_human());
    let out = o.out.clone().unwrap_or_else(|| PathBuf::from(SCALE_OUT));
    xps_core::explore::write_atomic(&out, &report.canonical())?;
    println!(
        "\n[study report {} — byte-identical for any --jobs or worker count]",
        out.display()
    );
    Ok(())
}
