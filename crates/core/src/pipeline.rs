//! The end-to-end measured reproduction pipeline.
//!
//! `workload models → annealing exploration → cross-configuration
//! matrix → communal customization`, i.e. the paper's methodology run
//! on this repository's own substrate instead of the published data.

use crate::error::PipelineError;
use serde::{Deserialize, Serialize};
use xps_communal::CrossPerfMatrix;
use xps_explore::{
    merge_counts, resolve_jobs, CacheCounters, Campaign, CustomizedCore, EvalCache, ExploreOptions,
    ProgressSink, RecoveryStats, RunContext,
};
use xps_sim::CoreConfig;
use xps_workload::WorkloadProfile;

/// The IPT substituted for a matrix cell whose measurement failed
/// every retry. Positive (so the matrix stays valid) but smaller than
/// any real measurement, so a failed cell can never win a replacement
/// decision; the failed task is listed in the run's
/// [`RecoveryStats::failed_tasks`].
pub const FAILED_CELL_IPT: f64 = f64::MIN_POSITIVE;

/// Options of the full measured pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pipeline {
    /// Exploration options (annealing + cross seeding).
    pub explore: ExploreOptions,
    /// Trace length for each cell of the cross-configuration matrix.
    pub matrix_ops: u64,
    /// Maximum passes of the paper's replacement rule when building
    /// the matrix ("if a workload performs better on some other
    /// workload's configuration, that configuration replaces its
    /// own").
    pub replacement_passes: u32,
}

impl Default for Pipeline {
    fn default() -> Pipeline {
        Pipeline {
            explore: ExploreOptions::default(),
            matrix_ops: 1_000_000,
            replacement_passes: 3,
        }
    }
}

impl Pipeline {
    /// Cheap settings for tests and demos.
    pub fn quick() -> Pipeline {
        Pipeline {
            explore: ExploreOptions::quick(),
            matrix_ops: 40_000,
            replacement_passes: 2,
        }
    }

    /// Seconds-scale settings for smoke runs: [`Pipeline::quick`] with
    /// 8 anneal iterations, 3k/6k-op evaluations, 3 re-anneal
    /// iterations and 8k-op matrix cells.
    pub fn smoke() -> Pipeline {
        let mut p = Pipeline::quick();
        p.explore.anneal.iterations = 8;
        p.explore.anneal.eval_ops_early = 3_000;
        p.explore.anneal.eval_ops_late = 6_000;
        p.explore.reanneal_iterations = 3;
        p.matrix_ops = 8_000;
        p
    }

    /// Check every invariant of the pipeline options (including the
    /// nested exploration and annealing options), so a bad
    /// configuration is one typed error up front instead of a panic
    /// mid-campaign.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] naming the first violated invariant.
    pub fn validate(&self) -> Result<(), PipelineError> {
        self.explore.validate()?;
        if self.matrix_ops == 0 {
            return Err(PipelineError::InvalidPipeline(
                "matrix_ops must be >= 1".into(),
            ));
        }
        Ok(())
    }
}

/// Execution counters of one pipeline run: pool shape and evaluation
/// cache effectiveness across both the exploration and the matrix
/// phases. Informational only — results do not depend on it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PipelineStats {
    /// Worker threads the fan-outs ran on.
    pub workers: usize,
    /// Tasks (anneals or cell evaluations) completed per worker.
    pub per_worker_tasks: Vec<u64>,
    /// Evaluation-cache counters, shared across both phases.
    pub cache: CacheCounters,
    /// Crash-safety counters spanning both phases: executed vs
    /// journal-salvaged tasks, retries, injected faults, and
    /// permanently failed tasks.
    pub recovery: RecoveryStats,
}

/// Everything the measured pipeline produces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineResult {
    /// Each workload's customized core (the measured Table 4).
    pub cores: Vec<CustomizedCore>,
    /// The measured cross-configuration matrix (the measured Table 5).
    pub matrix: CrossPerfMatrix,
    /// Parallelism and cache counters of this run.
    pub stats: PipelineStats,
}

/// Measure the IPT of `profile` on `config` over `ops` micro-ops.
pub fn measure(profile: &WorkloadProfile, config: &CoreConfig, ops: u64) -> f64 {
    xps_sim::evaluate(profile, config, ops).ipt()
}

/// Build a cross-configuration matrix by simulating every workload on
/// every configuration, applying the paper's replacement rule until
/// the diagonal dominates (or the pass budget runs out).
pub fn cross_matrix(
    profiles: &[WorkloadProfile],
    configs: &mut [CoreConfig],
    ops: u64,
    passes: u32,
) -> CrossPerfMatrix {
    cross_matrix_with(profiles, configs, ops, passes, 1, None).0
}

/// [`cross_matrix`] with the cell measurements fanned out over `jobs`
/// workers (0 = available parallelism) and optionally memoized in
/// `cache`. Returns the matrix plus the per-worker task counts.
///
/// Cells are pure functions of `(profile, config, ops)` and are merged
/// in row-major order, so the matrix is bit-identical for any worker
/// count. With a cache shared with the exploration phase, replacement
/// passes mostly re-measure unchanged cells and hit instead of
/// re-simulating.
pub fn cross_matrix_with(
    profiles: &[WorkloadProfile],
    configs: &mut [CoreConfig],
    ops: u64,
    passes: u32,
    jobs: usize,
    cache: Option<&EvalCache>,
) -> (CrossPerfMatrix, Vec<u64>) {
    assert_eq!(
        profiles.len(),
        configs.len(),
        "one configuration per workload"
    );
    let ctx = RunContext::from_env().unwrap_or_else(|e| panic!("{e}"));
    cross_matrix_recoverable(profiles, configs, ops, passes, jobs, cache, &ctx)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The crash-safe [`cross_matrix_with`]: every cell measurement runs
/// through `ctx` — panic-isolated, retried, optionally journaled and
/// fault-injected. A cell that fails every attempt is reported in the
/// context's [`RecoveryStats`] and measured as [`FAILED_CELL_IPT`]
/// (so it can never win a replacement decision) instead of aborting
/// the run.
///
/// # Errors
///
/// Returns [`PipelineError`] when the configuration count mismatches
/// the workload count, the journal fails, or the assembled matrix is
/// invalid.
#[allow(clippy::too_many_arguments)]
pub fn cross_matrix_recoverable(
    profiles: &[WorkloadProfile],
    configs: &mut [CoreConfig],
    ops: u64,
    passes: u32,
    jobs: usize,
    cache: Option<&EvalCache>,
    ctx: &RunContext,
) -> Result<(CrossPerfMatrix, Vec<u64>), PipelineError> {
    if profiles.len() != configs.len() {
        return Err(PipelineError::InvalidPipeline(format!(
            "one configuration per workload ({} profiles, {} configs)",
            profiles.len(),
            configs.len()
        )));
    }
    let n = profiles.len();
    let cell = |w: usize, cfg: &CoreConfig| match cache {
        Some(cache) => cache.ipt(&profiles[w], cfg, ops),
        None => measure(&profiles[w], cfg, ops),
    };
    let unwrap_cell = |item: Result<f64, xps_explore::TaskError>| match item {
        Ok(v) => v,
        // Already recorded in the context's failed-task list; degrade.
        Err(_) => FAILED_CELL_IPT,
    };
    let mut per_worker_tasks = Vec::new();
    let mut ipt = vec![vec![0.0f64; n]; n];
    // Each cell's wire description: pure (profile, config, ops), so a
    // dispatched cell is bit-identical to the local measurement.
    let describe = |w: usize, cfg: &CoreConfig| xps_explore::TaskSpec::eval(&profiles[w], cfg, ops);
    let fill_phase = xps_trace::span("matrix.fill");
    let fan = ctx.run_fan_tasks(
        jobs,
        "matrix",
        n * n,
        |t| Some(describe(t / n, &configs[t % n])),
        |t| cell(t / n, &configs[t % n]),
    )?;
    fill_phase.end_with(|| xps_trace::attr("cells", n * n));
    merge_counts(&mut per_worker_tasks, &fan.per_worker);
    for (t, item) in fan.items.into_iter().enumerate() {
        ipt[t / n][t % n] = unwrap_cell(item);
    }
    let replace_phase = xps_trace::span("matrix.replace");
    let mut replacements = 0u64;
    for _ in 0..passes {
        let mut changed = false;
        for w in 0..n {
            let best = (0..n)
                // xps-allow(no-unwrap-in-lib): matrix cells are measured IPTs or the finite FAILED_CELL_IPT sentinel; never NaN
                .max_by(|&a, &b| ipt[w][a].partial_cmp(&ipt[w][b]).expect("finite"))
                // xps-allow(no-unwrap-in-lib): the matrix is square over at least one workload
                .expect("non-empty row");
            if best != w && ipt[w][best] > ipt[w][w] {
                // Adopt the better configuration as w's own; its row
                // and column must be re-measured (one fan-out: the
                // first n tasks are the row, the rest the column).
                configs[w] = CoreConfig {
                    name: profiles[w].name.clone(),
                    ..configs[best].clone()
                };
                changed = true;
                replacements += 1;
                xps_trace::instant("matrix.adopt", || {
                    xps_trace::attrs([
                        ("workload", profiles[w].name.as_str().into()),
                        ("from", profiles[best].name.as_str().into()),
                    ])
                });
                let fan = ctx.run_fan_tasks(
                    jobs,
                    "rematrix",
                    2 * n,
                    |t| {
                        Some(if t < n {
                            describe(w, &configs[t])
                        } else {
                            describe(t - n, &configs[w])
                        })
                    },
                    |t| {
                        if t < n {
                            cell(w, &configs[t])
                        } else {
                            cell(t - n, &configs[w])
                        }
                    },
                )?;
                merge_counts(&mut per_worker_tasks, &fan.per_worker);
                for (t, item) in fan.items.into_iter().enumerate() {
                    let v = unwrap_cell(item);
                    if t < n {
                        ipt[w][t] = v;
                    } else {
                        ipt[t - n][w] = v;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    replace_phase.end_with(|| xps_trace::attr("replacements", replacements));
    let matrix =
        CrossPerfMatrix::from_fn(profiles.iter().map(|p| p.name.clone()).collect(), |w, c| {
            ipt[w][c]
        })
        .map_err(PipelineError::InvalidMatrix)?
        .with_weights(profiles.iter().map(|p| p.weight).collect())
        .map_err(PipelineError::InvalidMatrix)?;
    Ok((matrix, per_worker_tasks))
}

impl Pipeline {
    /// Run the full pipeline over `profiles`.
    ///
    /// One evaluation cache and one worker pool (sized by
    /// `explore.jobs`; 0 = available parallelism) span both phases:
    /// the exploration warms the cache, and the cross-configuration
    /// matrix then reuses every evaluation it can. The results are
    /// bit-identical for any worker count.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty, the pipeline options are
    /// invalid, or the run fails terminally; see [`Pipeline::try_run`]
    /// for the same run with typed errors.
    pub fn run(&self, profiles: &[WorkloadProfile]) -> PipelineResult {
        self.try_run(profiles).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Pipeline::run`] with typed errors, honouring the `XPS_FAULTS`
    /// environment variable (deterministic fault injection for tests).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] when the options are invalid, the
    /// fault specification is malformed, or the run fails terminally.
    pub fn try_run(&self, profiles: &[WorkloadProfile]) -> Result<PipelineResult, PipelineError> {
        let ctx = RunContext::from_env()?;
        self.run_recoverable(profiles, &ctx)
    }

    /// The crash-safe [`Pipeline::run`]: every task — anneal start,
    /// cross-seed evaluation, re-anneal, matrix cell — runs through
    /// `ctx`, which isolates panics, retries failed attempts, and
    /// (when a journal is attached) checkpoints each completed task so
    /// an interrupted campaign can resume without re-running finished
    /// work. Results are bit-identical to an uninterrupted
    /// single-threaded run.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] when the options are invalid, the
    /// journal fails, or a whole workload fails terminally.
    pub fn run_recoverable(
        &self,
        profiles: &[WorkloadProfile],
        ctx: &RunContext,
    ) -> Result<PipelineResult, PipelineError> {
        self.run_recoverable_with(profiles, ctx, &EvalCache::new(), None)
    }

    /// [`Pipeline::run_recoverable`] against a caller-supplied
    /// evaluation cache and an optional progress sink — the embedding
    /// entry point for a long-lived service. The cache outlives the
    /// run, so a daemon serving repeated or overlapping requests reuses
    /// every evaluation across them; the sink streams annealing steps
    /// and task completions live. Both are observational: results are
    /// bit-identical to [`Pipeline::run_recoverable`].
    ///
    /// # Errors
    ///
    /// As [`Pipeline::run_recoverable`].
    pub fn run_recoverable_with(
        &self,
        profiles: &[WorkloadProfile],
        ctx: &RunContext,
        cache: &EvalCache,
        progress: Option<&ProgressSink>,
    ) -> Result<PipelineResult, PipelineError> {
        self.validate()?;
        let mut explorer = Campaign::try_new(self.explore.clone())?;
        if let Some(sink) = progress {
            explorer = explorer.with_progress(sink.clone());
        }
        let explored = explorer.explore_recoverable(profiles, cache, ctx)?;
        let mut configs: Vec<CoreConfig> =
            explored.cores.iter().map(|c| c.config.clone()).collect();
        let (matrix, matrix_tasks) = cross_matrix_recoverable(
            profiles,
            &mut configs,
            self.matrix_ops,
            self.replacement_passes,
            self.explore.jobs,
            Some(cache),
            ctx,
        )?;
        let mut per_worker_tasks = explored.stats.per_worker_tasks.clone();
        merge_counts(&mut per_worker_tasks, &matrix_tasks);
        let cores = explored
            .cores
            .into_iter()
            .zip(configs)
            .enumerate()
            .map(|(i, (mut core, config))| {
                core.ipt = matrix.ipt(i, i);
                core.config = config;
                core
            })
            .collect();
        Ok(PipelineResult {
            cores,
            matrix,
            stats: PipelineStats {
                workers: resolve_jobs(self.explore.jobs),
                per_worker_tasks,
                cache: cache.counters(),
                recovery: ctx.stats(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xps_workload::spec;

    #[test]
    fn smoke_pipeline_is_the_pinned_quick_budget() {
        let p = Pipeline::smoke();
        let mut expected = Pipeline::quick();
        expected.explore.anneal.iterations = 8;
        expected.explore.anneal.eval_ops_early = 3_000;
        expected.explore.anneal.eval_ops_late = 6_000;
        expected.explore.reanneal_iterations = 3;
        expected.matrix_ops = 8_000;
        assert_eq!(p, expected, "the pinned budget over the quick pipeline");
        p.validate().expect("the smoke budget is a valid pipeline");
    }

    #[test]
    fn quick_pipeline_three_workloads() {
        let profiles: Vec<_> = ["gzip", "mcf", "crafty"]
            .iter()
            .map(|n| spec::profile(n).expect("known benchmark"))
            .collect();
        let r = Pipeline::quick().run(&profiles);
        assert_eq!(r.cores.len(), 3);
        assert_eq!(r.matrix.len(), 3);
        assert!(
            r.matrix.is_diagonal_dominant(),
            "replacement rule must make the diagonal dominate"
        );
        for (i, core) in r.cores.iter().enumerate() {
            assert!((core.ipt - r.matrix.ipt(i, i)).abs() < 1e-12);
        }
    }

    #[test]
    fn cross_matrix_replacement_rule() {
        let profiles: Vec<_> = ["twolf", "vpr"]
            .iter()
            .map(|n| spec::profile(n).expect("known benchmark"))
            .collect();
        // Deliberately give twolf a terrible configuration; the rule
        // should replace it with vpr's.
        let mut bad = CoreConfig::initial();
        bad.name = "twolf".to_string();
        bad.rob_size = 32;
        bad.iq_size = 8;
        bad.lsq_size = 16;
        bad.clock_ns = 1.0;
        let mut good = CoreConfig::initial();
        good.name = "vpr".to_string();
        let mut configs = vec![bad, good];
        let m = cross_matrix(&profiles, &mut configs, 20_000, 3);
        assert!(m.is_diagonal_dominant());
        assert_eq!(
            configs[0].rob_size, configs[1].rob_size,
            "twolf adopted vpr's config"
        );
    }
}
