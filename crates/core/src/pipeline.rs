//! The end-to-end measured reproduction pipeline.
//!
//! `workload models → annealing exploration → cross-configuration
//! matrix → communal customization`, i.e. the paper's methodology run
//! on this repository's own substrate instead of the published data.

use crate::error::PipelineError;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use xps_communal::CrossPerfMatrix;
use xps_explore::{
    merge_counts, resolve_jobs, Campaign, CustomizedCore, EvalCache, ExploreOptions, ExploreStats,
    RunContext, TaskSpec,
};
use xps_sim::CoreConfig;
use xps_workload::WorkloadProfile;

/// The IPT substituted for a matrix cell whose measurement failed
/// every retry. Positive (so the matrix stays valid) but smaller than
/// any real measurement, so a failed cell can never win a replacement
/// decision; the failed task is listed in the run's
/// [`RecoveryStats::failed_tasks`](xps_explore::RecoveryStats::failed_tasks).
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

/// Everything the measured pipeline produces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineResult {
    /// Each workload's customized core (the measured Table 4).
    pub cores: Vec<CustomizedCore>,
    /// The measured cross-configuration matrix (the measured Table 5).
    pub matrix: CrossPerfMatrix,
    /// Parallelism, cache and recovery counters of this run, across
    /// both the exploration and the matrix phases.
    pub stats: ExploreStats,
}

/// Build a cross-configuration matrix by simulating every workload on
/// every configuration, applying the paper's replacement rule until
/// the diagonal dominates (or the pass budget runs out). Returns the
/// matrix plus the per-worker task counts.
///
/// Cells are pure functions of `(profile, config, ops)`, fanned out
/// over `jobs` workers (0 = available parallelism) and merged in
/// row-major order, so the matrix is bit-identical for any worker
/// count. With a `cache` shared with the exploration phase,
/// replacement passes mostly re-measure unchanged cells and hit
/// instead of re-simulating.
///
/// Every cell measurement runs through `ctx` — panic-isolated,
/// retried, optionally journaled and fault-injected. A cell that fails
/// every attempt is reported in the context's
/// [`RecoveryStats`](xps_explore::RecoveryStats) and measured as
/// [`FAILED_CELL_IPT`] (so it can never win a replacement decision)
/// instead of aborting the run.
///
/// # Errors
///
/// Returns [`PipelineError`] when the configuration count mismatches
/// the workload count, the journal fails, or the assembled matrix is
/// invalid.
#[allow(
    clippy::too_many_arguments,
    reason = "each argument is an independent campaign input the callers already hold separately"
)]
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
    // The unit of work is a group task `(w, cols)`: workload `w` on
    // the run of configurations `cols`, simulated in lock step over one
    // produced trace (bit-identical to one evaluation per cell), as
    // the eval spec of `(profile, configs, ops)` that a fleet worker
    // may run instead.
    let run_groups = |label: &str, configs: &[CoreConfig], tasks: &[(usize, Range<usize>)]| {
        let specs: Vec<TaskSpec> = tasks
            .iter()
            .map(|(w, cols)| TaskSpec::eval(&profiles[*w], &configs[cols.clone()], ops))
            .collect();
        ctx.run_fan_tasks(jobs, label, &specs, cache)
    };
    let mut per_worker_tasks = Vec::new();
    let mut ipt = vec![vec![0.0f64; n]; n];
    // One task per (row, column group). The groups are state-bounded
    // (see `xps_sim::lockstep_groups`), so no task holds more
    // simulator state than the largest single configuration would.
    let groups = xps_sim::lockstep_groups(configs);
    let tasks: Vec<(usize, Range<usize>)> = (0..n)
        .flat_map(|w| groups.iter().map(move |g| (w, g.clone())))
        .collect();
    let fill_phase = xps_trace::span("matrix.fill");
    let fan = run_groups("matrix", configs, &tasks)?;
    fill_phase.end_with(|| xps_trace::attr("cells", n * n));
    merge_counts(&mut per_worker_tasks, &fan.per_worker);
    merge_groups(&mut ipt, &tasks, fan.items);
    let replace_phase = xps_trace::span("matrix.replace");
    let mut replacements = 0u64;
    for _ in 0..passes {
        let mut changed = false;
        for w in 0..n {
            #[expect(
                clippy::expect_used,
                reason = "matrix cells are measured IPTs or the finite FAILED_CELL_IPT sentinel; never NaN; the matrix is square over at least one workload"
            )]
            let best = (0..n)
                .max_by(|&a, &b| ipt[w][a].partial_cmp(&ipt[w][b]).expect("finite"))
                .expect("non-empty row");
            if best != w && ipt[w][best] > ipt[w][w] {
                // Adopt the better configuration as w's own; its row
                // and column must be re-measured in one fan-out: the
                // row's lock-step groups, then each column cell as a
                // group of one.
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
                let tasks: Vec<(usize, Range<usize>)> = xps_sim::lockstep_groups(configs)
                    .into_iter()
                    .map(|g| (w, g))
                    .chain((0..n).map(|t| (t, w..w + 1)))
                    .collect();
                let fan = run_groups("rematrix", configs, &tasks)?;
                merge_counts(&mut per_worker_tasks, &fan.per_worker);
                merge_groups(&mut ipt, &tasks, fan.items);
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

/// Write each group task's IPTs into its cells of `ipt`. A group that
/// failed every attempt is already listed in the run's failed tasks;
/// each of its cells degrades to [`FAILED_CELL_IPT`].
fn merge_groups(
    ipt: &mut [Vec<f64>],
    tasks: &[(usize, Range<usize>)],
    items: Vec<Result<Vec<f64>, xps_explore::TaskError>>,
) {
    for ((w, cols), item) in tasks.iter().zip(items) {
        let ipts = item.unwrap_or_else(|_| vec![FAILED_CELL_IPT; cols.len()]);
        for (c, v) in cols.clone().zip(ipts) {
            ipt[*w][c] = v;
        }
    }
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
        self.run_recoverable_with(profiles, ctx, &EvalCache::new())
    }

    /// [`Pipeline::run_recoverable`] against a caller-supplied
    /// evaluation cache, which outlives the run: a caller running
    /// repeated or overlapping campaigns reuses every evaluation across
    /// them. Results are bit-identical to
    /// [`Pipeline::run_recoverable`].
    ///
    /// # Errors
    ///
    /// As [`Pipeline::run_recoverable`].
    pub fn run_recoverable_with(
        &self,
        profiles: &[WorkloadProfile],
        ctx: &RunContext,
        cache: &EvalCache,
    ) -> Result<PipelineResult, PipelineError> {
        self.validate()?;
        let explored =
            Campaign::try_new(self.explore.clone())?.explore_recoverable(profiles, cache, ctx)?;
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
            stats: ExploreStats {
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
    fn full_budgets_fit_the_task_bounds() {
        // A fleet worker refuses an evaluation longer than
        // `MAX_TASK_OPS` and an anneal or search making more than
        // `MAX_TASK_EVALS` evaluations; the most any in-repo driver
        // asks for (the full campaign, `repro bakeoff`'s default
        // search) must dispatch.
        let full = Pipeline::default();
        let search = xps_explore::SearchOptions::default();
        assert!(full.matrix_ops <= xps_explore::MAX_TASK_OPS);
        assert!(full.explore.anneal.eval_ops_late <= xps_explore::MAX_TASK_OPS);
        assert!(search.eval_ops <= xps_explore::MAX_TASK_OPS);
        let evals = xps_explore::MAX_TASK_EVALS;
        assert!(u64::from(full.explore.anneal.iterations) <= evals);
        assert!(u64::from(full.explore.reanneal_iterations) <= evals);
        assert!(search.budget <= evals);
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
    fn table4_columns_form_five_lockstep_groups() {
        let cores = crate::paper::table4_configs();
        let groups: Vec<Vec<&str>> = xps_sim::lockstep_groups(&cores)
            .into_iter()
            .map(|g| cores[g].iter().map(|c| c.name.as_str()).collect())
            .collect();
        assert_eq!(
            groups,
            [
                &["bzip"][..],
                &["crafty", "gap"],
                &["gcc"],
                &["gzip", "mcf"],
                &["parser", "perl", "twolf", "vortex", "vpr"],
            ],
            "gcc's 40,960 cache lines bound every group"
        );
        assert_eq!(xps_sim::cache_state_bytes(&cores[3]), 40_960 * 12);
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
        let (m, _) = cross_matrix_recoverable(
            &profiles,
            &mut configs,
            20_000,
            3,
            1,
            None,
            &RunContext::new(),
        )
        .expect("a valid two-workload matrix");
        assert!(m.is_diagonal_dominant());
        assert_eq!(
            configs[0].rob_size, configs[1].rob_size,
            "twolf adopted vpr's config"
        );
    }
}
