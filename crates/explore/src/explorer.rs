//! The full §4 methodology: per-workload annealing plus
//! cross-configuration seeding across workloads.

use crate::anneal::{AnnealOptions, AnnealResult};
use crate::cache::{CacheCounters, EvalCache};
use crate::error::{ExploreError, TaskError};
use crate::parallel::{merge_counts, resolve_jobs};
use crate::point::DesignPoint;
use crate::recovery::{RecoveryStats, RunContext};
use crate::task::TaskSpec;
use serde::{Deserialize, Serialize};
use xps_cacti::Technology;
use xps_sim::CoreConfig;
use xps_workload::WorkloadProfile;

/// Options for a full exploration campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExploreOptions {
    /// Per-workload annealing options.
    pub anneal: AnnealOptions,
    /// Rounds of cross-configuration seeding: after each round every
    /// workload is evaluated on every other workload's best
    /// configuration, and adopts it (then re-anneals from it) when it
    /// is better — the paper's §4.1 expedient.
    pub cross_rounds: u32,
    /// Iterations of the re-anneal after adopting a foreign
    /// configuration.
    pub reanneal_iterations: u32,
    /// Worker threads for the parallel fan-outs (0 = available
    /// parallelism). Results are bit-identical for every value.
    pub jobs: usize,
}

impl Default for ExploreOptions {
    fn default() -> ExploreOptions {
        ExploreOptions {
            anneal: AnnealOptions::default(),
            cross_rounds: 2,
            reanneal_iterations: 60,
            jobs: 0,
        }
    }
}

impl ExploreOptions {
    /// Cheap settings for tests and demos.
    pub fn quick() -> ExploreOptions {
        ExploreOptions {
            anneal: AnnealOptions::quick(),
            cross_rounds: 1,
            reanneal_iterations: 15,
            jobs: 0,
        }
    }

    /// Check every invariant of a campaign's options (including the
    /// nested annealing options), so a bad configuration is one typed
    /// error at construction instead of a panic mid-run.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::InvalidOptions`] naming the first
    /// violated invariant.
    pub fn validate(&self) -> Result<(), ExploreError> {
        self.anneal.validate()?;
        if self.reanneal_iterations == 0 {
            return Err(ExploreError::InvalidOptions(
                "reanneal_iterations must be >= 1".into(),
            ));
        }
        Ok(())
    }
}

/// Execution counters of one exploration or measured pipeline run: how
/// the work spread over the pool, how often the evaluation cache
/// short-circuited a simulation, and what crash recovery did. Purely
/// informational — the results do not depend on any of it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExploreStats {
    /// Worker threads the fan-outs ran on.
    pub workers: usize,
    /// Tasks (anneals, cross evaluations or matrix groups) completed
    /// per worker.
    pub per_worker_tasks: Vec<u64>,
    /// Evaluation-cache hit/miss counters.
    pub cache: CacheCounters,
    /// Crash-safety counters: executed vs journal-salvaged tasks,
    /// retries, injected faults, and permanently failed tasks.
    pub recovery: RecoveryStats,
}

/// One workload's customized core: its configurational
/// characterization.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CustomizedCore {
    /// The workload.
    pub profile: WorkloadProfile,
    /// The best design point found for it.
    pub point: DesignPoint,
    /// The realized configuration (a row of the paper's Table 4).
    pub config: CoreConfig,
    /// Its IPT on its own customized core.
    pub ipt: f64,
}

/// The outcome of a full exploration: one customized core per
/// workload, in input order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExplorationResult {
    /// Customized cores, one per input profile, in input order.
    pub cores: Vec<CustomizedCore>,
    /// Number of configuration adoptions performed by cross seeding.
    pub adoptions: u32,
    /// Parallelism and cache counters of this run.
    pub stats: ExploreStats,
}

/// Orchestrates the paper's exploration methodology over a workload
/// set.
#[derive(Debug, Clone)]
pub struct Campaign {
    opts: ExploreOptions,
    tech: Technology,
}

impl Campaign {
    /// Build an explorer with the default technology, validating the
    /// options.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::InvalidOptions`] when an option
    /// violates an invariant.
    pub fn try_new(opts: ExploreOptions) -> Result<Campaign, ExploreError> {
        opts.validate()?;
        Ok(Campaign {
            opts,
            tech: Technology::default(),
        })
    }

    /// Build an explorer with the default technology.
    ///
    /// # Panics
    ///
    /// Panics when the options are invalid; use
    /// [`try_new`](Campaign::try_new) for a typed error.
    pub fn new(opts: ExploreOptions) -> Campaign {
        Campaign::try_new(opts).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build an explorer for a specific technology point (the paper
    /// stresses that these physical properties shape the outcome).
    ///
    /// # Panics
    ///
    /// Panics when the options are invalid.
    pub fn with_technology(opts: ExploreOptions, tech: Technology) -> Campaign {
        opts.validate().unwrap_or_else(|e| panic!("{e}"));
        Campaign { opts, tech }
    }

    /// The technology in use.
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// Run the full campaign: anneal each workload from the Table 3
    /// start, then `cross_rounds` of cross-configuration seeding.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty.
    pub fn explore(&self, profiles: &[WorkloadProfile]) -> ExplorationResult {
        self.explore_with(profiles, &EvalCache::new())
    }

    /// [`explore`](Campaign::explore) against a caller-supplied
    /// evaluation cache, so a surrounding pipeline can share one cache
    /// between exploration and later cross-performance measurement.
    ///
    /// The per-workload anneals (times three multi-start corners) and
    /// the cross-seeding evaluations fan out over `opts.jobs` workers;
    /// every task owns its own seeded RNG stream and results are merged
    /// in task order, so the outcome is bit-identical to a serial run.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty or a workload fails terminally;
    /// use [`explore_recoverable`](Campaign::explore_recoverable) for
    /// typed errors, journaling, and fault injection.
    pub fn explore_with(
        &self,
        profiles: &[WorkloadProfile],
        cache: &EvalCache,
    ) -> ExplorationResult {
        let ctx = RunContext::from_env().unwrap_or_else(|e| panic!("{e}"));
        self.explore_recoverable(profiles, cache, &ctx)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The crash-safe campaign: as
    /// [`explore_with`](Campaign::explore_with), but every task runs
    /// through `ctx` — panic-isolated, retried, optionally journaled
    /// for `--resume`, and optionally fault-injected.
    ///
    /// A task that fails every attempt degrades the run instead of
    /// aborting it: a failed anneal start falls back to the workload's
    /// surviving starts, a failed cross evaluation skips that foreign
    /// candidate, and a failed re-anneal keeps the pre-adoption
    /// configuration. Each such task is listed in
    /// [`ExploreStats::recovery`].
    ///
    /// # Errors
    ///
    /// * [`ExploreError::EmptyWorkloads`] / `InvalidOptions` before
    ///   any work starts;
    /// * [`ExploreError::WorkloadFailed`] when every start of one
    ///   workload failed permanently (nothing to degrade to);
    /// * [`ExploreError::Journal`] when the checkpoint journal cannot
    ///   be read or written.
    pub fn explore_recoverable(
        &self,
        profiles: &[WorkloadProfile],
        cache: &EvalCache,
        ctx: &RunContext,
    ) -> Result<ExplorationResult, ExploreError> {
        if profiles.is_empty() {
            return Err(ExploreError::EmptyWorkloads);
        }
        self.opts.validate()?;
        let workers = resolve_jobs(self.opts.jobs);
        let mut per_worker_tasks = Vec::new();
        // Multi-start annealing: the Table 3 start plus two corner
        // seeds, keeping each workload's best outcome. The corners let
        // the walk reach fast-deep and slow-big customizations without
        // crossing the IPT valley between them.
        let starts = [
            DesignPoint::initial(),
            DesignPoint::fast_corner(),
            DesignPoint::big_corner(),
        ];
        // Fan out every (workload, start) pair: each anneal seeds its
        // own RNG from (opts.seed ^ start index, profile seed), so the
        // walks are identical no matter which worker runs them.
        let anneal_phase = xps_trace::span("explore.anneal");
        let specs: Vec<TaskSpec> = profiles
            .iter()
            .flat_map(|p| {
                starts.iter().enumerate().map(move |(i, start)| {
                    let mut opts = self.opts.anneal.clone();
                    opts.seed ^= (i as u64) << 32;
                    TaskSpec::anneal(p, start, &opts, &self.tech)
                })
            })
            .collect();
        let fan =
            ctx.run_fan_tasks::<AnnealResult>(self.opts.jobs, "anneal", &specs, Some(cache))?;
        anneal_phase.end_with(|| xps_trace::attr("tasks", profiles.len() * starts.len()));
        merge_counts(&mut per_worker_tasks, &fan.per_worker);
        // Keep each workload's best start; `>=` keeps the *last* of
        // tied maxima, matching the serial `max_by` fold. A start that
        // failed every attempt is skipped; a workload with no
        // surviving start is a terminal error.
        let mut runs = fan.items.into_iter();
        let mut results: Vec<AnnealResult> = Vec::with_capacity(profiles.len());
        for p in profiles {
            let mut best: Option<AnnealResult> = None;
            let mut last_err: Option<TaskError> = None;
            for _ in 0..starts.len() {
                #[expect(
                    clippy::expect_used,
                    reason = "run_parallel returns exactly one result per submitted start; the zip cannot run dry"
                )]
                match runs.next().expect("one result per task") {
                    Ok(r) => {
                        best = Some(match best {
                            Some(b) if r.ipt < b.ipt => b,
                            _ => r,
                        });
                    }
                    Err(e) => last_err = Some(e),
                }
            }
            match best {
                Some(b) => results.push(b),
                None => {
                    #[expect(
                        clippy::expect_used,
                        reason = "every start either produced a best or recorded an error; no third outcome exists"
                    )]
                    return Err(ExploreError::WorkloadFailed {
                        workload: p.name.clone(),
                        error: last_err.expect("no best implies at least one error"),
                    });
                }
            }
        }

        let mut adoptions = 0;
        let cross_phase = xps_trace::span("explore.cross");
        for _ in 0..self.opts.cross_rounds {
            let mut improved = false;
            for i in 0..profiles.len() {
                // Evaluate workload i on every other best config, in
                // parallel: one eval group of one per foreign workload.
                // Configurations adopted earlier in this round are
                // visible here, exactly as in a serial sweep.
                let foreign: Vec<usize> = (0..results.len()).filter(|&j| j != i).collect();
                let specs: Vec<TaskSpec> = foreign
                    .iter()
                    .map(|&j| {
                        TaskSpec::eval(
                            &profiles[i],
                            std::slice::from_ref(&results[j].config),
                            self.opts.anneal.eval_ops_late,
                        )
                    })
                    .collect();
                let cross =
                    ctx.run_fan_tasks::<Vec<f64>>(self.opts.jobs, "cross", &specs, Some(cache))?;
                merge_counts(&mut per_worker_tasks, &cross.per_worker);
                let mut best_foreign: Option<(usize, f64)> = None;
                for (&j, item) in foreign.iter().zip(cross.items) {
                    // A permanently failed evaluation skips candidate
                    // j — degraded, and recorded in the stats.
                    let Ok(&[ipt]) = item.as_deref() else {
                        continue;
                    };
                    if ipt > results[i].ipt && best_foreign.map(|(_, b)| ipt > b).unwrap_or(true) {
                        best_foreign = Some((j, ipt));
                    }
                }
                if let Some((j, _)) = best_foreign {
                    // Adopt the foreign point and re-anneal briefly
                    // from it to specialize further. A failed re-anneal
                    // keeps workload i's own configuration.
                    let mut re_opts = self.opts.anneal.clone();
                    re_opts.iterations = self.opts.reanneal_iterations;
                    re_opts.early_fraction = 0.0;
                    let respec =
                        TaskSpec::anneal(&profiles[i], &results[j].point, &re_opts, &self.tech);
                    let reanneal = ctx
                        .run_fan_tasks::<AnnealResult>(1, "reanneal", &[respec], Some(cache))?
                        .items
                        .pop();
                    if let Some(Ok(r)) = reanneal {
                        if r.ipt > results[i].ipt {
                            results[i] = r;
                            adoptions += 1;
                            improved = true;
                            xps_trace::instant("explore.adopt", || {
                                xps_trace::attrs([
                                    ("workload", profiles[i].name.as_str().into()),
                                    ("from", profiles[j].name.as_str().into()),
                                ])
                            });
                        }
                    }
                }
            }
            if !improved {
                break;
            }
        }
        cross_phase.end_with(|| xps_trace::attr("adoptions", adoptions));

        let cores = profiles
            .iter()
            .zip(results)
            .map(|(p, r)| CustomizedCore {
                profile: p.clone(),
                point: r.point,
                config: CoreConfig {
                    name: p.name.clone(),
                    ..r.config
                },
                ipt: r.ipt,
            })
            .collect();
        Ok(ExplorationResult {
            cores,
            adoptions,
            stats: ExploreStats {
                workers,
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
    fn explore_two_workloads_quickly() {
        let profiles = vec![
            spec::profile("gzip").expect("gzip exists"),
            spec::profile("mcf").expect("mcf exists"),
        ];
        let explorer = Campaign::new(ExploreOptions::quick());
        let r = explorer.explore(&profiles);
        assert_eq!(r.cores.len(), 2);
        assert_eq!(r.cores[0].config.name, "gzip");
        assert_eq!(r.cores[1].config.name, "mcf");
        for c in &r.cores {
            assert!(c.ipt > 0.0);
            c.config.validate().expect("explored configs are valid");
        }
    }

    #[test]
    #[should_panic(expected = "at least one workload")]
    fn empty_input_panics() {
        Campaign::new(ExploreOptions::quick()).explore(&[]);
    }

    #[test]
    fn invalid_options_are_typed_errors_at_construction() {
        let mut opts = ExploreOptions::quick();
        opts.anneal.iterations = 0;
        assert!(matches!(
            Campaign::try_new(opts),
            Err(ExploreError::InvalidOptions(_))
        ));
        let mut opts = ExploreOptions::quick();
        opts.anneal.cooling = 1.5;
        assert!(opts.validate().is_err());
        let mut opts = ExploreOptions::quick();
        opts.reanneal_iterations = 0;
        assert!(opts.validate().is_err());
        assert!(ExploreOptions::quick().validate().is_ok());
        assert!(ExploreOptions::default().validate().is_ok());
    }

    #[test]
    fn permanently_failed_start_degrades_to_survivors() {
        use crate::fault::{FaultKind, FaultPlan};
        let profiles = vec![
            spec::profile("gzip").expect("gzip exists"),
            spec::profile("mcf").expect("mcf exists"),
        ];
        let mut opts = ExploreOptions::quick();
        opts.anneal.iterations = 10;
        opts.anneal.eval_ops_early = 3000;
        opts.anneal.eval_ops_late = 6000;
        opts.reanneal_iterations = 3;
        opts.jobs = 2;
        let explorer = Campaign::new(opts);
        // Kill gzip's corner start (task 1 of its three) on every
        // attempt: the run must degrade to its surviving starts.
        let ctx = RunContext::new()
            .with_faults(FaultPlan::targets(
                ["anneal#0/1"],
                u32::MAX,
                FaultKind::Panic,
            ))
            .with_retries(1);
        let r = explorer
            .explore_recoverable(&profiles, &EvalCache::new(), &ctx)
            .expect("degrades, does not abort");
        assert_eq!(r.cores.len(), 2);
        assert!(r.cores.iter().all(|c| c.ipt > 0.0));
        assert_eq!(
            r.stats.recovery.failed_tasks,
            vec!["anneal#0/1".to_string()]
        );
        assert!(r.stats.recovery.retried >= 1);
    }

    #[test]
    fn all_starts_failing_is_a_terminal_typed_error() {
        use crate::fault::{FaultKind, FaultPlan};
        let profiles = vec![spec::profile("gzip").expect("gzip exists")];
        let mut opts = ExploreOptions::quick();
        opts.anneal.iterations = 5;
        opts.anneal.eval_ops_early = 2000;
        opts.anneal.eval_ops_late = 4000;
        let explorer = Campaign::new(opts);
        let ctx = RunContext::new()
            .with_faults(FaultPlan::targets(["anneal#"], u32::MAX, FaultKind::Error))
            .with_retries(0);
        match explorer.explore_recoverable(&profiles, &EvalCache::new(), &ctx) {
            Err(ExploreError::WorkloadFailed { workload, .. }) => assert_eq!(workload, "gzip"),
            other => panic!("expected WorkloadFailed, got {other:?}"),
        }
    }

    #[test]
    fn parallel_exploration_matches_serial() {
        let profiles = vec![
            spec::profile("gzip").expect("gzip exists"),
            spec::profile("mcf").expect("mcf exists"),
            spec::profile("twolf").expect("twolf exists"),
        ];
        let mut opts = ExploreOptions::quick();
        opts.anneal.iterations = 12;
        opts.anneal.eval_ops_early = 4000;
        opts.anneal.eval_ops_late = 8000;
        opts.reanneal_iterations = 4;
        let serial = {
            let mut o = opts.clone();
            o.jobs = 1;
            Campaign::new(o).explore(&profiles)
        };
        let parallel = {
            let mut o = opts.clone();
            o.jobs = 4;
            Campaign::new(o).explore(&profiles)
        };
        assert_eq!(serial.adoptions, parallel.adoptions);
        for (s, p) in serial.cores.iter().zip(&parallel.cores) {
            assert_eq!(s.point, p.point);
            assert_eq!(s.config, p.config);
            assert!((s.ipt - p.ipt).abs() == 0.0, "IPT must be bit-identical");
        }
        // Counters describe the run shape, not the outcome.
        assert_eq!(serial.stats.workers, 1);
        assert_eq!(parallel.stats.workers, 4);
        let total: u64 = parallel.stats.per_worker_tasks.iter().sum();
        let serial_total: u64 = serial.stats.per_worker_tasks.iter().sum();
        assert_eq!(total, serial_total, "same task count either way");
        let c = parallel.stats.cache;
        assert!(c.hits > 0, "anneal revisits must hit the cache");
    }
}
