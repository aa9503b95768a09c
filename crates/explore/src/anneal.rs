//! Simulated annealing over the design space for one workload.

use crate::cache::EvalCache;
use crate::point::DesignPoint;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use xps_cacti::Technology;
use xps_sim::{energy_delay_product, CoreConfig, SimStats};
use xps_workload::WorkloadProfile;

/// What the annealer maximizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Objective {
    /// Instructions per nanosecond — the paper's objective.
    Ipt,
    /// The reciprocal of the energy-delay product: the power-aware
    /// extension the paper's §3 leaves open. Scores are comparable
    /// only within a run (the annealer just needs an ordering).
    InverseEnergyDelay,
}

/// Tuning knobs of one annealing run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnnealOptions {
    /// Number of annealing iterations (accepted or not).
    pub iterations: u32,
    /// Trace length (ops) for evaluations in the early phase — the
    /// paper's "first 10 million instructions" stage, scaled.
    pub eval_ops_early: u64,
    /// Trace length for the late phase and the final measurement — the
    /// paper's 100 M SimPoint stage, scaled.
    pub eval_ops_late: u64,
    /// Fraction of iterations that run in the early (short-trace)
    /// phase.
    pub early_fraction: f64,
    /// Initial acceptance temperature, in IPT units.
    pub temperature: f64,
    /// Multiplicative cooling factor per iteration.
    pub cooling: f64,
    /// Roll back to the best point when current IPT falls below this
    /// fraction of the best (the paper uses one half).
    pub rollback_fraction: f64,
    /// RNG seed; combined with the workload seed so each benchmark's
    /// walk is independent but reproducible.
    pub seed: u64,
    /// The figure of merit being maximized.
    pub objective: Objective,
}

impl Default for AnnealOptions {
    fn default() -> AnnealOptions {
        AnnealOptions {
            iterations: 260,
            eval_ops_early: 60_000,
            eval_ops_late: 400_000,
            early_fraction: 0.7,
            temperature: 0.10,
            cooling: 0.985,
            rollback_fraction: 0.5,
            seed: 0x5EED,
            objective: Objective::Ipt,
        }
    }
}

impl AnnealOptions {
    /// A much cheaper setting for tests and demos.
    pub fn quick() -> AnnealOptions {
        AnnealOptions {
            iterations: 60,
            eval_ops_early: 15_000,
            eval_ops_late: 40_000,
            ..AnnealOptions::default()
        }
    }

    /// Check every invariant the annealing loop relies on, so bad
    /// options fail at construction with one actionable message
    /// instead of panicking (or spinning) deep inside a walk.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::InvalidOptions`] naming the first
    /// violated invariant.
    pub fn validate(&self) -> Result<(), crate::ExploreError> {
        let bad = |msg: String| Err(crate::ExploreError::InvalidOptions(msg));
        if self.iterations == 0 {
            return bad("iterations must be >= 1".into());
        }
        if self.eval_ops_early == 0 || self.eval_ops_late == 0 {
            return bad(format!(
                "evaluation budgets must be >= 1 op (early {}, late {})",
                self.eval_ops_early, self.eval_ops_late
            ));
        }
        if !(0.0..=1.0).contains(&self.early_fraction) {
            return bad(format!(
                "early_fraction {} outside [0, 1]",
                self.early_fraction
            ));
        }
        if !self.temperature.is_finite() || self.temperature <= 0.0 {
            return bad(format!("temperature {} must be positive", self.temperature));
        }
        if !self.cooling.is_finite() || self.cooling <= 0.0 || self.cooling > 1.0 {
            return bad(format!("cooling {} outside (0, 1]", self.cooling));
        }
        if !(0.0..=1.0).contains(&self.rollback_fraction) {
            return bad(format!(
                "rollback_fraction {} outside [0, 1]",
                self.rollback_fraction
            ));
        }
        Ok(())
    }
}

/// Outcome of one annealing run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnnealResult {
    /// The best design point found.
    pub point: DesignPoint,
    /// Its realized configuration.
    pub config: CoreConfig,
    /// Its IPT measured at the late trace length.
    pub ipt: f64,
    /// IPT of the best point after each iteration (for convergence
    /// plots).
    pub history: Vec<f64>,
    /// How many proposed moves failed to realize (nothing fit).
    pub rejected_unrealizable: u32,
}

/// The stats of one evaluation, via the memoization cache when one is
/// supplied. Either way the trace generator is rebuilt from the
/// profile's own seed, so results never depend on annealing state.
fn stats_for(
    profile: &WorkloadProfile,
    cfg: &CoreConfig,
    ops: u64,
    cache: Option<&EvalCache>,
) -> SimStats {
    match cache {
        Some(cache) => cache.stats(profile, cfg, ops),
        None => xps_sim::evaluate(profile, cfg, ops),
    }
}

/// Evaluate a configuration under an explicit objective (higher is
/// better for both variants).
pub fn score(
    profile: &WorkloadProfile,
    cfg: &CoreConfig,
    ops: u64,
    objective: Objective,
    tech: &Technology,
) -> f64 {
    score_with(profile, cfg, ops, objective, tech, None)
}

/// [`score`] with an optional memoization cache. A cache hit returns
/// exactly the stats a fresh simulation would produce, so annealing
/// walks are unchanged by caching.
pub fn score_with(
    profile: &WorkloadProfile,
    cfg: &CoreConfig,
    ops: u64,
    objective: Objective,
    tech: &Technology,
    cache: Option<&EvalCache>,
) -> f64 {
    let stats = stats_for(profile, cfg, ops, cache);
    match objective {
        Objective::Ipt => stats.ipt(),
        Objective::InverseEnergyDelay => 1.0 / energy_delay_product(tech, cfg, &stats),
    }
}

/// Propose a neighbouring design point: either move the clock (all
/// units re-fit on realization), or move one unit's depth /
/// organization preference (that unit re-fits). Shared with the
/// explorer portfolio (`crate::search`): the GA's mutation operator
/// and the surrogate searcher's candidate generator use the same
/// move kernel so the bake-off compares strategies, not move sets.
pub(crate) fn propose(rng: &mut SmallRng, p: &DesignPoint) -> DesignPoint {
    let mut q = p.clone();
    match rng.gen_range(0..10u32) {
        // Clock moves get the largest share, as in the paper's loop.
        0..=2 => {
            let factor = rng.gen_range(0.85..1.18);
            q.clock_ns = (p.clock_ns * factor).clamp(0.08, 1.2);
        }
        3 => {
            q.width = if rng.gen() {
                (p.width + 1).min(8)
            } else {
                (p.width - 1).max(1)
            };
        }
        4 | 5 => {
            q.sched_depth = if rng.gen() {
                (p.sched_depth + 1).min(5)
            } else {
                (p.sched_depth - 1).max(1)
            };
            q.wakeup_slack = rng.gen_range(0..=1);
        }
        6 => {
            q.l1_cycles = if rng.gen() {
                (p.l1_cycles + 1).min(8)
            } else {
                (p.l1_cycles - 1).max(1)
            };
        }
        7 => {
            let step = rng.gen_range(1..=3);
            q.l2_cycles = if rng.gen() {
                (p.l2_cycles + step).min(40)
            } else {
                p.l2_cycles.saturating_sub(step).max(2)
            };
        }
        8 => {
            if rng.gen() {
                q.l1_assoc = DesignPoint::step_assoc(p.l1_assoc, rng.gen());
                q.l1_block = DesignPoint::step_block(p.l1_block, rng.gen());
            } else {
                q.l2_assoc = DesignPoint::step_assoc(p.l2_assoc, rng.gen());
                q.l2_block = DesignPoint::step_block(p.l2_block, rng.gen());
            }
        }
        _ => {
            q.lsq_depth = if rng.gen() {
                (p.lsq_depth + 1).min(4)
            } else {
                (p.lsq_depth - 1).max(1)
            };
        }
    }
    q
}

/// Run simulated annealing for one workload, starting from `start`
/// (use [`DesignPoint::initial`] for the paper's Table 3 start).
///
/// Deterministic for fixed `(profile, start, opts, tech)`.
pub fn anneal(
    profile: &WorkloadProfile,
    start: &DesignPoint,
    opts: &AnnealOptions,
    tech: &Technology,
) -> AnnealResult {
    anneal_with(profile, start, opts, tech, None)
}

/// [`anneal`] with an optional memoization cache shared across runs.
/// Rollback re-evaluations, cross-seeding, and repeated visits to one
/// design then reuse stats instead of re-simulating; because cached
/// stats are bit-identical to fresh ones and the walk RNG is never
/// consulted during evaluation, the result is bit-identical to an
/// uncached run.
pub fn anneal_with(
    profile: &WorkloadProfile,
    start: &DesignPoint,
    opts: &AnnealOptions,
    tech: &Technology,
    cache: Option<&EvalCache>,
) -> AnnealResult {
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ profile.seed);
    let name = profile.name.clone();
    let walk = xps_trace::span("anneal.walk");
    let (mut accepted, mut accepted_worse, mut rejected) = (0u32, 0u32, 0u32);
    let mut rollbacks = 0u32;

    let mut cur = start.clone();
    // A start that does not realize under this technology (e.g. a
    // fast-clock corner on a slow process) is relaxed by slowing its
    // clock until something fits — exploration then proceeds from the
    // nearest feasible point rather than failing.
    let cur_cfg = loop {
        match cur.realize(tech, &name) {
            Some(cfg) => break cfg,
            None => {
                assert!(
                    cur.clock_ns < 2.0,
                    "no realizable design even at a {} ns clock",
                    cur.clock_ns
                );
                cur.clock_ns *= 1.25;
            }
        }
    };
    let early_iters = (f64::from(opts.iterations) * opts.early_fraction) as u32;

    let mut cur_ipt = score_with(
        profile,
        &cur_cfg,
        opts.eval_ops_early,
        opts.objective,
        tech,
        cache,
    );
    let mut best = cur.clone();
    let mut best_cfg = cur_cfg;
    let mut best_ipt = cur_ipt;
    let mut temp = opts.temperature;
    // Grown by push, not sized from `iterations`: the count may come
    // off the network.
    let mut history = Vec::new();
    let mut rejected_unrealizable = 0;

    for it in 0..opts.iterations {
        let ops = if it < early_iters {
            opts.eval_ops_early
        } else {
            opts.eval_ops_late
        };
        let cand = propose(&mut rng, &cur);
        if let Some(cfg) = cand.realize(tech, &name) {
            let ipt = score_with(profile, &cfg, ops, opts.objective, tech, cache);
            let accept = ipt > cur_ipt || {
                let delta = ipt - cur_ipt;
                rng.gen::<f64>() < (delta / temp.max(1e-6)).exp()
            };
            if accept {
                accepted += 1;
                // Lateral (equal-IPT) moves are not "worse": only a
                // strict degradation counts, so at T ≈ 0 this counter
                // is exactly zero.
                if ipt < cur_ipt {
                    accepted_worse += 1;
                }
                cur = cand;
                cur_ipt = ipt;
            } else {
                rejected += 1;
            }
            xps_trace::instant("anneal.move", || {
                xps_trace::attrs([
                    ("it", (it + 1).into()),
                    ("temp", temp.into()),
                    ("accepted", accept.into()),
                ])
            });
            if ipt > best_ipt {
                best = cur.clone();
                best_cfg = cfg;
                best_ipt = ipt;
            }
            // The paper's rule: if the walk degrades to less than half
            // the best seen, roll back to the best solution.
            if cur_ipt < opts.rollback_fraction * best_ipt {
                rollbacks += 1;
                cur = best.clone();
                cur_ipt = best_ipt;
            }
        } else {
            rejected_unrealizable += 1;
            xps_trace::instant("anneal.move", || {
                xps_trace::attrs([
                    ("it", (it + 1).into()),
                    ("temp", temp.into()),
                    ("unrealizable", true.into()),
                ])
            });
        }
        temp *= opts.cooling;
        history.push(best_ipt);
    }

    // Final measurement at the long trace length for a fair Table 5.
    let final_ipt = score_with(
        profile,
        &best_cfg,
        opts.eval_ops_late,
        opts.objective,
        tech,
        cache,
    );
    walk.end_with(|| {
        xps_trace::attrs([
            ("workload", name.as_str().into()),
            ("accepted", accepted.into()),
            ("accepted_worse", accepted_worse.into()),
            ("rejected", rejected.into()),
            ("rollbacks", rollbacks.into()),
            ("unrealizable", rejected_unrealizable.into()),
        ])
    });
    AnnealResult {
        point: best,
        config: best_cfg,
        ipt: final_ipt,
        history,
        rejected_unrealizable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xps_workload::spec;

    #[test]
    fn annealing_improves_over_initial() {
        let tech = Technology::default();
        let p = spec::profile("gzip").expect("gzip exists");
        let opts = AnnealOptions::quick();
        let start = DesignPoint::initial();
        let init_cfg = start.realize(&tech, "init").expect("realizable");
        let init_ipt = score(&p, &init_cfg, opts.eval_ops_late, Objective::Ipt, &tech);
        let result = anneal(&p, &start, &opts, &tech);
        assert!(
            result.ipt >= init_ipt * 0.98,
            "annealing must not end below the start: {} vs {init_ipt}",
            result.ipt
        );
        assert_eq!(result.history.len(), opts.iterations as usize);
    }

    #[test]
    fn history_is_monotone_nondecreasing() {
        let tech = Technology::default();
        let p = spec::profile("twolf").expect("twolf exists");
        let result = anneal(&p, &DesignPoint::initial(), &AnnealOptions::quick(), &tech);
        for w in result.history.windows(2) {
            assert!(w[1] >= w[0], "best-so-far curve never decreases");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let tech = Technology::default();
        let p = spec::profile("gap").expect("gap exists");
        let a = anneal(&p, &DesignPoint::initial(), &AnnealOptions::quick(), &tech);
        let b = anneal(&p, &DesignPoint::initial(), &AnnealOptions::quick(), &tech);
        assert_eq!(a.point, b.point);
        assert!((a.ipt - b.ipt).abs() < 1e-12);
    }

    #[test]
    fn cached_anneal_bit_identical_to_uncached() {
        let tech = Technology::default();
        let p = spec::profile("vpr").expect("vpr exists");
        let opts = AnnealOptions::quick();
        let plain = anneal(&p, &DesignPoint::initial(), &opts, &tech);
        let cache = EvalCache::new();
        let cached = anneal_with(&p, &DesignPoint::initial(), &opts, &tech, Some(&cache));
        assert_eq!(plain.point, cached.point);
        assert_eq!(plain.config, cached.config);
        assert!(
            (plain.ipt - cached.ipt).abs() == 0.0,
            "must be bit-identical"
        );
        assert_eq!(plain.history, cached.history);
        // Re-running against the warm cache hits for every evaluation
        // and still reproduces the identical walk.
        let before = cache.counters();
        let rerun = anneal_with(&p, &DesignPoint::initial(), &opts, &tech, Some(&cache));
        let after = cache.counters();
        assert_eq!(rerun.history, plain.history);
        assert_eq!(after.misses, before.misses, "warm rerun must not simulate");
        assert!(after.hits > before.hits);
    }

    #[test]
    fn edp_objective_prefers_leaner_designs() {
        use xps_sim::{estimate_energy, Simulator};
        use xps_workload::TraceGenerator;
        let tech = Technology::default();
        let p = spec::profile("gzip").expect("gzip exists");
        let mut perf_opts = AnnealOptions::quick();
        perf_opts.iterations = 80;
        let mut edp_opts = perf_opts.clone();
        edp_opts.objective = Objective::InverseEnergyDelay;
        let perf = anneal(&p, &DesignPoint::initial(), &perf_opts, &tech);
        let edp = anneal(&p, &DesignPoint::initial(), &edp_opts, &tech);
        let energy_of = |cfg: &xps_sim::CoreConfig| {
            let stats = Simulator::new(cfg).run(TraceGenerator::new(p.clone()), 30_000);
            estimate_energy(&tech, cfg, &stats).total_nj()
        };
        let e_perf = energy_of(&perf.config);
        let e_edp = energy_of(&edp.config);
        assert!(
            e_edp <= e_perf * 1.05,
            "EDP-optimized design must not burn more energy: {e_edp} vs {e_perf}"
        );
    }

    #[test]
    fn different_seeds_walk_differently() {
        let tech = Technology::default();
        let p = spec::profile("gap").expect("gap exists");
        let mut o1 = AnnealOptions::quick();
        o1.seed = 1;
        let mut o2 = AnnealOptions::quick();
        o2.seed = 2;
        let a = anneal(&p, &DesignPoint::initial(), &o1, &tech);
        let b = anneal(&p, &DesignPoint::initial(), &o2, &tech);
        // Not a hard guarantee, but with 60 iterations the walks
        // essentially always diverge.
        assert!(a.point != b.point || (a.ipt - b.ipt).abs() > 1e-9);
    }
}
