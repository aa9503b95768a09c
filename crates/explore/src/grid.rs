//! Exhaustive grid search over a coarse design-space lattice.
//!
//! The paper contrasts two exploration regimes (its Figure 3 and §2.3):
//! exhaustive search, feasible only after the space is cut down, and
//! guided search (simulated annealing) over the full space. This module
//! supplies the exhaustive baseline: a coarse but *complete* lattice of
//! design points. It serves two purposes:
//!
//! * validation — on the lattice itself, annealing restricted to
//!   lattice moves can be compared against the true lattice optimum
//!   (`tests`);
//! * honesty about cost — [`GridSpec::len`] makes the combinatorial
//!   explosion the paper talks about a number you can print.

use crate::anneal::{score_with, AnnealOptions};
use crate::cache::EvalCache;
use crate::parallel::run_parallel;
use crate::point::DesignPoint;
use serde::{Deserialize, Serialize};
use xps_cacti::Technology;
use xps_sim::CoreConfig;
use xps_workload::WorkloadProfile;

/// The lattice: every combination of the listed values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSpec {
    /// Clock periods, ns.
    pub clocks: Vec<f64>,
    /// Widths.
    pub widths: Vec<u32>,
    /// Scheduler depths.
    pub sched_depths: Vec<u32>,
    /// L1 latencies, cycles.
    pub l1_cycles: Vec<u32>,
    /// L2 latencies, cycles.
    pub l2_cycles: Vec<u32>,
}

impl Default for GridSpec {
    /// A deliberately coarse lattice (~200 points) that still spans the
    /// paper's Table 4 ranges.
    fn default() -> GridSpec {
        GridSpec {
            clocks: vec![0.21, 0.28, 0.36, 0.45],
            widths: vec![4, 6, 8],
            sched_depths: vec![1, 2, 3],
            l1_cycles: vec![2, 3, 5],
            l2_cycles: vec![8, 14, 22],
        }
    }
}

impl GridSpec {
    /// Number of lattice points (before unrealizable ones are
    /// discarded).
    pub fn len(&self) -> usize {
        self.clocks.len()
            * self.widths.len()
            * self.sched_depths.len()
            * self.l1_cycles.len()
            * self.l2_cycles.len()
    }

    /// True if any dimension is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize every lattice point (cache-shape preferences and
    /// the LSQ depth stay at the Table 3 defaults; sizes are fitted as
    /// always).
    pub fn points(&self) -> Vec<DesignPoint> {
        let mut out = Vec::with_capacity(self.len());
        for &clock in &self.clocks {
            for &width in &self.widths {
                for &sched in &self.sched_depths {
                    for &l1 in &self.l1_cycles {
                        for &l2 in &self.l2_cycles {
                            let mut p = DesignPoint::initial();
                            p.clock_ns = clock;
                            p.width = width;
                            p.sched_depth = sched;
                            p.l1_cycles = l1;
                            p.l2_cycles = l2;
                            out.push(p);
                        }
                    }
                }
            }
        }
        out
    }
}

/// The outcome of an exhaustive lattice search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridResult {
    /// The best lattice point.
    pub point: DesignPoint,
    /// Its realized configuration.
    pub config: CoreConfig,
    /// Its objective score.
    pub score: f64,
    /// Lattice points evaluated (realizable ones).
    pub evaluated: usize,
    /// Lattice points that failed to realize.
    pub unrealizable: usize,
}

/// Exhaustively evaluate the lattice for one workload and return the
/// best point.
///
/// # Panics
///
/// Panics if the grid is empty or no lattice point realizes.
pub fn grid_search(
    profile: &WorkloadProfile,
    spec: &GridSpec,
    opts: &AnnealOptions,
    tech: &Technology,
) -> GridResult {
    grid_search_with(profile, spec, opts, tech, 1, None)
}

/// [`grid_search`] fanned out over `jobs` workers (0 = available
/// parallelism), optionally memoizing evaluations in `cache` so a grid
/// baseline shared across workloads or repeated after exploration never
/// re-simulates a lattice point.
///
/// Lattice points are evaluated in parallel but merged in lattice
/// order with the serial tie-break (first of equals wins), so the
/// result is identical for every worker count.
///
/// # Panics
///
/// Panics if the grid is empty or no lattice point realizes.
pub fn grid_search_with(
    profile: &WorkloadProfile,
    spec: &GridSpec,
    opts: &AnnealOptions,
    tech: &Technology,
    jobs: usize,
    cache: Option<&EvalCache>,
) -> GridResult {
    assert!(!spec.is_empty(), "grid must have at least one point");
    let points = spec.points();
    let fan = run_parallel(jobs, points.len(), |i| {
        points[i].realize(tech, &profile.name).map(|cfg| {
            let s = score_with(
                profile,
                &cfg,
                opts.eval_ops_late,
                opts.objective,
                tech,
                cache,
            );
            (cfg, s)
        })
    });
    let mut best: Option<(DesignPoint, CoreConfig, f64)> = None;
    let mut evaluated = 0;
    let mut unrealizable = 0;
    for (p, outcome) in points.into_iter().zip(fan.results) {
        match outcome {
            Some((cfg, s)) => {
                evaluated += 1;
                if best.as_ref().map(|(_, _, bs)| s > *bs).unwrap_or(true) {
                    best = Some((p, cfg, s));
                }
            }
            None => unrealizable += 1,
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "the lattice includes the validated Table 3 start, which always realizes"
    )]
    let (point, config, score) = best.expect("at least one lattice point must realize");
    GridResult {
        point,
        config,
        score,
        evaluated,
        unrealizable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anneal::anneal;
    use xps_workload::spec;

    fn tiny_grid() -> GridSpec {
        GridSpec {
            clocks: vec![0.28, 0.40],
            widths: vec![4, 8],
            sched_depths: vec![1, 2],
            l1_cycles: vec![3],
            l2_cycles: vec![10],
        }
    }

    #[test]
    fn grid_enumerates_fully() {
        let g = tiny_grid();
        assert_eq!(g.len(), 8);
        assert_eq!(g.points().len(), 8);
        assert!(!g.is_empty());
    }

    #[test]
    fn grid_search_finds_a_realizable_optimum() {
        let tech = Technology::default();
        let p = spec::profile("gzip").expect("gzip exists");
        let mut opts = AnnealOptions::quick();
        opts.eval_ops_late = 20_000;
        let r = grid_search(&p, &tiny_grid(), &opts, &tech);
        assert!(r.score > 0.0);
        assert_eq!(r.evaluated + r.unrealizable, 8);
        r.config.validate().expect("grid optimum is valid");
    }

    #[test]
    fn annealing_approaches_the_coarse_grid_optimum() {
        // On the full continuous space the annealer should not be far
        // below the optimum of a coarse lattice it contains.
        let tech = Technology::default();
        let p = spec::profile("gap").expect("gap exists");
        let mut opts = AnnealOptions::quick();
        opts.iterations = 120;
        opts.eval_ops_late = 20_000;
        opts.eval_ops_early = 10_000;
        let grid = grid_search(&p, &GridSpec::default(), &opts, &tech);
        let annealed = anneal(&p, &DesignPoint::initial(), &opts, &tech);
        assert!(
            annealed.ipt > grid.score * 0.9,
            "annealing ({}) must come close to the lattice optimum ({})",
            annealed.ipt,
            grid.score
        );
    }

    #[test]
    fn parallel_grid_matches_serial_and_caches() {
        let tech = Technology::default();
        let p = spec::profile("mcf").expect("mcf exists");
        let mut opts = AnnealOptions::quick();
        opts.eval_ops_late = 10_000;
        let serial = grid_search(&p, &tiny_grid(), &opts, &tech);
        let cache = EvalCache::new();
        let par = grid_search_with(&p, &tiny_grid(), &opts, &tech, 4, Some(&cache));
        assert_eq!(serial.point, par.point);
        assert_eq!(serial.config, par.config);
        assert!((serial.score - par.score).abs() == 0.0);
        // A second sweep over the same lattice is served entirely from
        // the cache.
        let misses = cache.counters().misses;
        let again = grid_search_with(&p, &tiny_grid(), &opts, &tech, 2, Some(&cache));
        assert_eq!(again.point, serial.point);
        assert_eq!(cache.counters().misses, misses);
        assert!(cache.counters().hits >= misses);
    }

    #[test]
    #[should_panic(expected = "grid must have")]
    fn empty_grid_panics() {
        let tech = Technology::default();
        let p = spec::profile("gzip").expect("gzip exists");
        let g = GridSpec {
            clocks: vec![],
            ..GridSpec::default()
        };
        grid_search(&p, &g, &AnnealOptions::quick(), &tech);
    }
}
