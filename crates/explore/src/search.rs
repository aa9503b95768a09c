//! The explorer portfolio: seeded, budgeted search strategies over
//! the design space, comparable head-to-head at equal cost.
//!
//! The paper finds each workload's configurational characteristics
//! with simulated annealing (§3) and never asks whether a different
//! search would find better configurations for the same simulation
//! budget. This module makes that question askable: an [`Explorer`]
//! is any strategy that consumes design-point evaluations from an
//! [`EvalBudget`] — the *only* way it may pay for information — and
//! the portfolio ships three of them:
//!
//! * [`AnnealExplorer`] — the paper's walk (same move kernel, accept
//!   rule, and rollback discipline as [`crate::anneal`]), re-expressed
//!   against the budget seam;
//! * [`GeneticExplorer`] — tournament selection, field-wise
//!   crossover, and move-kernel mutation over a population seeded
//!   from the Table 3 start, the corner points, and the coarse
//!   lattice ([`crate::GridSpec`]);
//! * [`SurrogateExplorer`] — a ridge-regression IPT predictor
//!   trained on the run's own accumulated `(design point → IPT)`
//!   pairs, used to rank move-kernel candidates so only the most
//!   promising ones pay for simulation.
//!
//! ## The contract
//!
//! An explorer is given a seeded RNG, a start point, and a budget; it
//! must draw randomness only from that RNG and measurements only from
//! [`EvalBudget::probe`], and it must keep probing until the budget
//! answers [`Probe::Exhausted`]. Under that contract a search is a
//! pure function of `(profile, technology, options, explorer name)`:
//! byte-identical across reruns, `--jobs` values, and fleet worker
//! counts, and safe to journal and resume. Unrealizable proposals
//! cost nothing (the paper rejects them before simulating, §3); every
//! measured probe costs exactly one evaluation, cache hit or not, so
//! no strategy can stretch its budget by revisiting old points.
//!
//! The budget seam also records everything the bake-off reports need:
//! the best-so-far curve (evals-to-best), and every measured point's
//! `(IPT, energy-per-instruction)` coordinates for Pareto-front
//! extraction ([`xps_communal::pareto_front`]).

use crate::anneal::propose;
use crate::cache::EvalCache;
use crate::error::ExploreError;
use crate::grid::GridSpec;
use crate::journal::fnv64;
use crate::point::DesignPoint;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use xps_cacti::Technology;
use xps_communal::{pareto_front, ParetoPoint};
use xps_sim::{estimate_energy, CoreConfig};
use xps_workload::WorkloadProfile;

/// Options of one budgeted search run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchOptions {
    /// Total number of measured design-point evaluations the explorer
    /// may spend. Unrealizable proposals are free; everything else —
    /// including re-visits served by the cache — costs one.
    pub budget: u64,
    /// Trace length (ops) of every evaluation. One fixed length keeps
    /// the bake-off's budget unit honest: every explorer's evaluation
    /// simulates the same number of ops.
    pub eval_ops: u64,
    /// RNG seed; mixed with the workload seed and the explorer name
    /// so every (workload, explorer) pair walks an independent but
    /// reproducible stream.
    pub seed: u64,
}

impl Default for SearchOptions {
    fn default() -> SearchOptions {
        SearchOptions {
            budget: 400,
            eval_ops: 60_000,
            seed: 0x5EED,
        }
    }
}

impl SearchOptions {
    /// A much cheaper setting for tests and smoke runs.
    pub fn quick() -> SearchOptions {
        SearchOptions {
            budget: 60,
            eval_ops: 12_000,
            ..SearchOptions::default()
        }
    }

    /// Check every invariant the search driver relies on.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::InvalidOptions`] naming the first
    /// violated invariant.
    pub fn validate(&self) -> Result<(), ExploreError> {
        if self.budget == 0 {
            return Err(ExploreError::InvalidOptions(
                "search budget must be >= 1 evaluation".into(),
            ));
        }
        if self.eval_ops == 0 {
            return Err(ExploreError::InvalidOptions(
                "eval_ops must be >= 1 op".into(),
            ));
        }
        Ok(())
    }
}

/// The answer to one [`EvalBudget::probe`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Probe {
    /// The point realized and was measured: its IPT, at the run's
    /// fixed trace length. One evaluation was spent.
    Measured(f64),
    /// The point failed to realize (nothing fits); no evaluation was
    /// spent. The move is rejected, as in the paper's loop.
    Unrealizable,
    /// The budget is spent. The explorer must stop; no measurement
    /// was taken.
    Exhausted,
}

/// One point of the evals-to-best convergence curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Evaluations spent when this best was established (1-based).
    pub evals: u64,
    /// The best IPT known after that many evaluations.
    pub ipt: f64,
}

/// The metered evaluation seam: the only way an [`Explorer`] may
/// measure a design point. Counts every measured probe against the
/// budget, tracks the incumbent best, the convergence curve, the
/// two-objective coordinates of every measured point, and the
/// `(point, IPT)` training pairs the surrogate learns from.
#[derive(Debug)]
pub struct EvalBudget<'a> {
    profile: &'a WorkloadProfile,
    tech: &'a Technology,
    cache: &'a EvalCache,
    eval_ops: u64,
    budget: u64,
    spent: u64,
    unrealizable: u64,
    best: Option<(DesignPoint, CoreConfig, f64)>,
    curve: Vec<CurvePoint>,
    evaluated: Vec<ParetoPoint>,
    pairs: Vec<(DesignPoint, f64)>,
}

impl<'a> EvalBudget<'a> {
    fn new(
        profile: &'a WorkloadProfile,
        tech: &'a Technology,
        cache: &'a EvalCache,
        opts: &SearchOptions,
    ) -> EvalBudget<'a> {
        EvalBudget {
            profile,
            tech,
            cache,
            eval_ops: opts.eval_ops,
            budget: opts.budget,
            spent: 0,
            unrealizable: 0,
            best: None,
            curve: Vec::new(),
            evaluated: Vec::new(),
            pairs: Vec::new(),
        }
    }

    /// Measure one design point, spending one evaluation if (and only
    /// if) it realizes and the budget is not exhausted.
    pub fn probe(&mut self, point: &DesignPoint) -> Probe {
        if self.spent >= self.budget {
            return Probe::Exhausted;
        }
        let Some(cfg) = point.realize(self.tech, &self.profile.name) else {
            self.unrealizable += 1;
            return Probe::Unrealizable;
        };
        let stats = self.cache.stats(self.profile, &cfg, self.eval_ops);
        let ipt = stats.ipt();
        self.spent += 1;
        // The cost axis of the two-objective figure of merit: the
        // CACTI-derived energy proxy per committed instruction, nJ.
        let cost = estimate_energy(self.tech, &cfg, &stats).total_nj()
            / (stats.instructions.max(1) as f64);
        self.evaluated.push(ParetoPoint { ipt, cost });
        self.pairs.push((point.clone(), ipt));
        if self.best.as_ref().map(|(_, _, b)| ipt > *b).unwrap_or(true) {
            self.best = Some((point.clone(), cfg, ipt));
            self.curve.push(CurvePoint {
                evals: self.spent,
                ipt,
            });
        }
        Probe::Measured(ipt)
    }

    /// Evaluations spent so far.
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Evaluations remaining.
    pub fn remaining(&self) -> u64 {
        self.budget - self.spent
    }

    /// True once the whole budget is spent.
    pub fn exhausted(&self) -> bool {
        self.spent >= self.budget
    }

    /// Proposals rejected as unrealizable (free).
    pub fn unrealizable(&self) -> u64 {
        self.unrealizable
    }

    /// The incumbent best point, if anything measured yet.
    pub fn best_point(&self) -> Option<&DesignPoint> {
        self.best.as_ref().map(|(p, _, _)| p)
    }

    /// The incumbent best IPT, if anything measured yet.
    pub fn best_ipt(&self) -> Option<f64> {
        self.best.as_ref().map(|(_, _, i)| *i)
    }

    /// Every `(design point, IPT)` measurement of this run, in probe
    /// order — the surrogate's training set.
    pub fn pairs(&self) -> &[(DesignPoint, f64)] {
        &self.pairs
    }
}

/// A budgeted, seeded search strategy.
///
/// Implementations must draw randomness only from the supplied RNG
/// and measurements only from the budget, and must keep probing until
/// [`Probe::Exhausted`] — the bake-off's equal-budget comparison is
/// meaningless for a strategy that stops early. Under this contract
/// [`search`] is deterministic for fixed inputs, which is what makes
/// bake-off reports byte-identical across jobs, reruns, and fleet
/// worker counts.
pub trait Explorer: Send + Sync + std::fmt::Debug {
    /// The strategy's registry name (`"anneal"`, `"genetic"`, …).
    fn name(&self) -> &'static str;

    /// Search from `start` (already measured as the budget's
    /// incumbent) until the budget is exhausted.
    fn run(&self, rng: &mut SmallRng, budget: &mut EvalBudget<'_>, start: &DesignPoint);
}

/// Consecutive unrealizable proposals after which a strategy abandons
/// a stuck neighbourhood walk. With the shared move kernel this is
/// essentially unreachable (every realizable point has realizable
/// neighbours), but it bounds the loop deterministically.
const STUCK_LIMIT: u32 = 10_000;

/// The paper's annealing walk, driven by the budget seam: same move
/// kernel, accept rule, rollback-to-best discipline, and geometric
/// cooling as [`crate::anneal`], but iterating until the evaluation
/// budget is spent instead of for a fixed iteration count.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnnealExplorer;

impl Explorer for AnnealExplorer {
    fn name(&self) -> &'static str {
        "anneal"
    }

    fn run(&self, rng: &mut SmallRng, budget: &mut EvalBudget<'_>, start: &DesignPoint) {
        let mut cur = start.clone();
        #[expect(
            clippy::expect_used,
            reason = "the driver measures the start before any strategy runs, so an incumbent always exists"
        )]
        let mut cur_ipt = budget.best_ipt().expect("driver measured the start");
        let mut temp: f64 = 0.10;
        let cooling = 0.985;
        let rollback_fraction = 0.5;
        let mut stuck = 0u32;
        loop {
            let cand = propose(rng, &cur);
            match budget.probe(&cand) {
                Probe::Exhausted => return,
                Probe::Unrealizable => {
                    stuck += 1;
                    if stuck >= STUCK_LIMIT {
                        return;
                    }
                }
                Probe::Measured(ipt) => {
                    stuck = 0;
                    let accept = ipt > cur_ipt || {
                        let delta = ipt - cur_ipt;
                        rng.gen::<f64>() < (delta / temp.max(1e-6)).exp()
                    };
                    if accept {
                        cur = cand;
                        cur_ipt = ipt;
                    }
                    #[expect(
                        clippy::expect_used,
                        reason = "at least the start has been measured, so a best exists"
                    )]
                    let best_ipt = budget.best_ipt().expect("something measured");
                    #[expect(clippy::expect_used, reason = "a best IPT implies a best point")]
                    if cur_ipt < rollback_fraction * best_ipt {
                        cur = budget.best_point().expect("a best exists").clone();
                        cur_ipt = best_ipt;
                    }
                }
            }
            temp *= cooling;
        }
    }
}

/// Field-wise recombination of two design points: each knob is taken
/// from one parent or the other by a fair coin. Both parents inside
/// the move-kernel domain ([`DesignPoint::validate`]) implies the
/// child is too — every field value is one of the parents'.
///
/// Exposed (with [`mutate`]) so the operator proptests can pin the
/// domain-closure invariant down directly.
pub fn crossover(rng: &mut SmallRng, a: &DesignPoint, b: &DesignPoint) -> DesignPoint {
    let pick = |rng: &mut SmallRng, x: u32, y: u32| if rng.gen::<bool>() { x } else { y };
    let clock_ns = if rng.gen::<bool>() {
        a.clock_ns
    } else {
        b.clock_ns
    };
    DesignPoint {
        clock_ns,
        width: pick(rng, a.width, b.width),
        sched_depth: pick(rng, a.sched_depth, b.sched_depth),
        wakeup_slack: pick(rng, a.wakeup_slack, b.wakeup_slack),
        lsq_depth: pick(rng, a.lsq_depth, b.lsq_depth),
        l1_cycles: pick(rng, a.l1_cycles, b.l1_cycles),
        l2_cycles: pick(rng, a.l2_cycles, b.l2_cycles),
        l1_assoc: pick(rng, a.l1_assoc, b.l1_assoc),
        l1_block: pick(rng, a.l1_block, b.l1_block),
        l2_assoc: pick(rng, a.l2_assoc, b.l2_assoc),
        l2_block: pick(rng, a.l2_block, b.l2_block),
    }
}

/// The GA's mutation operator: one application of the shared move
/// kernel. Closed over the move-kernel domain — a valid input yields
/// a valid output ([`DesignPoint::validate`]).
pub fn mutate(rng: &mut SmallRng, p: &DesignPoint) -> DesignPoint {
    propose(rng, p)
}

/// Genetic search over configurations: a population seeded from the
/// start, the corner points, and random coarse-lattice points;
/// 3-way tournament selection; field-wise [`crossover`]; move-kernel
/// [`mutate`]; and single-individual elitism (the incumbent best is
/// carried into every generation with its recorded fitness, so it is
/// never lost and never re-billed).
#[derive(Debug, Clone, Copy, Default)]
pub struct GeneticExplorer;

/// GA population size.
const POPULATION: usize = 10;
/// GA tournament size.
const TOURNAMENT: usize = 3;

fn tournament<'p>(rng: &mut SmallRng, pop: &'p [(DesignPoint, f64)]) -> &'p (DesignPoint, f64) {
    let mut best = &pop[rng.gen_range(0..pop.len())];
    for _ in 1..TOURNAMENT {
        let cand = &pop[rng.gen_range(0..pop.len())];
        if cand.1 > best.1 {
            best = cand;
        }
    }
    best
}

impl Explorer for GeneticExplorer {
    fn name(&self) -> &'static str {
        "genetic"
    }

    fn run(&self, rng: &mut SmallRng, budget: &mut EvalBudget<'_>, start: &DesignPoint) {
        let lattice = GridSpec::default().points();
        #[expect(
            clippy::expect_used,
            reason = "the driver measures the start before any strategy runs"
        )]
        let start_ipt = budget.best_ipt().expect("driver measured the start");
        let mut pop: Vec<(DesignPoint, f64)> = vec![(start.clone(), start_ipt)];
        let mut seeds = vec![DesignPoint::fast_corner(), DesignPoint::big_corner()];
        while pop.len() + seeds.len() < POPULATION {
            seeds.push(lattice[rng.gen_range(0..lattice.len())].clone());
        }
        for p in seeds {
            match budget.probe(&p) {
                Probe::Exhausted => return,
                Probe::Unrealizable => pop.push((p, f64::NEG_INFINITY)),
                Probe::Measured(ipt) => pop.push((p, ipt)),
            }
        }
        loop {
            // Elitism: clone the generation's best (first of ties)
            // into the next generation without re-probing it.
            #[expect(clippy::expect_used, reason = "the population is never empty")]
            let elite = pop
                .iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("population is non-empty")
                .clone();
            let mut next = vec![elite];
            while next.len() < POPULATION {
                let pa = tournament(rng, &pop).0.clone();
                let pb = tournament(rng, &pop).0.clone();
                let mut child = crossover(rng, &pa, &pb);
                if rng.gen::<f64>() < 0.9 {
                    child = mutate(rng, &child);
                }
                if rng.gen::<f64>() < 0.3 {
                    child = mutate(rng, &child);
                }
                match budget.probe(&child) {
                    Probe::Exhausted => return,
                    Probe::Unrealizable => next.push((child, f64::NEG_INFINITY)),
                    Probe::Measured(ipt) => next.push((child, ipt)),
                }
            }
            pop = next;
        }
    }
}

/// Surrogate-guided search: once enough `(point, IPT)` pairs have
/// accumulated, fit a ridge-regression IPT predictor over the knob
/// features, generate a batch of move-kernel candidates around the
/// incumbent, and pay for simulation only on the highest-predicted
/// few. Before the model has data (or if the normal equations turn
/// singular) it degrades to plain neighbourhood probing.
#[derive(Debug, Clone, Copy, Default)]
pub struct SurrogateExplorer;

/// Measurements required before the first model fit.
const BOOTSTRAP: usize = 10;
/// Candidates generated per surrogate round.
const CANDIDATES: usize = 16;
/// Candidates actually simulated per round (the top-predicted).
const PROBES_PER_ROUND: usize = 4;
/// Ridge regularizer.
const LAMBDA: f64 = 1e-3;
/// Feature-vector width: bias + 7 raw knobs + 4 log2 organization
/// preferences.
const FEATURES: usize = 12;

/// The surrogate's feature map. Associativities and block sizes are
/// log2-scaled so their geometric candidate ladders become linear
/// axes; everything else enters raw. Documented in DESIGN.md — keep
/// in sync.
fn features(p: &DesignPoint) -> [f64; FEATURES] {
    [
        1.0,
        p.clock_ns,
        f64::from(p.width),
        f64::from(p.sched_depth),
        f64::from(p.wakeup_slack),
        f64::from(p.lsq_depth),
        f64::from(p.l1_cycles),
        f64::from(p.l2_cycles),
        f64::from(p.l1_assoc).log2(),
        f64::from(p.l1_block).log2(),
        f64::from(p.l2_assoc).log2(),
        f64::from(p.l2_block).log2(),
    ]
}

/// Fit ridge weights by the normal equations, solved with Gaussian
/// elimination under partial pivoting. Returns `None` when the system
/// is numerically singular (e.g. every observation is one point).
fn fit_ridge(pairs: &[(DesignPoint, f64)]) -> Option<[f64; FEATURES]> {
    let mut a = [[0.0f64; FEATURES]; FEATURES];
    let mut b = [0.0f64; FEATURES];
    for (p, y) in pairs {
        let x = features(p);
        for i in 0..FEATURES {
            for j in 0..FEATURES {
                a[i][j] += x[i] * x[j];
            }
            b[i] += x[i] * y;
        }
    }
    for (i, row) in a.iter_mut().enumerate() {
        row[i] += LAMBDA;
    }
    // Gaussian elimination with partial pivoting.
    for col in 0..FEATURES {
        let pivot = (col..FEATURES)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .unwrap_or(col);
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..FEATURES {
            let f = a[row][col] / a[col][col];
            #[allow(
                clippy::needless_range_loop,
                reason = "row `row` is updated from row `col` of the same matrix; an iterator would borrow `a` twice"
            )]
            for k in col..FEATURES {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    let mut w = [0.0f64; FEATURES];
    for col in (0..FEATURES).rev() {
        let mut acc = b[col];
        for k in col + 1..FEATURES {
            acc -= a[col][k] * w[k];
        }
        w[col] = acc / a[col][col];
    }
    if w.iter().all(|v| v.is_finite()) {
        Some(w)
    } else {
        None
    }
}

fn predict(w: &[f64; FEATURES], p: &DesignPoint) -> f64 {
    let x = features(p);
    x.iter().zip(w).map(|(xi, wi)| xi * wi).sum()
}

impl Explorer for SurrogateExplorer {
    fn name(&self) -> &'static str {
        "surrogate"
    }

    fn run(&self, rng: &mut SmallRng, budget: &mut EvalBudget<'_>, _start: &DesignPoint) {
        let mut stuck = 0u32;
        loop {
            if budget.exhausted() {
                return;
            }
            #[expect(
                clippy::expect_used,
                reason = "the driver measures the start before any strategy runs"
            )]
            let incumbent = budget
                .best_point()
                .expect("driver measured the start")
                .clone();
            if budget.pairs().len() < BOOTSTRAP {
                // Bootstrap: plain neighbourhood probing until the
                // model has something to learn from.
                let cand = propose(rng, &incumbent);
                match budget.probe(&cand) {
                    Probe::Exhausted => return,
                    Probe::Unrealizable => {
                        stuck += 1;
                        if stuck >= STUCK_LIMIT {
                            return;
                        }
                    }
                    Probe::Measured(_) => stuck = 0,
                }
                continue;
            }
            let model = fit_ridge(budget.pairs());
            // A candidate batch around the incumbent: chains of 1–3
            // kernel moves so the batch spans near and mid-range
            // neighbourhoods.
            let cands: Vec<DesignPoint> = (0..CANDIDATES)
                .map(|i| {
                    let mut q = propose(rng, &incumbent);
                    for _ in 0..(i % 3) {
                        q = propose(rng, &q);
                    }
                    q
                })
                .collect();
            let mut order: Vec<usize> = (0..cands.len()).collect();
            if let Some(w) = &model {
                // Rank by predicted IPT, descending; ties keep
                // generation order so ranking is total and stable.
                order.sort_by(|&i, &j| {
                    predict(w, &cands[j])
                        .total_cmp(&predict(w, &cands[i]))
                        .then_with(|| i.cmp(&j))
                });
            }
            let mut measured_this_round = false;
            for &idx in order.iter().take(PROBES_PER_ROUND) {
                match budget.probe(&cands[idx]) {
                    Probe::Exhausted => return,
                    Probe::Unrealizable => {}
                    Probe::Measured(_) => measured_this_round = true,
                }
            }
            if measured_this_round {
                stuck = 0;
            } else {
                stuck += PROBES_PER_ROUND as u32;
                if stuck >= STUCK_LIMIT {
                    return;
                }
            }
        }
    }
}

/// Registry names of the portfolio, in bake-off order.
pub const EXPLORER_NAMES: [&str; 3] = ["anneal", "genetic", "surrogate"];

/// Look an explorer up by its registry name.
pub fn explorer_by_name(name: &str) -> Option<Box<dyn Explorer>> {
    match name {
        "anneal" => Some(Box::new(AnnealExplorer)),
        "genetic" => Some(Box::new(GeneticExplorer)),
        "surrogate" => Some(Box::new(SurrogateExplorer)),
        _ => None,
    }
}

/// The outcome of one budgeted search: one explorer, one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// The explorer's registry name.
    pub explorer: String,
    /// The workload's name.
    pub workload: String,
    /// The best design point found.
    pub point: DesignPoint,
    /// Its realized configuration.
    pub config: CoreConfig,
    /// Its IPT at the run's fixed trace length.
    pub ipt: f64,
    /// Measured evaluations spent (equals the budget unless the
    /// strategy aborted a provably stuck walk).
    pub evals: u64,
    /// Proposals rejected as unrealizable (free).
    pub unrealizable: u64,
    /// The evals-to-best convergence curve.
    pub curve: Vec<CurvePoint>,
    /// The non-dominated (IPT, energy-per-instruction) front over
    /// every measured point of this run.
    pub front: Vec<ParetoPoint>,
}

/// Run one explorer against one workload under a budget.
///
/// The Table 3 start is measured first (relaxing its clock if it does
/// not realize under `tech`, exactly as the annealing campaign does),
/// so every strategy begins from the same incumbent and the budget
/// unit is identical across the portfolio. Deterministic for fixed
/// `(profile, tech, opts, explorer name)`; the shared cache
/// accelerates repeated runs without changing any byte of the result.
///
/// # Errors
///
/// Returns [`ExploreError::InvalidOptions`] when the options violate
/// an invariant.
///
/// # Panics
///
/// Panics if no design realizes under `tech` even at the slowest
/// admissible clock — the same impossibility the annealing campaign
/// asserts on.
pub fn search(
    explorer: &dyn Explorer,
    profile: &WorkloadProfile,
    tech: &Technology,
    opts: &SearchOptions,
    cache: &EvalCache,
) -> Result<SearchOutcome, ExploreError> {
    opts.validate()?;
    let span = xps_trace::span("search.run");
    let mut start = DesignPoint::initial();
    while start.realize(tech, &profile.name).is_none() {
        assert!(
            start.clock_ns < 2.0,
            "no realizable design even at a {} ns clock",
            start.clock_ns
        );
        start.clock_ns *= 1.25;
    }
    let mut budget = EvalBudget::new(profile, tech, cache, opts);
    match budget.probe(&start) {
        Probe::Measured(_) => {}
        other => unreachable!("start probe cannot fail: {other:?}"),
    }
    let mut rng =
        SmallRng::seed_from_u64(opts.seed ^ profile.seed ^ fnv64(0, explorer.name().as_bytes()));
    explorer.run(&mut rng, &mut budget, &start);
    let EvalBudget {
        spent,
        unrealizable,
        best,
        curve,
        evaluated,
        ..
    } = budget;
    #[expect(
        clippy::expect_used,
        reason = "the start probe above guarantees at least one measurement"
    )]
    let (point, config, ipt) = best.expect("the start was measured");
    span.end_with(|| {
        xps_trace::attrs([
            ("explorer", explorer.name().into()),
            ("workload", profile.name.as_str().into()),
            ("evals", spent.into()),
            ("unrealizable", unrealizable.into()),
        ])
    });
    Ok(SearchOutcome {
        explorer: explorer.name().to_string(),
        workload: profile.name.clone(),
        point,
        config,
        ipt,
        evals: spent,
        unrealizable,
        curve,
        front: pareto_front(&evaluated),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xps_workload::spec;

    fn gzip() -> WorkloadProfile {
        spec::profile("gzip").expect("gzip exists")
    }

    fn tiny() -> SearchOptions {
        SearchOptions {
            budget: 25,
            eval_ops: 4_000,
            seed: 7,
        }
    }

    #[test]
    fn every_explorer_spends_exactly_the_budget() {
        let tech = Technology::default();
        for name in EXPLORER_NAMES {
            let e = explorer_by_name(name).expect("registered");
            let cache = EvalCache::new();
            let r = search(&*e, &gzip(), &tech, &tiny(), &cache).expect("searches");
            assert_eq!(r.evals, tiny().budget, "{name} must exhaust its budget");
            let c = cache.counters();
            assert!(
                c.hits + c.misses >= r.evals,
                "{name}: every spent evaluation passes the cache seam"
            );
            assert!(
                c.misses <= r.evals,
                "{name} simulated more than it was billed for"
            );
        }
    }

    #[test]
    fn outcome_shape_is_coherent() {
        let tech = Technology::default();
        let r = search(&AnnealExplorer, &gzip(), &tech, &tiny(), &cacheless()).expect("searches");
        assert_eq!(r.explorer, "anneal");
        assert_eq!(r.workload, "gzip");
        assert!(r.ipt > 0.0);
        assert!(!r.curve.is_empty());
        assert_eq!(r.curve[0].evals, 1, "the start is evaluation #1");
        assert!(r.curve.windows(2).all(|w| w[0].ipt < w[1].ipt));
        assert!(r.curve.windows(2).all(|w| w[0].evals < w[1].evals));
        assert!(!r.front.is_empty());
        let best_front = r.front.iter().map(|p| p.ipt).fold(f64::MIN, f64::max);
        assert!(
            (best_front - r.ipt).abs() < 1e-12,
            "the best IPT is on the front"
        );
        r.config.validate().expect("best config is valid");
    }

    fn cacheless() -> EvalCache {
        EvalCache::new()
    }

    #[test]
    fn same_seed_same_bytes_and_shared_cache_is_invisible() {
        let tech = Technology::default();
        for name in EXPLORER_NAMES {
            let e = explorer_by_name(name).expect("registered");
            let a = search(&*e, &gzip(), &tech, &tiny(), &EvalCache::new()).expect("searches");
            // Second run against a cache pre-warmed by an unrelated
            // explorer: bytes must not change.
            let warm = EvalCache::new();
            let _ = search(
                &*explorer_by_name("genetic").expect("registered"),
                &gzip(),
                &tech,
                &tiny(),
                &warm,
            );
            let b = search(&*e, &gzip(), &tech, &tiny(), &warm).expect("searches");
            let ja = serde_json::to_string(&a).expect("serializes");
            let jb = serde_json::to_string(&b).expect("serializes");
            assert_eq!(ja, jb, "{name} must be byte-stable");
        }
    }

    #[test]
    fn unknown_explorer_is_none() {
        assert!(explorer_by_name("bogus").is_none());
        for name in EXPLORER_NAMES {
            assert_eq!(explorer_by_name(name).expect("registered").name(), name);
        }
    }

    #[test]
    fn invalid_options_are_typed_errors() {
        let mut o = tiny();
        o.budget = 0;
        assert!(o.validate().is_err());
        let mut o = tiny();
        o.eval_ops = 0;
        assert!(o.validate().is_err());
        assert!(SearchOptions::quick().validate().is_ok());
        assert!(SearchOptions::default().validate().is_ok());
    }

    #[test]
    fn ridge_recovers_a_linear_signal() {
        // y depends linearly on width: the model must rank a wider
        // point above a narrower one.
        let mut pairs = Vec::new();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..40 {
            let p = propose(&mut rng, &DesignPoint::initial());
            let y = 0.5 + 0.3 * f64::from(p.width);
            pairs.push((p, y));
        }
        let w = fit_ridge(&pairs).expect("well-conditioned");
        let mut narrow = DesignPoint::initial();
        narrow.width = 1;
        let mut wide = DesignPoint::initial();
        wide.width = 8;
        assert!(predict(&w, &wide) > predict(&w, &narrow));
    }

    #[test]
    fn ridge_regularizer_keeps_rank_one_data_solvable() {
        // Five observations of one single point: without the ridge
        // term the normal equations would be singular; with it the
        // fit succeeds and reproduces the observed value at the
        // observed point.
        let pairs = vec![(DesignPoint::initial(), 1.0); 5];
        let w = fit_ridge(&pairs).expect("ridge term keeps the system regular");
        let pred = predict(&w, &DesignPoint::initial());
        assert!((pred - 1.0).abs() < 0.05, "prediction {pred} far from 1.0");
    }
}
