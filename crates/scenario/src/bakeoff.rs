//! The equal-budget explorer bake-off: every portfolio strategy, the
//! same evaluation budget, the 11 SPEC profiles plus seeded scenario
//! panels — which search wins where?
//!
//! Each `(workload, explorer)` pair is one fanned-out task: a
//! budgeted [`search`] whose result is a pure function of `(profile,
//! technology, options, explorer name)`. The fan runs through the
//! caller's [`RunContext`], so the same report is produced by one
//! thread, `--jobs 4`, or a fleet of `xps-serve` workers executing
//! `TaskKind::Search` specs — byte-identically, like every other
//! artifact in this repository.
//!
//! The report scores three things per workload: the best-found IPT
//! per explorer (and the strict-win matrix over the portfolio), the
//! evals-to-best convergence curves, and — the multi-objective
//! extension — each explorer's Pareto front over `(IPT, energy per
//! instruction)` scored by hypervolume against a shared per-workload
//! reference point, so front quality is comparable across explorers.

use crate::error::ScenarioError;
use crate::population::PopulationSpec;
use crate::study::family_prefix;
use serde::Serialize;
use xps_core::cacti::Technology;
use xps_core::communal::{hypervolume, ParetoPoint};
use xps_core::explore::{
    CurvePoint, EvalCache, RunContext, SearchOptions, SearchOutcome, TaskSpec, EXPLORER_NAMES,
};
use xps_core::trace;
use xps_core::workload::{spec, WorkloadProfile};

/// The family label of the real SPEC2000 profiles (generated
/// workloads carry their scenario family prefix instead).
pub const SPEC_FAMILY: &str = "spec";

/// Tuning of one bake-off.
#[derive(Debug, Clone)]
pub struct BakeoffOptions {
    /// The per-search budget and trace length — identical for every
    /// explorer and workload, which is the whole point.
    pub search: SearchOptions,
    /// Worker threads of the fan (0 = available parallelism). The
    /// report is byte-identical for every value.
    pub jobs: usize,
    /// SPEC profile names to include.
    pub spec_workloads: Vec<String>,
    /// Seeded scenario panel to include alongside SPEC, if any.
    pub scenario: Option<PopulationSpec>,
}

impl BakeoffOptions {
    /// Seconds-scale settings: tests and golden snapshots.
    pub fn smoke() -> BakeoffOptions {
        BakeoffOptions {
            search: SearchOptions {
                budget: 14,
                eval_ops: 3_000,
                seed: 0x5EED,
            },
            jobs: 0,
            spec_workloads: vec!["gzip".into(), "mcf".into(), "crafty".into()],
            scenario: Some(PopulationSpec::all_families(4, 11)),
        }
    }

    /// Minutes-scale settings: the default `repro bakeoff` study over
    /// all 11 SPEC profiles plus a seeded panel of every scenario
    /// family.
    pub fn quick() -> BakeoffOptions {
        BakeoffOptions {
            search: SearchOptions::quick(),
            jobs: 0,
            spec_workloads: spec::BENCHMARKS.iter().map(|s| s.to_string()).collect(),
            scenario: Some(PopulationSpec::all_families(6, 11)),
        }
    }

    /// Check every invariant the bake-off relies on.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Spec`] naming the violated invariant.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.search
            .validate()
            .map_err(|e| ScenarioError::Spec(e.to_string()))?;
        if self.spec_workloads.is_empty() && self.scenario.is_none() {
            return Err(ScenarioError::Spec(
                "bake-off needs at least one workload (SPEC or scenario)".into(),
            ));
        }
        for name in &self.spec_workloads {
            if spec::profile(name).is_none() {
                return Err(ScenarioError::Spec(format!(
                    "unknown SPEC workload {name:?}"
                )));
            }
        }
        if let Some(s) = &self.scenario {
            s.validate()?;
        }
        Ok(())
    }
}

/// One explorer's result on one workload.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BakeoffEntry {
    /// The explorer's registry name.
    pub explorer: String,
    /// Best IPT found under the budget.
    pub ipt: f64,
    /// Evaluations spent (the budget, unless a walk proved stuck).
    pub evals: u64,
    /// Unrealizable proposals (free).
    pub unrealizable: u64,
    /// Evaluations spent when the final best was first found.
    pub evals_to_best: u64,
    /// The evals-to-best convergence curve.
    pub curve: Vec<CurvePoint>,
    /// The non-dominated (IPT, energy-per-instruction) front.
    pub front: Vec<ParetoPoint>,
    /// Hypervolume of `front` against the workload's shared
    /// reference point.
    pub hypervolume: f64,
}

/// All explorers' results on one workload.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkloadBakeoff {
    /// Workload name.
    pub workload: String,
    /// Its family (`spec` or a scenario family).
    pub family: String,
    /// The winning explorer (highest IPT; ties keep portfolio
    /// order).
    pub winner: String,
    /// The winner's IPT.
    pub best_ipt: f64,
    /// The shared hypervolume reference cost: the highest front cost
    /// any explorer measured on this workload (reference IPT is 0).
    pub reference_cost: f64,
    /// One entry per explorer, portfolio order.
    pub entries: Vec<BakeoffEntry>,
}

/// One explorer's aggregate standing across the whole bake-off.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExplorerStanding {
    /// The explorer's registry name.
    pub explorer: String,
    /// Workloads this explorer won.
    pub wins: u64,
    /// Mean evaluations to reach its final best.
    pub mean_evals_to_best: f64,
    /// Mean hypervolume across workloads.
    pub mean_hypervolume: f64,
}

/// Per-family win counts, aligned with the report's `explorers`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FamilyStanding {
    /// Family name.
    pub family: String,
    /// Workloads of this family in the bake-off.
    pub workloads: usize,
    /// Wins per explorer, in portfolio order.
    pub wins: Vec<u64>,
}

/// The deterministic bake-off report. Contains only values that are
/// pure functions of the options — no worker counts, timings, or
/// recovery counters — so its canonical JSON is byte-identical for
/// any `--jobs`, fleet topology, or failure schedule.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BakeoffReport {
    /// Evaluations granted to every explorer on every workload.
    pub budget: u64,
    /// Trace length of every evaluation, ops.
    pub eval_ops: u64,
    /// Search seed.
    pub seed: u64,
    /// Portfolio, in order; all win vectors align with this.
    pub explorers: Vec<String>,
    /// Every workload's bake-off, input order (SPEC first, then the
    /// scenario panel).
    pub workloads: Vec<WorkloadBakeoff>,
    /// `win_matrix[i][j]`: workloads where explorer `i`'s best IPT
    /// strictly beat explorer `j`'s.
    pub win_matrix: Vec<Vec<u64>>,
    /// Aggregate standings, portfolio order.
    pub standings: Vec<ExplorerStanding>,
    /// Per-family win counts: `spec` first when present, then
    /// scenario families in draw order.
    pub families: Vec<FamilyStanding>,
}

impl BakeoffReport {
    /// The canonical JSON of the report: derived struct serialization
    /// is field-ordered and every number is a deterministic function
    /// of the options, so equal bake-offs canonicalize to equal
    /// bytes.
    pub fn canonical(&self) -> String {
        #[expect(
            clippy::expect_used,
            reason = "the report is a plain data struct of finite numbers; serialization cannot fail"
        )]
        serde_json::to_string(self).expect("bake-off reports serialize to JSON")
    }

    /// A human-readable summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "explorer bake-off: {} workloads x {} explorers, budget {} evals @ {} ops, seed {}\n\n",
            self.workloads.len(),
            self.explorers.len(),
            self.budget,
            self.eval_ops,
            self.seed
        ));
        out.push_str("workload          family       winner     best IPT   runner-up gap\n");
        for w in &self.workloads {
            let mut ipts: Vec<f64> = w.entries.iter().map(|e| e.ipt).collect();
            ipts.sort_by(|a, b| b.total_cmp(a));
            let gap = if ipts.len() > 1 && ipts[1] > 0.0 {
                (ipts[0] / ipts[1] - 1.0) * 100.0
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<16}  {:<11}  {:<9}  {:>8.4}  {:>12.2}%\n",
                w.workload, w.family, w.winner, w.best_ipt, gap
            ));
        }
        out.push_str("\nwin matrix (row strictly beats column, workload count):\n");
        out.push_str(&format!("{:>10}", ""));
        for e in &self.explorers {
            out.push_str(&format!("  {e:>9}"));
        }
        out.push('\n');
        for (i, e) in self.explorers.iter().enumerate() {
            out.push_str(&format!("{e:>10}"));
            for j in 0..self.explorers.len() {
                if i == j {
                    out.push_str(&format!("  {:>9}", "-"));
                } else {
                    out.push_str(&format!("  {:>9}", self.win_matrix[i][j]));
                }
            }
            out.push('\n');
        }
        out.push_str("\nexplorer    wins  mean evals-to-best  mean hypervolume\n");
        for s in &self.standings {
            out.push_str(&format!(
                "{:<9}  {:>5}  {:>18.1}  {:>16.5}\n",
                s.explorer, s.wins, s.mean_evals_to_best, s.mean_hypervolume
            ));
        }
        out.push_str("\nfamily        n  ");
        for e in &self.explorers {
            out.push_str(&format!("{e:>10}"));
        }
        out.push('\n');
        for f in &self.families {
            out.push_str(&format!("{:<11}  {:>3}", f.family, f.workloads));
            for w in &f.wins {
                out.push_str(&format!("{w:>10}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Run the equal-budget bake-off.
///
/// Every `(workload, explorer)` pair fans out through `ctx` — attach
/// a fleet dispatcher there to scatter searches over workers; attach
/// a journal to make the run resumable after a kill. The report is
/// byte-identical either way.
///
/// # Errors
///
/// Returns [`ScenarioError`] when the options are invalid, a task
/// fails permanently (retries exhausted), or the journal cannot be
/// read or written.
pub fn run_bakeoff(
    opts: &BakeoffOptions,
    ctx: &RunContext,
) -> Result<BakeoffReport, ScenarioError> {
    opts.validate()?;
    let span = trace::span("bakeoff.run");
    let mut profiles: Vec<(WorkloadProfile, String)> = Vec::new();
    for name in &opts.spec_workloads {
        #[expect(
            clippy::expect_used,
            reason = "validate() checked every SPEC name resolves"
        )]
        let p = spec::profile(name).expect("validated SPEC workload");
        profiles.push((p, SPEC_FAMILY.to_string()));
    }
    if let Some(s) = &opts.scenario {
        for p in s.generate()? {
            let family = family_prefix(&p.name).to_string();
            profiles.push((p, family));
        }
    }
    let tech = Technology::default();
    let cache = EvalCache::new();

    // Workload-major fan: item t = (workload t / E, explorer t % E).
    // Each search is a pure function of its spec, so the fan is
    // dispatchable and journal-resumable.
    let specs: Vec<TaskSpec> = profiles
        .iter()
        .flat_map(|(p, _)| {
            EXPLORER_NAMES
                .iter()
                .map(|name| TaskSpec::search(p, name, &opts.search, &tech))
        })
        .collect();
    let fan = ctx
        .run_fan_tasks::<SearchOutcome>(opts.jobs, "bakeoff", &specs, Some(&cache))
        .map_err(|e| ScenarioError::Pipeline(e.into()))?;

    let mut items = fan.items.into_iter();
    let mut workloads: Vec<WorkloadBakeoff> = Vec::with_capacity(profiles.len());
    for (p, family) in &profiles {
        let mut outcomes: Vec<SearchOutcome> = Vec::with_capacity(EXPLORER_NAMES.len());
        for name in EXPLORER_NAMES {
            #[expect(
                clippy::expect_used,
                reason = "the fan returns exactly one item per submitted task"
            )]
            let item = items.next().expect("one item per task");
            match item {
                Ok(o) => outcomes.push(o),
                Err(e) => {
                    return Err(ScenarioError::Task(format!(
                        "bakeoff search {name}/{} failed: {e}",
                        p.name
                    )));
                }
            }
        }
        // The shared reference point: worse than every measured front
        // point of every explorer on this workload, so hypervolumes
        // are comparable across the portfolio.
        let reference_cost = outcomes
            .iter()
            .flat_map(|o| o.front.iter().map(|pt| pt.cost))
            .fold(f64::NEG_INFINITY, f64::max);
        let reference = ParetoPoint {
            ipt: 0.0,
            cost: reference_cost,
        };
        #[expect(
            clippy::expect_used,
            reason = "every search measures at least its start, so the curve is non-empty"
        )]
        let entries: Vec<BakeoffEntry> = outcomes
            .iter()
            .map(|o| BakeoffEntry {
                explorer: o.explorer.clone(),
                ipt: o.ipt,
                evals: o.evals,
                unrealizable: o.unrealizable,
                evals_to_best: o.curve.last().expect("non-empty curve").evals,
                curve: o.curve.clone(),
                front: o.front.clone(),
                hypervolume: hypervolume(&o.front, &reference),
            })
            .collect();
        // Strict argmax with ties to portfolio order.
        let mut winner = 0usize;
        for (i, e) in entries.iter().enumerate() {
            if e.ipt > entries[winner].ipt {
                winner = i;
            }
        }
        workloads.push(WorkloadBakeoff {
            workload: p.name.clone(),
            family: family.clone(),
            winner: entries[winner].explorer.clone(),
            best_ipt: entries[winner].ipt,
            reference_cost,
            entries,
        });
    }

    let e_count = EXPLORER_NAMES.len();
    let mut win_matrix = vec![vec![0u64; e_count]; e_count];
    for w in &workloads {
        for (i, row) in win_matrix.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                if i != j && w.entries[i].ipt > w.entries[j].ipt {
                    *cell += 1;
                }
            }
        }
    }
    let standings: Vec<ExplorerStanding> = EXPLORER_NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let wins = workloads.iter().filter(|w| w.winner == *name).count() as u64;
            let mean = |f: &dyn Fn(&BakeoffEntry) -> f64| {
                workloads.iter().map(|w| f(&w.entries[i])).sum::<f64>() / workloads.len() as f64
            };
            ExplorerStanding {
                explorer: name.to_string(),
                wins,
                mean_evals_to_best: mean(&|e| e.evals_to_best as f64),
                mean_hypervolume: mean(&|e| e.hypervolume),
            }
        })
        .collect();

    // Family order: `spec` first when present, then scenario draw
    // order — never hash order.
    let mut family_order: Vec<String> = Vec::new();
    if !opts.spec_workloads.is_empty() {
        family_order.push(SPEC_FAMILY.to_string());
    }
    if let Some(s) = &opts.scenario {
        for f in &s.families {
            if !family_order.iter().any(|x| x == f.name()) {
                family_order.push(f.name().to_string());
            }
        }
    }
    let families: Vec<FamilyStanding> = family_order
        .into_iter()
        .map(|family| {
            let members: Vec<&WorkloadBakeoff> =
                workloads.iter().filter(|w| w.family == family).collect();
            let wins = EXPLORER_NAMES
                .iter()
                .map(|name| members.iter().filter(|w| w.winner == *name).count() as u64)
                .collect();
            FamilyStanding {
                family,
                workloads: members.len(),
                wins,
            }
        })
        .collect();

    span.end_with(|| {
        trace::attrs([
            ("workloads", (workloads.len() as u64).into()),
            ("tasks", (specs.len() as u64).into()),
        ])
    });
    Ok(BakeoffReport {
        budget: opts.search.budget,
        eval_ops: opts.search.eval_ops,
        seed: opts.search.seed,
        explorers: EXPLORER_NAMES.iter().map(|s| s.to_string()).collect(),
        workloads,
        win_matrix,
        standings,
        families,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BakeoffOptions {
        let mut o = BakeoffOptions::smoke();
        o.search.budget = 6;
        o.search.eval_ops = 2_000;
        o.spec_workloads = vec!["gzip".into()];
        o.scenario = Some(PopulationSpec::all_families(4, 11));
        o
    }

    #[test]
    fn smoke_report_is_coherent() {
        let r = run_bakeoff(&tiny(), &RunContext::new()).expect("runs");
        assert_eq!(r.explorers, vec!["anneal", "genetic", "surrogate"]);
        assert_eq!(r.workloads.len(), 5, "1 SPEC + 4 scenario members");
        assert_eq!(r.workloads[0].family, SPEC_FAMILY);
        for w in &r.workloads {
            assert_eq!(w.entries.len(), 3);
            assert!(w.best_ipt > 0.0);
            assert!(r.explorers.contains(&w.winner));
            for e in &w.entries {
                assert_eq!(e.evals, 6, "equal budgets");
                assert!(e.hypervolume >= 0.0);
                assert!(e.evals_to_best >= 1 && e.evals_to_best <= e.evals);
            }
        }
        // The win matrix totals are consistent with the standings.
        let total_wins: u64 = r.standings.iter().map(|s| s.wins).sum();
        assert_eq!(total_wins as usize, r.workloads.len());
        let family_total: usize = r.families.iter().map(|f| f.workloads).sum();
        assert_eq!(family_total, r.workloads.len());
    }

    #[test]
    fn jobs_do_not_change_bytes() {
        let mut a = tiny();
        a.jobs = 1;
        let mut b = tiny();
        b.jobs = 4;
        let ra = run_bakeoff(&a, &RunContext::new()).expect("runs");
        let rb = run_bakeoff(&b, &RunContext::new()).expect("runs");
        assert_eq!(ra.canonical(), rb.canonical());
    }

    #[test]
    fn options_validate_rejects_bad_shapes() {
        let mut o = BakeoffOptions::smoke();
        o.search.budget = 0;
        assert!(o.validate().is_err());
        let mut o = BakeoffOptions::smoke();
        o.spec_workloads = vec!["not-a-benchmark".into()];
        assert!(o.validate().is_err());
        let mut o = BakeoffOptions::smoke();
        o.spec_workloads.clear();
        o.scenario = None;
        assert!(o.validate().is_err());
        assert!(BakeoffOptions::smoke().validate().is_ok());
        assert!(BakeoffOptions::quick().validate().is_ok());
    }
}
