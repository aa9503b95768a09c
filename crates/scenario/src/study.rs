//! The subsetting-at-scale study: the paper's methodology comparison
//! run over generated populations instead of 11 benchmarks.
//!
//! The unit of the study is a **panel**: a contiguous slice of the
//! population treated as one complete configurational campaign —
//! per-workload annealing, the cross-configuration matrix with the
//! replacement rule, then both Figure-3 routes (raw-characteristic
//! subsetting vs configurational clustering) and the §5.3 pitfall
//! experiment for every member. Panelling is what makes N=100s
//! tractable — the methodology comparison is defined *within* a
//! campaign, and a panel is one random-population campaign sample, so
//! the study scales linearly in N instead of quadratically — while
//! still exercising the full pipeline end to end on every panel.
//!
//! Every expensive task (anneal walk, matrix cell) runs through the
//! caller's [`RunContext`], so a fleet dispatcher attached there
//! scatters the work over `xps-serve` workers unchanged; the report
//! depends only on the population and options, never on worker count,
//! `--jobs`, or failure schedule — byte-identical like every other
//! artifact in this repository.

use crate::error::ScenarioError;
use crate::population::PopulationSpec;
use serde::Serialize;
use xps_core::communal::{compare_methodologies, pitfall_experiment, Merit};
use xps_core::explore::{EvalCache, RunContext};
use xps_core::pipeline::Pipeline;
use xps_core::trace;
use xps_core::workload::{Characterizer, TraceGenerator, WorkloadProfile};

/// Width, in percentage points of loss, of one gap-histogram bucket.
pub const GAP_BUCKET_PCT: f64 = 1.0;
/// Number of gap-histogram buckets; the last bucket is open-ended.
pub const GAP_BUCKETS: usize = 11;

/// Tuning of one scale study.
#[derive(Debug, Clone)]
pub struct StudyOptions {
    /// Pipeline options of each panel campaign (annealing budget,
    /// matrix trace length, replacement passes, `--jobs`).
    pub pipeline: Pipeline,
    /// Workloads per panel campaign. The last panel absorbs the
    /// remainder; a remainder too small for the methodology
    /// comparison is merged into the previous panel.
    pub panel: usize,
    /// Cores of the CMP both routes design (the paper's dual-core
    /// study uses 2).
    pub cores: usize,
    /// Trace length for the raw characterization of each workload.
    pub characterize_ops: usize,
    /// Fractional design-quality loss above which a pitfall
    /// experiment counts as a hit.
    pub pitfall_threshold: f64,
    /// Figure of merit both routes optimize.
    pub merit: Merit,
}

impl StudyOptions {
    /// Seconds-scale settings: CI smoke and demos.
    pub fn smoke() -> StudyOptions {
        StudyOptions {
            pipeline: Pipeline::smoke(),
            panel: 8,
            cores: 2,
            characterize_ops: 8_000,
            pitfall_threshold: 0.01,
            merit: Merit::HarmonicMean,
        }
    }

    /// Minutes-scale settings: the default `repro scale` study.
    pub fn quick() -> StudyOptions {
        StudyOptions {
            pipeline: Pipeline::quick(),
            panel: 8,
            cores: 2,
            characterize_ops: 40_000,
            pitfall_threshold: 0.01,
            merit: Merit::HarmonicMean,
        }
    }

    /// Check the study invariants the panel mathematics rely on.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Spec`] naming the violated invariant.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.pipeline.validate().map_err(ScenarioError::Pipeline)?;
        if self.cores == 0 {
            return Err(ScenarioError::Spec("cores must be >= 1".into()));
        }
        if self.panel < 2 * self.cores {
            return Err(ScenarioError::Spec(format!(
                "panel size {} too small: need at least 2*cores = {} so clustering \
                 can keep more representatives than cores",
                self.panel,
                2 * self.cores
            )));
        }
        if self.characterize_ops == 0 {
            return Err(ScenarioError::Spec("characterize_ops must be >= 1".into()));
        }
        if !(0.0..1.0).contains(&self.pitfall_threshold) {
            return Err(ScenarioError::Spec(format!(
                "pitfall_threshold {} outside [0, 1)",
                self.pitfall_threshold
            )));
        }
        Ok(())
    }
}

/// One §5.3 pitfall experiment inside a panel.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PitfallOutcome {
    /// The workload dropped from exploration.
    pub dropped: String,
    /// The dropped workload's scenario family.
    pub family: String,
    /// Fractional design-quality loss the drop caused.
    pub loss: f64,
    /// Whether the loss clears the study's pitfall threshold.
    pub hit: bool,
}

/// One panel campaign's results.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PanelOutcome {
    /// Panel index within the study.
    pub index: usize,
    /// Member workload names, in campaign order.
    pub workloads: Vec<String>,
    /// Representatives the subset-first route reduced to.
    pub representatives: usize,
    /// Subset-first (route a) core choice.
    pub subset_choice: Vec<String>,
    /// Route (a) merit on the full panel.
    pub subset_value: f64,
    /// Customize-first (route b) core choice.
    pub customize_choice: Vec<String>,
    /// Route (b) merit on the full panel (the optimum).
    pub customize_value: f64,
    /// Fractional quality gap of route (a) vs route (b).
    pub gap: f64,
    /// One pitfall experiment per member.
    pub pitfalls: Vec<PitfallOutcome>,
}

/// Distribution of the clustering-vs-subsetting quality gap.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GapStats {
    /// Number of panel campaigns.
    pub panels: usize,
    /// Mean gap across panels.
    pub mean: f64,
    /// Smallest gap.
    pub min: f64,
    /// Largest gap.
    pub max: f64,
    /// Histogram over [`GAP_BUCKET_PCT`]-wide loss buckets; the last
    /// bucket is open-ended.
    pub histogram: Vec<u64>,
}

/// Per-family pitfall aggregation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FamilyStats {
    /// Family name.
    pub family: String,
    /// Population members of this family.
    pub workloads: usize,
    /// Pitfall experiments that dropped a member of this family.
    pub pitfall_experiments: usize,
    /// How many cleared the threshold.
    pub pitfall_hits: usize,
    /// `hits / experiments` (0 when no experiments ran).
    pub pitfall_rate: f64,
    /// Mean loss over this family's experiments.
    pub mean_pitfall_loss: f64,
}

/// The deterministic study report. Contains only values that are pure
/// functions of `(population spec, study options)` — no worker
/// counts, timings, or recovery counters — so its canonical JSON is
/// byte-identical for any `--jobs`, fleet topology, or failure
/// schedule.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StudyReport {
    /// Participating families, in draw order.
    pub families: Vec<String>,
    /// Population size.
    pub n: usize,
    /// Population seed.
    pub seed: u64,
    /// Panel size of the study.
    pub panel: usize,
    /// CMP cores designed per panel.
    pub cores: usize,
    /// Figure-of-merit name.
    pub merit: String,
    /// Loss threshold for counting a pitfall hit.
    pub pitfall_threshold: f64,
    /// Every panel campaign.
    pub panels: Vec<PanelOutcome>,
    /// Gap distribution across panels.
    pub gap: GapStats,
    /// Total pitfall experiments.
    pub pitfall_experiments: usize,
    /// Experiments whose loss cleared the threshold.
    pub pitfall_hits: usize,
    /// `hits / experiments`.
    pub pitfall_rate: f64,
    /// Per-family pitfall aggregation, in family draw order.
    pub per_family: Vec<FamilyStats>,
}

impl StudyReport {
    /// The canonical JSON of the report: derived struct serialization
    /// is field-ordered and every number is a deterministic function
    /// of the inputs, so equal studies canonicalize to equal bytes.
    pub fn canonical(&self) -> String {
        // xps-allow(no-unwrap-in-lib): the report is a plain data struct of finite numbers; serialization cannot fail
        serde_json::to_string(self).expect("study reports serialize to JSON")
    }

    /// A human-readable summary table.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "scale study: n={} seed={} families={} panels={} cores={} merit={}\n\n",
            self.n,
            self.seed,
            self.families.join("+"),
            self.panels.len(),
            self.cores,
            self.merit
        ));
        out.push_str("panel  members  reps  (a) subset-first  (b) customize-first  gap\n");
        for p in &self.panels {
            out.push_str(&format!(
                "{:>5}  {:>7}  {:>4}  {:>16.4}  {:>19.4}  {:>5.1}%\n",
                p.index,
                p.workloads.len(),
                p.representatives,
                p.subset_value,
                p.customize_value,
                p.gap * 100.0
            ));
        }
        out.push_str(&format!(
            "\ngap: mean {:.1}%  min {:.1}%  max {:.1}%\n",
            self.gap.mean * 100.0,
            self.gap.min * 100.0,
            self.gap.max * 100.0
        ));
        out.push_str(&format!(
            "pitfalls: {} of {} drops lose > {:.0}% ({:.1}%)\n",
            self.pitfall_hits,
            self.pitfall_experiments,
            self.pitfall_threshold * 100.0,
            self.pitfall_rate * 100.0
        ));
        out.push_str("\nfamily        members  drops  hits  rate    mean loss\n");
        for f in &self.per_family {
            out.push_str(&format!(
                "{:<12}  {:>7}  {:>5}  {:>4}  {:>5.1}%  {:>8.2}%\n",
                f.family,
                f.workloads,
                f.pitfall_experiments,
                f.pitfall_hits,
                f.pitfall_rate * 100.0,
                f.mean_pitfall_loss * 100.0
            ));
        }
        out
    }
}

/// Split `n` workloads into panels of `panel`; a final remainder too
/// small for the methodology comparison (fewer than `2 * cores`
/// members) is merged into the previous panel.
fn panel_bounds(n: usize, panel: usize, cores: usize) -> Vec<std::ops::Range<usize>> {
    let mut bounds = Vec::new();
    let mut start = 0;
    while start < n {
        let end = (start + panel).min(n);
        bounds.push(start..end);
        start = end;
    }
    if bounds.len() >= 2 {
        // xps-allow(no-unwrap-in-lib): len >= 2 was just checked
        let last = bounds.last().expect("non-empty").clone();
        if last.len() < 2 * cores {
            bounds.pop();
            // xps-allow(no-unwrap-in-lib): len >= 2 means one remains after pop
            let prev = bounds.last_mut().expect("non-empty");
            prev.end = last.end;
        }
    }
    bounds
}

/// The raw (microarchitecture-independent) Kiviat vector of one
/// profile, measured from its own generated trace.
fn raw_characteristics(p: &WorkloadProfile, ops: usize) -> Vec<f64> {
    let mut c = Characterizer::new();
    for op in TraceGenerator::new(p.clone()).take(ops) {
        c.observe(&op);
    }
    c.finish().kiviat().to_vec()
}

/// The family prefix of a generated workload name (`expected-0012` →
/// `expected`).
pub(crate) fn family_prefix(name: &str) -> &str {
    name.rsplit_once('-').map_or(name, |(prefix, _)| prefix)
}

/// Run the subsetting-at-scale study over `spec`'s population.
///
/// Every panel campaign runs through `ctx` — attach a fleet
/// dispatcher there to scatter anneals and matrix cells over workers;
/// the report is byte-identical either way.
///
/// # Errors
///
/// Returns [`ScenarioError`] when the specs are invalid or a panel
/// campaign fails terminally.
pub fn run_study(
    spec: &PopulationSpec,
    opts: &StudyOptions,
    ctx: &RunContext,
) -> Result<StudyReport, ScenarioError> {
    opts.validate()?;
    let population = spec.generate()?;
    let study_span = trace::span("scale.study");
    let cache = EvalCache::new();
    let bounds = panel_bounds(population.len(), opts.panel, opts.cores);

    let mut panels = Vec::with_capacity(bounds.len());
    for (index, range) in bounds.iter().enumerate() {
        let members = &population[range.clone()];
        let panel_span = trace::span("scale.panel");

        let campaign_span = trace::span("scale.campaign");
        let result = opts.pipeline.run_recoverable_with(members, ctx, &cache)?;
        campaign_span.end_with(|| trace::attr("workloads", members.len()));

        let char_span = trace::span("scale.characterize");
        let chars: Vec<Vec<f64>> = members
            .iter()
            .map(|p| raw_characteristics(p, opts.characterize_ops))
            .collect();
        char_span.end_with(|| trace::attr("ops", opts.characterize_ops));

        let representatives = (members.len() / 2).clamp(opts.cores, members.len());
        let compare_span = trace::span("scale.compare");
        let cmp = compare_methodologies(
            &result.matrix,
            &chars,
            representatives,
            opts.cores,
            opts.merit,
        );
        compare_span.end_with(|| trace::attr("gap", cmp.subsetting_loss));

        let pitfall_span = trace::span("scale.pitfall");
        let pitfalls: Vec<PitfallOutcome> = result
            .matrix
            .names()
            .iter()
            .map(|name| {
                let r = pitfall_experiment(&result.matrix, name, opts.cores, opts.merit);
                PitfallOutcome {
                    dropped: name.clone(),
                    family: family_prefix(name).to_string(),
                    loss: r.loss,
                    hit: r.loss > opts.pitfall_threshold,
                }
            })
            .collect();
        pitfall_span.end_with(|| trace::attr("experiments", pitfalls.len()));

        panels.push(PanelOutcome {
            index,
            workloads: members.iter().map(|p| p.name.clone()).collect(),
            representatives,
            subset_choice: cmp.subset_first_choice,
            subset_value: cmp.subset_first_value,
            customize_choice: cmp.customize_first_choice,
            customize_value: cmp.customize_first_value,
            gap: cmp.subsetting_loss,
            pitfalls,
        });
        panel_span.end_with(|| trace::attr("index", index));
    }
    study_span.end_with(|| trace::attr("panels", panels.len()));

    // Aggregate: gap distribution over panels.
    let gaps: Vec<f64> = panels.iter().map(|p| p.gap).collect();
    let mut histogram = vec![0u64; GAP_BUCKETS];
    for &g in &gaps {
        let bucket = ((g * 100.0 / GAP_BUCKET_PCT).floor().max(0.0) as usize).min(GAP_BUCKETS - 1);
        histogram[bucket] += 1;
    }
    let gap = GapStats {
        panels: gaps.len(),
        mean: gaps.iter().sum::<f64>() / gaps.len() as f64,
        min: gaps.iter().copied().fold(f64::INFINITY, f64::min),
        max: gaps.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        histogram,
    };

    // Aggregate: pitfall rate, overall and per family (family order =
    // the spec's draw order — deterministic, never hash order).
    let all_pitfalls: Vec<&PitfallOutcome> =
        panels.iter().flat_map(|p| p.pitfalls.iter()).collect();
    let pitfall_experiments = all_pitfalls.len();
    let pitfall_hits = all_pitfalls.iter().filter(|p| p.hit).count();
    let per_family: Vec<FamilyStats> = spec
        .families
        .iter()
        .map(|f| {
            let members = (0..spec.n).filter(|&i| spec.family_of(i) == *f).count();
            let drops: Vec<&&PitfallOutcome> = all_pitfalls
                .iter()
                .filter(|p| p.family == f.name())
                .collect();
            let hits = drops.iter().filter(|p| p.hit).count();
            FamilyStats {
                family: f.name().to_string(),
                workloads: members,
                pitfall_experiments: drops.len(),
                pitfall_hits: hits,
                pitfall_rate: if drops.is_empty() {
                    0.0
                } else {
                    hits as f64 / drops.len() as f64
                },
                mean_pitfall_loss: if drops.is_empty() {
                    0.0
                } else {
                    drops.iter().map(|p| p.loss).sum::<f64>() / drops.len() as f64
                },
            }
        })
        .collect();

    Ok(StudyReport {
        families: spec.families.iter().map(|f| f.name().to_string()).collect(),
        n: spec.n,
        seed: spec.seed,
        panel: opts.panel,
        cores: opts.cores,
        merit: opts.merit.label().to_string(),
        pitfall_threshold: opts.pitfall_threshold,
        panels,
        gap,
        pitfall_experiments,
        pitfall_hits,
        pitfall_rate: if pitfall_experiments == 0 {
            0.0
        } else {
            pitfall_hits as f64 / pitfall_experiments as f64
        },
        per_family,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_bounds_merge_small_remainders() {
        assert_eq!(panel_bounds(16, 8, 2), vec![0..8, 8..16]);
        // Remainder 3 < 2*cores=4: merged into the previous panel.
        assert_eq!(panel_bounds(19, 8, 2), vec![0..8, 8..19]);
        // Remainder 4 >= 4: stands alone.
        assert_eq!(panel_bounds(20, 8, 2), vec![0..8, 8..16, 16..20]);
        // A population smaller than one panel is one panel.
        assert_eq!(panel_bounds(5, 8, 2), vec![0..5]);
    }

    #[test]
    fn options_validate_rejects_bad_shapes() {
        let mut o = StudyOptions::smoke();
        o.panel = 3;
        assert!(o.validate().is_err(), "panel < 2*cores");
        let mut o = StudyOptions::smoke();
        o.cores = 0;
        assert!(o.validate().is_err());
        let mut o = StudyOptions::smoke();
        o.pitfall_threshold = 1.5;
        assert!(o.validate().is_err());
        assert!(StudyOptions::smoke().validate().is_ok());
        assert!(StudyOptions::quick().validate().is_ok());
    }

    #[test]
    fn family_prefix_strips_index() {
        assert_eq!(family_prefix("expected-0012"), "expected");
        assert_eq!(family_prefix("cw-har-0001"), "cw-har");
        assert_eq!(family_prefix("plain"), "plain");
    }
}
