//! Per-layer unit costs, timed from outside through each layer's
//! public functions on seeded inputs.

use crate::clock;
use crate::workloads::{mix, profiles, splitmix64, Named, GOLDEN};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use xps_core::cacti::Technology;
use xps_core::communal::{best_combination, pitfall_experiment, Merit};
use xps_core::explore::{DesignPoint, EvalCache};
use xps_core::paper;
use xps_core::sim::{evaluate, CoreConfig, Simulator};
use xps_core::workload::{MicroOp, TraceGenerator};
use xps_scenario::PopulationSpec;

/// Design points sampled for the `realize` cost.
const LATTICE_POINTS: u64 = 2_000;

fn secs(t0: std::time::Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// A seeded pick from `choices` (SplitMix64 stream).
fn pick<T: Copy>(state: &mut u64, choices: &[T]) -> T {
    let z = splitmix64(*state);
    *state = state.wrapping_add(GOLDEN);
    choices[(z % choices.len() as u64) as usize]
}

/// A seeded sample of the design-point lattice; fast clocks with
/// shallow pipelines do not fit, so some points are unrealizable.
fn lattice(seed: u64) -> Vec<DesignPoint> {
    let mut s = mix(0x01a7_71ce, seed);
    (0..LATTICE_POINTS)
        .map(|_| DesignPoint {
            clock_ns: pick(&mut s, &[0.12, 0.18, 0.24, 0.3, 0.36, 0.45, 0.6]),
            width: pick(&mut s, &[2, 3, 4, 6, 8]),
            sched_depth: pick(&mut s, &[1, 2, 3, 4]),
            wakeup_slack: pick(&mut s, &[0, 1]),
            lsq_depth: pick(&mut s, &[1, 2, 3, 4]),
            l1_cycles: pick(&mut s, &[1, 2, 3, 4]),
            l2_cycles: pick(&mut s, &[4, 8, 12, 16, 20]),
            l1_assoc: pick(&mut s, &[1, 2, 4, 8, 16]),
            l1_block: pick(&mut s, &[8, 16, 32, 64, 128, 256, 512]),
            l2_assoc: pick(&mut s, &[1, 2, 4, 8, 16]),
            l2_block: pick(&mut s, &[8, 16, 32, 64, 128, 256, 512]),
        })
        .collect()
}

/// What the kernels child reports.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KernelReport {
    /// Per-layer unit costs and rates.
    pub layers: Vec<Named>,
    /// Share of the sampled design points that did not realize.
    pub unrealizable: f64,
}

/// Time every layer's unit cost.
///
/// # Errors
///
/// A message when a published Table 4 core is missing.
pub fn run(seed: u64, smoke: bool) -> Result<KernelReport, String> {
    let profiles = profiles(seed, smoke);
    let configs: Vec<CoreConfig> = profiles
        .iter()
        .map(|p| paper::table4_config(&p.name).ok_or(format!("no Table 4 core for {}", p.name)))
        .collect::<Result<_, _>>()?;
    let long_ops: usize = if smoke { 20_000 } else { 1_000_000 };
    let short_ops: u64 = if smoke { 4_000 } else { 40_000 };
    let mut out = Vec::new();
    let mut put = |name: &str, value: f64| {
        out.push(Named {
            name: name.to_string(),
            value,
        })
    };

    // workload: stream ops straight from the generator.
    let t0 = clock::now();
    for p in &profiles {
        let sum = TraceGenerator::new(p.clone())
            .take(long_ops)
            .fold(0u64, |a, op| a.wrapping_add(op.addr));
        black_box(sum);
    }
    put(
        "workload.gen_mops_per_s",
        (profiles.len() * long_ops) as f64 / secs(t0) / 1e6,
    );

    // sim: the cycle engine over a pre-materialized trace, each
    // profile on its own Table 4 core.
    let mut step_s = 0.0;
    for (p, cfg) in profiles.iter().zip(&configs) {
        let trace: Vec<MicroOp> = TraceGenerator::new(p.clone()).take(long_ops).collect();
        let t0 = clock::now();
        black_box(Simulator::new(cfg).run(trace.iter().copied(), long_ops as u64));
        step_s += secs(t0);
    }
    put(
        "sim.step_mops_per_s",
        (profiles.len() * long_ops) as f64 / step_s / 1e6,
    );

    // sim: `evaluate` at the campaign's late trace length with the
    // replay cache warm for the profile under test.
    let mut eval_s = 0.0;
    for p in &profiles {
        black_box(evaluate(p, &configs[0], short_ops));
        let t0 = clock::now();
        for cfg in &configs {
            black_box(evaluate(p, cfg, short_ops));
        }
        eval_s += secs(t0);
    }
    put(
        "sim.evaluate_40k_mops_per_s",
        (profiles.len() * configs.len()) as f64 * short_ops as f64 / eval_s / 1e6,
    );

    const NEW_REPS: usize = 20;
    let t0 = clock::now();
    for _ in 0..NEW_REPS {
        for cfg in &configs {
            black_box(Simulator::new(cfg));
        }
    }
    put(
        "sim.new_us",
        secs(t0) * 1e6 / (NEW_REPS * configs.len()) as f64,
    );

    // cacti: fit every unit of a sampled design point.
    let tech = Technology::default();
    let points = lattice(seed);
    let t0 = clock::now();
    let realized = points
        .iter()
        .filter(|pt| black_box(pt.realize(&tech, "lattice")).is_some())
        .count();
    put("cacti.realize_us", secs(t0) * 1e6 / points.len() as f64);
    let unrealizable = 1.0 - realized as f64 / points.len() as f64;

    // explore: an `EvalCache` hit (fingerprint, key, lookup, clone).
    const HITS: usize = 20_000;
    let cache = EvalCache::new();
    cache.stats(&profiles[0], &configs[0], 2_000);
    let t0 = clock::now();
    for _ in 0..HITS {
        black_box(cache.stats(&profiles[0], &configs[0], 2_000));
    }
    put("explore.cache_hit_us", secs(t0) * 1e6 / HITS as f64);

    // communal: the Table 6 queries and the §5.3 pitfall on Table 5.
    let m = paper::table5_matrix();
    let t0 = clock::now();
    for k in 1..=3 {
        for merit in Merit::ALL {
            black_box(best_combination(&m, k, merit));
        }
    }
    for dropped in ["gzip", "bzip"] {
        black_box(pitfall_experiment(&m, dropped, 2, Merit::HarmonicMean));
    }
    put("communal.queries_ms", secs(t0) * 1e3);

    // scenario: the bake-off's seeded panel.
    let t0 = clock::now();
    let panel = PopulationSpec::all_families(6, mix(11, seed))
        .generate()
        .map_err(|e| e.to_string())?;
    black_box(panel);
    put("scenario.population_ms", secs(t0) * 1e3);

    Ok(KernelReport {
        layers: out,
        unrealizable,
    })
}
