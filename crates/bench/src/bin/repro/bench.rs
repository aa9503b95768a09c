//! `repro bench`: the engine-throughput trajectory (reference versus
//! optimized cycle engine) and its `--check` regression gate.

use crate::cli::{Opts, Outcome};
use xps_core::paper;
use xps_core::sim::{CoreConfig, Simulator};
use xps_core::workload::{spec, TraceGenerator};

/// The perf-trajectory file for this round of engine work. Each
/// hot-loop PR commits a `BENCH_<n>.json` so the series records how
/// throughput moved over time.
const BENCH_PATH: &str = "BENCH_10.json";

/// Workloads measured by `repro bench` — the same three the Criterion
/// `simulator` group tracks.
const BENCH_WORKLOADS: [&str; 3] = ["gzip", "mcf", "crafty"];

/// `--check` fails when the geometric-mean speedup over the matched
/// rows falls more than this far below the committed baseline's.
/// Single rows drift several percent with host cache and frequency
/// state even though both engines run back to back, so the mean gate
/// is tight.
const BENCH_TOLERANCE: f64 = 0.10;

/// `--check` also fails when any *single* matched row loses more than
/// this fraction of its committed speedup. The geomean alone lets one
/// kernel regress badly while the other rows hide it; the per-row
/// bound is looser than the mean bound precisely because individual
/// rows are noisier.
const BENCH_ROW_TOLERANCE: f64 = 0.25;

/// One (workload, config, op budget) measurement: both engines timed
/// in the same process on the same pre-materialized trace.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct BenchRow {
    workload: String,
    config: String,
    ops: u64,
    /// Pre-overhaul [`xps_core::sim::ReferenceSimulator`] throughput, micro-ops/sec.
    before_ops_per_sec: f64,
    /// Optimized [`Simulator`] throughput, micro-ops/sec.
    after_ops_per_sec: f64,
    /// `after / before`. Machine-neutral: both engines ran in the same
    /// process and build, so drift cancels out of the ratio.
    speedup: f64,
}

/// The machine-readable contents of [`BENCH_PATH`].
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct BenchReport {
    issue: u32,
    note: String,
    rows: Vec<BenchRow>,
}

/// Gate fresh measurements against the committed baseline. Two rules,
/// both on the machine-neutral speedup column:
///
/// 1. The geometric mean over the matched rows must stay within
///    [`BENCH_TOLERANCE`] of the committed geomean.
/// 2. Every single matched row must stay within
///    [`BENCH_ROW_TOLERANCE`] of its committed speedup — one kernel
///    can no longer hide a bad regression behind the mean.
///
/// Returns the human summary on success and the (first) violated rule
/// as the error.
fn check_bench(rows: &[BenchRow], baseline: &BenchReport) -> Result<String, String> {
    let mut compared = 0usize;
    let (mut log_now, mut log_base) = (0.0f64, 0.0f64);
    let mut worst_row: Option<String> = None;
    for r in rows {
        let Some(b) = baseline
            .rows
            .iter()
            .find(|b| b.workload == r.workload && b.config == r.config && b.ops == r.ops)
        else {
            continue;
        };
        compared += 1;
        log_now += r.speedup.ln();
        log_base += b.speedup.ln();
        let row_floor = b.speedup * (1.0 - BENCH_ROW_TOLERANCE);
        if r.speedup < row_floor && worst_row.is_none() {
            worst_row = Some(format!(
                "row regression vs {BENCH_PATH}: {}/{}/{} ops speedup {:.2}x fell \
                 below {row_floor:.2}x (committed {:.2}x minus {:.0}% per-row \
                 tolerance); the geomean gate alone would let this hide behind \
                 the other rows",
                r.workload,
                r.config,
                r.ops,
                r.speedup,
                b.speedup,
                BENCH_ROW_TOLERANCE * 100.0
            ));
        }
    }
    if compared == 0 {
        return Err(format!(
            "--check matched no rows of {BENCH_PATH} (budget mismatch? \
             the committed file must include the budgets being checked)"
        ));
    }
    let geo_now = (log_now / compared as f64).exp();
    let geo_base = (log_base / compared as f64).exp();
    let floor = geo_base * (1.0 - BENCH_TOLERANCE);
    if geo_now < floor {
        return Err(format!(
            "throughput regression vs {BENCH_PATH}: geomean speedup {geo_now:.2}x \
             over {compared} row(s) fell below {floor:.2}x (baseline {geo_base:.2}x \
             minus {:.0}% tolerance)",
            BENCH_TOLERANCE * 100.0
        ));
    }
    if let Some(row) = worst_row {
        return Err(row);
    }
    Ok(format!(
        "[bench --check: geomean speedup {geo_now:.2}x over {compared} row(s), \
         within {:.0}% of committed {geo_base:.2}x; every row within {:.0}%]",
        BENCH_TOLERANCE * 100.0,
        BENCH_ROW_TOLERANCE * 100.0
    ))
}

/// Best-of-N wall times for a (reference, optimized) pair. The reps
/// interleave the two engines so host-state drift during the
/// measurement lands on both sides of the ratio.
fn bench_pair(
    reps: u32,
    mut before: impl FnMut() -> f64,
    mut after: impl FnMut() -> f64,
) -> (f64, f64) {
    let (mut best_b, mut best_a) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        best_b = best_b.min(before());
        best_a = best_a.min(after());
    }
    (best_b, best_a)
}

/// `repro bench`: measure the reference (pre-overhaul) and optimized
/// cycle engines back to back on identical traces and emit the
/// before/after table as `BENCH_10.json` (or, with `--check`, compare
/// the fresh speedups against the committed file and fail on a >10%
/// geomean regression or any single row losing more than 25% — see
/// [`check_bench`]). Absolute ops/sec depends on the host; the speedup
/// column is the portable number, which is why the regression gate is
/// on speedup and not on raw throughput.
pub fn bench(o: &Opts) -> Outcome {
    use xps_core::sim::ReferenceSimulator;
    let (quick, check) = (o.quick, o.check);

    let budgets: &[u64] = if quick { &[50_000] } else { &[50_000, 400_000] };
    let reps: u32 = if quick { 3 } else { 5 };
    let mut rows = Vec::new();
    for name in BENCH_WORKLOADS {
        let p = spec::profile(name).expect("bench workloads are known benchmarks");
        let max_ops = *budgets.last().expect("at least one budget") as usize;
        let trace: Vec<_> = TraceGenerator::new(p).take(max_ops).collect();
        let configs = [
            ("initial".to_string(), CoreConfig::initial()),
            (
                "table4".to_string(),
                paper::table4_config(name).expect("bench workloads are in Table 4"),
            ),
        ];
        for (cfg_name, cfg) in &configs {
            for &ops in budgets {
                let slice = &trace[..ops as usize];
                let timed = |stats_of: &mut dyn FnMut() -> u64| -> f64 {
                    // xps-allow(determinism-provenance): a benchmark's output *is* wall time; simulated results stay deterministic
                    let t0 = std::time::Instant::now();
                    let cycles = stats_of();
                    let dt = t0.elapsed().as_secs_f64();
                    std::hint::black_box(cycles);
                    dt
                };
                let (before, after) = bench_pair(
                    reps,
                    || {
                        timed(&mut || {
                            ReferenceSimulator::new(cfg)
                                .run(slice.iter().copied(), ops)
                                .cycles
                        })
                    },
                    || timed(&mut || Simulator::new(cfg).run(slice.iter().copied(), ops).cycles),
                );
                rows.push(BenchRow {
                    workload: name.to_string(),
                    config: cfg_name.clone(),
                    ops,
                    before_ops_per_sec: ops as f64 / before,
                    after_ops_per_sec: ops as f64 / after,
                    speedup: before / after,
                });
            }
        }
    }

    println!(
        "{:<10} {:<8} {:>8} {:>14} {:>14} {:>9}",
        "workload", "config", "ops", "before op/s", "after op/s", "speedup"
    );
    for r in &rows {
        println!(
            "{:<10} {:<8} {:>8} {:>14.0} {:>14.0} {:>8.2}x",
            r.workload, r.config, r.ops, r.before_ops_per_sec, r.after_ops_per_sec, r.speedup
        );
    }

    if check {
        let text = std::fs::read_to_string(BENCH_PATH)
            .map_err(|e| format!("--check needs a committed {BENCH_PATH}: {e}"))?;
        let baseline: BenchReport = serde_json::from_str(&text)
            .map_err(|e| format!("{BENCH_PATH} is not a valid bench report: {e}"))?;
        println!("{}", check_bench(&rows, &baseline)?);
        return Ok(());
    }

    let report = BenchReport {
        issue: 10,
        note: "Throughput refresh for the explorer-portfolio PR: issue-slot ring + \
               filtered store forwarding + SoA MSHRs vs the pre-overhaul reference \
               engine, measured back to back in one process on identical traces."
            .to_string(),
        rows,
    };
    let json = serde_json::to_string_pretty(&report)?;
    xps_core::explore::write_atomic(std::path::Path::new(BENCH_PATH), &json)?;
    println!("[wrote {BENCH_PATH}]");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic bench table: `speedups[i]` becomes one row keyed
    /// `w{i}/initial/1000`.
    fn bench_rows(speedups: &[f64]) -> Vec<BenchRow> {
        speedups
            .iter()
            .enumerate()
            .map(|(i, &s)| BenchRow {
                workload: format!("w{i}"),
                config: "initial".into(),
                ops: 1_000,
                before_ops_per_sec: 1_000.0 * s,
                after_ops_per_sec: 1_000.0,
                speedup: s,
            })
            .collect()
    }

    fn bench_baseline(speedups: &[f64]) -> BenchReport {
        BenchReport {
            issue: 10,
            note: "synthetic".into(),
            rows: bench_rows(speedups),
        }
    }

    #[test]
    fn bench_check_passes_when_rows_hold() {
        let baseline = bench_baseline(&[3.0, 3.0, 3.0]);
        let fresh = bench_rows(&[2.9, 3.1, 3.0]);
        let summary = check_bench(&fresh, &baseline).expect("within both tolerances");
        assert!(summary.contains("3 row(s)"), "summary: {summary}");
    }

    #[test]
    fn bench_check_fails_on_geomean_regression() {
        let baseline = bench_baseline(&[3.0, 3.0, 3.0]);
        let fresh = bench_rows(&[2.5, 2.5, 2.5]);
        let e = check_bench(&fresh, &baseline).expect_err("geomean down 17%");
        assert!(e.contains("geomean"), "message: {e}");
    }

    #[test]
    fn bench_check_fails_when_one_row_hides_behind_the_mean() {
        // One kernel loses 40% while the others gain enough to keep
        // the geomean flat: exactly the case the old geomean-only gate
        // waved through.
        let baseline = bench_baseline(&[3.0, 3.0, 3.0]);
        let fresh = bench_rows(&[1.8, 3.7, 3.7]);
        let geo: f64 = (1.8f64 * 3.7 * 3.7).powf(1.0 / 3.0);
        assert!(geo > 3.0 * 0.9, "fixture must keep the geomean healthy");
        let e = check_bench(&fresh, &baseline).expect_err("row w0 regressed 40%");
        assert!(e.contains("w0"), "message must name the row: {e}");
        assert!(e.contains("per-row"), "message: {e}");
    }

    #[test]
    fn bench_check_rejects_an_empty_match() {
        let baseline = bench_baseline(&[3.0]);
        let mut fresh = bench_rows(&[3.0]);
        fresh[0].ops = 999; // budget mismatch: no baseline row matches
        let e = check_bench(&fresh, &baseline).expect_err("no matched rows");
        assert!(e.contains("matched no rows"), "message: {e}");
    }
}
