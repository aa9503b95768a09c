//! `xps-perf` — the repository's end-to-end benchmark and per-layer
//! performance ledger.
//!
//! ```text
//! xps-perf run     [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!                  [--smoke] [--out FILE] [--scratch DIR]
//! xps-perf trace   (the same flags; `run --trace 1`)
//! xps-perf compare PARENT CHANGE
//! ```
//!
//! `run` measures each workload untraced: one discarded warm-up rep,
//! set-up samples, then reps until `--seconds` is spent, every rep in a
//! fresh child process. It prints every end-to-end metric and, last,
//! one JSON line `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 1` adds three traced reps and a layer-kernel child and
//! prints the per-layer metrics of the median traced rep instead. Every rep's output is hashed and
//! checked; a mismatch fails the run. `compare` classifies a change
//! against its parent from two `--out` files. See README.md.

mod clock;
mod compare;
mod kernels;
mod metrics;
mod stats;
mod workloads;

use std::error::Error;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use workloads::{Mode, RepReport, Workload, JOBS};

type Res<T> = Result<T, Box<dyn Error>>;

const USAGE: &str = "usage: xps-perf run|trace [--workload NAME|all] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--out FILE] [--scratch DIR]\n       xps-perf compare PARENT CHANGE";

/// Measured reps every run makes, whatever `--seconds` allows.
const MIN_REPS: usize = 3;

/// Set-up-only children per run, pooled with every rep's set-up.
const SETUP_PROBES: usize = 8;

/// Traced reps per traced run; the one with the median wall time fills
/// the ledger, since a single rep moves with the host by up to 20%.
const TRACED_REPS: usize = 3;

/// FNV-64 of each workload's canonical output at seed 0, full scale.
/// Campaign and fleet save the bytes `repro explore --quick` writes to
/// `results/measured.json`; bakeoff the bytes `repro bakeoff` writes to
/// `results/bakeoff.json`.
const SEED0_DIGESTS: [(Workload, u64); 4] = [
    (Workload::Campaign, 0xffe4_b7a9_ebda_c1b5),
    (Workload::MatrixLong, 0x31b9_6e95_b8ef_ab7f),
    (Workload::Bakeoff, 0xb9e9_0a52_c094_7df0),
    (Workload::Fleet, 0xffe4_b7a9_ebda_c1b5),
];

#[derive(Debug, Clone)]
struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    scratch: PathBuf,
}

fn value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Res<&'a str> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value").into())
}

fn parse_run(args: &[String], trace: bool) -> Res<RunArgs> {
    let mut r = RunArgs {
        workloads: Workload::ALL.to_vec(),
        seed: 0,
        seconds: 20.0,
        trace,
        smoke: false,
        out: None,
        scratch: PathBuf::from(".xps-perf"),
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => {
                let w = value(args, &mut i, flag)?;
                r.workloads = if w == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(w)?]
                };
            }
            "--seed" => r.seed = value(args, &mut i, flag)?.parse()?,
            "--seconds" => {
                r.seconds = value(args, &mut i, flag)?.parse()?;
                if !r.seconds.is_finite() || r.seconds <= 0.0 {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                r.trace = match value(args, &mut i, flag)? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`").into()),
                }
            }
            "--smoke" => r.smoke = true,
            "--out" => r.out = Some(PathBuf::from(value(args, &mut i, flag)?)),
            "--scratch" => r.scratch = PathBuf::from(value(args, &mut i, flag)?),
            other => return Err(format!("unknown flag `{other}`").into()),
        }
        i += 1;
    }
    Ok(r)
}

/// A started child that is killed and reaped if dropped unfinished.
struct Reaped(Option<Child>);

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Some(mut c) = self.0.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// One child's outcome: its set-up time (spawn until `ready`), its
/// whole life, and what it reported.
struct Sample<T> {
    setup_s: f64,
    life_s: f64,
    report: T,
}

/// Start `xps-perf child ARGS`, time it to its `ready` line, and parse
/// the JSON line after it (when `want_report`).
fn spawn_child(args: &[String], want_report: bool) -> Res<Sample<String>> {
    let exe = std::env::current_exe()?;
    let t0 = clock::now();
    let mut guard = Reaped(Some(
        Command::new(exe)
            .arg("child")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?,
    ));
    let child = guard.0.as_mut().ok_or("child vanished")?;
    let stdout = child.stdout.take().ok_or("child has no stdout")?;
    let mut lines = BufReader::new(stdout).lines();
    let ready = lines.next().transpose()?;
    let setup_s = t0.elapsed().as_secs_f64();
    if ready.as_deref() != Some("ready") {
        return Err(format!("child {args:?} did not become ready").into());
    }
    let report = if want_report {
        lines.next().transpose()?.ok_or("child printed no report")?
    } else {
        String::new()
    };
    let mut child = guard.0.take().ok_or("child vanished")?;
    let status = child.wait()?;
    if !status.success() {
        return Err(format!("child {args:?} failed: {status}").into());
    }
    Ok(Sample {
        setup_s,
        life_s: t0.elapsed().as_secs_f64(),
        report,
    })
}

/// Per-run state shared by every child it starts.
struct Runner<'a> {
    args: &'a RunArgs,
    root: PathBuf,
    next: usize,
}

impl Runner<'_> {
    fn dir(&mut self) -> String {
        self.next += 1;
        self.root.join(self.next.to_string()).display().to_string()
    }

    fn base(&mut self, w: Workload) -> Vec<String> {
        let mut a = vec![
            "--workload".to_string(),
            w.name().to_string(),
            "--seed".to_string(),
            self.args.seed.to_string(),
            "--dir".to_string(),
            self.dir(),
        ];
        if self.args.smoke {
            a.push("--smoke".to_string());
        }
        a
    }

    fn rep(&mut self, w: Workload, mode: &str) -> Res<Sample<RepReport>> {
        let mut a = self.base(w);
        a.extend(["--mode".to_string(), mode.to_string()]);
        let s = spawn_child(&a, true)?;
        Ok(Sample {
            setup_s: s.setup_s,
            life_s: s.life_s,
            report: serde_json::from_str(&s.report)?,
        })
    }

    fn setup_only(&mut self, w: Workload) -> Res<f64> {
        let mut a = self.base(w);
        a.extend(["--mode".to_string(), "setup".to_string()]);
        Ok(spawn_child(&a, false)?.setup_s)
    }

    fn kernels(&mut self) -> Res<kernels::KernelReport> {
        let mut a = self.base(Workload::Campaign);
        a.extend(["--mode".to_string(), "kernels".to_string()]);
        Ok(serde_json::from_str(&spawn_child(&a, true)?.report)?)
    }
}

/// One human line: a sample's median with its IQR and count.
fn show(name: &str, unit: &str, xs: &[f64], of: &str) {
    let med = stats::median(xs).unwrap_or(0.0);
    let iqr = stats::iqr(xs).unwrap_or(0.0);
    println!(
        "{name:<16} {med:>12.4} {unit:<7} median of {} {of}, IQR {iqr:.4}",
        xs.len()
    );
}

/// The measured result of one workload run.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// (name, value) in print order.
    metrics: Vec<(String, f64)>,
}

fn expected_digest(w: Workload, args: &RunArgs) -> Option<u64> {
    (args.seed == 0 && !args.smoke)
        .then(|| SEED0_DIGESTS.iter().find(|(x, _)| *x == w).map(|d| d.1))
        .flatten()
}

fn measure(w: Workload, runner: &mut Runner<'_>) -> Res<Outcome> {
    let args = runner.args.clone();
    println!(
        "== {} (seed {}{}): jobs {JOBS}, {} s budget ==",
        w.name(),
        args.seed,
        if args.smoke { ", smoke scale" } else { "" },
        args.seconds
    );
    // Every report whose output is checked, labelled for messages.
    let mut checked: Vec<(&str, RepReport)> = Vec::new();
    let warm = runner.rep(w, "rep")?;
    let mut setups = vec![warm.setup_s];
    checked.push(("warm-up", warm.report));
    if w == Workload::Fleet {
        // The fleet must save exactly the campaign's bytes.
        checked.push((
            "local campaign",
            runner.rep(Workload::Campaign, "rep")?.report,
        ));
    }
    for _ in 0..SETUP_PROBES {
        setups.push(runner.setup_only(w)?);
    }
    let t0 = clock::now();
    let mut reps: Vec<Sample<RepReport>> = Vec::new();
    loop {
        let lives: Vec<f64> = reps.iter().map(|r| r.life_s).collect();
        let next = stats::median(&lives).unwrap_or(0.0);
        if reps.len() >= MIN_REPS && t0.elapsed().as_secs_f64() + next > args.seconds {
            break;
        }
        reps.push(runner.rep(w, "rep")?);
    }
    setups.extend(reps.iter().map(|r| r.setup_s));
    let reps: Vec<RepReport> = reps.into_iter().map(|r| r.report).collect();
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let rss: Vec<f64> = reps.iter().map(|r| r.peak_rss_kb as f64 / 1024.0).collect();
    let eval_rates: Vec<f64> = reps
        .iter()
        .filter(|r| r.requested_ops > 0)
        .map(|r| r.requested_ops as f64 / r.wall_s / 1e6)
        .collect();
    let untraced_wall = stats::median(&walls).ok_or("no reps")?;
    let table5 = reps.first().map_or(0.0, |r| r.table5_err_pct);
    checked.extend(reps.into_iter().map(|r| ("rep", r)));

    let metrics: Vec<(String, f64)>;
    let mut table = Vec::new();
    if args.trace {
        let mut traced = (0..TRACED_REPS)
            .map(|_| Ok(runner.rep(w, "traced")?.report))
            .collect::<Res<Vec<RepReport>>>()?;
        traced.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
        let median = traced.remove(TRACED_REPS / 2);
        let k = runner.kernels()?;
        metrics = metrics::PER_LAYER
            .iter()
            .map(|(name, _)| (name.to_string(), layer(name, &median, &k, untraced_wall)))
            .collect();
        table = where_the_time_goes(w, &median, &k, untraced_wall);
        checked.extend(traced.into_iter().map(|t| ("traced", t)));
        checked.push(("traced", median));
    } else {
        let (wall, setup, mem) = (
            untraced_wall,
            stats::median(&setups).ok_or("no set-ups")?,
            stats::median(&rss).ok_or("no reps")?,
        );
        show("wall_s", "s", &walls, "reps");
        show("setup_s", "s", &setups, "set-ups");
        show("peak_rss_mb", "MB", &rss, "reps");
        if !eval_rates.is_empty() {
            show("eval_mops_per_s", "Mops/s", &eval_rates, "reps");
        }
        if table5 > 0.0 {
            println!(
                "{:<16} {table5:>12.4} %       of the 121 cells against Table 5",
                "table5_err_pct"
            );
        }
        metrics = vec![
            ("wall_s".to_string(), wall),
            ("setup_s".to_string(), setup),
            ("peak_rss_mb".to_string(), mem),
        ];
    }

    // Every output must match the seed-0 digest, or else the first one,
    // and pass its own checks; each that does not is one failure.
    let want = expected_digest(w, &args).unwrap_or(checked[0].1.digest);
    let mut outputs: Vec<(&str, u64)> = checked.iter().map(|(what, r)| (*what, r.digest)).collect();
    if w == Workload::Fleet {
        for (_, t) in checked.iter().filter(|(what, _)| *what == "traced") {
            outputs.push(("warm pass", t.warm_digest));
        }
    }
    let (mut attempted, mut retried, mut wrong) = (0, 0, 0);
    for (what, r) in &checked {
        attempted += r.tasks;
        retried += r.failures;
        for v in &r.violations {
            println!("CHECK FAILED in {what}: {v}");
        }
        wrong += u64::from(!r.violations.is_empty());
    }
    let mismatches: Vec<&(&str, u64)> = outputs.iter().filter(|d| d.1 != want).collect();
    for (what, d) in &mismatches {
        println!("digest MISMATCH: {what} saved {d:016x}, expected {want:016x}");
    }
    wrong += mismatches.len() as u64;
    let (attempted, failed) = (attempted.max(1), retried + wrong);
    println!(
        "{:<16} {:>12.4} ratio   {failed} of {attempted} tasks retried, failed or wrong",
        "failed_frac",
        failed as f64 / attempted as f64
    );
    println!(
        "digest {want:016x}: {} of {} outputs agree{}",
        outputs.len() - mismatches.len(),
        outputs.len(),
        if expected_digest(w, &args).is_some() {
            " with the seed-0 expectation"
        } else {
            ""
        }
    );
    for line in table {
        println!("{line}");
    }
    Ok(Outcome {
        correct: wrong == 0,
        attempted,
        failed,
        metrics,
    })
}

/// A per-layer value for the human table: counts as integers.
fn fmt_value(v: f64, unit: &str) -> String {
    if matches!(unit, "count" | "bytes") {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// The traced run's human report: the top-level phase split of the
/// traced rep, layer-cost estimates from the kernels' unit costs, and
/// the per-layer metrics with what each should move.
fn where_the_time_goes(
    w: Workload,
    t: &RepReport,
    k: &kernels::KernelReport,
    untraced_wall: f64,
) -> Vec<String> {
    let layer = |name: &str| layer(name, t, k, untraced_wall);
    let mut out = vec![format!(
        "where the time goes: median of {TRACED_REPS} traced reps {:.3} s, untraced median {untraced_wall:.3} s",
        t.wall_s
    )];
    out.push(format!("  {:<24} {:>9} {:>7}", "phase", "wall_s", "share"));
    let mut attributed = 0.0;
    for p in &t.phases {
        attributed += p.value;
        out.push(format!(
            "  {:<24} {:>9.4} {:>6.1}%",
            p.name,
            p.value,
            100.0 * p.value / t.wall_s
        ));
    }
    let rest = t.wall_s - attributed;
    out.push(format!(
        "  {:<24} {:>9.4} {:>6.1}%",
        "unattributed",
        rest,
        100.0 * rest / t.wall_s
    ));
    if rest / t.wall_s > 0.10 {
        out.push("  WARNING: the spans explain less than 90% of the rep".to_string());
    }
    // Thread-seconds each layer would cost at its kernel unit cost (for
    // the fleet, the measured round trips), against the jobs x wall the
    // rep had. The kernels run one thread alone, so on two busy threads
    // they can overestimate and the remainder can go negative.
    let capacity = JOBS as f64 * t.wall_s;
    let ops = layer("sim.ops_simulated");
    let streamed = if w == Workload::MatrixLong { ops } else { 0.0 };
    let hits = layer("explore.cache_lookups") * layer("explore.cache_hit_frac");
    let estimates = [
        (
            "Simulator::step",
            ops / (layer("sim.step_mops_per_s") * 1e6),
        ),
        (
            "trace generation (streamed)",
            streamed / (layer("workload.gen_mops_per_s") * 1e6),
        ),
        (
            "Simulator::new",
            t.sim_runs as f64 * layer("sim.new_us") / 1e6,
        ),
        ("EvalCache hits", hits * layer("explore.cache_hit_us") / 1e6),
        (
            "journal records",
            t.journal_records as f64 * layer("explore.journal_record_ms") / 1e3,
        ),
        ("serve /tasks round trips", t.task_rtt_total_s),
    ];
    out.push(format!(
        "layer cost estimates (count x kernel unit cost; capacity {JOBS} x {:.3} s):",
        t.wall_s
    ));
    let mut estimated = 0.0;
    for (name, s) in estimates {
        let s = if s.is_finite() { s } else { 0.0 };
        estimated += s;
        out.push(format!(
            "  {:<28} {:>9.4} s {:>6.1}% of capacity",
            name,
            s,
            100.0 * s / capacity
        ));
    }
    out.push(format!(
        "  {:<28} {:>9.4} s {:>6.1}% of capacity",
        "remainder (bookkeeping, idle)",
        capacity - estimated,
        100.0 * (capacity - estimated) / capacity
    ));
    if t.journal_records > 0 {
        out.push(format!(
            "journal: {} records, {:.3} ms mean, {:.0} bytes rewritten; the last {} take {:.0}% of the replay",
            t.journal_records,
            layer("explore.journal_record_ms"),
            layer("explore.journal_bytes_written"),
            t.journal_records.min(100),
            100.0 * t.journal_tail_share
        ));
    }
    if w == Workload::Fleet {
        for (pass, n) in [("cold", t.task_samples[0]), ("warm", t.task_samples[1])] {
            let tail = if n > 10 {
                format!("p{:.1}", 100.0 * (n - 10) as f64 / n as f64)
            } else {
                "no tail".to_string()
            };
            out.push(format!(
                "fleet {pass} pass: {n} /tasks round trips timed; _tail is {tail}"
            ));
        }
    }
    out.push(format!(
        "cacti lattice: {:.1}% of sampled design points unrealizable",
        100.0 * k.unrealizable
    ));
    out.push("per-layer metrics (and the end-to-end metric each should move):".to_string());
    for (name, moves) in metrics::PER_LAYER {
        let unit = metrics::unit_of(name).unwrap_or_default();
        out.push(format!(
            "  {name:<30} {:>14} {unit:<8} {moves}",
            fmt_value(layer(name), &unit)
        ));
    }
    out
}

/// A per-layer metric of a traced run; a layer the workload never
/// entered reads 0.
fn layer(name: &str, t: &RepReport, k: &kernels::KernelReport, untraced_wall: f64) -> f64 {
    match name {
        "ledger.trace_overhead_frac" => t.wall_s / untraced_wall - 1.0,
        "eval_mops_per_s" => t.requested_ops as f64 / untraced_wall / 1e6,
        _ => t
            .layers
            .iter()
            .chain(&k.layers)
            .find(|n| n.name == name)
            .map_or(0.0, |n| n.value),
    }
}

/// The contract line: `{"correct", "attempted", "failed", "metrics"}`.
fn json_line(o: &Outcome) -> Res<String> {
    let mut fields = Vec::with_capacity(o.metrics.len());
    for (name, v) in &o.metrics {
        if !v.is_finite() {
            return Err(format!("metric `{name}` is not finite ({v})").into());
        }
        fields.push(format!(
            "\"{name}\":{{\"value\":{v},\"unit\":\"{}\"}}",
            metrics::unit_of(name)?
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        fields.join(",")
    ))
}

/// Append one run record to `--out`, rewriting the file atomically.
fn append_record(path: &Path, w: Workload, args: &RunArgs, line: &str) -> Res<()> {
    let mut text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e.into()),
    };
    text.push_str(&format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"result\":{line}}}\n",
        w.name(),
        args.seed,
        u8::from(args.trace)
    ));
    xps_core::explore::write_atomic(path, &text)?;
    Ok(())
}

fn run_cmd(args: &[String], trace: bool) -> Res<bool> {
    let args = parse_run(args, trace)?;
    let mut runner = Runner {
        args: &args,
        root: args.scratch.join(std::process::id().to_string()),
        next: 0,
    };
    let mut all_correct = true;
    let result = (|| -> Res<()> {
        for &w in &args.workloads {
            let o = measure(w, &mut runner)?;
            let line = json_line(&o)?;
            if let Some(out) = &args.out {
                append_record(out, w, &args, &line)?;
            }
            all_correct &= o.correct;
            println!("{line}");
        }
        Ok(())
    })();
    // Children are gone by now; their scratch dirs go too.
    let _ = std::fs::remove_dir_all(&runner.root);
    let _ = std::fs::remove_dir(&args.scratch);
    result?;
    Ok(all_correct)
}

fn compare_cmd(args: &[String]) -> Res<bool> {
    let [parent, change] = args else {
        return Err(USAGE.into());
    };
    let parent = compare::parse_runs(&std::fs::read_to_string(parent)?)?;
    let change = compare::parse_runs(&std::fs::read_to_string(change)?)?;
    let (table, regressed) = compare::report(&parent, &change)?;
    print!("{table}");
    Ok(!regressed)
}

fn child_cmd(args: &[String]) -> Res<bool> {
    let (mut w, mut seed, mut smoke, mut mode, mut dir) =
        (Workload::Campaign, 0u64, false, None, PathBuf::new());
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => w = Workload::parse(value(args, &mut i, flag)?)?,
            "--seed" => seed = value(args, &mut i, flag)?.parse()?,
            "--smoke" => smoke = true,
            "--mode" => mode = Some(value(args, &mut i, flag)?.to_string()),
            "--dir" => dir = PathBuf::from(value(args, &mut i, flag)?),
            other => return Err(format!("unknown child flag `{other}`").into()),
        }
        i += 1;
    }
    let mode = match mode.as_deref() {
        Some("setup") => Mode::Setup,
        Some("rep") => Mode::Rep,
        Some("traced") => Mode::Traced,
        Some("kernels") => {
            println!("ready");
            println!("{}", serde_json::to_string(&kernels::run(seed, smoke)?)?);
            return Ok(true);
        }
        _ => return Err("child needs --mode setup|rep|traced|kernels".into()),
    };
    let result = workloads::child(w, seed, smoke, mode, dir.clone());
    let _ = std::fs::remove_dir_all(&dir);
    result?;
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_cmd(rest, false),
        Some("trace") => run_cmd(rest, true),
        Some("compare") => compare_cmd(rest),
        Some("child") => child_cmd(rest),
        _ => Err(USAGE.into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xps-perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_flags_parse_and_reject_junk() {
        let a: Vec<String> = [
            "--workload",
            "bakeoff",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let r = parse_run(&a, false).expect("parses");
        assert_eq!(r.workloads, vec![Workload::Bakeoff]);
        assert_eq!((r.seed, r.seconds, r.trace), (7, 3.0, true));
        for bad in [
            &["--trace", "2"][..],
            &["--seconds", "0"],
            &["--workload", "x"],
            &["--nope"],
            &["--seed"],
        ] {
            let bad: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(parse_run(&bad, false).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let o = Outcome {
            correct: true,
            attempted: 5,
            failed: 0,
            metrics: vec![("wall_s".into(), 1.25), ("setup_s".into(), 0.003)],
        };
        let line = json_line(&o).expect("renders");
        let v: serde::Value = serde_json::from_str(&line).expect("valid JSON");
        let serde::Value::Obj(keys) = &v else {
            panic!("not an object: {line}")
        };
        let names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["correct", "attempted", "failed", "metrics"]);
        assert!(
            line.contains("\"wall_s\":{\"value\":1.25,\"unit\":\"s\"}"),
            "{line}"
        );
        let nan = Outcome {
            metrics: vec![("wall_s".into(), f64::NAN)],
            ..o
        };
        assert!(json_line(&nan).is_err());
    }
}
