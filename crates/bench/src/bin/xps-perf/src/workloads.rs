//! The four workloads, as one child process runs them: set up, signal
//! ready, run one rep, report.
//!
//! Every rep is a fresh process, so the program's thread-local replay
//! and generator caches start cold, as in a user's `repro` invocation.
//! Inputs come from the workload seed alone; seed 0 keeps the
//! repository's built-in seeds.

use crate::clock;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;
use xps_bench::{load_measured, save_measured, Measured};
use xps_core::communal::CrossPerfMatrix;
use xps_core::cross_matrix_recoverable;
use xps_core::explore::{fnv64, write_atomic, Journal, RunContext, TaskDispatcher};
use xps_core::paper;
use xps_core::pipeline::Pipeline;
use xps_core::sim::CoreConfig;
use xps_core::trace::{with_recorder, Profile, TraceSink};
use xps_core::workload::{spec, WorkloadProfile};
use xps_scenario::{run_bakeoff, BakeoffOptions, BakeoffReport};
use xps_serve::client::Response;
use xps_serve::{
    Fleet, FleetConfig, ServeError, Server, ServerConfig, ShutdownHandle, TcpTransport, Transport,
};

/// Worker threads of every fan-out (`--jobs 2`).
pub const JOBS: usize = 2;

/// Idle `/healthz` round trips a traced fleet rep times (20 at smoke
/// scale): the HTTP and accept floor under every task.
const HEALTHZ_PROBES: usize = 200;

/// Trace length of every `matrix-long` cell: the paper's length, past
/// the replay cache, so every cell streams from the generator.
const MATRIX_LONG_OPS: u64 = 1_000_000;

type Res<T> = Result<T, Box<dyn Error>>;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `repro explore --quick`: anneal, cross seeding, matrix, journal.
    Campaign,
    /// The Table 5 matrix at paper trace length over the Table 4 cores.
    MatrixLong,
    /// `repro bakeoff`: three explorers at an equal budget.
    Bakeoff,
    /// The campaign scattered over two in-process `xps-serve` workers.
    Fleet,
}

impl Workload {
    /// Every workload, in the declared order.
    pub const ALL: [Workload; 4] = [
        Workload::Campaign,
        Workload::MatrixLong,
        Workload::Bakeoff,
        Workload::Fleet,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::MatrixLong => "matrix-long",
            Workload::Bakeoff => "bakeoff",
            Workload::Fleet => "fleet",
        }
    }

    /// Parse a workload name.
    ///
    /// # Errors
    ///
    /// A message listing the known names.
    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload `{s}` (known: {})", names.join(", "))
            })
    }
}

/// What one child does after set-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Exit right after signalling ready: a set-up sample.
    Setup,
    /// One untraced rep.
    Rep,
    /// One rep with the program's spans recorded and layer timers on.
    Traced,
}

/// A named number, the wire form of a metric or a phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Named {
    /// Metric or phase name.
    pub name: String,
    /// Its value.
    pub value: f64,
}

fn named(name: &str, value: f64) -> Named {
    Named {
        name: name.to_string(),
        value,
    }
}

/// Everything one rep reports back to the parent.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RepReport {
    /// Wall time of the measured work (fleet: the cold pass), s.
    pub wall_s: f64,
    /// FNV-64 of the rep's canonical output.
    pub digest: u64,
    /// Fleet traced reps only: digest of the warm pass (0 otherwise).
    pub warm_digest: u64,
    /// Tasks the rep attempted.
    pub tasks: u64,
    /// Retried, permanently failed, and fleet-degraded tasks.
    pub failures: u64,
    /// The child's peak resident set (VmHWM), kB.
    pub peak_rss_kb: u64,
    /// Checks the output failed beyond its digest, one line each.
    pub violations: Vec<String>,
    /// Eval micro-ops the rep requested: counted from the output for
    /// `matrix-long` and `bakeoff`, from the trace for traced campaigns.
    pub requested_ops: u64,
    /// `matrix-long`: mean absolute error against the published
    /// Table 5, percent (0 elsewhere and at smoke scale).
    pub table5_err_pct: f64,
    /// Per-layer metrics of a traced rep.
    pub layers: Vec<Named>,
    /// Top-level phases of a traced rep, s: program spans and the
    /// benchmark's own timers around calls no span covers.
    pub phases: Vec<Named>,
    /// Simulator runs the traced rep recorded.
    pub sim_runs: u64,
    /// Journal records the traced rep wrote.
    pub journal_records: u64,
    /// Share of the journal replay spent on its last 100 records.
    pub journal_tail_share: f64,
    /// `/tasks` round trips timed in the cold and warm fleet passes.
    pub task_samples: [u64; 2],
    /// Summed cold `/tasks` round-trip time, s.
    pub task_rtt_total_s: f64,
}

/// Mix the workload seed into a built-in seed; seed 0 leaves it as is.
pub fn mix(builtin: u64, seed: u64) -> u64 {
    if seed == 0 {
        return builtin;
    }
    // Hashed, so neighbouring seeds diverge fully.
    builtin ^ splitmix64(seed)
}

/// The SplitMix64 increment.
pub const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 output for state `x`.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The SPEC profiles (or the smoke subset) with the seed mixed in.
pub fn profiles(seed: u64, smoke: bool) -> Vec<WorkloadProfile> {
    let mut all = spec::all_profiles();
    if smoke {
        all.retain(|p| matches!(p.name.as_str(), "gzip" | "mcf" | "crafty"));
    }
    for p in &mut all {
        p.seed = mix(p.seed, seed);
    }
    all
}

fn campaign_pipeline(seed: u64, smoke: bool) -> Pipeline {
    let mut p = Pipeline::quick();
    if smoke {
        p.explore.anneal.iterations = 8;
        p.explore.anneal.eval_ops_early = 3_000;
        p.explore.anneal.eval_ops_late = 6_000;
        p.explore.reanneal_iterations = 3;
        p.matrix_ops = 8_000;
    }
    p.explore.jobs = JOBS;
    p.explore.anneal.seed = mix(p.explore.anneal.seed, seed);
    p
}

fn bakeoff_options(seed: u64, smoke: bool) -> BakeoffOptions {
    let mut b = if smoke {
        BakeoffOptions::smoke()
    } else {
        BakeoffOptions::quick()
    };
    b.jobs = JOBS;
    b.search.seed = mix(b.search.seed, seed);
    if let Some(s) = &mut b.scenario {
        s.seed = mix(s.seed, seed);
    }
    b
}

/// A `/tasks`-timing wrapper around the plain TCP transport.
#[derive(Debug, Default)]
struct TimedTransport {
    inner: TcpTransport,
    /// (round-trip ms, request + response bytes) per `/tasks` call.
    samples: Mutex<Vec<(f64, u64)>>,
}

impl TimedTransport {
    fn take(&self) -> Vec<(f64, u64)> {
        std::mem::take(&mut *self.samples.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl Transport for TimedTransport {
    fn roundtrip(
        &self,
        addr: &str,
        method: &str,
        path: &str,
        body: Option<&str>,
        timeout: Duration,
        fault_key: &str,
    ) -> Result<Response, ServeError> {
        let t0 = clock::now();
        let resp = self
            .inner
            .roundtrip(addr, method, path, body, timeout, fault_key);
        if path == "/tasks" {
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let bytes = body.map_or(0, str::len) + resp.as_ref().map_or(0, |r| r.body.len());
            self.samples
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push((ms, bytes as u64));
        }
        resp
    }
}

/// Two in-process `xps-serve` workers on ephemeral loopback ports.
struct Workers {
    addrs: Vec<String>,
    stops: Vec<ShutdownHandle>,
    threads: Vec<std::thread::JoinHandle<Result<(), ServeError>>>,
}

impl Workers {
    fn start(dir: &Path, n: usize) -> Res<Workers> {
        let mut w = Workers {
            addrs: Vec::new(),
            stops: Vec::new(),
            threads: Vec::new(),
        };
        for i in 0..n {
            let mut cfg = ServerConfig::new(dir.join(format!("worker{i}")));
            cfg.pipeline_jobs = 1;
            let server = Server::bind(&cfg)?;
            w.addrs.push(server.local_addr()?.to_string());
            w.stops.push(server.shutdown_handle());
            w.threads.push(std::thread::spawn(move || server.run()));
        }
        // Probed together: one after the other, the second probe races
        // its worker's 20 ms accept poll and set-up time goes bimodal.
        std::thread::scope(|s| {
            let probes: Vec<_> = w.addrs.iter().map(|a| s.spawn(|| healthz(a))).collect();
            probes.into_iter().try_for_each(|p| {
                p.join().map_err(|_| "a /healthz probe panicked")??;
                Ok::<_, Box<dyn Error>>(())
            })
        })?;
        Ok(w)
    }

    fn stop(self) -> Res<()> {
        for s in &self.stops {
            s.shutdown();
        }
        for t in self.threads {
            t.join().map_err(|_| "worker thread panicked")??;
        }
        Ok(())
    }
}

/// One `/healthz` round trip; a freshly bound worker gets a few tries
/// while its accept loop starts.
fn healthz(addr: &str) -> Result<f64, String> {
    let tcp = TcpTransport::default();
    let mut last = String::new();
    for attempt in 0..50 {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
        let t0 = clock::now();
        match tcp.roundtrip(addr, "GET", "/healthz", None, Duration::from_secs(2), "") {
            Ok(r) if r.status == 200 => return Ok(t0.elapsed().as_secs_f64() * 1e3),
            Ok(r) => last = format!("HTTP {}", r.status),
            Err(e) => last = e.to_string(),
        }
    }
    Err(format!("worker {addr} never answered /healthz: {last}"))
}

/// Inputs built before the child signals ready.
enum Prepared {
    Campaign {
        profiles: Vec<WorkloadProfile>,
        pipeline: Pipeline,
    },
    MatrixLong {
        profiles: Vec<WorkloadProfile>,
        configs: Vec<CoreConfig>,
        ops: u64,
    },
    Bakeoff(BakeoffOptions),
    Fleet {
        profiles: Vec<WorkloadProfile>,
        pipeline: Pipeline,
        workers: Workers,
        fleet: Arc<Fleet>,
        timed: Option<Arc<TimedTransport>>,
        healthz_probes: usize,
    },
}

fn prepare(w: Workload, seed: u64, smoke: bool, mode: Mode, dir: &Path) -> Res<Prepared> {
    Ok(match w {
        Workload::Campaign => Prepared::Campaign {
            profiles: profiles(seed, smoke),
            pipeline: campaign_pipeline(seed, smoke),
        },
        Workload::MatrixLong => {
            let profiles = profiles(seed, smoke);
            let configs = profiles
                .iter()
                .map(|p| paper::table4_config(&p.name).ok_or("no Table 4 core"))
                .collect::<Result<Vec<_>, _>>()?;
            let ops = if smoke { 20_000 } else { MATRIX_LONG_OPS };
            Prepared::MatrixLong {
                profiles,
                configs,
                ops,
            }
        }
        Workload::Bakeoff => Prepared::Bakeoff(bakeoff_options(seed, smoke)),
        Workload::Fleet => {
            let workers = Workers::start(dir, 2)?;
            let cfg = FleetConfig::new(workers.addrs.clone());
            let tcp = TcpTransport {
                connect_timeout: cfg.connect_timeout,
            };
            let (fleet, timed) = if mode == Mode::Traced {
                let timed = Arc::new(TimedTransport {
                    inner: tcp,
                    ..TimedTransport::default()
                });
                (Fleet::new(cfg, timed.clone()), Some(timed))
            } else {
                (Fleet::new(cfg, Arc::new(tcp)), None)
            };
            Prepared::Fleet {
                profiles: profiles(seed, smoke),
                pipeline: campaign_pipeline(seed, smoke),
                workers,
                fleet: Arc::new(fleet),
                timed,
                healthz_probes: if smoke { 20 } else { HEALTHZ_PROBES },
            }
        }
    })
}

/// The profile of a traced region, or nothing when untraced.
struct Tracing {
    sink: Option<TraceSink>,
}

impl Tracing {
    fn new(traced: bool) -> Tracing {
        Tracing {
            sink: traced.then(TraceSink::with_wall_clock),
        }
    }

    fn context(&self, ctx: RunContext) -> RunContext {
        match &self.sink {
            Some(s) => ctx.with_trace(s.clone()),
            None => ctx,
        }
    }

    /// Run `f` with the caller thread's recorder installed.
    fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.sink {
            Some(s) => {
                let (rec, out) = with_recorder(s.recorder(), f);
                s.attach("main", rec);
                out
            }
            None => f(),
        }
    }

    fn profile(&self) -> Profile {
        self.sink
            .as_ref()
            .map(TraceSink::profile)
            .unwrap_or_default()
    }
}

fn span_s(p: &Profile, name: &str) -> f64 {
    p.row(name).map_or(0.0, |r| r.wall_ns as f64 / 1e9)
}

/// Largest IPT a sane result holds (the end-to-end tests' bound).
const MAX_IPT: f64 = 40.0;

/// What must hold of a cross-configuration matrix over `profiles` for
/// any seed: rows in input order, every IPT positive and bounded.
fn matrix_violations(m: &CrossPerfMatrix, profiles: &[WorkloadProfile]) -> Vec<String> {
    let mut v = Vec::new();
    if !m.names().iter().eq(profiles.iter().map(|p| &p.name)) {
        v.push(format!(
            "matrix rows {:?} are not the input profiles",
            m.names()
        ));
    }
    for w in 0..m.len() {
        for c in 0..m.len() {
            let ipt = m.ipt(w, c);
            if !(ipt > 0.0 && ipt < MAX_IPT) {
                v.push(format!("IPT of {} on core {c} is {ipt}", m.names()[w]));
            }
        }
    }
    v
}

/// What must hold of a saved campaign, read back through
/// `load_measured` (which verifies its checksum): one valid core per
/// profile, named for it, and a matrix the replacement rule made
/// diagonal-dominant.
fn campaign_violations(path: &Path, profiles: &[WorkloadProfile]) -> Vec<String> {
    let m = match load_measured(path) {
        Ok(m) => m,
        Err(e) => return vec![format!("saved campaign does not load: {e}")],
    };
    let mut v = matrix_violations(&m.matrix, profiles);
    if !m.quick || m.cores.len() != profiles.len() {
        v.push(format!(
            "{} cores saved (quick: {})",
            m.cores.len(),
            m.quick
        ));
    }
    for (core, p) in m.cores.iter().zip(profiles) {
        if core.config.name != p.name || core.config.validate().is_err() {
            v.push(format!("core for {} is misnamed or invalid", p.name));
        }
    }
    if !m.matrix.is_diagonal_dominant() {
        v.push("matrix is not diagonal-dominant".to_string());
    }
    v
}

/// What must hold of a bake-off for any seed: every explorer ran on
/// every workload within the budget, and each winner holds the best IPT.
fn bakeoff_violations(r: &BakeoffReport) -> Vec<String> {
    let mut v = Vec::new();
    if r.workloads.is_empty() {
        v.push("bake-off ran no workloads".to_string());
    }
    for w in &r.workloads {
        let best = w.entries.iter().map(|e| e.ipt).fold(f64::MIN, f64::max);
        if w.entries.len() != r.explorers.len() || w.best_ipt != best {
            v.push(format!("{}: entries or winner inconsistent", w.workload));
        }
        for e in &w.entries {
            if e.evals > r.budget || !(e.ipt > 0.0 && e.ipt < MAX_IPT) {
                v.push(format!(
                    "{}/{}: {} evals, IPT {}",
                    w.workload, e.explorer, e.evals, e.ipt
                ));
            }
        }
    }
    v
}

/// One campaign through `ctx`, persisted like `repro explore` does:
/// its wall time, the digest of the saved bytes, the tasks and failures
/// the context saw, the benchmark-timed save, what the saved result
/// violates, and (traced) the journal's records.
struct CampaignRun {
    wall_s: f64,
    digest: u64,
    tasks: u64,
    failures: u64,
    save_s: f64,
    violations: Vec<String>,
    journal_text: String,
}

fn campaign_once(
    profiles: &[WorkloadProfile],
    pipeline: &Pipeline,
    ctx: RunContext,
    dir: &Path,
    tracing: &Tracing,
) -> Res<CampaignRun> {
    let journal_path = dir.join("journal.jsonl");
    let measured_path = dir.join("measured.json");
    let t0 = clock::now();
    let mut ctx = tracing.context(ctx.with_journal(Journal::create(&journal_path)?));
    let result = tracing.run(|| pipeline.run_recoverable(profiles, &ctx))?;
    let r = &result.stats.recovery;
    let tasks = r.executed + ctx.remote_dispatched() + r.failed_tasks.len() as u64;
    let failures = r.retried + r.failed_tasks.len() as u64;
    let t_save = clock::now();
    save_measured(&Measured::from((result, true)), &measured_path)?;
    let save_s = t_save.elapsed().as_secs_f64();
    let journal_text = if tracing.sink.is_some() {
        std::fs::read_to_string(&journal_path)?
    } else {
        String::new()
    };
    if let Some(j) = ctx.take_journal() {
        j.discard()?;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(CampaignRun {
        wall_s,
        digest: fnv64(0, &std::fs::read(&measured_path)?),
        tasks,
        failures,
        save_s,
        violations: campaign_violations(&measured_path, profiles),
        journal_text,
    })
}

/// Fill the trace-derived fields every traced rep shares, replaying the
/// rep's journal (in file order) into a fresh one to time `record`.
fn absorb_trace(report: &mut RepReport, p: &Profile, journal_text: &str, dir: &Path) -> Res<()> {
    #[derive(Deserialize)]
    struct Record {
        task: String,
        value: String,
    }
    report.sim_runs = p.row("sim.run").map_or(0, |r| r.count);
    if report.requested_ops == 0 {
        report.requested_ops = p.row("cache.lookup").map_or(0, |r| r.ops);
    }
    report.layers = explore_counts(p);
    let records = journal_text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(serde_json::from_str::<Record>)
        .collect::<Result<Vec<_>, _>>()?;
    if records.is_empty() {
        return Ok(());
    }
    let path = dir.join("replay.jsonl");
    let journal = Journal::create(&path)?;
    let mut per_record = Vec::with_capacity(records.len());
    let mut bytes = 0u64;
    for r in records {
        let t0 = clock::now();
        journal.record(&r.task, r.value)?;
        per_record.push(t0.elapsed().as_secs_f64() * 1e3);
        // Every record rewrites the whole file.
        bytes += std::fs::metadata(&path)?.len();
    }
    journal.discard()?;
    let total: f64 = per_record.iter().sum();
    let tail: f64 = per_record[per_record.len().saturating_sub(100)..]
        .iter()
        .sum();
    report.journal_records = per_record.len() as u64;
    report.journal_tail_share = tail / total;
    report.layers.push(named(
        "explore.journal_record_ms",
        total / per_record.len() as f64,
    ));
    report
        .layers
        .push(named("explore.journal_bytes_written", bytes as f64));
    Ok(())
}

/// The explore-layer counts every traced rep reports.
fn explore_counts(p: &Profile) -> Vec<Named> {
    let lookups = p.row("cache.lookup").unwrap_or_default();
    let hits = p.row("cache.hit").map_or(0, |r| r.count);
    vec![
        named(
            "sim.ops_simulated",
            p.row("sim.run").map_or(0, |r| r.ops) as f64,
        ),
        named("explore.cache_lookups", lookups.count as f64),
        named(
            "explore.cache_hit_frac",
            if lookups.count == 0 {
                0.0
            } else {
                hits as f64 / lookups.count as f64
            },
        ),
        named("explore.ops_requested", lookups.ops as f64),
        named("explore.anneal_s", span_s(p, "explore.anneal")),
        named("explore.cross_s", span_s(p, "explore.cross")),
        // Re-anneals run inside `explore.cross`, so the walks are set
        // against the worker capacity of both phases; over
        // `explore.anneal` alone the share exceeds 1.
        named("explore.fan_util", {
            let phases = span_s(p, "explore.anneal") + span_s(p, "explore.cross");
            if phases > 0.0 {
                span_s(p, "anneal.walk") / (JOBS as f64 * phases)
            } else {
                0.0
            }
        }),
        named("core.matrix_fill_s", span_s(p, "matrix.fill")),
        named("core.matrix_replace_s", span_s(p, "matrix.replace")),
    ]
}

/// Top-level phases of a campaign: the program's phase spans on the
/// caller thread plus the benchmark-timed save.
fn campaign_phases(p: &Profile, save_s: f64) -> Vec<Named> {
    let mut phases: Vec<Named> = [
        "explore.anneal",
        "explore.cross",
        "matrix.fill",
        "matrix.replace",
    ]
    .iter()
    .map(|n| named(n, span_s(p, n)))
    .collect();
    phases.push(named("save_measured", save_s));
    phases
}

/// Mean absolute error of a measured 11x11 matrix against the
/// published Table 5, percent.
fn table5_err_pct(m: &CrossPerfMatrix) -> Res<f64> {
    let paper = paper::table5_matrix();
    let mut sum = 0.0;
    let mut n = 0usize;
    for (w, wname) in m.names().iter().enumerate() {
        for (c, cname) in m.names().iter().enumerate() {
            let (pw, pc) = paper
                .index_of(wname)
                .zip(paper.index_of(cname))
                .ok_or("workload missing from Table 5")?;
            let want = paper.ipt(pw, pc);
            sum += (m.ipt(w, c) - want).abs() / want;
            n += 1;
        }
    }
    Ok(100.0 * sum / n as f64)
}

fn unrealizable_frac(report: &BakeoffReport) -> f64 {
    let (mut evals, mut unreal) = (0u64, 0u64);
    for e in report.workloads.iter().flat_map(|w| &w.entries) {
        evals += e.evals;
        unreal += e.unrealizable;
    }
    if evals + unreal == 0 {
        0.0
    } else {
        unreal as f64 / (evals + unreal) as f64
    }
}

fn fleet_failures(fleet: &Fleet, before: &xps_serve::FleetStats) -> u64 {
    let s = fleet.stats();
    (s.retried - before.retried) + (s.degraded - before.degraded)
}

fn rtt_metrics(prefix: &str, samples: &[(f64, u64)]) -> Vec<Named> {
    let ms: Vec<f64> = samples.iter().map(|s| s.0).collect();
    vec![
        named(
            &format!("{prefix}_p50"),
            crate::stats::median(&ms).unwrap_or(0.0),
        ),
        named(
            &format!("{prefix}_tail"),
            crate::stats::tail(&ms).map_or(0.0, |t| t.1),
        ),
    ]
}

/// Run one rep of a prepared workload.
fn run_rep(prep: Prepared, mode: Mode, dir: &Path) -> Res<RepReport> {
    let traced = mode == Mode::Traced;
    let tracing = Tracing::new(traced);
    let mut report = RepReport::default();
    match prep {
        Prepared::Campaign { profiles, pipeline } => {
            let run = campaign_once(&profiles, &pipeline, RunContext::new(), dir, &tracing)?;
            report.wall_s = run.wall_s;
            report.digest = run.digest;
            report.tasks = run.tasks;
            report.failures = run.failures;
            report.violations = run.violations;
            if traced {
                let p = tracing.profile();
                absorb_trace(&mut report, &p, &run.journal_text, dir)?;
                report.phases = campaign_phases(&p, run.save_s);
            }
        }
        Prepared::MatrixLong {
            profiles,
            mut configs,
            ops,
        } => {
            let ctx = tracing.context(RunContext::new());
            let t0 = clock::now();
            let (matrix, _) = tracing.run(|| {
                cross_matrix_recoverable(&profiles, &mut configs, ops, 0, JOBS, None, &ctx)
            })?;
            report.wall_s = t0.elapsed().as_secs_f64();
            report.digest = fnv64(0, serde_json::to_string(&matrix)?.as_bytes());
            let r = ctx.stats();
            report.tasks = r.executed + r.failed_tasks.len() as u64;
            report.failures = r.retried + r.failed_tasks.len() as u64;
            report.violations = matrix_violations(&matrix, &profiles);
            // No cache on this path: every cell is one requested eval.
            let n = profiles.len() as u64;
            report.requested_ops = n * n * ops;
            if profiles.len() == spec::BENCHMARKS.len() {
                report.table5_err_pct = table5_err_pct(&matrix)?;
            }
            if traced {
                let p = tracing.profile();
                absorb_trace(&mut report, &p, "", dir)?;
                report
                    .layers
                    .push(named("core.table5_err_pct", report.table5_err_pct));
                report.phases = vec![
                    named("matrix.fill", span_s(&p, "matrix.fill")),
                    named("matrix.replace", span_s(&p, "matrix.replace")),
                ];
            }
        }
        Prepared::Bakeoff(opts) => {
            let journal_path = dir.join("bakeoff-journal.jsonl");
            let out = dir.join("bakeoff.json");
            let t0 = clock::now();
            let mut ctx =
                tracing.context(RunContext::new().with_journal(Journal::create(&journal_path)?));
            let bake = tracing.run(|| run_bakeoff(&opts, &ctx))?;
            let t_write = clock::now();
            let canonical = bake.canonical();
            write_atomic(&out, &canonical)?;
            let write_s = t_write.elapsed().as_secs_f64();
            let journal_text = if traced {
                std::fs::read_to_string(&journal_path)?
            } else {
                String::new()
            };
            if let Some(j) = ctx.take_journal() {
                j.discard()?;
            }
            report.wall_s = t0.elapsed().as_secs_f64();
            report.digest = fnv64(0, canonical.as_bytes());
            let r = ctx.stats();
            report.tasks = r.executed + r.failed_tasks.len() as u64;
            report.failures = r.retried + r.failed_tasks.len() as u64;
            report.violations = bakeoff_violations(&bake);
            let evals: u64 = bake
                .workloads
                .iter()
                .flat_map(|w| &w.entries)
                .map(|e| e.evals)
                .sum();
            report.requested_ops = evals * bake.eval_ops;
            if traced {
                let p = tracing.profile();
                absorb_trace(&mut report, &p, &journal_text, dir)?;
                let run = span_s(&p, "bakeoff.run");
                report.layers.push(named("scenario.bakeoff_run_s", run));
                report.layers.push(named(
                    "explore.search_util",
                    if run > 0.0 {
                        span_s(&p, "search.run") / (JOBS as f64 * run)
                    } else {
                        0.0
                    },
                ));
                report
                    .layers
                    .push(named("explore.unrealizable_frac", unrealizable_frac(&bake)));
                report.phases = vec![named("bakeoff.run", run), named("write_report", write_s)];
            }
        }
        Prepared::Fleet {
            profiles,
            pipeline,
            workers,
            fleet,
            timed,
            healthz_probes,
        } => {
            let dispatcher: Arc<dyn TaskDispatcher> = fleet.clone();
            let before = fleet.stats();
            let cold = campaign_once(
                &profiles,
                &pipeline,
                RunContext::new().with_dispatcher(dispatcher.clone()),
                dir,
                &tracing,
            )?;
            report.wall_s = cold.wall_s;
            report.digest = cold.digest;
            report.tasks = cold.tasks;
            report.failures = cold.failures + fleet_failures(&fleet, &before);
            report.violations = cold.violations;
            if traced {
                let p = tracing.profile();
                absorb_trace(&mut report, &p, &cold.journal_text, dir)?;
                let cold_rtt = timed.as_ref().map(|t| t.take()).unwrap_or_default();
                // The warm pass: the same campaign over the same
                // workers, now answered from their result stores.
                let before = fleet.stats();
                let warm = campaign_once(
                    &profiles,
                    &pipeline,
                    RunContext::new().with_dispatcher(dispatcher),
                    dir,
                    &Tracing::new(false),
                )?;
                let warm_s = warm.wall_s;
                report.warm_digest = warm.digest;
                report.tasks += warm.tasks;
                report.failures += warm.failures + fleet_failures(&fleet, &before);
                report.violations.extend(warm.violations);
                let warm_rtt = timed.as_ref().map(|t| t.take()).unwrap_or_default();
                let mut idle = Vec::with_capacity(healthz_probes);
                for _ in 0..healthz_probes {
                    idle.push(healthz(&workers.addrs[0])?);
                }
                let s = fleet.stats();
                report
                    .layers
                    .extend(rtt_metrics("serve.task_rtt_ms", &cold_rtt));
                report
                    .layers
                    .extend(rtt_metrics("serve.task_rtt_warm_ms", &warm_rtt));
                report.layers.push(named(
                    "serve.task_bytes",
                    if cold_rtt.is_empty() {
                        0.0
                    } else {
                        cold_rtt.iter().map(|s| s.1 as f64).sum::<f64>() / cold_rtt.len() as f64
                    },
                ));
                report.layers.push(named(
                    "serve.healthz_rtt_ms_p50",
                    crate::stats::median(&idle).unwrap_or(0.0),
                ));
                report.layers.push(named("serve.retried", s.retried as f64));
                report
                    .layers
                    .push(named("serve.degraded", s.degraded as f64));
                report.layers.push(named("serve.warm_wall_s", warm_s));
                report.task_samples = [cold_rtt.len() as u64, warm_rtt.len() as u64];
                report.task_rtt_total_s = cold_rtt.iter().map(|s| s.0).sum::<f64>() / 1e3;
                report.phases = campaign_phases(&p, cold.save_s);
            }
            drop(fleet);
            workers.stop()?;
        }
    }
    report.peak_rss_kb = peak_rss_kb()?;
    if traced {
        let attributed: f64 = report.phases.iter().map(|p| p.value).sum();
        report.layers.push(named(
            "ledger.unattributed_frac",
            1.0 - attributed / report.wall_s,
        ));
    }
    Ok(report)
}

/// The process's peak resident set, kB, from `/proc/self/status`.
fn peak_rss_kb() -> Res<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// The child's whole life: set up, print `ready`, run (unless this is
/// a set-up sample), print the report as one JSON line.
///
/// # Errors
///
/// Any failure of the workload itself.
pub fn child(w: Workload, seed: u64, smoke: bool, mode: Mode, dir: PathBuf) -> Res<()> {
    std::fs::create_dir_all(&dir)?;
    let prep = prepare(w, seed, smoke, mode, &dir)?;
    println!("ready");
    if mode == Mode::Setup {
        if let Prepared::Fleet { workers, fleet, .. } = prep {
            drop(fleet);
            workers.stop()?;
        }
        return Ok(());
    }
    let report = run_rep(prep, mode, &dir)?;
    println!("{}", serde_json::to_string(&report)?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_checks_flag_out_of_range_cells_and_foreign_rows() {
        let p = profiles(0, true);
        let names: Vec<String> = p.iter().map(|p| p.name.clone()).collect();
        let ok = CrossPerfMatrix::new(names.clone(), vec![vec![1.5; 3]; 3]).expect("valid");
        assert!(matrix_violations(&ok, &p).is_empty());
        let mut cells = vec![vec![1.5; 3]; 3];
        cells[1][2] = MAX_IPT + 1.0;
        let high = CrossPerfMatrix::new(names.clone(), cells).expect("valid");
        assert_eq!(matrix_violations(&high, &p).len(), 1);
        let reversed: Vec<String> = names.into_iter().rev().collect();
        let foreign = CrossPerfMatrix::new(reversed, vec![vec![1.5; 3]; 3]).expect("valid");
        assert_eq!(matrix_violations(&foreign, &p).len(), 1);
    }

    #[test]
    fn campaign_checks_pass_a_saved_campaign_and_fail_a_damaged_one() {
        let dir = std::env::temp_dir().join(format!("xps-perf-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let p = profiles(3, true);
        let run = campaign_once(
            &p,
            &campaign_pipeline(3, true),
            RunContext::new(),
            &dir,
            &Tracing::new(false),
        )
        .expect("smoke campaign runs");
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        let path = dir.join("measured.json");
        let text = std::fs::read_to_string(&path).expect("saved");
        let damaged = text.replacen("\"ipt\":", "\"ipt\":1", 1);
        std::fs::write(&path, damaged).expect("rewrite");
        assert!(!campaign_violations(&path, &p).is_empty());
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn bakeoff_checks_flag_overspent_budgets_and_wrong_winners() {
        let ctx = RunContext::new();
        let report = run_bakeoff(&bakeoff_options(3, true), &ctx).expect("smoke bake-off runs");
        assert!(bakeoff_violations(&report).is_empty());
        let mut over = report.clone();
        over.workloads[0].entries[0].evals = over.budget + 1;
        assert_eq!(bakeoff_violations(&over).len(), 1);
        let mut wrong = report;
        wrong.workloads[0].best_ipt += 1.0;
        assert_eq!(bakeoff_violations(&wrong).len(), 1);
    }

    #[test]
    fn seed_zero_keeps_the_builtin_seeds() {
        assert_eq!(mix(0x5eed, 0), 0x5eed);
        assert_ne!(mix(0x5eed, 1), mix(0x5eed, 2));
    }
}
