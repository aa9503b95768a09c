//! The fleet dispatcher: scatters a campaign's tasks over remote
//! `xps-serve` workers, hardened against worker failure.
//!
//! A [`Fleet`] implements the exploration layer's
//! [`TaskDispatcher`] seam. Attached to a run with
//! [`RunContext::with_dispatcher`](xps_core::explore::RunContext::with_dispatcher),
//! it takes each task the pipeline fans out and POSTs its canonical
//! [`TaskSpec`] to a worker's `/tasks` endpoint. The returned body is
//! spliced into the fan in item order, so a campaign run over a fleet
//! writes the same bytes as a single-node run for any worker count,
//! topology, or failure schedule. The dispatcher owns *placement and
//! endurance*; the *results* are pure functions of the specs.
//!
//! Failure handling is the point:
//!
//! * every round-trip has connect/read/write deadlines (a hung worker
//!   surfaces as a timeout, never a wedged pool slot);
//! * a task's first attempt goes to a worker chosen by a hash of its
//!   canonical spec, so a repeated task lands where its result is
//!   already stored;
//! * failed dispatches retry on the next healthy worker, bounded by
//!   [`FleetConfig::retries`], with deterministic exponential backoff
//!   plus seeded jitter — the backoff schedule is a pure function of
//!   the task key, never the clock;
//! * responses travel in a checksummed envelope, so a truncated or
//!   garbled body is detected and retried instead of silently merged
//!   (a truncated bare number would still parse as JSON);
//! * workers accumulating [`FleetConfig::quarantine_after`]
//!   consecutive failures are quarantined out of the rotation, and a
//!   background heartbeat probes `/healthz` to detect hangs early and
//!   restore recovered workers;
//! * when every retry is exhausted — or every worker is quarantined —
//!   the dispatcher declines and the task runs coordinator-local: the
//!   campaign always completes, degraded but correct.

use crate::store::body_checksum;
use crate::transport::Transport;
use serde::Value;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use xps_core::explore::{fnv64, TaskDispatcher, TaskSpec};

/// Tuning for a fleet coordinator.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker addresses (`host:port`). Empty = always run locally.
    pub workers: Vec<String>,
    /// Bound on establishing a connection to a worker.
    pub connect_timeout: Duration,
    /// Bound on each task round-trip's socket reads and writes.
    pub request_timeout: Duration,
    /// Bound on heartbeat probe round-trips (short: a probe that needs
    /// longer than this is itself evidence of a hang).
    pub heartbeat_timeout: Duration,
    /// Retries per task after its first attempt; attempts are bounded
    /// by `retries + 1`, then the task degrades to local execution.
    pub retries: u32,
    /// Base backoff before a retry, milliseconds; attempt `k` waits
    /// `base * 2^k` plus seeded jitter in `[0, base)`.
    pub backoff_base_ms: u64,
    /// Seed for the deterministic backoff jitter.
    pub backoff_seed: u64,
    /// Consecutive failures that quarantine a worker out of the
    /// rotation (heartbeat probes can restore it).
    pub quarantine_after: u32,
    /// Pause between heartbeat sweeps; `Duration::ZERO` disables the
    /// heartbeat thread.
    pub heartbeat_interval: Duration,
}

impl FleetConfig {
    /// Defaults over `workers`.
    pub fn new(workers: Vec<String>) -> FleetConfig {
        FleetConfig {
            workers,
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(120),
            heartbeat_timeout: Duration::from_secs(2),
            retries: 3,
            backoff_base_ms: 25,
            backoff_seed: 0x5eed,
            quarantine_after: 3,
            heartbeat_interval: Duration::from_millis(500),
        }
    }
}

/// Live health and accounting for one worker.
#[derive(Debug)]
struct WorkerState {
    addr: String,
    /// Consecutive failed round-trips; reset by any success.
    failures: AtomicU32,
    /// Quarantined workers leave the dispatch rotation until a
    /// heartbeat probe succeeds.
    quarantined: AtomicBool,
    /// Tasks this worker answered successfully.
    completed: AtomicU64,
}

/// Point-in-time accounting for one worker, for reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// The worker's address.
    pub addr: String,
    /// Tasks it answered successfully.
    pub completed: u64,
    /// Whether it is currently quarantined.
    pub quarantined: bool,
}

/// Point-in-time fleet accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetStats {
    /// Tasks answered remotely.
    pub dispatched: u64,
    /// Retry attempts made (not counting first attempts).
    pub retried: u64,
    /// Tasks that fell back to coordinator-local execution.
    pub degraded: u64,
    /// Quarantine events (a worker can be quarantined repeatedly).
    pub quarantines: u64,
    /// Per-worker accounting.
    pub workers: Vec<WorkerSnapshot>,
}

#[derive(Debug)]
struct FleetInner {
    cfg: FleetConfig,
    transport: Arc<dyn Transport>,
    workers: Vec<WorkerState>,
    dispatched: AtomicU64,
    retried: AtomicU64,
    degraded: AtomicU64,
    quarantines: AtomicU64,
    /// Monotone heartbeat probe counter (names probe fault keys).
    hb_probes: AtomicU64,
    stop: AtomicBool,
}

impl FleetInner {
    /// The worker for attempt `attempt` of a task whose canonical spec
    /// hashes to `home`, among the non-quarantined, or `None` when
    /// every worker is quarantined. The first attempt goes to the
    /// spec's home slot and each retry to the next healthy worker
    /// after it: placement depends on the spec alone, never on what
    /// was dispatched before, so a repeated task finds the worker
    /// whose store already holds its result.
    fn pick_healthy(&self, home: u64, attempt: u32) -> Option<usize> {
        let healthy: Vec<usize> = (0..self.workers.len())
            .filter(|&i| !self.workers[i].quarantined.load(Ordering::Relaxed))
            .collect();
        if healthy.is_empty() {
            return None;
        }
        let slot = home.wrapping_add(u64::from(attempt)) % healthy.len() as u64;
        Some(healthy[slot as usize])
    }

    /// Deterministic backoff before retry `attempt` (0-based) of
    /// `key`: exponential in the attempt, jittered by a seeded hash of
    /// the key — a pure function of `(config, key, attempt)`, so a
    /// replayed failure schedule backs off identically. Only the
    /// *sleeping* takes wall time; no decision reads the clock.
    fn backoff_ms(&self, key: &str, attempt: u32) -> u64 {
        let base = self.cfg.backoff_base_ms.max(1);
        let jitter_key = format!("{key}@{attempt}");
        (base << attempt.min(6)) + fnv64(self.cfg.backoff_seed, jitter_key.as_bytes()) % base
    }

    fn note_failure(&self, idx: usize) {
        let w = &self.workers[idx];
        let failures = w.failures.fetch_add(1, Ordering::Relaxed) + 1;
        if failures >= self.cfg.quarantine_after && !w.quarantined.swap(true, Ordering::Relaxed) {
            self.quarantines.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "fleet: quarantining worker {} after {failures} consecutive failures",
                w.addr
            );
        }
    }

    fn note_success(&self, idx: usize) {
        let w = &self.workers[idx];
        w.failures.store(0, Ordering::Relaxed);
        if w.quarantined.swap(false, Ordering::Relaxed) {
            eprintln!("fleet: worker {} restored to rotation", w.addr);
        }
    }

    /// One heartbeat sweep: probe every worker's `/healthz` with a
    /// short deadline; successes restore quarantined workers, failures
    /// count toward quarantine exactly like task failures.
    fn heartbeat_sweep(&self) {
        for (i, w) in self.workers.iter().enumerate() {
            if self.stop.load(Ordering::Relaxed) {
                return;
            }
            let n = self.hb_probes.fetch_add(1, Ordering::Relaxed);
            let key = format!("hb/{}/{n}", w.addr);
            let probe = self.transport.roundtrip(
                &w.addr,
                "GET",
                "/healthz",
                None,
                self.cfg.heartbeat_timeout,
                &key,
            );
            match probe {
                Ok(resp) if resp.status == 200 => self.note_success(i),
                _ => self.note_failure(i),
            }
        }
    }
}

/// The coordinator-side dispatcher over a set of workers. Construct
/// with [`Fleet::new`] and hand it to
/// [`RunContext::with_dispatcher`](xps_core::explore::RunContext::with_dispatcher).
#[derive(Debug)]
pub struct Fleet {
    inner: Arc<FleetInner>,
    heartbeat: Option<JoinHandle<()>>,
}

impl Fleet {
    /// Build a fleet over `cfg.workers` speaking through `transport`,
    /// starting the heartbeat thread unless disabled.
    pub fn new(cfg: FleetConfig, transport: Arc<dyn Transport>) -> Fleet {
        let heartbeat_enabled = cfg.heartbeat_interval > Duration::ZERO && !cfg.workers.is_empty();
        let workers = cfg
            .workers
            .iter()
            .map(|addr| WorkerState {
                addr: addr.clone(),
                failures: AtomicU32::new(0),
                quarantined: AtomicBool::new(false),
                completed: AtomicU64::new(0),
            })
            .collect();
        let inner = Arc::new(FleetInner {
            cfg,
            transport,
            workers,
            dispatched: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
            hb_probes: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let heartbeat = heartbeat_enabled.then(|| {
            let hb = inner.clone();
            #[expect(
                clippy::expect_used,
                reason = "thread spawn fails only on resource exhaustion at startup"
            )]
            std::thread::Builder::new()
                .name("fleet-heartbeat".into())
                .spawn(move || {
                    while !hb.stop.load(Ordering::Relaxed) {
                        hb.heartbeat_sweep();
                        // Sleep in slices so shutdown stays prompt.
                        let mut left = hb.cfg.heartbeat_interval;
                        while !hb.stop.load(Ordering::Relaxed) && left > Duration::ZERO {
                            let step = left.min(Duration::from_millis(50));
                            std::thread::sleep(step);
                            left -= step;
                        }
                    }
                })
                .expect("spawn fleet heartbeat thread")
        });
        Fleet { inner, heartbeat }
    }

    /// A fleet over the production TCP transport.
    pub fn tcp(cfg: FleetConfig) -> Fleet {
        let transport = Arc::new(crate::transport::TcpTransport {
            connect_timeout: cfg.connect_timeout,
        });
        Fleet::new(cfg, transport)
    }

    /// Point-in-time accounting.
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            dispatched: self.inner.dispatched.load(Ordering::Relaxed),
            retried: self.inner.retried.load(Ordering::Relaxed),
            degraded: self.inner.degraded.load(Ordering::Relaxed),
            quarantines: self.inner.quarantines.load(Ordering::Relaxed),
            workers: self
                .inner
                .workers
                .iter()
                .map(|w| WorkerSnapshot {
                    addr: w.addr.clone(),
                    completed: w.completed.load(Ordering::Relaxed),
                    quarantined: w.quarantined.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        if let Some(hb) = self.heartbeat.take() {
            let _ = hb.join();
        }
    }
}

impl TaskDispatcher for Fleet {
    fn dispatch(&self, key: &str, spec: &TaskSpec) -> Option<String> {
        let inner = &self.inner;
        if inner.workers.is_empty() {
            return None;
        }
        let payload = spec.canonical();
        let home = fnv64(0, payload.as_bytes());
        for attempt in 0..=inner.cfg.retries {
            let Some(idx) = inner.pick_healthy(home, attempt) else {
                // Every worker is quarantined: degrade without burning
                // the remaining retry budget on a known-dead fleet.
                break;
            };
            if attempt > 0 {
                inner.retried.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(inner.backoff_ms(key, attempt - 1)));
            }
            // Per-attempt fault key: a retry is a *different*
            // round-trip to the injection plan, so a transient fault
            // clears on retry while a permanent one keeps firing.
            let fault_key = format!("{key}@{attempt}");
            let worker = &inner.workers[idx];
            let outcome = inner.transport.roundtrip(
                &worker.addr,
                "POST",
                "/tasks",
                Some(&payload),
                inner.cfg.request_timeout,
                &fault_key,
            );
            match outcome {
                Ok(resp) if resp.status == 200 => match open_envelope(&resp.body) {
                    Ok(body) if spec.result_fits(&body) => {
                        inner.note_success(idx);
                        worker.completed.fetch_add(1, Ordering::Relaxed);
                        inner.dispatched.fetch_add(1, Ordering::Relaxed);
                        return Some(body);
                    }
                    // Corrupted in flight (truncated/garbled), or not
                    // one IPT per configuration of an eval group: the
                    // worker may be fine, but the bytes are not.
                    _ => inner.note_failure(idx),
                },
                // The worker understood the request and rejected the
                // spec; retrying cannot change its mind — run locally,
                // where the same rejection becomes a typed task error.
                Ok(resp) if resp.status == 400 => break,
                _ => inner.note_failure(idx),
            }
        }
        inner.degraded.fetch_add(1, Ordering::Relaxed);
        None
    }
}

/// Wrap a task result body in the checksummed wire envelope:
/// `{"body":"<raw body>","sum":"<fnv64>"}`. The body rides as a JSON
/// *string*, so any truncation or garbling of the response breaks
/// either the envelope's framing or its checksum — a corrupted bare
/// number, by contrast, could still parse as valid JSON and merge
/// silently.
pub(crate) fn task_envelope(body: &str) -> String {
    crate::json(&Value::Obj(vec![
        ("body".to_string(), Value::Str(body.to_string())),
        ("sum".to_string(), Value::Str(body_checksum(body))),
    ]))
}

/// Verify and unwrap a wire envelope.
pub(crate) fn open_envelope(envelope: &str) -> Result<String, String> {
    let v: Value =
        serde_json::from_str(envelope).map_err(|e| format!("task envelope does not parse: {e}"))?;
    let body = v.member("body")?.as_str()?.to_string();
    let sum = v.member("sum")?.as_str()?.to_string();
    if body_checksum(&body) != sum {
        return Err(format!(
            "task envelope checksum mismatch: sum {sum} over {} body bytes",
            body.len()
        ));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Response;
    use crate::error::ServeError;
    use crate::netfault::NetFaultPlan;
    use crate::transport::FlakyTransport;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::Mutex;
    use xps_core::explore::{EvalCache, RunContext};
    use xps_core::workload::spec;
    use xps_core::{Measured, Pipeline};

    #[test]
    fn envelope_round_trips_and_detects_tampering() {
        let body = r#"{"ipt":0.123456789}"#;
        let env = task_envelope(body);
        assert_eq!(open_envelope(&env).expect("opens"), body);
        // Truncation of a bare-number body would still be valid JSON;
        // the envelope catches it.
        let mut cut = env.clone();
        cut.truncate(cut.len() / 2);
        assert!(open_envelope(&cut).is_err());
        let forged = env.replace("0.123", "0.124");
        assert!(open_envelope(&forged)
            .expect_err("checksum")
            .contains("checksum mismatch"));
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_exponential() {
        let fleet = Fleet::new(
            FleetConfig {
                heartbeat_interval: Duration::ZERO,
                ..FleetConfig::new(vec!["w:1".into()])
            },
            Arc::new(crate::transport::TcpTransport::default()),
        );
        let base = fleet.inner.cfg.backoff_base_ms;
        for attempt in 0..10 {
            let ms = fleet.inner.backoff_ms("matrix#0/7", attempt);
            assert_eq!(ms, fleet.inner.backoff_ms("matrix#0/7", attempt));
            let exp = base << attempt.min(6);
            assert!((exp..exp + base).contains(&ms), "attempt {attempt}: {ms}");
        }
        let jitters: BTreeSet<u64> = (0..32)
            .map(|i| fleet.inner.backoff_ms(&format!("matrix#0/{i}"), 0))
            .collect();
        assert!(jitters.len() > 1, "jitter must vary by key");
    }

    /// An in-process "worker": executes task specs against a local
    /// cache, exactly as `xps-serve`'s `/tasks` endpoint does.
    /// Addresses listed in `dead` refuse every connection.
    #[derive(Debug)]
    struct LocalWorkers {
        cache: EvalCache,
        dead: Mutex<BTreeSet<String>>,
    }

    impl LocalWorkers {
        fn new() -> LocalWorkers {
            LocalWorkers {
                cache: EvalCache::new(),
                dead: Mutex::new(BTreeSet::new()),
            }
        }
    }

    impl Transport for LocalWorkers {
        fn roundtrip(
            &self,
            addr: &str,
            method: &str,
            path: &str,
            body: Option<&str>,
            _timeout: Duration,
            _fault_key: &str,
        ) -> Result<Response, ServeError> {
            if self.dead.lock().expect("lock").contains(addr) {
                return Err(ServeError::Io(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    format!("{addr} is down"),
                )));
            }
            match (method, path) {
                ("GET", "/healthz") => Ok(Response {
                    status: 200,
                    body: r#"{"ok":true}"#.to_string(),
                }),
                ("POST", "/tasks") => {
                    let spec: TaskSpec = serde_json::from_str(body.unwrap_or(""))
                        .map_err(|e| ServeError::BadRequest(e.to_string()))?;
                    match spec.validate().and_then(|()| spec.run(Some(&self.cache))) {
                        Ok(result) => Ok(Response {
                            status: 200,
                            body: task_envelope(&result),
                        }),
                        Err(e) => Ok(Response {
                            status: 400,
                            body: e.to_string(),
                        }),
                    }
                }
                other => panic!("unexpected fleet request {other:?}"),
            }
        }
    }

    /// The smoke campaign on gzip+mcf over 2 jobs, dispatched through
    /// `fleet` when given: its `measured.json` bytes and the number of
    /// tasks answered remotely.
    fn campaign(fleet: Option<Arc<Fleet>>) -> (String, u64) {
        let profiles: Vec<_> = ["gzip", "mcf"]
            .iter()
            .map(|w| spec::profile(w).expect("known benchmark"))
            .collect();
        let mut pipeline = Pipeline::smoke();
        pipeline.explore.jobs = 2;
        let mut ctx = RunContext::from_env().expect("XPS_FAULTS parses");
        if let Some(fleet) = fleet {
            ctx = ctx.with_dispatcher(fleet);
        }
        let result = pipeline.run_recoverable(&profiles, &ctx).expect("campaign");
        let bytes = Measured::from((result, true)).encode().expect("encodes");
        (bytes, ctx.remote_dispatched())
    }

    fn quick_fleet(transport: Arc<dyn Transport>, workers: &[&str], retries: u32) -> Arc<Fleet> {
        let mut cfg = FleetConfig::new(workers.iter().map(|w| w.to_string()).collect());
        cfg.retries = retries;
        cfg.backoff_base_ms = 1;
        cfg.heartbeat_interval = Duration::ZERO;
        Arc::new(Fleet::new(cfg, transport))
    }

    #[test]
    fn gathered_document_is_byte_identical_with_a_dead_worker() {
        let (expected, _) = campaign(None);
        let workers = LocalWorkers::new();
        workers
            .dead
            .lock()
            .expect("lock")
            .insert("worker-b:2".to_string());
        let fleet = quick_fleet(
            Arc::new(workers),
            &["worker-a:1", "worker-b:2", "worker-c:3"],
            2,
        );
        let (bytes, remote) = campaign(Some(fleet.clone()));
        assert_eq!(bytes, expected, "byte identity despite failures");
        assert!(remote > 0, "work actually went remote");
        let stats = &fleet.stats();
        assert!(stats.retried > 0, "the dead worker forced retries");
        assert!(
            stats.quarantines >= 1,
            "the dead worker was quarantined: {stats:?}"
        );
        assert_eq!(
            stats
                .workers
                .iter()
                .find(|w| w.addr == "worker-b:2")
                .expect("snapshot")
                .completed,
            0
        );
    }

    #[test]
    fn all_workers_dead_degrades_to_local_and_stays_identical() {
        let (expected, _) = campaign(None);
        let workers = LocalWorkers::new();
        {
            let mut dead = workers.dead.lock().expect("lock");
            dead.insert("w1:1".to_string());
            dead.insert("w2:2".to_string());
        }
        let fleet = quick_fleet(Arc::new(workers), &["w1:1", "w2:2"], 1);
        let (bytes, remote) = campaign(Some(fleet.clone()));
        assert_eq!(bytes, expected);
        assert_eq!(remote, 0);
        assert!(fleet.stats().degraded > 0);
        assert_eq!(fleet.stats().dispatched, 0);
    }

    #[test]
    fn flaky_transport_never_changes_the_gathered_bytes() {
        let (expected, _) = campaign(None);
        let plan = NetFaultPlan::parse(
            "drop=10,delay=5,truncate=5,duplicate=5,garbage=5,seed=3,delay_ms=1",
        )
        .expect("parses");
        let transport = FlakyTransport::new(plan, LocalWorkers::new());
        let fleet = quick_fleet(Arc::new(transport), &["w1:1", "w2:2"], 3);
        let (bytes, remote) = campaign(Some(fleet));
        assert_eq!(bytes, expected, "faults may relocate, never corrupt");
        assert!(remote > 0);
    }

    #[test]
    fn rejected_specs_break_out_without_burning_retries() {
        // A transport that always answers 400: dispatch must decline
        // after ONE attempt (no retries — the rejection is sticky).
        #[derive(Debug, Default)]
        struct Rejecting {
            calls: AtomicU64,
        }
        impl Transport for Rejecting {
            fn roundtrip(
                &self,
                _addr: &str,
                _method: &str,
                _path: &str,
                _body: Option<&str>,
                _timeout: Duration,
                _fault_key: &str,
            ) -> Result<Response, ServeError> {
                self.calls.fetch_add(1, Ordering::Relaxed);
                Ok(Response {
                    status: 400,
                    body: "task spec rejected".to_string(),
                })
            }
        }
        let transport = Arc::new(Rejecting::default());
        let fleet = quick_fleet(transport.clone(), &["w:1"], 5);
        let spec = TaskSpec::eval(
            &spec::profile("gzip").expect("known"),
            &[xps_core::sim::CoreConfig::initial()],
            1_000,
        );
        assert_eq!(fleet.dispatch("matrix#0/0", &spec), None);
        assert_eq!(transport.calls.load(Ordering::Relaxed), 1);
        assert_eq!(fleet.stats().degraded, 1);
    }

    #[test]
    fn placement_follows_the_spec_not_the_dispatch_history() {
        // Records which worker each task went to.
        #[derive(Debug)]
        struct Recording {
            inner: LocalWorkers,
            posts: Mutex<Vec<(String, String)>>,
        }
        impl Transport for Recording {
            fn roundtrip(
                &self,
                addr: &str,
                method: &str,
                path: &str,
                body: Option<&str>,
                timeout: Duration,
                fault_key: &str,
            ) -> Result<Response, ServeError> {
                if path == "/tasks" {
                    let spec = body.unwrap_or("").to_string();
                    self.posts
                        .lock()
                        .expect("lock")
                        .push((spec, addr.to_string()));
                }
                self.inner
                    .roundtrip(addr, method, path, body, timeout, fault_key)
            }
        }
        let transport = Arc::new(Recording {
            inner: LocalWorkers::new(),
            posts: Mutex::new(Vec::new()),
        });
        let fleet = quick_fleet(transport.clone(), &["w1:1", "w2:2", "w3:3"], 2);
        let gzip = spec::profile("gzip").expect("known");
        let specs: Vec<TaskSpec> = xps_core::paper::table4_configs()
            .into_iter()
            .map(|c| TaskSpec::eval(&gzip, &[c], 1_000))
            .collect();
        // Two passes over the same specs, the second after an odd
        // number of unrelated dispatches: every spec goes to the same
        // worker both times.
        for s in &specs {
            assert!(fleet.dispatch("pass1", s).is_some());
        }
        assert!(fleet.dispatch("other", &specs[0]).is_some());
        for s in specs.iter().rev() {
            assert!(fleet.dispatch("pass2", s).is_some());
        }
        let posts = transport.posts.lock().expect("lock");
        let mut home: BTreeMap<&str, &str> = BTreeMap::new();
        for (spec, addr) in posts.iter() {
            let first = *home.entry(spec.as_str()).or_insert(addr.as_str());
            assert_eq!(first, addr, "a repeated spec moved worker");
        }
        let used: BTreeSet<&str> = home.values().copied().collect();
        assert!(used.len() > 1, "11 specs all hashed to one worker");
    }

    #[test]
    fn eval_results_of_the_wrong_shape_are_bad_responses() {
        // A worker whose intact envelope carries one IPT, whatever the
        // group: right for a group of one, a failed attempt otherwise.
        #[derive(Debug)]
        struct OneIpt;
        impl Transport for OneIpt {
            fn roundtrip(
                &self,
                _addr: &str,
                _method: &str,
                _path: &str,
                _body: Option<&str>,
                _timeout: Duration,
                _fault_key: &str,
            ) -> Result<Response, ServeError> {
                Ok(Response {
                    status: 200,
                    body: task_envelope("[1.5]"),
                })
            }
        }
        let fleet = quick_fleet(Arc::new(OneIpt), &["w:1"], 2);
        let gzip = spec::profile("gzip").expect("known");
        let one = [xps_core::sim::CoreConfig::initial()];
        let body = fleet.dispatch("seed#0/1", &TaskSpec::eval(&gzip, &one, 1_000));
        assert_eq!(body.as_deref(), Some("[1.5]"));
        let two = [one[0].clone(), one[0].clone()];
        assert_eq!(
            fleet.dispatch("matrix#0/0", &TaskSpec::eval(&gzip, &two, 1_000)),
            None
        );
        let stats = fleet.stats();
        assert_eq!((stats.dispatched, stats.degraded), (1, 1));
        assert_eq!(
            stats.retried, 2,
            "a bad shape is retried like a garbled body"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// A worker's response body is untrusted bytes: opening any
        /// mutation of a real envelope, or plain garbage, gives the
        /// body only when its checksum holds, and never panics.
        #[test]
        fn open_envelope_never_panics_on_hostile_bytes(
            at in 0usize..1_000,
            byte in proptest::arbitrary::any::<u8>(),
            cut in 0usize..1_000,
            garbage in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 48),
        ) {
            let body = r#"{"ipt":[0.5,1.25],"note":"q\"uote"}"#;
            let mut env = task_envelope(body).into_bytes();
            let at = at % env.len();
            env[at] = byte;
            env.truncate(env.len() - cut % (env.len() + 1));
            for bytes in [env, garbage] {
                if let Ok(got) = open_envelope(&String::from_utf8_lossy(&bytes)) {
                    proptest::prop_assert_eq!(got, body);
                }
            }
        }
    }
}
