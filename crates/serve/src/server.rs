//! The daemon: TCP accept loop, request router, scheduler workers,
//! and graceful drain-and-checkpoint shutdown.
//!
//! One connection carries one request (`Connection: close`). Handler
//! threads do only cheap work — parse, enqueue, look up, render — so
//! backpressure lives entirely in the bounded [`JobQueue`]; the
//! expensive simulation happens on dedicated scheduler workers that
//! drain the queue through the [`Engine`]. Shutdown flips one shared
//! flag: the accept loop stops taking connections, the in-flight job
//! checkpoints to its journal and goes back on the persistent queue,
//! and `run` returns once the workers have drained — so a restarted
//! daemon picks the job back up and finishes it byte-identically.
//!
//! The accept model is event-driven: the listener blocks in `accept`
//! and hands each connection to its handler the moment it arrives, so
//! no request waits on a poll interval. Shutdown wakes the blocked
//! `accept` itself — [`ShutdownHandle::shutdown`] flips the flag, then
//! connects once to the listener; the loop re-checks the flag after
//! every accept and drops that waking connection unserved. A signal
//! handler may only store the flag, so [`install_signal_handlers`]
//! starts a watcher thread that waits for the flag and performs the
//! same wake: the only remaining wait is on the shutdown path.

use crate::engine::{is_cancelled, Engine};
use crate::error::ServeError;
use crate::http::{write_error, write_response, ChunkedWriter, Request};
use crate::metrics::{Endpoint, Metrics};
use crate::progress::ProgressHub;
use crate::queue::{JobQueue, JobStatus, SubmitOutcome};
use crate::store::{content_id, ResultStore};
use serde::Value;
use std::collections::{BTreeSet, VecDeque};
use std::io::{BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Most terminal (done/failed) jobs whose queue entry and progress
/// feed are retained after finishing. Past this window the oldest is
/// retired: its feed is forgotten and its job-table entry evicted, so
/// a long-running daemon's memory stays bounded. Done results remain
/// answerable from the store; streams attached to a retired feed see
/// a terminal line (see [`stream_events`]).
const RETAINED_TERMINAL_JOBS: usize = 64;

/// Bound on the wake connection [`ShutdownHandle::shutdown`] makes to
/// its own listener. A loopback connect completes in microseconds; the
/// bound only keeps shutdown from hanging on a wedged network stack.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// How the daemon is configured.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7780` (`:0` for an ephemeral
    /// port).
    pub addr: String,
    /// Root of the daemon's persistent state: the result store, the
    /// queue journal, and per-campaign checkpoint journals.
    pub data_dir: PathBuf,
    /// Most jobs waiting in the queue before submissions get 429.
    pub queue_capacity: usize,
    /// Scheduler worker threads draining the queue.
    pub workers: usize,
    /// Worker threads per pipeline run (0 = available parallelism).
    pub pipeline_jobs: usize,
    /// Result-store quota in bytes (`None` = unbounded). When set, a
    /// GC pass runs after every store-growing completion, evicting the
    /// oldest unpinned records until the store fits; records referenced
    /// by in-flight jobs are pinned and never evicted.
    pub store_quota_bytes: Option<u64>,
}

impl ServerConfig {
    /// Defaults rooted at `data_dir`: loopback on an ephemeral port,
    /// a queue of 64, one scheduler worker, all cores per pipeline
    /// run.
    pub fn new(data_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: data_dir.into(),
            queue_capacity: 64,
            workers: 1,
            pipeline_jobs: 0,
            store_quota_bytes: None,
        }
    }
}

/// A clonable handle that triggers graceful drain from anywhere — a
/// signal handler, a test, another thread.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    cancel: Arc<AtomicBool>,
    /// The listener's bound address, connected to once to wake its
    /// blocked `accept`.
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Begin graceful shutdown: stop accepting work, checkpoint and
    /// requeue the in-flight job, return from [`Server::run`].
    pub fn shutdown(&self) {
        // SeqCst, paired with the accept loop's SeqCst load: the wake
        // connect below is made after this store, so the `accept` it
        // unblocks must observe the flag.
        self.cancel.store(true, Ordering::SeqCst);
        self.wake();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.cancel.load(Ordering::SeqCst)
    }

    /// Connect once to the listener so a blocked `accept` returns and
    /// the loop sees the flag. A listener bound to an unspecified
    /// address (`0.0.0.0`, `::`) is reached over loopback. A failed
    /// connect means nothing is listening any more, so there is
    /// nothing to wake.
    fn wake(&self) {
        let mut addr = self.addr;
        match addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
            IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
            _ => {}
        }
        if let Ok(stream) = TcpStream::connect_timeout(&addr, WAKE_TIMEOUT) {
            // Nothing is read from this connection (the accept loop
            // drops it unserved); the deadline keeps the crate's rule
            // that every opened connection carries one.
            let _ = stream.set_read_timeout(Some(WAKE_TIMEOUT));
        }
    }
}

/// Everything the handler and scheduler threads share.
struct Shared {
    queue: JobQueue,
    store: Arc<ResultStore>,
    engine: Engine,
    hub: Arc<ProgressHub>,
    metrics: Metrics,
    cancel: Arc<AtomicBool>,
    /// Store quota (bytes); `None` disables GC.
    store_quota_bytes: Option<u64>,
    /// Terminal jobs in finish order, newest last; the retention
    /// window behind [`RETAINED_TERMINAL_JOBS`].
    retired: Mutex<VecDeque<String>>,
}

impl Shared {
    /// Record that `id` finished and retire the oldest terminal jobs
    /// past the retention window: forget their feeds, evict their
    /// queue entries.
    fn retire(&self, id: &str) {
        let mut retired = self.retired.lock().unwrap_or_else(PoisonError::into_inner);
        // A retried-after-failure job can finish twice under one id.
        retired.retain(|j| j != id);
        retired.push_back(id.to_string());
        while retired.len() > RETAINED_TERMINAL_JOBS {
            let Some(old) = retired.pop_front() else {
                break;
            };
            // A failed job resubmitted since it entered the window is
            // live again — skip it (it re-enters when it re-finishes)
            // rather than forgetting its in-use feed.
            let live = self
                .queue
                .get(&old)
                .is_some_and(|j| matches!(j.status, JobStatus::Queued | JobStatus::Running));
            if live {
                continue;
            }
            self.hub.forget(&old);
            self.queue.evict_terminal(&old);
        }
    }

    /// Store ids an in-flight campaign still references: every
    /// unfinished job's own result id plus its campaign document's id.
    /// GC must never evict these — a coordinator or client is about to
    /// read them.
    fn pinned_ids(&self) -> BTreeSet<String> {
        let mut pinned = BTreeSet::new();
        for id in self.queue.unfinished() {
            if let Some(job) = self.queue.get(&id) {
                if let Ok(req) = crate::engine::JobRequest::parse(&job.canonical) {
                    pinned.insert(content_id(&req.campaign_canonical()));
                }
            }
            pinned.insert(id);
        }
        pinned
    }

    /// Run one GC pass when a quota is configured. Failure is logged,
    /// never fatal: a store over quota serves correctly, just larger.
    fn maybe_gc(&self) {
        let Some(quota) = self.store_quota_bytes else {
            return;
        };
        match self.store.gc(quota, &self.pinned_ids()) {
            Ok(report) if !report.evicted.is_empty() => {
                self.metrics
                    .gc_pass(report.evicted.len() as u64, report.reclaimed);
            }
            Ok(_) => {}
            Err(e) => eprintln!("xps-serve: store gc failed: {e}"),
        }
    }
}

/// The bound daemon, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    /// The address actually bound (`:0` resolved), which shutdown
    /// handles connect to.
    addr: SocketAddr,
    shared: Arc<Shared>,
    workers: usize,
}

impl Server {
    /// Bind the listener and open (or resume) the persistent state
    /// under the configured data directory: unfinished jobs a previous
    /// process left in `queue.json` are re-queued and will be the
    /// first thing the scheduler resumes.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the address cannot be bound or the data
    /// directory is unusable; [`ServeError::StoreCorrupt`] when the
    /// persisted queue does not parse.
    pub fn bind(config: &ServerConfig) -> Result<Server, ServeError> {
        std::fs::create_dir_all(&config.data_dir)?;
        let store = Arc::new(ResultStore::open(&config.data_dir.join("store"))?);
        let queue = JobQueue::open(
            config.queue_capacity.max(1),
            &config.data_dir.join("queue.json"),
        )?;
        let hub = Arc::new(ProgressHub::new());
        let cancel = Arc::new(AtomicBool::new(false));
        let engine = Engine::new(
            config.data_dir.clone(),
            store.clone(),
            hub.clone(),
            cancel.clone(),
            config.pipeline_jobs,
        );
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            shared: Arc::new(Shared {
                queue,
                store,
                engine,
                hub,
                metrics: Metrics::new(),
                cancel,
                store_quota_bytes: config.store_quota_bytes,
                retired: Mutex::new(VecDeque::new()),
            }),
            workers: config.workers.max(1),
        })
    }

    /// The address actually bound (resolves `:0` to the ephemeral
    /// port).
    ///
    /// # Errors
    ///
    /// Propagates the underlying socket error.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that triggers graceful drain of this server.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            cancel: self.shared.cancel.clone(),
            addr: self.addr,
        }
    }

    /// Serve until shutdown is requested, then drain: close the
    /// queue, join the scheduler workers (the in-flight job requeues
    /// itself via cancellation), and join the connection handlers.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on an accept error that leaves the listener
    /// unusable. Transient ones — a connection aborted before it was
    /// accepted, an interrupted call, file-descriptor exhaustion — are
    /// logged and serving continues.
    pub fn run(self) -> Result<(), ServeError> {
        let mut schedulers = Vec::with_capacity(self.workers);
        for i in 0..self.workers {
            let shared = self.shared.clone();
            schedulers.push(
                std::thread::Builder::new()
                    .name(format!("xps-sched-{i}"))
                    .spawn(move || scheduler_loop(&shared))
                    .map_err(ServeError::from)?,
            );
        }
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shared.cancel.load(Ordering::SeqCst) {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                // A transient accept failure must not kill the daemon
                // any more than a failed handler spawn does: log it
                // and keep serving.
                Err(e) if accept_error_is_transient(&e) => {
                    eprintln!("xps-serve: accept failed, still serving: {e}");
                    if out_of_descriptors(&e) {
                        join_oldest_handler(&mut handlers);
                    }
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            // The connection that woke this accept may be the shutdown
            // wake (or a client racing it): drop it unserved.
            if self.shared.cancel.load(Ordering::SeqCst) {
                break;
            }
            let shared = self.shared.clone();
            match std::thread::Builder::new()
                .name("xps-conn".to_string())
                .spawn(move || handle_connection(&shared, stream))
            {
                Ok(h) => handlers.push(h),
                // Transient spawn failure (thread exhaustion) must not
                // kill the daemon: the dropped stream closes the one
                // connection, the accept loop lives on.
                Err(e) => eprintln!("xps-serve: connection handler spawn failed: {e}"),
            }
            handlers.retain(|h| !h.is_finished());
        }
        // Drain: no new submissions, wake blocked workers, let the
        // in-flight job hit its cancellation checkpoint and requeue.
        self.shared.queue.close();
        for h in schedulers {
            let _ = h.join();
        }
        for h in handlers {
            let _ = h.join();
        }
        Ok(())
    }
}

/// Whether a failed `accept` leaves the listener usable, so the loop
/// should log it and keep serving: a peer that reset its connection
/// before it was accepted, an interrupted call, or a process or system
/// out of file descriptors (`EMFILE` 24, `ENFILE` 23 on Linux, macOS
/// and the BSDs), which frees up as handlers finish. Anything else
/// means the listener itself is broken.
fn accept_error_is_transient(e: &std::io::Error) -> bool {
    use std::io::ErrorKind;
    matches!(
        e.kind(),
        ErrorKind::ConnectionAborted | ErrorKind::Interrupted
    ) || out_of_descriptors(e)
}

/// Whether `e` is the process (`EMFILE` 24) or the system (`ENFILE` 23)
/// running out of file descriptors.
fn out_of_descriptors(e: &std::io::Error) -> bool {
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    matches!(e.raw_os_error(), Some(ENFILE | EMFILE))
}

/// Wait for the oldest live connection handler to finish. Descriptors
/// free up as handlers close their connections, so after `EMFILE` or
/// `ENFILE` the accept loop waits on one instead of retrying `accept`
/// at once and spinning until one does. A no-op with no handler live.
fn join_oldest_handler(handlers: &mut Vec<std::thread::JoinHandle<()>>) {
    if !handlers.is_empty() {
        let _ = handlers.remove(0).join();
    }
}

/// One scheduler worker: drain jobs until the queue closes or
/// shutdown is requested. Job execution is panic-isolated — a panic
/// anywhere under `run_job` fails that job, never the worker.
fn scheduler_loop(shared: &Shared) {
    while let Some(job) = shared.queue.next_job(&shared.cancel) {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            shared.engine.run_job(&job.id, &job.canonical)
        }))
        .unwrap_or_else(|p| {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "job panicked".to_string());
            Err(ServeError::BadRequest(format!("job panicked: {msg}")))
        });
        match outcome {
            Ok((_, stats, profile)) => {
                shared.metrics.absorb_engine(&stats);
                if let Some(profile) = &profile {
                    shared.metrics.absorb_profile(profile);
                }
                shared.queue.complete(&job.id);
                shared.metrics.completed();
                // The job just grew the store (campaign + answer
                // documents); shrink it back under quota now that the
                // job no longer pins anything.
                shared.maybe_gc();
                shared.hub.close(
                    &job.id,
                    crate::json(&Value::Obj(vec![
                        ("event".to_string(), Value::Str("done".to_string())),
                        ("status".to_string(), Value::Str("done".to_string())),
                    ])),
                );
                shared.retire(&job.id);
            }
            Err(e) if is_cancelled(&e) => {
                // Graceful drain: completed tasks are journaled; the
                // job goes back to the front of the persistent queue
                // and resumes after restart.
                shared.queue.requeue(&job.id);
                shared.metrics.requeued();
                shared.hub.publish(
                    &job.id,
                    crate::json(&Value::Obj(vec![(
                        "event".to_string(),
                        Value::Str("requeued".to_string()),
                    )])),
                );
            }
            Err(e) => {
                shared.queue.fail(&job.id, e.to_string());
                shared.metrics.failed();
                shared.hub.close(
                    &job.id,
                    crate::json(&Value::Obj(vec![
                        ("event".to_string(), Value::Str("done".to_string())),
                        ("status".to_string(), Value::Str("failed".to_string())),
                        ("error".to_string(), Value::Str(e.to_string())),
                    ])),
                );
                shared.retire(&job.id);
            }
        }
    }
}

/// Serve one connection: parse one request, route it, record its
/// latency. All errors render as `{"error": ...}` with their status.
fn handle_connection(shared: &Shared, stream: TcpStream) {
    // xps-allow(determinism-provenance): request-latency metrics only; never reaches a result body
    let started = Instant::now();
    // Both directions are bounded: a client that stalls mid-request
    // (read) or stops draining its response (write) errors this
    // handler out instead of pinning the thread forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let endpoint = match Request::parse(&mut reader) {
        Err(e) => {
            let _ = write_error(&mut writer, &e);
            Endpoint::Other
        }
        Ok(req) => {
            let endpoint = classify(&req);
            if let Err(e) = route(shared, &req, &mut writer) {
                let _ = write_error(&mut writer, &e);
            }
            endpoint
        }
    };
    shared.metrics.record_latency(endpoint, started.elapsed());
}

fn classify(req: &Request) -> Endpoint {
    let path = req.path.as_str();
    match (req.method.as_str(), path) {
        ("POST", "/jobs") => Endpoint::Submit,
        ("GET", "/metrics") => Endpoint::Metrics,
        ("GET", p) if p.starts_with("/jobs/") && p.ends_with("/events") => Endpoint::Events,
        ("GET", p) if p.starts_with("/jobs/") => Endpoint::Job,
        ("POST", "/tasks") => Endpoint::Task,
        ("GET", p) if p.starts_with("/tasks/") => Endpoint::Task,
        _ => Endpoint::Other,
    }
}

fn route(shared: &Shared, req: &Request, w: &mut impl Write) -> Result<(), ServeError> {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/jobs") => submit(shared, req, w),
        ("GET", "/metrics") => {
            let body = shared
                .metrics
                .render(shared.queue.depth(), shared.store.len()?);
            Ok(write_response(w, 200, "application/json", body.as_bytes())?)
        }
        ("GET", "/healthz") => {
            // Rich enough for a fleet coordinator's heartbeat to see a
            // worker's load, cheap enough to serve every probe.
            let body = crate::json(&Value::Obj(vec![
                ("ok".to_string(), Value::Bool(true)),
                (
                    "queue_depth".to_string(),
                    Value::U64(shared.queue.depth() as u64),
                ),
                (
                    "store_records".to_string(),
                    Value::U64(shared.store.len()? as u64),
                ),
                ("store_bytes".to_string(), Value::U64(shared.store.usage()?)),
            ]));
            Ok(write_response(w, 200, "application/json", body.as_bytes())?)
        }
        ("POST", "/tasks") => run_task(shared, req, w),
        ("GET", path) if matches!(path.strip_prefix("/tasks/"), Some(r) if !r.is_empty()) => {
            let id = path.strip_prefix("/tasks/").unwrap_or_default();
            match shared.store.get(id)? {
                Some(body) => {
                    let envelope = crate::fleet::task_envelope(&body);
                    Ok(write_response(
                        w,
                        200,
                        "application/json",
                        envelope.as_bytes(),
                    )?)
                }
                None => Err(ServeError::NotFound(format!("no task result `{id}`"))),
            }
        }
        ("GET", path) if matches!(path.strip_prefix("/jobs/"), Some(r) if !r.is_empty()) => {
            let rest = path.strip_prefix("/jobs/").unwrap_or_default();
            match rest.strip_suffix("/events") {
                Some(id) if !id.is_empty() => stream_events(shared, id, w),
                _ => job_status(shared, rest, w),
            }
        }
        ("GET" | "POST", path) => Err(ServeError::NotFound(format!("no such path `{path}`"))),
        (method, path) => Err(ServeError::MethodNotAllowed {
            method: method.to_string(),
            path: path.to_string(),
        }),
    }
}

/// `POST /tasks`: execute one wire-format [`TaskSpec`] synchronously
/// and reply with its serialized result wrapped in the checksummed
/// fleet envelope — the fleet scatter path. Results are
/// content-addressed in the store under the spec's canonical
/// fingerprint, so a duplicated or retried dispatch (lost response,
/// flaky transport) re-reads the stored bytes instead of
/// re-simulating, and `GET /tasks/<id>` can recover a result whose
/// response was lost entirely. Execution shares the daemon's
/// evaluation cache with the job pipeline.
///
/// [`TaskSpec`]: xps_core::explore::TaskSpec
fn run_task(shared: &Shared, req: &Request, w: &mut impl Write) -> Result<(), ServeError> {
    let spec: xps_core::explore::TaskSpec = serde_json::from_str(req.body_str()?)
        .map_err(|e| ServeError::BadRequest(format!("body is not a task spec: {e}")))?;
    let id = format!("task-{}", content_id(&spec.canonical()));
    if let Some(body) = shared.store.get(&id)? {
        shared.metrics.fleet_task_store_hit();
        let envelope = crate::fleet::task_envelope(&body);
        return Ok(write_response(
            w,
            200,
            "application/json",
            envelope.as_bytes(),
        )?);
    }
    // Task specs are plain data; a panicking execution (a bug or an
    // injected fault on the worker) must fail this request, never the
    // handler thread or the daemon.
    let outcome = catch_unwind(AssertUnwindSafe(|| spec.execute(shared.engine.cache())));
    let body = match outcome {
        Ok(Ok(body)) => body,
        Ok(Err(detail)) => {
            return Err(ServeError::BadRequest(format!(
                "task spec rejected: {detail}"
            )))
        }
        Err(p) => {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "task panicked".to_string());
            return Err(ServeError::TaskPanicked(msg));
        }
    };
    shared.store.put(&id, &body)?;
    shared.metrics.fleet_task_executed();
    shared.maybe_gc();
    let envelope = crate::fleet::task_envelope(&body);
    Ok(write_response(
        w,
        200,
        "application/json",
        envelope.as_bytes(),
    )?)
}

/// `POST /jobs`: canonicalize, answer from the store when the result
/// already exists, otherwise enqueue (or coalesce onto an identical
/// pending job).
fn submit(shared: &Shared, req: &Request, w: &mut impl Write) -> Result<(), ServeError> {
    let request = crate::engine::JobRequest::parse(req.body_str()?)?;
    let canonical = request.canonical();
    let id = content_id(&canonical);
    let reply = |status: u16, state: &str, source: Option<&str>| {
        let mut fields = vec![
            ("job".to_string(), Value::Str(id.clone())),
            ("status".to_string(), Value::Str(state.to_string())),
        ];
        if let Some(source) = source {
            fields.push(("source".to_string(), Value::Str(source.to_string())));
        }
        (status, crate::json(&Value::Obj(fields)))
    };
    let (status, body) = if shared.store.get(&id)?.is_some() {
        shared.metrics.store_hit();
        reply(200, "done", Some("store"))
    } else {
        match shared.queue.submit(&id, &canonical)? {
            SubmitOutcome::Created => {
                shared.metrics.submitted();
                reply(202, "queued", None)
            }
            SubmitOutcome::Coalesced(state) => {
                shared.metrics.coalesced();
                let code = if state == JobStatus::Done { 200 } else { 202 };
                reply(code, state.label(), Some("coalesced"))
            }
        }
    };
    Ok(write_response(
        w,
        status,
        "application/json",
        body.as_bytes(),
    )?)
}

/// `GET /jobs/<id>`: the stored result document for a finished job
/// (200, byte-identical for every client), a status document while it
/// is queued/running (202), the failure (500), or 404.
fn job_status(shared: &Shared, id: &str, w: &mut impl Write) -> Result<(), ServeError> {
    if let Some(body) = shared.store.get(id)? {
        return Ok(write_response(w, 200, "application/json", body.as_bytes())?);
    }
    let Some(job) = shared.queue.get(id) else {
        return Err(ServeError::NotFound(format!("no job `{id}`")));
    };
    match job.status {
        JobStatus::Failed => {
            let body = crate::json(&Value::Obj(vec![
                ("job".to_string(), Value::Str(id.to_string())),
                ("status".to_string(), Value::Str("failed".to_string())),
                (
                    "error".to_string(),
                    Value::Str(job.error.unwrap_or_else(|| "unknown".to_string())),
                ),
            ]));
            Ok(write_response(w, 500, "application/json", body.as_bytes())?)
        }
        state => {
            let body = crate::json(&Value::Obj(vec![
                ("job".to_string(), Value::Str(id.to_string())),
                ("status".to_string(), Value::Str(state.label().to_string())),
            ]));
            Ok(write_response(w, 202, "application/json", body.as_bytes())?)
        }
    }
}

/// `GET /jobs/<id>/events`: stream the job's live NDJSON feed over
/// chunked transfer until the job finishes (or the daemon drains).
fn stream_events(shared: &Shared, id: &str, w: &mut impl Write) -> Result<(), ServeError> {
    let known = shared.queue.get(id).is_some() || shared.store.get(id)?.is_some();
    if !known {
        return Err(ServeError::NotFound(format!("no job `{id}`")));
    }
    let mut cw = ChunkedWriter::start(w, 200, "application/x-ndjson")?;
    // A job already answered from the store never opened a feed; emit
    // its terminal line so streamers see a complete, closed stream.
    if shared.queue.get(id).is_none() {
        cw.chunk(b"{\"event\":\"done\",\"status\":\"done\",\"source\":\"store\"}\n")?;
        cw.finish()?;
        return Ok(());
    }
    let mut offset = 0;
    loop {
        let read = shared.hub.read_from(id, offset, Duration::from_millis(250));
        for line in &read.lines {
            cw.chunk(format!("{line}\n").as_bytes())?;
        }
        offset = read.next;
        if read.closed {
            break;
        }
        if read.lines.is_empty() && shared.queue.get(id).is_none() {
            // The job was retired from the retention window while we
            // streamed: its feed is gone, so the quiet open feed we
            // see is a fresh empty one that will never close. Emit
            // the terminal line ourselves instead of polling forever.
            let status = if shared.store.get(id)?.is_some() {
                "done"
            } else {
                "retired"
            };
            cw.chunk(
                format!("{{\"event\":\"done\",\"status\":\"{status}\",\"source\":\"store\"}}\n")
                    .as_bytes(),
            )?;
            break;
        }
        if shared.cancel.load(Ordering::Relaxed) && read.lines.is_empty() {
            cw.chunk(b"{\"event\":\"draining\"}\n")?;
            break;
        }
    }
    cw.finish()?;
    Ok(())
}

/// Install SIGTERM/SIGINT handlers that trigger graceful drain on
/// `handle`. Callable once per process; later calls replace the
/// handle the signals act on.
///
/// Hand-rolled over the C `signal` entry point (no `libc` crate — the
/// workspace stays dependency-free); the handler body is one atomic
/// store, which is async-signal-safe. Connecting to the listener is
/// not, so one watcher thread, started here, waits for the flag and
/// then wakes the blocked `accept` as [`ShutdownHandle::shutdown`]
/// does. It holds no lock while it waits and exits after the wake.
#[cfg(unix)]
pub fn install_signal_handlers(handle: ShutdownHandle) {
    use std::sync::OnceLock;

    /// How often the watcher checks the flag: it bounds how long a
    /// signalled shutdown takes to start, and is paid on no request.
    const SIGNAL_WATCH_PERIOD: Duration = Duration::from_millis(20);

    static HANDLE: OnceLock<Mutex<ShutdownHandle>> = OnceLock::new();

    extern "C" fn on_signal(_sig: i32) {
        if let Some(cell) = HANDLE.get() {
            // `try_lock`, not `lock`: a signal interrupting the very
            // update below must not deadlock; it will be re-sent or
            // the next signal will land.
            if let Ok(h) = cell.try_lock() {
                h.cancel.store(true, Ordering::SeqCst);
            }
        }
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }

    match HANDLE.get_or_init(|| Mutex::new(handle.clone())).lock() {
        Ok(mut slot) => *slot = handle.clone(),
        Err(poisoned) => *poisoned.into_inner() = handle.clone(),
    }
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
    let watcher = std::thread::Builder::new()
        .name("xps-signal-watch".to_string())
        .spawn(move || {
            while !handle.is_shutdown() {
                std::thread::sleep(SIGNAL_WATCH_PERIOD);
            }
            handle.wake();
        });
    if let Err(e) = watcher {
        eprintln!("xps-serve: signal watcher spawn failed, a signal drains only at the next connection: {e}");
    }
}

/// No-op on non-unix targets (graceful drain is still available via
/// [`ShutdownHandle`]).
#[cfg(not(unix))]
pub fn install_signal_handlers(_handle: ShutdownHandle) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shutdown_handle_flips_the_flag() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let cancel = Arc::new(AtomicBool::new(false));
        let handle = ShutdownHandle {
            cancel: cancel.clone(),
            addr: listener.local_addr().expect("addr"),
        };
        assert!(!handle.is_shutdown());
        handle.shutdown();
        assert!(handle.is_shutdown() && cancel.load(Ordering::Relaxed));
    }

    #[test]
    fn transient_accept_errors_are_told_from_fatal_ones() {
        use std::io::{Error, ErrorKind};
        for transient in [
            Error::from(ErrorKind::ConnectionAborted),
            Error::from(ErrorKind::Interrupted),
            Error::from_raw_os_error(24),
            Error::from_raw_os_error(23),
        ] {
            assert!(accept_error_is_transient(&transient), "{transient}");
        }
        for fatal in [
            Error::from(ErrorKind::InvalidInput),
            Error::from(ErrorKind::PermissionDenied),
            Error::from(ErrorKind::WouldBlock),
            Error::from_raw_os_error(9),
        ] {
            assert!(!accept_error_is_transient(&fatal), "{fatal}");
        }
    }

    #[test]
    fn descriptor_exhaustion_waits_for_the_oldest_handler() {
        use std::io::{Error, ErrorKind};
        assert!(out_of_descriptors(&Error::from_raw_os_error(24)));
        assert!(out_of_descriptors(&Error::from_raw_os_error(23)));
        assert!(!out_of_descriptors(&Error::from(
            ErrorKind::ConnectionAborted
        )));
        // The oldest handler finishes only after a delay; the join
        // waits it out and leaves the younger handler alone.
        let done = Arc::new(AtomicBool::new(false));
        let flag = done.clone();
        let oldest = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            flag.store(true, Ordering::SeqCst);
        });
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let younger = std::thread::spawn(move || {
            let _ = rx.recv();
        });
        let mut handlers = vec![oldest, younger];
        join_oldest_handler(&mut handlers);
        assert!(
            done.load(Ordering::SeqCst),
            "returned before the oldest finished"
        );
        assert_eq!(handlers.len(), 1);
        assert!(!handlers[0].is_finished(), "joined the younger handler");
        drop(tx);
        join_oldest_handler(&mut handlers);
        assert!(handlers.is_empty());
        join_oldest_handler(&mut handlers);
    }

    #[test]
    fn config_defaults_are_sane() {
        let c = ServerConfig::new("/tmp/xps-serve-test");
        assert_eq!(c.addr, "127.0.0.1:0");
        assert_eq!(c.queue_capacity, 64);
        assert_eq!(c.workers, 1);
        assert_eq!(c.pipeline_jobs, 0);
    }
}
