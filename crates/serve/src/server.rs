//! The daemon: TCP accept loop, request router, and graceful drain.
//!
//! The daemon is a fleet worker. Its one unit of work is `POST /tasks`:
//! execute one wire-format task spec on the handler thread and answer
//! with the result, content-addressed in the [`ResultStore`] so a
//! repeated or retried dispatch re-reads the stored bytes. `GET
//! /tasks/<id>` recovers a stored result, `/healthz` answers a
//! coordinator's heartbeat and `/metrics` reports counters. One
//! connection carries one request (`Connection: close`). Shutdown flips
//! one shared flag: the accept loop stops taking connections, and
//! `run` returns once every in-flight request has been answered.
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

use crate::error::ServeError;
use crate::http::{write_error, write_response, Request};
use crate::metrics::{Endpoint, Metrics};
use crate::store::{content_id, ResultStore};
use serde::Value;
use std::io::{BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xps_core::explore::{EvalCache, TaskSpec};

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
    /// Root of the daemon's persistent state: the result store.
    pub data_dir: PathBuf,
    /// No effect. Each `/tasks` request runs on its own handler
    /// thread, so there is no per-request pool to size. The field
    /// remains only because the benchmark harness (`xps-perf`) still
    /// sets it; it goes when that harness stops.
    pub pipeline_jobs: usize,
}

impl ServerConfig {
    /// Defaults rooted at `data_dir`: loopback on an ephemeral port.
    pub fn new(data_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: data_dir.into(),
            pipeline_jobs: 0,
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
    /// Begin graceful shutdown: stop accepting connections, answer the
    /// in-flight requests, return from [`Server::run`].
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

/// Everything the handler threads share.
struct Shared {
    store: ResultStore,
    /// Shared by every task this worker executes: a repeated
    /// evaluation in any task is a cache hit.
    cache: EvalCache,
    metrics: Metrics,
    cancel: Arc<AtomicBool>,
}

/// The bound daemon, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    /// The address actually bound (`:0` resolved), which shutdown
    /// handles connect to.
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the listener and open (or reopen) the result store under
    /// the configured data directory: results a previous process
    /// stored are answered again without re-running.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the address cannot be bound or the data
    /// directory is unusable.
    pub fn bind(config: &ServerConfig) -> Result<Server, ServeError> {
        std::fs::create_dir_all(&config.data_dir)?;
        let store = ResultStore::open(&config.data_dir.join("store"))?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            shared: Arc::new(Shared {
                store,
                cache: EvalCache::new(),
                metrics: Metrics::new(),
                cancel: Arc::new(AtomicBool::new(false)),
            }),
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

    /// Serve until shutdown is requested, then drain: stop accepting
    /// and join the connection handlers, so every request already
    /// accepted is answered.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on an accept error that leaves the listener
    /// unusable. Transient ones — a connection aborted before it was
    /// accepted, an interrupted call, file-descriptor exhaustion — are
    /// logged and serving continues.
    pub fn run(self) -> Result<(), ServeError> {
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
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/metrics") => Endpoint::Metrics,
        ("POST", "/tasks") => Endpoint::Task,
        ("GET", p) if p.starts_with("/tasks/") => Endpoint::Task,
        _ => Endpoint::Other,
    }
}

fn route(shared: &Shared, req: &Request, w: &mut impl Write) -> Result<(), ServeError> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/metrics") => {
            let body = shared
                .metrics
                .render(shared.cache.counters(), shared.store.len()?);
            Ok(write_response(w, 200, "application/json", body.as_bytes())?)
        }
        ("GET", "/healthz") => {
            // Rich enough for a fleet coordinator's heartbeat to see a
            // worker's state, cheap enough to serve every probe.
            let body = crate::json(&Value::Obj(vec![
                ("ok".to_string(), Value::Bool(true)),
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
                Some(body) => write_envelope(w, &body),
                None => Err(ServeError::NotFound(format!("no task result `{id}`"))),
            }
        }
        ("GET" | "POST", path) => Err(ServeError::NotFound(format!("no such path `{path}`"))),
        (method, path) => Err(ServeError::MethodNotAllowed {
            method: method.to_string(),
            path: path.to_string(),
        }),
    }
}

/// Answer 200 with a task result wrapped in the checksummed fleet
/// envelope.
fn write_envelope(w: &mut impl Write, body: &str) -> Result<(), ServeError> {
    let envelope = crate::fleet::task_envelope(body);
    Ok(write_response(
        w,
        200,
        "application/json",
        envelope.as_bytes(),
    )?)
}

/// `POST /tasks`: execute one wire-format [`TaskSpec`] synchronously
/// and reply with its serialized result wrapped in the checksummed
/// fleet envelope — the fleet scatter path. Results are
/// content-addressed in the store under the spec's canonical
/// fingerprint, so a duplicated or retried dispatch (lost response,
/// flaky transport) re-reads the stored bytes instead of
/// re-simulating, and `GET /tasks/<id>` can recover a result whose
/// response was lost entirely. Every task shares the worker's
/// evaluation cache.
fn run_task(shared: &Shared, req: &Request, w: &mut impl Write) -> Result<(), ServeError> {
    let spec: TaskSpec = serde_json::from_str(req.body_str()?)
        .map_err(|e| ServeError::BadRequest(format!("body is not a task spec: {e}")))?;
    let id = format!("task-{}", content_id(&spec.canonical()));
    if let Some(body) = shared.store.get(&id)? {
        shared.metrics.fleet_task_store_hit();
        return write_envelope(w, &body);
    }
    // Task specs are plain data; a panicking execution (a bug or an
    // injected fault on the worker) must fail this request, never the
    // handler thread or the daemon.
    // The spec came off the network: it runs only past `validate`.
    let run = || spec.validate().and_then(|()| spec.run(Some(&shared.cache)));
    let body = match catch_unwind(AssertUnwindSafe(run)) {
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
    write_envelope(w, &body)
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
        assert_eq!(c.pipeline_jobs, 0);
    }
}
