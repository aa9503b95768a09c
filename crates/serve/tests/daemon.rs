//! In-process integration tests of the worker daemon: real TCP on
//! ephemeral ports, real persistence.
//!
//! The load-bearing properties under test: every request gets a typed
//! status; a repeated campaign over one worker is answered from the
//! content-addressed store with zero new task executions and
//! byte-identical bytes; `/metrics` samples the worker's shared
//! evaluation cache; and the event-driven accept loop serves and
//! drains without a poll floor.

use serde::Value;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xps_serve::{
    client, run_campaign_with_fleet, Fleet, FleetConfig, Server, ServerConfig, ShutdownHandle,
    TcpTransport, Transport,
};

static SEQ: AtomicU64 = AtomicU64::new(0);

fn data_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "xps-daemon-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Daemon {
    addr: String,
    handle: ShutdownHandle,
    thread: std::thread::JoinHandle<()>,
}

fn start(dir: &PathBuf) -> Daemon {
    let server = Server::bind(&ServerConfig::new(dir)).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run().expect("serve"));
    Daemon {
        addr,
        handle,
        thread,
    }
}

impl Daemon {
    fn stop(self) {
        self.handle.shutdown();
        self.thread.join().expect("drained cleanly");
    }
}

fn metric(addr: &str, path: &[&str]) -> u64 {
    let resp = client::request(addr, "GET", "/metrics", None).expect("metrics");
    assert_eq!(resp.status, 200);
    let mut v: &Value = &resp.json().expect("metrics json");
    for key in path {
        v = v.member(key).expect("metrics member");
    }
    match v {
        Value::U64(n) => *n,
        other => panic!("metric {path:?} is not a counter: {other:?}"),
    }
}

#[test]
fn bad_requests_and_unknown_tasks_get_typed_statuses() {
    let dir = data_dir("errors");
    let daemon = start(&dir);
    let addr = daemon.addr.clone();

    let bad = client::request(&addr, "POST", "/tasks", Some("garbage")).expect("responds");
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("not a task spec"), "{}", bad.body);

    let missing =
        client::request(&addr, "GET", "/tasks/task-ffffffffffffffff", None).expect("responds");
    assert_eq!(missing.status, 404);

    let method = client::request(&addr, "DELETE", "/tasks", None).expect("responds");
    assert_eq!(method.status, 405);

    let path = client::request(&addr, "GET", "/nope", None).expect("responds");
    assert_eq!(path.status, 404);

    let health = client::request(&addr, "GET", "/healthz", None).expect("responds");
    assert_eq!(health.status, 200);
    let doc = health.json().expect("healthz is JSON");
    assert_eq!(doc.member("ok").expect("ok"), &serde::Value::Bool(true));
    for field in ["store_records", "store_bytes"] {
        assert!(
            matches!(doc.member(field), Ok(serde::Value::U64(_))),
            "healthz carries `{field}`: {}",
            health.body
        );
    }

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `/metrics` reads the worker's shared evaluation cache when it
/// renders, so a worker that only ever serves `/tasks` still reports
/// its cache traffic; a repeated spec is a store hit, not a rerun.
#[test]
fn metrics_sample_the_shared_eval_cache() {
    use xps_core::explore::TaskSpec;
    use xps_core::{paper, workload::spec};
    let dir = data_dir("cache");
    let daemon = start(&dir);
    let addr = daemon.addr.clone();
    assert_eq!(metric(&addr, &["cache", "misses"]), 0);

    let profile = spec::profile("gzip").expect("known benchmark");
    let task = TaskSpec::eval(&profile, &paper::table4_configs()[..2], 2_000).canonical();
    let first = client::request(&addr, "POST", "/tasks", Some(&task)).expect("responds");
    assert_eq!(first.status, 200, "{}", first.body);
    assert!(
        metric(&addr, &["cache", "misses"]) > 0,
        "cache traffic unseen"
    );
    assert_eq!(metric(&addr, &["fleet", "tasks_executed"]), 1);

    let again = client::request(&addr, "POST", "/tasks", Some(&task)).expect("responds");
    assert_eq!(again.body, first.body, "the stored envelope, byte for byte");
    assert_eq!(metric(&addr, &["fleet", "tasks_executed"]), 1);
    assert_eq!(metric(&addr, &["fleet", "task_store_hits"]), 1);

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The smoke campaign twice over one worker: the second run is
/// answered entirely from the worker's store — no task executes
/// again, every task the first run sent is one store hit — and
/// gathers the identical document.
#[test]
fn a_repeated_campaign_is_answered_from_the_store() {
    let dir = data_dir("repeat");
    let daemon = start(&dir);
    let addr = daemon.addr.clone();
    let mut cfg = FleetConfig::new(vec![addr.clone()]);
    cfg.heartbeat_interval = Duration::ZERO;
    let fleet = Arc::new(Fleet::tcp(cfg));
    let workloads = vec!["gzip".to_string(), "mcf".to_string()];

    let first = run_campaign_with_fleet(&workloads, "smoke", 2, &fleet).expect("first run");
    assert!(first.remote_tasks > 0, "nothing ran remotely");
    let sent = fleet.stats().dispatched;
    let executed = metric(&addr, &["fleet", "tasks_executed"]);
    let hits = metric(&addr, &["fleet", "task_store_hits"]);

    let second = run_campaign_with_fleet(&workloads, "smoke", 2, &fleet).expect("second run");
    assert_eq!(second.document, first.document, "byte-identical documents");
    assert_eq!(second.campaign_id, first.campaign_id);
    assert_eq!(
        metric(&addr, &["fleet", "tasks_executed"]),
        executed,
        "the repeat executed a task"
    );
    assert_eq!(
        metric(&addr, &["fleet", "task_store_hits"]) - hits,
        sent,
        "one store hit per task the first run sent"
    );

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A campaign sends each distinct task spec once: a spec it asks for
/// again (a later cross-seeding round repeating an evaluation) is
/// answered from the response it already has, so the worker executes
/// every task it is sent and answers none from its store. The document
/// is still the single-node oracle's, byte for byte.
#[test]
fn a_campaign_sends_each_distinct_spec_once() {
    let workloads = vec!["gzip".to_string(), "mcf".to_string()];
    let local = Arc::new(Fleet::tcp(FleetConfig::new(Vec::new())));
    let oracle = run_campaign_with_fleet(&workloads, "smoke", 2, &local).expect("local run");

    let dir = data_dir("distinct");
    let daemon = start(&dir);
    let addr = daemon.addr.clone();
    let mut cfg = FleetConfig::new(vec![addr.clone()]);
    cfg.heartbeat_interval = Duration::ZERO;
    let fleet = Arc::new(Fleet::tcp(cfg));
    let run = run_campaign_with_fleet(&workloads, "smoke", 2, &fleet).expect("fleet run");
    assert_eq!(run.document, oracle.document, "byte-identical documents");
    let stats = fleet.stats();
    assert_eq!(stats.degraded, 0, "every described task ran remotely");
    assert_eq!(
        metric(&addr, &["fleet", "task_store_hits"]),
        0,
        "a spec was sent twice"
    );
    assert_eq!(
        metric(&addr, &["fleet", "tasks_executed"]),
        stats.dispatched
    );
    assert!(
        run.remote_tasks > stats.dispatched,
        "the campaign repeats no spec, so this tests nothing: {} remote, {} sent",
        run.remote_tasks,
        stats.dispatched
    );

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A connection is served the moment it arrives: 100 sequential
/// `/healthz` round trips take a fraction of a second, where a polled
/// accept loop costs its poll interval on every one of them.
#[test]
fn round_trips_have_no_accept_floor() {
    let dir = data_dir("floor");
    let daemon = start(&dir);
    let tcp = TcpTransport::default();
    let started = Instant::now();
    for _ in 0..100 {
        let resp = tcp
            .roundtrip(
                &daemon.addr,
                "GET",
                "/healthz",
                None,
                Duration::from_secs(5),
                "",
            )
            .expect("healthz");
        assert_eq!(resp.status, 200);
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "100 /healthz round trips took {elapsed:?}"
    );
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shutdown wakes an accept blocked with no traffic at all, on a
/// loopback bind and on a bind to every interface (woken over
/// loopback).
#[test]
fn shutdown_wakes_an_idle_accept() {
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let dir = data_dir("wake");
        let mut config = ServerConfig::new(&dir);
        config.addr = bind.to_string();
        let server = Server::bind(&config).expect("bind");
        let port = server.local_addr().expect("addr").port();
        let handle = server.shutdown_handle();
        let (done, returned) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || {
            let result = server.run();
            let _ = done.send(());
            result
        });
        // One answered request proves `run` is in its accept loop, so
        // the shutdown below lands on a blocked `accept`.
        let health = client::request(&format!("127.0.0.1:{port}"), "GET", "/healthz", None)
            .expect("healthz");
        assert_eq!(health.status, 200);
        handle.shutdown();
        returned
            .recv_timeout(Duration::from_secs(1))
            .unwrap_or_else(|_| panic!("run() on {bind} still blocked 1 s after shutdown"));
        thread.join().expect("run thread").expect("drained cleanly");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
