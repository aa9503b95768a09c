//! In-process integration tests of the daemon: real TCP on ephemeral
//! ports, real scheduler workers, real persistence.
//!
//! The load-bearing properties under test are the ISSUE's acceptance
//! criteria: identical concurrent submissions coalesce onto one
//! execution and read back byte-identical bodies; a repeated request
//! after completion is answered from the content-addressed store with
//! zero new simulation work; and a drained (shutdown mid-job) daemon
//! re-queues the in-flight job so a restarted daemon completes it —
//! byte-identically to an uninterrupted run.

use serde::Value;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use xps_serve::{client, Server, ServerConfig, ShutdownHandle, TcpTransport, Transport};

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
    let mut config = ServerConfig::new(dir);
    config.queue_capacity = 8;
    config.pipeline_jobs = 2;
    let server = Server::bind(&config).expect("bind ephemeral port");
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

const SMOKE_EXPLORE: &str = r#"{"kind":"explore","profile":"smoke","workloads":["gzip","mcf"]}"#;

/// A smoke-profile explore over every paper benchmark: long enough —
/// hundreds of checkpointable tasks — that the scheduler worker is
/// reliably still busy with it while a test submits follow-up
/// requests or drains the daemon, on any machine speed.
fn big_smoke_explore() -> String {
    let names: Vec<String> = xps_core::workload::spec::BENCHMARKS
        .iter()
        .map(|b| format!("\"{b}\""))
        .collect();
    format!(
        "{{\"kind\":\"explore\",\"profile\":\"smoke\",\"workloads\":[{}]}}",
        names.join(",")
    )
}

#[test]
fn concurrent_identical_jobs_coalesce_and_match_bytes() {
    let dir = data_dir("coalesce");
    let daemon = start(&dir);
    let addr = daemon.addr.clone();

    // Two clients race the same request.
    let threads: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let (job, _) = client::submit(&addr, SMOKE_EXPLORE).expect("submit");
                let body =
                    client::wait_for_result(&addr, &job, Duration::from_secs(300)).expect("done");
                (job, body)
            })
        })
        .collect();
    let results: Vec<(String, String)> = threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();

    // Same canonical request → same job id → byte-identical bodies.
    assert_eq!(results[0].0, results[1].0, "content ids agree");
    assert_eq!(results[0].1, results[1].1, "bodies are byte-identical");
    assert!(results[0].1.contains("\"cores\""));

    // Exactly one execution happened: one submission created the job,
    // the other coalesced or hit the store.
    assert_eq!(metric(&addr, &["jobs", "completed"]), 1);
    assert_eq!(metric(&addr, &["jobs", "submitted"]), 1);
    assert_eq!(
        metric(&addr, &["jobs", "coalesced"]) + metric(&addr, &["store", "hits"]),
        1
    );

    // A repeat after completion is served from the store: no new
    // simulation work (the executed-task counter does not move), and
    // the submit response says so.
    let executed_before = metric(&addr, &["recovery", "tasks_executed"]);
    let (job, resp) = client::submit(&addr, SMOKE_EXPLORE).expect("resubmit");
    assert_eq!(resp.status, 200, "answered immediately: {}", resp.body);
    assert!(resp.body.contains("\"source\":\"store\""), "{}", resp.body);
    let body = client::wait_for_result(&addr, &job, Duration::from_secs(10)).expect("stored");
    assert_eq!(body, results[0].1, "stored body is byte-identical");
    assert_eq!(
        metric(&addr, &["recovery", "tasks_executed"]),
        executed_before
    );
    assert_eq!(
        metric(&addr, &["jobs", "completed"]),
        1,
        "no second execution"
    );

    daemon.stop();

    // A fresh daemon on the same data directory never ran the job, so
    // it answers from the store — and streaming such a job yields a
    // closed one-line feed instead of hanging on a feed that will
    // never open.
    let restarted = start(&dir);
    let (again, resp) = client::submit(&restarted.addr, SMOKE_EXPLORE).expect("resubmit");
    assert_eq!((again.as_str(), resp.status), (job.as_str(), 200));
    let mut lines = Vec::new();
    client::stream_events(&restarted.addr, &job, usize::MAX, |l| {
        lines.push(l.to_string())
    })
    .expect("stream store-answered job");
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].contains("\"source\":\"store\""));
    restarted.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two *different* questions over the *same* campaign make two job
/// ids, so the queue does not coalesce them — and with two scheduler
/// workers they execute concurrently. The engine must serialize them
/// onto the campaign (one checkpoint journal writer, one exploration)
/// and answer the loser from the store; two concurrent journal writers
/// on one file would race each other's atomic rewrites and corrupt it.
#[test]
fn concurrent_questions_over_one_campaign_run_it_once() {
    let dir = data_dir("campaign");
    let mut config = ServerConfig::new(&dir);
    config.queue_capacity = 8;
    config.workers = 2;
    config.pipeline_jobs = 1;
    let server = Server::bind(&config).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run().expect("serve"));

    const WORKLOADS: &str = r#"["crafty","gcc","gzip","mcf"]"#;
    let questions = [
        format!(
            r#"{{"kind":"slowdown","profile":"smoke","workload":"gzip","workloads":{WORKLOADS}}}"#
        ),
        format!(
            r#"{{"kind":"slowdown","profile":"smoke","workload":"mcf","workloads":{WORKLOADS}}}"#
        ),
    ];
    let threads: Vec<_> = questions
        .iter()
        .cloned()
        .map(|q| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let (job, _) = client::submit(&addr, &q).expect("submit");
                let body =
                    client::wait_for_result(&addr, &job, Duration::from_secs(300)).expect("done");
                (job, body)
            })
        })
        .collect();
    let results: Vec<(String, String)> = threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();
    assert_ne!(results[0].0, results[1].0, "different questions");
    assert!(results[0].1.contains("\"row\""), "{}", results[0].1);
    assert!(results[1].1.contains("\"row\""), "{}", results[1].1);
    assert_eq!(metric(&addr, &["jobs", "completed"]), 2);

    // Exactly one of the two executed the campaign; the other read the
    // stored document (after waiting out the first, when they
    // overlapped). Each job's feed says which happened.
    let mut sources = Vec::new();
    for (job, _) in &results {
        let mut lines = Vec::new();
        client::stream_events(&addr, job, usize::MAX, |l| lines.push(l.to_string()))
            .expect("replay feed");
        let campaign = lines
            .iter()
            .find(|l| l.contains("\"event\":\"campaign\""))
            .expect("campaign line")
            .clone();
        sources.push(if campaign.contains("\"source\":\"run\"") {
            "run"
        } else {
            "store"
        });
    }
    sources.sort_unstable();
    assert_eq!(sources, vec!["run", "store"], "the campaign ran once");

    handle.shutdown();
    thread.join().expect("drained");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn progress_stream_carries_anneal_steps() {
    let dir = data_dir("events");
    let daemon = start(&dir);
    let addr = daemon.addr.clone();

    let (job, resp) = client::submit(&addr, SMOKE_EXPLORE).expect("submit");
    assert_eq!(resp.status, 202, "{}", resp.body);
    let mut lines = Vec::new();
    client::stream_events(&addr, &job, usize::MAX, |l| lines.push(l.to_string()))
        .expect("stream to completion");
    assert!(
        lines.iter().any(|l| l.contains("\"event\":\"anneal\"")),
        "anneal steps streamed: {:?}",
        &lines[..lines.len().min(3)]
    );
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"temperature\"") && l.contains("\"best_ipt\"")),
        "steps carry temperature and best score"
    );
    assert!(
        lines
            .last()
            .expect("nonempty")
            .contains("\"event\":\"done\""),
        "stream terminates with the done line"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"event\":\"span\"") && l.contains("\"name\":\"anneal.walk\"")),
        "span summary lines precede the done line"
    );
    assert!(
        metric(&addr, &["spans", "anneal.walk", "count"]) >= 1,
        "job profile lands in /metrics"
    );

    // A second streamer replays the identical feed history: the feed
    // is append-only, so late readers see the same closed stream.
    let result = client::wait_for_result(&addr, &job, Duration::from_secs(60)).expect("done");
    assert!(result.contains("\"cores\""));
    let mut replay = Vec::new();
    client::stream_events(&addr, &job, usize::MAX, |l| replay.push(l.to_string()))
        .expect("stream after done");
    assert_eq!(replay, lines, "replay equals the live stream");

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_requests_and_unknown_jobs_get_typed_statuses() {
    let dir = data_dir("errors");
    let daemon = start(&dir);
    let addr = daemon.addr.clone();

    let bad =
        client::request(&addr, "POST", "/jobs", Some("{\"kind\":\"dance\"}")).expect("responds");
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("unknown kind"), "{}", bad.body);

    let missing = client::request(&addr, "GET", "/jobs/ffffffffffffffff", None).expect("responds");
    assert_eq!(missing.status, 404);

    let method = client::request(&addr, "DELETE", "/jobs", None).expect("responds");
    assert_eq!(method.status, 405);

    let path = client::request(&addr, "GET", "/nope", None).expect("responds");
    assert_eq!(path.status, 404);

    let health = client::request(&addr, "GET", "/healthz", None).expect("responds");
    assert_eq!(health.status, 200);
    let doc = health.json().expect("healthz is JSON");
    assert_eq!(doc.member("ok").expect("ok"), &serde::Value::Bool(true));
    for field in ["queue_depth", "store_records", "store_bytes"] {
        assert!(
            matches!(doc.member(field), Ok(serde::Value::U64(_))),
            "healthz carries `{field}`: {}",
            health.body
        );
    }

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

#[test]
fn queue_overflow_returns_429() {
    let dir = data_dir("backpressure");
    let mut config = ServerConfig::new(&dir);
    // Capacity 1 and zero scheduler throughput: the worker count is 1
    // and the first job occupies it, so the second queues and the
    // third overflows.
    config.queue_capacity = 1;
    config.pipeline_jobs = 1;
    let server = Server::bind(&config).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run().expect("serve"));

    let submit = |spec: &str| {
        client::request(
            &addr,
            "POST",
            "/jobs",
            Some(&format!(
                "{{\"kind\":\"explore\",\"profile\":\"smoke\",\"workloads\":[{spec}]}}"
            )),
        )
        .expect("responds")
    };
    // The first job is big enough to hold the worker for the whole
    // test, so the queue slot freed when it is picked up is the only
    // one: the second submission queues, the third overflows.
    let first =
        client::request(&addr, "POST", "/jobs", Some(&big_smoke_explore())).expect("responds");
    assert_eq!(first.status, 202, "{}", first.body);
    // Wait for the worker to pick the first job up, freeing the queue
    // slot for exactly one more.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let resp = client::request(&addr, "GET", "/metrics", None).expect("metrics");
        let depth = resp
            .json()
            .expect("json")
            .member("jobs")
            .and_then(|j| j.member("queue_depth").cloned())
            .expect("depth");
        if depth == Value::U64(0) || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let second = submit("\"mcf\"");
    assert_eq!(second.status, 202, "{}", second.body);
    let third = submit("\"vpr\"");
    assert_eq!(third.status, 429, "backpressure: {}", third.body);
    assert!(third.body.contains("retry later"), "{}", third.body);

    handle.shutdown();
    thread.join().expect("drained");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The drain-and-resume property, in-process: shut the daemon down
/// mid-job, assert the job is persisted as unfinished, restart on the
/// same data directory, and require the resumed result to be
/// byte-identical to an uninterrupted run of the same request on a
/// fresh daemon.
#[test]
fn drained_job_resumes_after_restart_byte_identically() {
    let job_json = big_smoke_explore();

    // Reference: an uninterrupted run on its own data directory.
    let ref_dir = data_dir("drain-ref");
    let reference = start(&ref_dir);
    let (ref_job, _) = client::submit(&reference.addr, &job_json).expect("submit reference");
    let ref_body = client::wait_for_result(&reference.addr, &ref_job, Duration::from_secs(300))
        .expect("reference completes");
    reference.stop();
    let _ = std::fs::remove_dir_all(&ref_dir);

    // Interrupted run: drain once the job is mid-campaign. The signal
    // is the campaign's checkpoint journal turning non-empty on disk —
    // at least one task is then guaranteed to replay after restart —
    // and the job (hundreds of tasks) is still far from done when it
    // appears, on any machine speed.
    let dir = data_dir("drain");
    let daemon = start(&dir);
    let addr = daemon.addr.clone();
    let (job, resp) = client::submit(&addr, &job_json).expect("submit");
    assert_eq!(resp.status, 202, "{}", resp.body);
    assert_eq!(job, ref_job, "same canonical request, same content id");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let checkpointed = std::fs::read_dir(&dir)
            .ok()
            .into_iter()
            .flatten()
            .flatten()
            .any(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                name.starts_with("journal-")
                    && name.ends_with(".jsonl")
                    && e.metadata().is_ok_and(|m| m.len() > 0)
            });
        if checkpointed {
            break;
        }
        assert!(Instant::now() < deadline, "no checkpoint ever appeared");
        std::thread::sleep(Duration::from_millis(5));
    }
    daemon.stop();

    // The unfinished job is persisted for the next process.
    let queue_json = std::fs::read_to_string(dir.join("queue.json")).expect("queue journal exists");
    assert!(
        queue_json.contains(&job),
        "drained job is persisted as unfinished: {queue_json}"
    );

    // Restart on the same data directory: the job resumes from its
    // checkpoint journal without a new submission.
    let resumed = start(&dir);
    let body = client::wait_for_result(&resumed.addr, &job, Duration::from_secs(300))
        .expect("resumed job completes");
    assert_eq!(body, ref_body, "resumed result is byte-identical");
    // The resumed campaign salvaged checkpointed tasks instead of
    // re-running them.
    assert!(
        metric(&resumed.addr, &["recovery", "journal_replayed"]) > 0,
        "resume replayed the checkpoint journal"
    );
    resumed.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
