//! Fleet integration tests against REAL `xps-serve` worker processes:
//! real TCP, real process death.
//!
//! The acceptance criterion under test is the ISSUE's headline
//! guarantee: the gathered campaign document is byte-identical to a
//! single-node run for any worker count {1, 2, 4}, when one of three
//! workers is SIGKILLed mid-campaign, and under a seeded network
//! fault schedule. Failures may cost retries, quarantines, and local
//! fallback — never different bytes.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use xps_serve::{
    run_campaign_with_fleet, FlakyTransport, Fleet, FleetConfig, NetFaultPlan, TcpTransport,
};

static SEQ: AtomicU64 = AtomicU64::new(0);

fn data_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "xps-fleet-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One real `xps-serve` worker process on an ephemeral port.
struct Worker {
    child: Child,
    addr: String,
    dir: PathBuf,
}

impl Worker {
    fn spawn(tag: &str) -> Worker {
        let dir = data_dir(tag);
        let mut child = Command::new(env!("CARGO_BIN_EXE_xps-serve"))
            .arg("--addr=127.0.0.1:0")
            .arg(format!("--data-dir={}", dir.display()))
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn xps-serve");
        // The first stdout line is machine-readable by contract:
        // `xps-serve listening on HOST:PORT (data dir ...)`.
        let stdout = child.stdout.take().expect("stdout piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read banner");
        let addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("unparseable banner `{}`", line.trim()))
            .to_string();
        Worker { child, addr, dir }
    }

    /// SIGKILL: no drain, no checkpoint, the socket just dies.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.kill();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

const WORKLOADS: [&str; 2] = ["gzip", "mcf"];

fn workloads() -> Vec<String> {
    WORKLOADS.iter().map(|s| (*s).to_string()).collect()
}

/// A fleet config tuned for tests: fast retries, short deadlines,
/// background heartbeat off so every probe and retry in the stats is
/// attributable to the campaign itself.
fn test_config(addrs: Vec<String>) -> FleetConfig {
    let mut cfg = FleetConfig::new(addrs);
    cfg.connect_timeout = Duration::from_secs(2);
    cfg.request_timeout = Duration::from_secs(60);
    cfg.retries = 3;
    cfg.backoff_base_ms = 1;
    cfg.quarantine_after = 2;
    cfg.heartbeat_interval = Duration::ZERO;
    cfg
}

/// The single-node oracle: a fleet with zero workers degrades every
/// task to coordinator-local execution, which is by construction the
/// plain pipeline run.
fn single_node_document() -> String {
    let fleet = Arc::new(Fleet::tcp(test_config(Vec::new())));
    run_campaign_with_fleet(&workloads(), "smoke", 2, &fleet)
        .expect("local campaign")
        .document
}

fn fleet_document(fleet: &Arc<Fleet>) -> String {
    run_campaign_with_fleet(&workloads(), "smoke", 2, fleet)
        .expect("fleet campaign")
        .document
}

#[test]
fn document_is_byte_identical_for_worker_counts_1_2_4() {
    let oracle = single_node_document();
    let workers: Vec<Worker> = (0..4).map(|_| Worker::spawn("counts")).collect();
    for count in [1usize, 2, 4] {
        let addrs: Vec<String> = workers.iter().take(count).map(|w| w.addr.clone()).collect();
        let fleet = Arc::new(Fleet::tcp(test_config(addrs)));
        let doc = fleet_document(&fleet);
        assert_eq!(doc, oracle, "{count}-worker document diverged");
        let stats = fleet.stats();
        assert!(
            stats.dispatched > 0,
            "{count}-worker fleet ran everything locally: {stats:?}"
        );
    }
}

#[test]
fn sigkill_one_of_three_workers_mid_campaign_keeps_bytes() {
    let oracle = single_node_document();
    let mut workers: Vec<Worker> = (0..3).map(|_| Worker::spawn("sigkill")).collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
    let fleet = Arc::new(Fleet::tcp(test_config(addrs)));

    // Kill worker 0 shortly after the scatter starts: in-flight
    // requests die with the socket, later placements are refused.
    // Whatever instant the kill lands, the bytes must not change.
    let campaign = {
        let fleet = fleet.clone();
        std::thread::spawn(move || fleet_document(&fleet))
    };
    std::thread::sleep(Duration::from_millis(100));
    workers[0].kill();
    let doc = campaign.join().expect("campaign thread");
    assert_eq!(doc, oracle, "document diverged after SIGKILL");

    let stats = fleet.stats();
    assert!(stats.dispatched > 0, "no remote work at all: {stats:?}");
}

#[test]
fn worker_dead_from_the_start_is_retried_quarantined_and_identical() {
    let oracle = single_node_document();
    let mut workers: Vec<Worker> = (0..3).map(|_| Worker::spawn("dead")).collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
    // Deterministic variant of the SIGKILL test: the dead worker is
    // guaranteed to see (and refuse) placements, so the failure
    // machinery is provably exercised, not just tolerated.
    workers[0].kill();
    let fleet = Arc::new(Fleet::tcp(test_config(addrs)));
    let doc = fleet_document(&fleet);
    assert_eq!(doc, oracle, "document diverged with a dead worker");

    let stats = fleet.stats();
    assert!(
        stats.dispatched > 0,
        "live workers took no tasks: {stats:?}"
    );
    assert!(stats.retried > 0, "dead worker cost no retries: {stats:?}");
    assert_eq!(
        stats.quarantines, 1,
        "dead worker not quarantined: {stats:?}"
    );
    let dead = stats
        .workers
        .iter()
        .find(|w| w.addr == workers[0].addr)
        .expect("dead worker in stats");
    assert!(dead.quarantined);
    assert_eq!(dead.completed, 0);
}

#[test]
fn seeded_fault_schedule_keeps_bytes() {
    let oracle = single_node_document();
    let workers: Vec<Worker> = (0..2).map(|_| Worker::spawn("faults")).collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
    let cfg = test_config(addrs);
    let plan =
        NetFaultPlan::parse("drop=10,delay=5,truncate=5,duplicate=5,garbage=5,seed=3,delay_ms=1")
            .expect("valid plan");
    let tcp = TcpTransport {
        connect_timeout: cfg.connect_timeout,
    };
    let fleet = Arc::new(Fleet::new(cfg, Arc::new(FlakyTransport::new(plan, tcp))));
    let doc = fleet_document(&fleet);
    assert_eq!(doc, oracle, "document diverged under injected faults");
    assert!(fleet.stats().dispatched > 0, "nothing ran remotely");
}

#[test]
fn dispatched_eval_group_equals_local_group() {
    use xps_core::explore::{EvalCache, TaskDispatcher, TaskSpec};
    use xps_core::{paper, workload::spec};
    use xps_serve::Transport;
    let worker = Worker::spawn("group");
    let fleet = Fleet::tcp(test_config(vec![worker.addr.clone()]));
    let profile = spec::profile("gcc").expect("known benchmark");
    // A Table 4 lock-step group, at a length past the replay cache so
    // the worker streams the trace once for all four cores.
    let configs = paper::table4_configs()[6..10].to_vec();
    let ops = 70_000;
    let spec = TaskSpec::eval(&profile, &configs, ops);
    let body = fleet
        .dispatch("matrix#0/0", &spec)
        .expect("the worker ran the group");
    let remote: Vec<f64> = serde_json::from_str(&body).expect("one IPT per config");
    let local = EvalCache::new().ipt_group(&profile, &configs, ops);
    assert_eq!(remote.len(), configs.len());
    assert!(
        remote
            .iter()
            .zip(&local)
            .all(|(r, l)| r.to_bits() == l.to_bits()),
        "dispatched group diverged: {remote:?} vs {local:?}"
    );

    // A spec is input from outside the program: an empty group or an
    // invalid member is an HTTP 400, which the dispatcher declines
    // (the coordinator then meets the same typed rejection locally).
    let mut invalid = configs[0].clone();
    invalid.width = 0;
    for bad in [
        TaskSpec::eval(&profile, &[], ops),
        TaskSpec::eval(&profile, &[configs[0].clone(), invalid], ops),
    ] {
        let resp = TcpTransport::default()
            .roundtrip(
                &worker.addr,
                "POST",
                "/tasks",
                Some(&bad.canonical()),
                Duration::from_secs(30),
                "reject",
            )
            .expect("the worker answers");
        assert_eq!(resp.status, 400, "accepted a bad group: {}", resp.body);
        assert_eq!(fleet.dispatch("matrix#0/1", &bad), None);
    }
}

#[test]
fn oversized_eval_group_runs_as_bounded_runs_on_the_worker() {
    use xps_core::explore::{EvalCache, TaskDispatcher, TaskSpec};
    use xps_core::{paper, sim, workload::spec};
    let worker = Worker::spawn("oversized");
    let fleet = Fleet::tcp(test_config(vec![worker.addr.clone()]));
    let profile = spec::profile("twolf").expect("known benchmark");
    // The whole Table 4 set three times over: far more simulator state
    // than any one core's, as no coordinator would send. The worker
    // splits it into the same state-bounded runs the coordinator uses
    // and answers one IPT per member, each equal to a lone evaluation.
    let table4 = paper::table4_configs();
    let configs: Vec<sim::CoreConfig> = table4.iter().cycle().take(33).cloned().collect();
    assert!(sim::lockstep_groups(&configs).len() > 1);
    let ops = 2_000;
    let body = fleet
        .dispatch("matrix#0/0", &TaskSpec::eval(&profile, &configs, ops))
        .expect("the worker ran the group");
    let remote: Vec<f64> = serde_json::from_str(&body).expect("one IPT per config");
    let cache = EvalCache::new();
    let scalar: Vec<f64> = configs
        .iter()
        .map(|c| cache.ipt(&profile, c, ops))
        .collect();
    assert_eq!(remote.len(), scalar.len());
    assert!(
        remote
            .iter()
            .zip(&scalar)
            .all(|(r, l)| r.to_bits() == l.to_bits()),
        "oversized group diverged: {remote:?} vs {scalar:?}"
    );
}

#[test]
fn hostile_cache_geometry_is_a_typed_400_and_the_worker_lives_on() {
    use xps_core::explore::{AnnealOptions, DesignPoint, TaskDispatcher, TaskSpec};
    use xps_core::{cacti::Technology, paper, workload::spec};
    use xps_serve::Transport;
    let worker = Worker::spawn("geometry");
    let fleet = Fleet::tcp(test_config(vec![worker.addr.clone()]));
    let profile = spec::profile("vpr").expect("known benchmark");
    let good = paper::table4_configs()[0].clone();
    let ops = 2_000;
    let mut endless_walk = AnnealOptions::quick();
    endless_walk.iterations = u32::MAX;
    // Geometries no design point has: a `sets × assoc` line count that
    // overflows, one just past the design space, zero ways, and a
    // block size that is not a power of two; a ROB that would
    // allocate one ring entry per slot of a `u32::MAX` window; a trace
    // length that would pin the worker for good; and an anneal of
    // `u32::MAX` iterations, which would too.
    let hostile = |f: &dyn Fn(&mut xps_core::sim::CoreConfig)| {
        let mut c = good.clone();
        f(&mut c);
        c
    };
    let members = [
        (
            hostile(&|c| {
                c.l2.geometry.sets = u32::MAX;
                c.l2.geometry.assoc = u32::MAX;
            }),
            "L2 sets",
        ),
        (hostile(&|c| c.l2.geometry.sets = 1 << 17), "L2 sets"),
        (hostile(&|c| c.l1.geometry.assoc = 0), "L1 associativity"),
        (
            hostile(&|c| c.l1.geometry.block_bytes = 48),
            "L1 block size",
        ),
        (hostile(&|c| c.rob_size = u32::MAX), "ROB size"),
    ];
    let specs = members
        .into_iter()
        .map(|(member, what)| {
            let spec = TaskSpec::eval(&profile, &[good.clone(), member], ops);
            (spec, ["eval config 1 invalid", what])
        })
        .chain([
            (
                TaskSpec::eval(&profile, std::slice::from_ref(&good), u64::MAX),
                ["exceed the task bound", "18446744073709551615 ops"],
            ),
            (
                TaskSpec::anneal(
                    &profile,
                    &DesignPoint::initial(),
                    &endless_walk,
                    &Technology::default(),
                ),
                ["exceed the task bound", "4294967295 evaluations"],
            ),
        ]);
    for (spec, needles) in specs {
        let resp = TcpTransport::default()
            .roundtrip(
                &worker.addr,
                "POST",
                "/tasks",
                Some(&spec.canonical()),
                Duration::from_secs(30),
                "hostile",
            )
            .expect("the worker answers");
        assert_eq!(resp.status, 400, "accepted a hostile spec: {}", resp.body);
        assert!(
            needles.iter().all(|n| resp.body.contains(n)),
            "untyped rejection: {}",
            resp.body
        );
    }
    // The worker survived every request and still evaluates.
    let body = fleet
        .dispatch("matrix#0/0", &TaskSpec::eval(&profile, &[good], ops))
        .expect("the worker is alive");
    let ipts: Vec<f64> = serde_json::from_str(&body).expect("one IPT");
    assert_eq!(ipts.len(), 1);
}

/// A "worker" that answers every request with a 200 announcing a
/// 16 TiB body. The coordinator must refuse the announcement as a bad
/// response — allocating it would abort the whole process — and the
/// campaign still completes locally, byte-identical to a local run.
#[test]
fn a_worker_announcing_a_huge_body_is_a_bad_response() {
    use std::io::Write;
    use xps_serve::{ServeError, Transport};
    let oracle = single_node_document();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let answered = Arc::new(AtomicU64::new(0));
    let count = Arc::clone(&answered);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            // Read the whole request first, so closing the socket
            // cannot reset the connection under the answer.
            let mut reader = BufReader::new(stream);
            if xps_serve::http::Request::parse(&mut reader).is_err() {
                continue;
            }
            let mut stream = reader.into_inner();
            let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 17592186044416\r\n\r\n");
            count.fetch_add(1, Ordering::Relaxed);
        }
    });
    let probe = TcpTransport::default().roundtrip(
        &addr,
        "GET",
        "/healthz",
        None,
        Duration::from_secs(30),
        "probe",
    );
    assert!(
        matches!(probe, Err(ServeError::TooLarge { .. })),
        "{probe:?}"
    );
    let fleet = Arc::new(Fleet::tcp(test_config(vec![addr.clone()])));
    assert_eq!(fleet_document(&fleet), oracle, "the campaign diverged");
    let stats = fleet.stats();
    assert!(answered.load(Ordering::Relaxed) > 1, "the worker was asked");
    assert_eq!(stats.dispatched, 0, "no answer was taken: {stats:?}");
    assert!(
        stats.degraded > 0,
        "tasks fell back to local runs: {stats:?}"
    );
    assert!(stats.workers[0].quarantined, "{stats:?}");
}
