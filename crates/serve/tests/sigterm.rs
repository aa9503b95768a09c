//! Process-level graceful-drain test: a real `xps-serve` worker
//! process, sent SIGTERM while a fleet campaign is dispatching to it,
//! must exit 0 having answered its in-flight tasks, the campaign's
//! `measured.json` bytes must equal a single-node run's, and a worker
//! restarted on the same data directory must answer the stored tasks
//! from its store — the same bytes again.
//!
//! This is the one test that exercises the installed signal handler —
//! the in-process drain tests flip the shutdown flag directly.

#![cfg(unix)]

mod common;

use common::campaign;
use serde::Value;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xps_serve::{client, Fleet, FleetConfig};

fn data_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xps-sigterm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A spawned worker process, killed hard on drop so a failing test
/// never leaks it.
struct DaemonProc {
    child: Child,
    addr: String,
    stdout: BufReader<std::process::ChildStdout>,
}

impl DaemonProc {
    fn spawn(dir: &Path) -> DaemonProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_xps-serve"))
            .args(["--addr", "127.0.0.1:0", "--data-dir"])
            .arg(dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn xps-serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        // The first stdout line is machine-readable:
        // `xps-serve listening on 127.0.0.1:PORT (data dir ...)`.
        let mut line = String::new();
        stdout.read_line(&mut line).expect("startup line");
        let addr = line
            .split_whitespace()
            .nth(3)
            .unwrap_or_else(|| panic!("unparseable startup line `{}`", line.trim()))
            .to_string();
        DaemonProc {
            child,
            addr,
            stdout,
        }
    }

    fn sigterm(&self) {
        // std::process cannot send signals; shell out to kill(1).
        let status = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("run kill");
        assert!(status.success(), "kill -TERM failed");
    }

    /// Wait for exit and return (exit success, remaining stdout).
    fn wait(mut self) -> (bool, String) {
        let status = self.child.wait().expect("wait for daemon");
        let mut rest = String::new();
        use std::io::Read;
        self.stdout.read_to_string(&mut rest).expect("drain stdout");
        // `wait` consumed the child; don't let drop kill a dead pid.
        std::mem::forget(self);
        (status.success(), rest)
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One of the worker's `/metrics` counters.
fn metric(addr: &str, group: &str, name: &str) -> u64 {
    let resp = client::request(addr, "GET", "/metrics", None).expect("metrics");
    match resp
        .json()
        .expect("metrics json")
        .member(group)
        .and_then(|g| g.member(name).cloned())
    {
        Ok(Value::U64(n)) => n,
        other => panic!("metric {group}.{name}: {other:?}"),
    }
}

/// A fleet over `workers` with fast retries and no heartbeat, so a
/// stopped worker is quarantined after two refused connections and
/// the rest of the campaign degrades to local execution at once.
fn fleet(workers: Vec<String>) -> Arc<Fleet> {
    let mut cfg = FleetConfig::new(workers);
    cfg.retries = 1;
    cfg.backoff_base_ms = 1;
    cfg.quarantine_after = 2;
    cfg.heartbeat_interval = Duration::ZERO;
    Arc::new(Fleet::tcp(cfg))
}

/// The smoke campaign over every paper benchmark: long enough —
/// hundreds of tasks — that SIGTERM reliably lands mid-campaign, on
/// any machine speed.
const WORKLOADS: &[&str] = &xps_core::workload::spec::BENCHMARKS;

#[test]
fn sigterm_drains_and_a_restarted_worker_answers_from_its_store() {
    let (oracle, _) = campaign(WORKLOADS, None);

    // SIGTERM lands once the worker has executed a task: the campaign
    // is then mid-scatter, with tasks in flight and more to come.
    let dir = data_dir("drain");
    let daemon = DaemonProc::spawn(&dir);
    let addr = daemon.addr.clone();
    let draining = fleet(vec![addr.clone()]);
    let run = {
        let fleet = draining.clone();
        std::thread::spawn(move || campaign(WORKLOADS, Some(fleet)))
    };
    let deadline = Instant::now() + Duration::from_secs(120);
    while metric(&addr, "fleet", "tasks_executed") == 0 {
        assert!(
            Instant::now() < deadline,
            "the worker never executed a task"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    daemon.sigterm();
    let (clean, out) = daemon.wait();
    assert!(clean, "a busy worker drains cleanly on SIGTERM: {out}");
    assert!(out.contains("drained cleanly"), "stdout: {out}");
    let (bytes, _) = run
        .join()
        .expect("the campaign completes without its worker");
    assert_eq!(bytes, oracle, "a drained worker cost bytes");
    let stats = draining.stats();
    assert!(
        stats.degraded > 0,
        "SIGTERM landed after the campaign: {stats:?}"
    );

    // A worker restarted on the same data directory answers what the
    // first process stored without re-running it.
    let resumed = DaemonProc::spawn(&dir);
    let (again, _) = campaign(WORKLOADS, Some(fleet(vec![resumed.addr.clone()])));
    assert_eq!(again, oracle, "the restarted worker cost bytes");
    assert!(
        metric(&resumed.addr, "fleet", "task_store_hits") > 0,
        "the restarted worker re-ran every stored task"
    );
    resumed.sigterm();
    let (clean, out) = resumed.wait();
    assert!(clean && out.contains("drained cleanly"), "stdout: {out}");
    let _ = std::fs::remove_dir_all(&dir);
}
