//! End-to-end test of `repro explore --workers`: the quick campaign,
//! run by the real binary over an in-process `xps-serve` worker,
//! writes the tracked `results/measured-quick.json` byte for byte,
//! and the worker really executed its tasks.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;
use xps_serve::{client, Server, ServerConfig};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xps-explore-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The worker's `fleet.tasks_executed` counter.
fn tasks_executed(addr: &str) -> u64 {
    let resp = client::request(addr, "GET", "/metrics", None).expect("metrics");
    match resp
        .json()
        .expect("metrics json")
        .member("fleet")
        .and_then(|g| g.member("tasks_executed").cloned())
    {
        Ok(Value::U64(n)) => n,
        other => panic!("metric fleet.tasks_executed: {other:?}"),
    }
}

#[test]
fn a_campaign_over_a_worker_writes_the_tracked_quick_results() {
    let dir = tmp_dir("workers");
    let mut config = ServerConfig::new(dir.join("worker-data"));
    config.addr = "127.0.0.1:0".to_string();
    let server = Server::bind(&config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let shutdown = server.shutdown_handle();
    let worker = std::thread::spawn(move || server.run().expect("serve"));

    let run = dir.join("run");
    std::fs::create_dir_all(&run).expect("create working dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["explore", "--quick", "--jobs", "2", "--workers", &addr])
        .current_dir(&run)
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "repro explore failed: {stderr}");
    assert!(stderr.contains("[fleet: "), "no fleet statistics: {stderr}");

    let tracked = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/measured-quick.json");
    let expected = std::fs::read(&tracked).expect("tracked quick campaign");
    let written = std::fs::read(run.join("results/measured.json")).expect("campaign written");
    assert!(
        written == expected,
        "a campaign over a worker must write the tracked quick results byte for byte"
    );
    assert!(tasks_executed(&addr) > 0, "the worker executed no task");

    shutdown.shutdown();
    worker.join().expect("drained cleanly");
    let _ = std::fs::remove_dir_all(dir);
}
