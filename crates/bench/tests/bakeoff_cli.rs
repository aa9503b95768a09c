//! End-to-end tests of `repro bakeoff`: the canonical report is a
//! golden-master snapshot (blessed with `XPS_BLESS=1`), and a
//! SIGKILL'd bake-off resumes from its journal to the exact bytes an
//! uninterrupted run produces. Both run the real binary — the same
//! code path CI's `bakeoff-smoke` job exercises.

#![allow(
    clippy::disallowed_methods,
    reason = "XPS_BLESS=1 rewrites the golden report in place"
)]

use std::path::{Path, PathBuf};
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xps-bakeoff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Run a smoke bake-off to `out`, asserting success.
fn run_bakeoff(out: &Path, journal: &Path, extra: &[&str]) {
    let status = repro()
        .args(["bakeoff", "--quick", "--jobs", "2"])
        .args(["--out", out.to_str().expect("utf8")])
        .args(["--journal", journal.to_str().expect("utf8")])
        .args(extra)
        .status()
        .expect("spawn repro");
    assert!(status.success(), "repro bakeoff failed");
}

/// The committed snapshot of a smoke bake-off. A diff here means an
/// intentional change to an explorer, the energy proxy, or the report
/// shape — bless it with `XPS_BLESS=1 cargo test -p xps-bench` and
/// commit the new golden together with the change that moved it.
#[test]
fn smoke_report_matches_the_golden_master() {
    let golden =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/bakeoff_smoke.json");
    let dir = tmp_dir("golden");
    let out = dir.join("bakeoff.json");
    run_bakeoff(&out, &dir.join("journal.jsonl"), &[]);
    let fresh = std::fs::read_to_string(&out).expect("report written");
    if std::env::var_os("XPS_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(golden.parent().expect("has parent")).expect("mkdir golden");
        std::fs::write(&golden, &fresh).expect("bless golden");
        return;
    }
    let committed = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); bless it with XPS_BLESS=1",
            golden.display()
        )
    });
    assert_eq!(
        fresh, committed,
        "bake-off bytes drifted from the golden master; if intentional, \
         re-bless with XPS_BLESS=1 and commit the diff"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// SIGKILL a bake-off mid-run, then `--resume` it: the journal
/// replays the finished searches and the final report is byte-equal
/// to an uninterrupted oracle run.
#[test]
fn killed_bakeoff_resumes_to_identical_bytes() {
    let dir = tmp_dir("resume");
    // Oracle: one uninterrupted run.
    let oracle = dir.join("oracle.json");
    run_bakeoff(&oracle, &dir.join("oracle-journal.jsonl"), &[]);
    let oracle_bytes = std::fs::read(&oracle).expect("oracle written");

    // Victim: same flags, killed as soon as the journal shows
    // progress (so some tasks are salvaged, some are missing). If the
    // host is fast enough that the run finishes first, the resume
    // degenerates to a full-journal replay — still a valid check.
    let out = dir.join("resumed.json");
    let journal = dir.join("journal.jsonl");
    let mut child = repro()
        .args(["bakeoff", "--quick", "--jobs", "2"])
        .args(["--out", out.to_str().expect("utf8")])
        .args(["--journal", journal.to_str().expect("utf8")])
        .spawn()
        .expect("spawn victim");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let journaled = std::fs::read_to_string(&journal)
            .map(|s| s.lines().count())
            .unwrap_or(0);
        let running = child.try_wait().expect("try_wait").is_none();
        if journaled >= 2 || !running {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "victim made no journal progress in 30s"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let _ = child.kill(); // SIGKILL on unix; no-op if already done
    let _ = child.wait();

    let resumed = repro()
        .args(["bakeoff", "--quick", "--jobs", "2", "--resume"])
        .args(["--out", out.to_str().expect("utf8")])
        .args(["--journal", journal.to_str().expect("utf8")])
        .output()
        .expect("spawn resume");
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("resuming from"),
        "resume must announce the replay: {stderr}"
    );
    let resumed_bytes = std::fs::read(&out).expect("resumed report written");
    assert_eq!(
        resumed_bytes, oracle_bytes,
        "a resumed bake-off must be byte-identical to an uninterrupted one"
    );
    let _ = std::fs::remove_dir_all(dir);
}
