//! The benchmark end to end at smoke scale: every workload, untraced
//! and traced, must check out correct and finish quickly.

use serde::Value;
use std::process::Command;
use std::time::{Duration, Instant};

/// Run `xps-perf` at smoke scale and return the contract lines (one
/// per workload) after checking each reports correct, failure-free
/// output with exactly `expect` metric names.
fn smoke(cmd: &str, seed: &str, expect: usize) -> Vec<Vec<String>> {
    let scratch = format!("{}/smoke-{cmd}", env!("CARGO_TARGET_TMPDIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_xps-perf"))
        .args([cmd, "--workload", "all", "--seed", seed, "--smoke"])
        .args(["--seconds", "1", "--scratch", &scratch])
        .output()
        .expect("xps-perf runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(lines.len(), 4, "one contract line per workload:\n{stdout}");
    lines
        .iter()
        .map(|line| {
            let v: Value = serde_json::from_str(line).expect("contract line is JSON");
            assert_eq!(v.member("correct").ok(), Some(&Value::Bool(true)), "{line}");
            assert_eq!(v.member("failed").ok(), Some(&Value::U64(0)), "{line}");
            assert!(
                matches!(v.member("attempted"), Ok(Value::U64(n)) if *n > 0),
                "{line}"
            );
            let Ok(Value::Obj(metrics)) = v.member("metrics") else {
                panic!("no metrics object: {line}");
            };
            assert_eq!(metrics.len(), expect, "{line}");
            metrics.iter().map(|(k, _)| k.clone()).collect()
        })
        .collect()
}

#[test]
fn smoke_run_of_every_workload_is_correct_and_quick() {
    let t0 = Instant::now();
    for names in smoke("run", "5", 3) {
        assert_eq!(names, ["wall_s", "setup_s", "peak_rss_mb"]);
    }
    assert!(t0.elapsed() < Duration::from_secs(20), "{:?}", t0.elapsed());
}

#[test]
fn smoke_trace_reports_every_per_layer_metric() {
    let t0 = Instant::now();
    for names in smoke("trace", "6", 35) {
        for name in ["ledger.unattributed_frac", "ledger.trace_overhead_frac"] {
            assert!(names.iter().any(|n| n == name), "{name} missing");
        }
    }
    assert!(t0.elapsed() < Duration::from_secs(30), "{:?}", t0.elapsed());
}
