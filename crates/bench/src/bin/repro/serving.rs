//! The serving path: the daemon (`serve`), its smoke client
//! (`client`), and the fleet coordinator (`fleet`), plus the one
//! fleet constructor that `scale` and `bakeoff` dispatch through too.

use crate::cli::{Opts, Outcome};
use std::error::Error;
use std::path::PathBuf;
use std::sync::Arc;
use xps_bench::render_table;
use xps_core::explore::RunContext;
use xps_serve::{FlakyTransport, Fleet, FleetConfig, NetFaultPlan, TcpTransport};

/// Default daemon bind / client target address.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7780";
/// Default daemon state root.
pub const DEFAULT_DATA_DIR: &str = "results/serve";
/// Default destination of the gathered fleet campaign document.
pub const FLEET_OUT: &str = "results/fleet.json";

/// The fleet coordinator over `--workers` (none means every task runs
/// coordinator-local): `--retries` bounds each task's remote attempts,
/// and `--net-faults` (else `XPS_NET_FAULTS`) wraps the transport in a
/// seeded fault plan.
pub fn build_fleet(o: &Opts) -> Result<Arc<Fleet>, Box<dyn Error>> {
    let mut cfg = FleetConfig::new(o.workers.clone());
    if let Some(retries) = o.retries {
        cfg.retries = retries;
    }
    let plan = match o.net_faults.clone() {
        Some(plan) => Some(plan),
        None => NetFaultPlan::from_env()?,
    };
    let tcp = TcpTransport {
        connect_timeout: cfg.connect_timeout,
    };
    Ok(Arc::new(match plan {
        Some(plan) if plan.is_active() => {
            eprintln!("[injecting network faults: {plan:?}]");
            Fleet::new(cfg, Arc::new(FlakyTransport::new(plan, tcp)))
        }
        _ => Fleet::new(cfg, Arc::new(tcp)),
    }))
}

/// A run context and the fleet it dispatches over, if any.
type Dispatch = (RunContext, Option<Arc<Fleet>>);

/// `ctx` dispatching its tasks over [`build_fleet`] when `--workers`
/// names any; the fleet comes back for its statistics.
pub fn with_fleet(ctx: RunContext, o: &Opts) -> Result<Dispatch, Box<dyn Error>> {
    if o.workers.is_empty() {
        return Ok((ctx, None));
    }
    let fleet = build_fleet(o)?;
    Ok((ctx.with_dispatcher(fleet.clone()), Some(fleet)))
}

/// Where `scale`/`bakeoff` run their tasks, for their progress line.
pub fn placement(o: &Opts) -> String {
    if o.workers.is_empty() {
        "local".to_string()
    } else {
        o.workers.join(",")
    }
}

/// The execution statistics of a study's fleet, on stderr.
pub fn print_fleet_stats(fleet: &Fleet) {
    let s = fleet.stats();
    eprintln!(
        "[fleet: {} task(s) remote, {} local-degraded, {} retries, {} quarantines]",
        s.dispatched, s.degraded, s.retried, s.quarantines
    );
}

/// Run the exploration-as-a-service daemon in the foreground until
/// SIGTERM/ctrl-c, serving explore/evaluate/combination/slowdown jobs
/// over HTTP. `--addr` sets the bind address, `--data-dir` the state
/// root, `--jobs` the worker threads per campaign.
pub fn serve(o: &Opts) -> Outcome {
    use xps_serve::{install_signal_handlers, Server, ServerConfig};
    let mut config = ServerConfig::new(
        o.data_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from(DEFAULT_DATA_DIR)),
    );
    config.addr = o.addr.clone().unwrap_or_else(|| DEFAULT_ADDR.to_string());
    config.pipeline_jobs = o.jobs;
    let server = Server::bind(&config)?;
    let addr = server.local_addr()?;
    install_signal_handlers(server.shutdown_handle());
    println!(
        "xps-serve listening on {addr} (data dir {})",
        config.data_dir.display()
    );
    server.run()?;
    println!("xps-serve drained cleanly");
    Ok(())
}

/// Submit one exploration to a running daemon (`repro serve` or the
/// `xps-serve` binary), stream a few progress events, and print the
/// customized configurations — the end-to-end smoke of the serving
/// path. `--quick` uses the seconds-scale smoke profile.
pub fn client(o: &Opts) -> Outcome {
    use xps_serve::client;
    let addr = o.addr.clone().unwrap_or_else(|| DEFAULT_ADDR.to_string());
    // Probe reachability first, with bounded retries: a daemon that is
    // down yields one actionable message (address, attempts, backoff,
    // how to start one) instead of a raw I/O error from mid-protocol.
    client::request_retrying(
        &addr,
        "GET",
        "/healthz",
        None,
        &client::RetryPolicy::default(),
    )?;
    let profile = if o.quick { "smoke" } else { "quick" };
    let job_json =
        format!(r#"{{"kind":"explore","profile":"{profile}","workloads":["gzip","mcf"]}}"#);
    println!("submitting to {addr}: {job_json}");
    let (job, resp) = client::submit(&addr, &job_json)?;
    println!("job {job}: HTTP {} {}", resp.status, resp.body);
    if resp.status == 202 {
        let shown = client::stream_events(&addr, &job, 5, |line| println!("  event: {line}"))?;
        println!("  ({shown} progress events shown)");
    }
    let body = client::wait_for_result(&addr, &job, std::time::Duration::from_secs(1200))?;
    let doc: serde::Value =
        serde_json::from_str(&body).map_err(|e| format!("result is not JSON: {e}"))?;
    if let Ok(serde::Value::Arr(cores)) = doc.member("cores") {
        let mut rows = Vec::new();
        for core in cores {
            let name = core
                .member("profile")
                .and_then(|p| p.member("name"))
                .and_then(|v| v.as_str().map(String::from))
                .unwrap_or_else(|_| "?".to_string());
            let ipt = match core.member("ipt") {
                Ok(serde::Value::F64(x)) => format!("{x:.2}"),
                _ => "?".to_string(),
            };
            rows.push(vec![name, ipt]);
        }
        println!(
            "{}",
            render_table(&["benchmark".into(), "customized IPT".into()], &rows)
        );
    }
    Ok(())
}

/// Scatter one exploration campaign over `--workers` via the fleet
/// coordinator and gather the canonical campaign document — byte-
/// identical to a single-node run for any worker count or failure
/// schedule. With no `--workers`, every task runs coordinator-local
/// (the degenerate single-node fleet). `--net-faults` injects the
/// seeded flaky-transport schedule; `--quick` uses the seconds-scale
/// smoke profile. The document lands at `--out`.
pub fn fleet(o: &Opts) -> Outcome {
    use xps_serve::run_campaign_with_fleet;
    let fleet = build_fleet(o)?;
    let profile = if o.quick { "smoke" } else { "quick" };
    let workloads = vec!["gzip".to_string(), "mcf".to_string()];
    eprintln!(
        "[fleet: {} worker(s), profile {profile}, workloads {}]",
        o.workers.len(),
        workloads.join("+")
    );
    let report = run_campaign_with_fleet(&workloads, profile, o.jobs, &fleet)?;
    let stats = &report.stats;
    println!(
        "campaign {}: {} tasks remote, {} local-degraded, {} retries, {} quarantines",
        report.campaign_id, report.remote_tasks, stats.degraded, stats.retried, stats.quarantines
    );
    for w in &stats.workers {
        println!(
            "  worker {} completed {}{}",
            w.addr,
            w.completed,
            if w.quarantined { " (quarantined)" } else { "" }
        );
    }
    let out = o.out.clone().unwrap_or_else(|| PathBuf::from(FLEET_OUT));
    xps_core::explore::write_atomic(&out, &report.document)?;
    println!(
        "[campaign document {} — byte-identical to a single-node run]",
        out.display()
    );
    Ok(())
}
