//! The coordinator side of `--workers`: the one fleet constructor
//! that `explore`, `scale` and `bakeoff` dispatch their tasks through.
//! The workers themselves are `xps-serve` processes.

use crate::cli::Opts;
use std::error::Error;
use std::sync::Arc;
use xps_core::explore::RunContext;
use xps_serve::{FlakyTransport, Fleet, FleetConfig, NetFaultPlan, TcpTransport};

/// A run context and the fleet it dispatches over, if any.
type Dispatch = (RunContext, Option<Arc<Fleet>>);

/// `ctx` dispatching its tasks over a fleet of the `--workers` when
/// it names any; the fleet comes back for its statistics. `--retries`
/// bounds each task's remote attempts, and `--net-faults` (else
/// `XPS_NET_FAULTS`) wraps the transport in a seeded fault plan.
pub fn with_fleet(ctx: RunContext, o: &Opts) -> Result<Dispatch, Box<dyn Error>> {
    if o.workers.is_empty() {
        return Ok((ctx, None));
    }
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
    let fleet = Arc::new(match plan {
        Some(plan) if plan.is_active() => {
            eprintln!("[injecting network faults: {plan:?}]");
            Fleet::new(cfg, Arc::new(FlakyTransport::new(plan, tcp)))
        }
        _ => Fleet::new(cfg, Arc::new(tcp)),
    });
    Ok((ctx.with_dispatcher(fleet.clone()), Some(fleet)))
}

/// Where a command runs its tasks, for its progress line.
pub fn placement(o: &Opts) -> String {
    if o.workers.is_empty() {
        "local".to_string()
    } else {
        o.workers.join(",")
    }
}

/// The execution statistics of a run's fleet, on stderr.
pub fn print_fleet_stats(fleet: &Fleet) {
    let s = fleet.stats();
    eprintln!(
        "[fleet: {} task(s) remote, {} local-degraded, {} retries, {} quarantines]",
        s.dispatched, s.degraded, s.retried, s.quarantines
    );
}
