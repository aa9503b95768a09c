//! The campaign the serve crate's integration tests run over their
//! workers.

use std::sync::Arc;
use xps_core::explore::RunContext;
use xps_core::workload::spec;
use xps_core::{Measured, Pipeline};
use xps_serve::Fleet;

/// The smoke campaign over `workloads` on 2 jobs, exactly as
/// `repro explore --workers` runs one: `Pipeline::run_recoverable`
/// under a context from the environment (so `XPS_FAULTS` applies),
/// dispatching through `fleet` when given. Returns the campaign's
/// `measured.json` bytes and the number of tasks answered remotely.
pub fn campaign(workloads: &[&str], fleet: Option<Arc<Fleet>>) -> (String, u64) {
    let profiles: Vec<_> = workloads
        .iter()
        .map(|w| spec::profile(w).expect("known benchmark"))
        .collect();
    let mut pipeline = Pipeline::smoke();
    pipeline.explore.jobs = 2;
    let mut ctx = RunContext::from_env().expect("XPS_FAULTS parses");
    if let Some(fleet) = fleet {
        ctx = ctx.with_dispatcher(fleet);
    }
    let result = pipeline.run_recoverable(&profiles, &ctx).expect("campaign");
    let bytes = Measured::from((result, true)).encode().expect("encodes");
    (bytes, ctx.remote_dispatched())
}
