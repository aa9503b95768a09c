//! # xps-sim — out-of-order superscalar timing simulator
//!
//! The timing substrate of the xp-scalar reproduction, playing the role
//! of SimpleScalar's `sim-mase` in the original paper. It is a
//! **trace-driven, constraint-based out-of-order timing model**: every
//! micro-op's fetch, dispatch, issue, completion, and commit cycles are
//! derived from the machine's structural constraints —
//!
//! * front-end bandwidth (`width` per cycle) and branch-misprediction
//!   redirects (gshare predictor, penalty = front-end depth plus the
//!   fixed 2 ns front-end latency of the paper's Table 2),
//! * window occupancy (ROB, issue-queue, and LSQ capacity),
//! * issue bandwidth (`width` per cycle) and operand readiness with a
//!   configurable wakeup latency (the paper's "min. latency for
//!   awakening of dependent instructions"),
//! * functional-unit latencies,
//! * a two-level write-back data-cache hierarchy with LRU replacement
//!   and store-to-load forwarding, backed by a fixed-latency memory,
//! * in-order commit bandwidth.
//!
//! The figure of merit everywhere is **IPT** (instructions per
//! nanosecond) = IPC / clock period, as in the paper: a configuration
//! only wins by balancing cycle count *and* cycle time.
//!
//! ## Example
//!
//! ```
//! use xps_sim::{CoreConfig, Simulator};
//! use xps_workload::{spec, TraceGenerator};
//!
//! let cfg = CoreConfig::initial(); // the paper's Table 3 starting point
//! let trace = TraceGenerator::new(spec::profile("gzip").expect("known"));
//! let stats = Simulator::new(&cfg).run(trace, 20_000);
//! assert!(stats.ipc() > 0.0 && stats.ipt() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod config;
mod engine;
pub mod power;
mod predictor;
pub mod reference;
mod stats;

pub use cache::{CacheStats, DataCache, Hierarchy, PrefetchKind};
pub use config::{CacheConfig, ConfigKey, CoreConfig};
pub use engine::{
    cache_state_bytes, evaluate, evaluate_group, lockstep_groups, max_cache_state_bytes, Simulator,
};
pub use power::{energy_delay_product, estimate_energy, EnergyBreakdown};
pub use predictor::{Bimodal, Gshare, Predictor, PredictorKind, Tournament, TwoLevelLocal};
pub use reference::ReferenceSimulator;
pub use stats::SimStats;
