//! # xps-explore — the xp-scalar design-space exploration tool
//!
//! This crate is the reproduction of the paper's §3: a simulated
//! annealing search over the superscalar design space that finds, for
//! each workload, its customized configuration — its **configurational
//! characteristics**.
//!
//! The search state is a [`DesignPoint`]: the clock period, the
//! widths, and the pipeline depths and organization preferences of each
//! unit. The *sizes* of the units are never free variables — they are
//! **fitted**: each unit is scaled to the largest candidate whose
//! CACTI-modeled access time fits in `depth × (clock − latch)`, the
//! paper's central coupling between clock period and structure sizing
//! ([`DesignPoint::realize`]).
//!
//! Annealing moves mirror the paper: *either* the clock period is
//! varied and every unit re-fitted, *or* one unit's pipeline depth (or
//! organization preference) is varied and that unit re-fitted. A move
//! whose realization fails (nothing fits) is rejected. The process
//! rolls back to the best-seen point whenever the current IPT falls
//! below half the best (the paper's §3 rule), and evaluation uses short
//! traces early and longer traces late (the paper's 10 M → 100 M
//! staging, scaled down).
//!
//! [`Campaign`] orchestrates the full §4 methodology across a set of
//! workloads, including the paper's cross-configuration seeding rule:
//! *"If a workload was found to perform better on some other workload's
//! optimal configuration, that configuration would replace its own."*
//!
//! Beyond the paper, the [`Explorer`] portfolio ([`search`] module)
//! makes the annealer one of several seeded, evaluation-budgeted
//! search strategies — genetic and surrogate-guided competitors —
//! comparable head-to-head at equal simulation budgets (`repro
//! bakeoff`).
//!
//! ## Example
//!
//! ```no_run
//! use xps_explore::{ExploreOptions, Campaign};
//! use xps_workload::spec;
//!
//! let explorer = Campaign::new(ExploreOptions::quick());
//! let result = explorer.explore(&spec::all_profiles());
//! for core in &result.cores {
//!     println!("{}: {:.2} IPT @ {:.2} ns", core.profile.name, core.ipt, core.config.clock_ns);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::allow_attributes_without_reason
)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        reason = "unit tests stage fixture files directly"
    )
)]

mod anneal;
mod cache;
mod envelope;
mod error;
mod explorer;
mod fault;
mod grid;
pub mod journal;
mod parallel;
mod point;
mod recovery;
mod search;
mod task;

pub use anneal::{anneal, anneal_with, score, score_with, AnnealOptions, AnnealResult, Objective};
pub use cache::{CacheCounters, EvalCache};
pub use envelope::{open_checksummed, seal_checksummed, EnvelopeError};
pub use error::{ExploreError, TaskError, TaskFailure};
pub use explorer::{Campaign, CustomizedCore, ExplorationResult, ExploreOptions, ExploreStats};
pub use fault::{FaultKind, FaultPlan};
pub use grid::{grid_search, grid_search_with, GridResult, GridSpec};
pub use journal::{fnv64, parse_journal, write_atomic, Journal, JournalError, ParsedJournal};
pub use parallel::{merge_counts, resolve_jobs, run_parallel, ParallelRun};
pub use point::DesignPoint;
pub use recovery::{FanOutcome, RecoveryStats, RunContext, DEFAULT_RETRIES};
pub use search::{
    crossover, explorer_by_name, mutate, search, AnnealExplorer, CurvePoint, EvalBudget, Explorer,
    GeneticExplorer, Probe, SearchOptions, SearchOutcome, SurrogateExplorer, EXPLORER_NAMES,
};
pub use task::{TaskDispatcher, TaskKind, TaskSpec, TaskSpecError, MAX_TASK_EVALS, MAX_TASK_OPS};

/// Re-exported fixed design constants (the paper's Table 2).
pub mod constants {
    /// Main-memory access latency, ns.
    pub use xps_sim::config::MEMORY_LATENCY_NS;

    /// Front-end latency added to misprediction penalties, ns.
    pub use xps_sim::config::FRONTEND_LATENCY_NS;

    /// Bit width of an issue-queue entry.
    pub use xps_cacti::units::IQ_ENTRY_BITS;

    /// Latch latency per pipeline stage, ns.
    pub const LATCH_NS: f64 = 0.03;
}
