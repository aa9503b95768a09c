//! # xps-communal — communal customization analysis
//!
//! The paper's §5: once every workload has a customized configuration
//! (its *configurational characteristics*), which set of cores should a
//! heterogeneous CMP actually build? This crate implements the entire
//! analysis layer:
//!
//! * [`CrossPerfMatrix`] — the cross-configuration performance matrix
//!   (Table 5) and its percentage-slowdown form (Appendix A);
//! * [`Merit`] and the three figures of merit of §5.2 — average IPT,
//!   harmonic-mean IPT, and contention-weighted harmonic-mean IPT —
//!   with importance weights;
//! * complete search over core combinations ([`best_combination`],
//!   Table 6) and the per-benchmark best-available-core series
//!   (Figure 4);
//! * two-objective generalizations of the above: deterministic
//!   Pareto-front extraction, hypervolume scoring, and the
//!   merit-vs-cost combination front ([`pareto_front`],
//!   [`hypervolume`], [`combination_front`]);
//! * greedy **surrogate assignment** with the three propagation
//!   policies of §5.4 (Figures 6–8), including feedback-surrogating
//!   detection;
//! * classic workload **subsetting** (Euclidean distance over raw
//!   characteristics, agglomerative clustering) and the §5.3
//!   representative-benchmark pitfall experiment;
//! * the §5.5 multithreaded job-submission model: Poisson arrivals,
//!   stall-for-surrogate vs. best-available-core policies, and a
//!   balanced-partition assignment heuristic (BPMST-style).
//!
//! Everything here is pure analysis over a matrix — no simulation — so
//! it can be driven either by the embedded published data
//! (`xps-core::paper`) or by matrices measured with `xps-explore`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod combin;
mod matrix;
mod methodology;
mod metrics;
mod pareto;
mod partition;
mod schedule;
mod subset;
mod surrogate;

pub use combin::{
    best_combination, combinations, ideal_performance, per_benchmark_series, ComboResult,
};
pub use matrix::CrossPerfMatrix;
pub use methodology::{compare_methodologies, MethodologyComparison};
pub use metrics::Merit;
pub use pareto::{combination_front, hypervolume, pareto_front, ComboParetoEntry, ParetoPoint};
pub use partition::{balanced_partition, BalancedPartition};
pub use schedule::{simulate_jobs, JobPolicy, ScheduleOptions, ScheduleStats};
pub use subset::{
    cluster, dendrogram, nearest_neighbor, pitfall_experiment, Cluster, Dendrogram, Merge,
    PitfallReport,
};
pub use surrogate::{assign_surrogates, Propagation, SurrogateEdge, Surrogating};
