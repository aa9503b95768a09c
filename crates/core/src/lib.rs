//! # xps-core — configurational workload characterization
//!
//! The facade crate of the xp-scalar reproduction (Najaf-abadi &
//! Rotenberg, *Configurational Workload Characterization*, ISPASS
//! 2008). It re-exports every subsystem and adds, of its own:
//!
//! * [`paper`] — the paper's published data (Table 4 customized
//!   configurations, the Table 5 cross-configuration IPT matrix, and
//!   the Appendix A slowdown percentages) embedded as fixtures, so the
//!   analysis layer can be validated *exactly* against the published
//!   results and so the paper's configurations can be simulated
//!   directly;
//! * [`pipeline`] — the end-to-end measured reproduction: statistical
//!   workload models → simulated-annealing design exploration →
//!   cross-configuration evaluation → communal customization, i.e.
//!   the whole methodology of the paper run on this repository's own
//!   substrate;
//! * [`report`] — the Table 7 summary (ideal vs. homogeneous vs.
//!   complete-search vs. surrogate dual-core designs);
//! * [`measured`] — a measured campaign's persisted form and the one
//!   decoder of its checksummed file.
//!
//! ## Quick start
//!
//! ```
//! use xps_core::paper;
//! use xps_core::communal::{best_combination, Merit};
//!
//! // Reproduce Table 6's headline row from the published Table 5:
//! // the best single configuration for harmonic-mean IPT is gcc's.
//! let m = paper::table5_matrix();
//! let best = best_combination(&m, 1, Merit::HarmonicMean);
//! assert_eq!(best.names, vec!["gcc".to_string()]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod measured;
pub mod paper;
pub mod pipeline;
pub mod report;

/// Re-export of the CACTI-style timing model.
pub use xps_cacti as cacti;
/// Re-export of the communal-customization analysis layer.
pub use xps_communal as communal;
/// Re-export of the design-space exploration tool.
pub use xps_explore as explore;
/// Re-export of the superscalar timing simulator.
pub use xps_sim as sim;
/// Re-export of the span-tracing / self-profiling instrument layer.
pub use xps_trace as trace;
/// Re-export of the workload models and characterization.
pub use xps_workload as workload;

pub use error::PipelineError;
pub use measured::{open_measured, Measured};
pub use pipeline::{
    cross_matrix, cross_matrix_recoverable, cross_matrix_with, Pipeline, PipelineResult,
    FAILED_CELL_IPT,
};
pub use report::{table7, Table7, Table7Row};
