//! # xpscalar — Configurational Workload Characterization, in Rust
//!
//! Workspace facade re-exporting [`xps_core`]: the full reproduction of
//! Najaf-abadi & Rotenberg, *Configurational Workload
//! Characterization* (ISPASS 2008). See the crate-level documentation
//! of `xps_core` and the repository `README.md` for the guided tour.
//!
//! ```
//! use xpscalar::paper;
//! use xpscalar::communal::{best_combination, Merit};
//!
//! let m = paper::table5_matrix();
//! let pair = best_combination(&m, 2, Merit::HarmonicMean);
//! assert_eq!(pair.names, vec!["gcc".to_string(), "mcf".to_string()]);
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::allow_attributes_without_reason
)]

pub use xps_core::*;
