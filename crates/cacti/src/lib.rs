//! # xps-cacti — analytical SRAM/CAM access-time model
//!
//! A pure-Rust analytical timing model for the storage structures of a
//! superscalar processor, in the spirit of CACTI (Wilton & Jouppi,
//! *CACTI: an enhanced cache access and cycle time model*, IEEE JSSC
//! 1996). The original paper, *Configurational Workload
//! Characterization* (ISPASS 2008), uses the CACTI C tool to estimate
//! the access latency of every sized unit of the processor during design
//! exploration; this crate plays that role for the Rust reproduction.
//!
//! The model decomposes an access into the classic CACTI stages —
//! address decode, wordline drive, bitline discharge, sense
//! amplification, tag comparison, way select, and output drive — and
//! searches over sub-array partitionings to find the fastest
//! organization, so delay grows roughly with the square root of capacity
//! rather than linearly. Multi-ported arrays pay a wire-load penalty per
//! extra port. Constants are calibrated (see `tests/calibration`) so the
//! delays fall in the ranges implied by the paper's Table 4 (e.g. an
//! 8 KB L1 reachable in 2 cycles at a 0.3 ns clock, a 4 MB L2 needing
//! ~27 cycles at 0.45 ns).
//!
//! The mapping from architectural units to model queries follows the
//! paper's Table 1 exactly; see [`units`].
//!
//! ## Example
//!
//! ```
//! use xps_cacti::{Technology, units};
//!
//! let tech = Technology::default();
//! // Access time of a 32 KB, 2-way, 64 B-block L1 data cache.
//! let t_l1 = units::l1_access_time(&tech, 256, 2, 64);
//! // Wakeup-select delay of a 64-entry issue queue at issue width 4.
//! let t_iq = units::issue_queue_delay(&tech, 64, 4);
//! assert!(t_l1 > 0.0 && t_iq > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::allow_attributes_without_reason
)]

pub mod energy;

mod cache;
mod cam;
mod sram;
mod tech;

pub mod fit;
pub mod units;

pub use cache::{cache_access_time, CacheGeometry};
pub use cam::CamArray;
pub use sram::SramArray;
pub use tech::Technology;
