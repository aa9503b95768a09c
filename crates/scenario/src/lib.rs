//! # xps-scenario — synthetic workload populations and the
//! subsetting-at-scale study
//!
//! The paper's headline claim — configurational clustering beats
//! raw-characteristic subsetting for heterogeneous-CMP design — rests
//! on 11 SPEC2000 profiles. This crate tests it at population scale:
//! a fully seeded generator of synthetic workloads over the
//! microarchitecture-independent characteristics (instruction mix,
//! ILP dependence-distance distributions, branch entropy,
//! footprint/reuse behaviour), parameterized by Zipf and log-normal
//! samplers and organized into three [`Family`]s — `expected`
//! (SPEC-like), `stress` (heavy tails), `adversarial` (corner
//! archetypes and bzip/gzip-style raw twins). Every generated
//! [`WorkloadProfile`](xps_core::workload::WorkloadProfile) satisfies
//! the `workload` domain invariants and flows through the existing
//! pipeline unchanged.
//!
//! On top sits the scale study ([`run_study`]): the population is
//! split into panels, each panel runs the complete configurational
//! campaign (per-workload anneal, cross-configuration matrix,
//! replacement rule), and both Figure-3 routes plus the §5.3 pitfall
//! experiment are scored per panel. The emitted [`StudyReport`] — the
//! clustering-vs-subsetting quality-gap distribution and the measured
//! pitfall rate — is a pure function of `(population spec, study
//! options)`: byte-identical for any `--jobs` value, fleet worker
//! count, or failure schedule, like every other artifact in this
//! repository.
//!
//! ## Determinism contract
//!
//! * Profiles are pure functions of `(population seed, family,
//!   index)`; no entropy source exists in this crate (enforced by the
//!   `seeded-rng-only-in-generators` lint).
//! * Growing `n` extends a population without perturbing the members
//!   already generated.
//! * All sampling draws a deterministic number of uniforms per value
//!   (inverse-CDF Zipf, Box–Muller log-normal; no rejection loops).
//!
//! ## Example
//!
//! ```
//! use xps_scenario::{Family, PopulationSpec};
//!
//! let pop = PopulationSpec::all_families(12, 42).generate().expect("valid spec");
//! assert_eq!(pop.len(), 12);
//! assert!(pop.iter().all(|p| p.validate().is_ok()));
//! assert!(pop[0].name.starts_with(Family::Expected.name()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::allow_attributes_without_reason
)]

mod bakeoff;
mod dist;
mod error;
mod family;
mod population;
mod study;

pub use bakeoff::{
    run_bakeoff, BakeoffEntry, BakeoffOptions, BakeoffReport, ExplorerStanding, FamilyStanding,
    WorkloadBakeoff, SPEC_FAMILY,
};
pub use dist::{LogNormal, Zipf};
pub use error::ScenarioError;
pub use family::{derive_seed, generate_profile, Family};
pub use population::PopulationSpec;
pub use study::{
    run_study, FamilyStats, GapStats, PanelOutcome, PitfallOutcome, StudyOptions, StudyReport,
    GAP_BUCKETS, GAP_BUCKET_PCT,
};
