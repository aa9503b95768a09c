//! # xps-workload — statistical workload models and characterization
//!
//! The original paper drives its design exploration with the C-language
//! integer benchmarks of SPEC2000 compiled for the PISA instruction set
//! and executed on SimpleScalar. Neither the binaries nor a PISA
//! front-end are reproducible here, so this crate supplies the
//! substitute described in `DESIGN.md`: **statistical workload models**
//! in the tradition of statistical simulation / workload cloning — one
//! [`WorkloadProfile`] per SPEC2000 integer benchmark, each generating a
//! deterministic, seeded stream of micro-ops ([`MicroOp`]) whose
//! aggregate behaviour matches the benchmark's published personality:
//! working-set sizes, branch bias and predictability, density of
//! dependence chains, load/store frequency, and pointer-chasing degree.
//! A timing core reads the 16-byte [`PackedOp`] projection of each op,
//! and the process-wide replay cache ([`with_cached_trace`]) holds
//! materialized traces in that form.
//!
//! The crate also implements the *raw* (microarchitecture-independent)
//! characterization the paper contrasts against configurational
//! characterization: [`Characterizer`] measures the five
//! Figure-1 Kiviat axes from a generated trace.
//!
//! ## Example
//!
//! ```
//! use xps_workload::{spec, TraceGenerator};
//!
//! let profile = spec::profile("mcf").expect("mcf is a known benchmark");
//! let mut ops = TraceGenerator::new(profile);
//! let first_thousand: Vec<_> = (&mut ops).take(1000).collect();
//! assert_eq!(first_thousand.len(), 1000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::allow_attributes_without_reason
)]

mod characterize;
mod gen;
mod op;
mod profile;
mod replay;
pub mod spec;

pub use characterize::{CharacterVector, Characterizer, HIST_BUCKETS, KIVIAT_AXES};
pub use gen::{with_generator, TraceGenerator};
pub use op::{BranchInfo, MicroOp, OpClass, PackedOp, REG_COUNT};
pub use profile::{ControlBehavior, DependenceBehavior, MemoryBehavior, OpMix, WorkloadProfile};
#[doc(hidden)]
pub use replay::replay_cache_footprint;
pub use replay::{with_cached_trace, REPLAY_CACHE_MAX_OPS};
