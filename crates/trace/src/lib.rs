//! `xps-trace` — the instrument surface of the exploration stack.
//!
//! One dependency-free crate carries every way the engine observes
//! itself:
//!
//! * **Spans and instants** ([`span`], [`instant`],
//!   [`instant_volatile`]) on a per-track *logical* clock, recorded
//!   through a thread-local [`SpanRecorder`] so instrumented code
//!   needs no signature changes and costs nothing when tracing is off.
//! * **A deterministic trace journal** ([`TraceSink::to_ndjson`]):
//!   tracks keyed by the worker pool's deterministic task keys,
//!   serialized in key order, volatile (scheduling-dependent) events
//!   excluded — byte-identical across `--jobs N`.
//! * **A self-profile** ([`Profile`]): per-phase count / ops / ticks /
//!   wall-time table plus collapsed-stack output for flamegraph
//!   tooling.
//!
//! The logical-clock rule: deterministic code never reads wall time.
//! A wall clock exists only when the process edge (CLI, benchmark)
//! constructs the sink via [`TraceSink::with_wall_clock`]; its stamps
//! decorate the profile and never reach serialized output.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::allow_attributes_without_reason
)]

pub mod event;
pub mod profile;
pub mod recorder;
pub mod sink;

pub use event::{AttrValue, Attrs, Event, EventKind};
pub use profile::{build_tree, PhaseRow, Profile, SpanNode, TreeError};
pub use recorder::{
    attr, attrs, instant, instant_volatile, recording, span, with_recorder, Span, SpanRecorder,
    WallClock,
};
pub use sink::TraceSink;
