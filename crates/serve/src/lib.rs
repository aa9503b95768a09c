//! `xps-serve`: a fleet worker for the `xp-scalar` pipeline.
//!
//! A campaign's expensive units of work — annealing walks, lock-step
//! evaluation groups, budgeted searches — are pure functions of small
//! wire-format [`TaskSpec`](xps_core::explore::TaskSpec)s. The daemon
//! executes them: a coordinator (`repro explore`, `scale` or `bakeoff`
//! with `--workers`) POSTs each spec to `/tasks`, the worker runs it
//! against its shared evaluation cache over a hand-rolled,
//! dependency-free HTTP/1.1 layer, and the result lands in a content-addressed, checksummed
//! [`ResultStore`], so a repeated task — a retried dispatch, a second
//! campaign, a restarted worker — is answered byte-identically without
//! one new simulation. `GET /healthz` answers heartbeats, `GET
//! /metrics` exposes task and cache counters and per-endpoint latency
//! histograms, and SIGTERM / ctrl-c drains: the daemon stops accepting
//! and answers every request already accepted.
//!
//! Module map:
//!
//! * [`http`] — minimal HTTP/1.1 request parsing and fixed response
//!   framing, over generic `BufRead`/`Write`.
//! * `store` — the content-addressed [`ResultStore`] (FNV
//!   fingerprints, atomic checksummed records).
//! * `metrics` — daemon-wide counters and latency histograms
//!   ([`Metrics`]).
//! * `server` — the TCP worker ([`Server`]): accept loop, `/tasks`
//!   execution, graceful drain.
//! * [`client`] — a tiny blocking HTTP client (the transport and the
//!   tests).
//! * `transport` — the fleet wire layer: deadline-bounded TCP
//!   ([`TcpTransport`]) plus a deterministic fault-injecting wrapper
//!   ([`FlakyTransport`]).
//! * `netfault` — seeded network fault plans ([`NetFaultPlan`],
//!   `XPS_NET_FAULTS`).
//! * `fleet` — the coordinator's task dispatcher ([`Fleet`]), which a
//!   run context takes with `with_dispatcher`: heartbeats, bounded
//!   retries with deterministic backoff, quarantine, and graceful
//!   degradation to local execution.

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

pub mod client;
mod error;
mod fleet;
pub mod http;
mod metrics;
mod netfault;
mod server;
mod store;
mod transport;

pub use error::ServeError;
pub use fleet::{Fleet, FleetConfig, FleetStats, WorkerSnapshot};
pub use metrics::{Endpoint, Metrics, LATENCY_BUCKETS_US};
pub use netfault::{NetFault, NetFaultPlan};
pub use server::{install_signal_handlers, Server, ServerConfig, ShutdownHandle};
pub use store::{body_checksum, content_id, decode_record, ResultStore};
pub use transport::{FlakyTransport, TcpTransport, Transport};

/// Render a JSON value the daemon built itself. Infallible by
/// construction: every number the daemon emits is finite.
pub(crate) fn json(v: &serde::Value) -> String {
    #[expect(
        clippy::expect_used,
        reason = "daemon documents are built from validated finite values; serialization cannot fail"
    )]
    serde_json::to_string(v).expect("daemon documents contain only finite numbers")
}
