//! The fleet's wire layer: one trait, a real TCP implementation, and
//! a deterministic fault-injecting wrapper.
//!
//! The coordinator never touches sockets directly — it talks through
//! [`Transport`], so tests swap in an in-process implementation and
//! the fault harness wraps the real one. [`TcpTransport`] is the
//! production path: bounded connect, read, and write timeouts on every
//! round-trip, so a hung or half-dead worker surfaces as a timeout
//! error instead of wedging the coordinator. [`FlakyTransport`]
//! injects the [`NetFaultPlan`]'s seeded misbehavior around any inner
//! transport.

use crate::client::{roundtrip, Response};
use crate::error::ServeError;
use crate::netfault::{NetFault, NetFaultPlan};
use std::time::Duration;

/// One blocking HTTP round-trip to a worker.
///
/// `fault_key` names the round-trip for deterministic fault selection
/// (`"<task key>@<attempt>"`, `"hb/<addr>/<n>"`); real transports
/// ignore it.
pub trait Transport: Send + Sync + std::fmt::Debug {
    /// Send `method path` with `body` to `addr` and read the full
    /// response, bounding every socket operation by `timeout`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on connect/read/write trouble (including
    /// timeouts) and [`ServeError::BadRequest`] on unparseable
    /// response framing.
    fn roundtrip(
        &self,
        addr: &str,
        method: &str,
        path: &str,
        body: Option<&str>,
        timeout: Duration,
        fault_key: &str,
    ) -> Result<Response, ServeError>;
}

/// The production transport: plain TCP with explicit deadlines.
#[derive(Debug, Clone)]
pub struct TcpTransport {
    /// Bound on establishing the connection (hang detection for dead
    /// or unroutable workers).
    pub connect_timeout: Duration,
}

impl Default for TcpTransport {
    fn default() -> TcpTransport {
        TcpTransport {
            connect_timeout: Duration::from_secs(2),
        }
    }
}

impl Transport for TcpTransport {
    fn roundtrip(
        &self,
        addr: &str,
        method: &str,
        path: &str,
        body: Option<&str>,
        timeout: Duration,
        _fault_key: &str,
    ) -> Result<Response, ServeError> {
        roundtrip(addr, method, path, body, self.connect_timeout, timeout)
    }
}

/// A transport that deterministically misbehaves per its
/// [`NetFaultPlan`], wrapping any inner transport.
#[derive(Debug)]
pub struct FlakyTransport<T: Transport> {
    plan: NetFaultPlan,
    inner: T,
}

impl<T: Transport> FlakyTransport<T> {
    /// Wrap `inner` with `plan`'s fault schedule.
    pub fn new(plan: NetFaultPlan, inner: T) -> FlakyTransport<T> {
        FlakyTransport { plan, inner }
    }
}

impl<T: Transport> Transport for FlakyTransport<T> {
    fn roundtrip(
        &self,
        addr: &str,
        method: &str,
        path: &str,
        body: Option<&str>,
        timeout: Duration,
        fault_key: &str,
    ) -> Result<Response, ServeError> {
        match self.plan.injects(fault_key) {
            Some(NetFault::Drop) => Err(ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                format!("injected drop of `{fault_key}`"),
            ))),
            Some(NetFault::Delay) => {
                std::thread::sleep(Duration::from_millis(self.plan.delay_ms()));
                self.inner
                    .roundtrip(addr, method, path, body, timeout, fault_key)
            }
            Some(NetFault::Truncate) => {
                let mut resp = self
                    .inner
                    .roundtrip(addr, method, path, body, timeout, fault_key)?;
                resp.body.truncate(resp.body.len() / 2);
                Ok(resp)
            }
            Some(NetFault::Duplicate) => {
                // The worker sees the request twice; a correct worker
                // answers both identically (store memoization), and the
                // caller consumes the second response.
                let _first = self
                    .inner
                    .roundtrip(addr, method, path, body, timeout, fault_key);
                self.inner
                    .roundtrip(addr, method, path, body, timeout, fault_key)
            }
            Some(NetFault::Garbage) => {
                let mut resp = self
                    .inner
                    .roundtrip(addr, method, path, body, timeout, fault_key)?;
                resp.body = format!("<<garbled response to `{fault_key}`//");
                Ok(resp)
            }
            None => self
                .inner
                .roundtrip(addr, method, path, body, timeout, fault_key),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// An inner transport that always answers 200 with a fixed body
    /// and counts its round-trips.
    #[derive(Debug, Default)]
    struct Fixed {
        calls: AtomicU64,
    }

    impl Transport for Fixed {
        fn roundtrip(
            &self,
            _addr: &str,
            _method: &str,
            _path: &str,
            _body: Option<&str>,
            _timeout: Duration,
            _fault_key: &str,
        ) -> Result<Response, ServeError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            Ok(Response {
                status: 200,
                body: "{\"ok\":true}".to_string(),
            })
        }
    }

    fn flaky(spec: &str) -> FlakyTransport<Fixed> {
        FlakyTransport::new(NetFaultPlan::parse(spec).expect("parses"), Fixed::default())
    }

    /// A key the 100%-rate plan maps to the wanted fault.
    fn probe(t: &FlakyTransport<Fixed>, key: &str) -> Result<Response, ServeError> {
        t.roundtrip(
            "127.0.0.1:1",
            "GET",
            "/healthz",
            None,
            Duration::from_secs(1),
            key,
        )
    }

    #[test]
    fn drop_truncate_and_garbage_corrupt_the_response() {
        let e = probe(&flaky("drop=100"), "k").expect_err("dropped");
        assert!(e.to_string().contains("injected drop"));
        assert_eq!(flaky("drop=100").inner.calls.load(Ordering::Relaxed), 0);

        let r = probe(&flaky("truncate=100"), "k").expect("answers");
        assert_eq!(r.body, "{\"ok\"");
        assert!(serde_json::from_str::<serde::Value>(&r.body).is_err());

        let r = probe(&flaky("garbage=100"), "k").expect("answers");
        assert!(serde_json::from_str::<serde::Value>(&r.body).is_err());
    }

    #[test]
    fn duplicate_sends_the_request_twice() {
        let t = flaky("duplicate=100");
        let r = probe(&t, "k").expect("answers");
        assert_eq!(r.body, "{\"ok\":true}");
        assert_eq!(t.inner.calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn inert_plan_passes_through() {
        let t = FlakyTransport::new(NetFaultPlan::inert(), Fixed::default());
        let r = probe(&t, "k").expect("answers");
        assert_eq!((r.status, r.body.as_str()), (200, "{\"ok\":true}"));
        assert_eq!(t.inner.calls.load(Ordering::Relaxed), 1);
    }
}
