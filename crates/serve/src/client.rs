//! A tiny blocking HTTP client for the daemon.
//!
//! Deliberately minimal and dependency-free, like the server's HTTP
//! layer: one request per connection, `Content-Length` (or
//! read-to-close) response bodies, read within the limits the server
//! puts on requests. The fleet transport and the integration tests
//! talk to the daemon through it.

use crate::error::ServeError;
use crate::http::{read_line_limited, MAX_BODY, MAX_HEADERS, MAX_HEADER_LINE, MAX_REQUEST_LINE};
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Bound on establishing a connection: a daemon that is down or
/// unroutable should fail fast, not hang the client.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Bound on socket reads and writes once connected.
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The body.
    pub body: String,
}

impl Response {
    /// The body parsed as JSON.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when the body is not JSON.
    pub fn json(&self) -> Result<Value, ServeError> {
        serde_json::from_str(&self.body)
            .map_err(|e| ServeError::BadRequest(format!("response is not JSON: {e}")))
    }
}

/// Send one request and read the full response, connecting within 5 s
/// and bounding every read and write by 120 s.
///
/// # Errors
///
/// [`ServeError::Io`] on connection trouble (including timeouts), and
/// the errors of [`read_response`].
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<Response, ServeError> {
    roundtrip(addr, method, path, body, CONNECT_TIMEOUT, IO_TIMEOUT)
}

/// Send one request over a fresh connection to `addr` and read the
/// full response: connect within `connect_timeout`, then bound every
/// socket read and write by `io_timeout`, so a worker that accepts
/// and then hangs surfaces as a timeout instead of wedging the caller.
/// The one request writer: [`request`] and the fleet's
/// [`TcpTransport`](crate::TcpTransport) both call it.
pub(crate) fn roundtrip(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    connect_timeout: Duration,
    io_timeout: Duration,
) -> Result<Response, ServeError> {
    let target = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| ServeError::BadRequest(format!("address `{addr}` resolves to nothing")))?;
    let mut stream = TcpStream::connect_timeout(&target, connect_timeout)?;
    stream.set_read_timeout(Some(io_timeout))?;
    stream.set_write_timeout(Some(io_timeout))?;
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    read_response(&mut BufReader::new(stream))
}

/// Parse a status line + headers + body from `r`, within the limits
/// the server applies to requests: each line within
/// [`MAX_REQUEST_LINE`] / [`MAX_HEADER_LINE`] bytes, at most
/// [`MAX_HEADERS`] headers, and a body of at most [`MAX_BODY`] bytes,
/// whether framed by `Content-Length` or by the connection closing.
///
/// No real answer reaches 1 MiB. An eval answer (one IPT per
/// configuration) is shorter than its request, and a request is at
/// most [`MAX_BODY`]; an anneal's history and a search's curve and
/// front grow with its evaluation count, which
/// [`MAX_TASK_EVALS`](xps_core::explore::MAX_TASK_EVALS) bounds. So a
/// longer announced body is a broken or hostile peer, refused before
/// anything is allocated for it.
///
/// # Errors
///
/// [`ServeError::BadRequest`] on malformed, overlong or truncated
/// framing and [`ServeError::TooLarge`] on a body past [`MAX_BODY`];
/// [`ServeError::Io`] when the read fails.
pub fn read_response(r: &mut impl BufRead) -> Result<Response, ServeError> {
    let line = read_line_limited(r, MAX_REQUEST_LINE, "status line")?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ServeError::BadRequest(format!("malformed status line `{line}`")))?;
    let mut content_length: Option<usize> = None;
    for count in 0.. {
        let header = read_line_limited(r, MAX_HEADER_LINE, "header")?;
        if header.is_empty() {
            break;
        }
        if count >= MAX_HEADERS {
            return Err(ServeError::BadRequest(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                let len = value.trim().parse().map_err(|_| {
                    ServeError::BadRequest(format!("bad content-length `{}`", value.trim()))
                })?;
                content_length = Some(len);
            }
        }
    }
    let too_large = |got: usize| ServeError::TooLarge {
        got,
        limit: MAX_BODY,
    };
    let body = match content_length {
        Some(len) if len > MAX_BODY => return Err(too_large(len)),
        Some(len) => {
            let mut buf = vec![0u8; len];
            r.read_exact(&mut buf)
                .map_err(|_| ServeError::BadRequest("response body truncated".into()))?;
            buf
        }
        None => {
            let mut buf = Vec::new();
            r.take(MAX_BODY as u64 + 1).read_to_end(&mut buf)?;
            if buf.len() > MAX_BODY {
                return Err(too_large(buf.len()));
            }
            buf
        }
    };
    Ok(Response {
        status,
        body: String::from_utf8(body)
            .map_err(|_| ServeError::BadRequest("response body is not UTF-8".into()))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_content_length_response() {
        let raw =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}";
        let r = read_response(&mut Cursor::new(&raw[..])).expect("parses");
        assert_eq!((r.status, r.body.as_str()), (200, "{}"));
    }

    /// A peer announcing a body of 16 TiB gets a typed error, not an
    /// allocation of 16 TiB (which would abort the process).
    #[test]
    fn refuses_an_announced_body_past_the_limit() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 17592186044416\r\n\r\n";
        let e = read_response(&mut Cursor::new(&raw[..])).expect_err("too large");
        assert!(
            matches!(
                e,
                ServeError::TooLarge {
                    got: 17_592_186_044_416,
                    limit: MAX_BODY
                }
            ),
            "{e}"
        );
        let e = read_response(&mut Cursor::new(
            &b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n"[..],
        ))
        .expect_err("bad length");
        assert!(e.to_string().contains("content-length"), "{e}");
    }

    /// Without `Content-Length` the body runs to the close, and still
    /// stops at the limit; overlong lines and header floods stop too.
    #[test]
    fn bounds_unframed_bodies_lines_and_header_counts() {
        let mut raw = b"HTTP/1.1 200 OK\r\n\r\n".to_vec();
        raw.resize(raw.len() + MAX_BODY, b'x');
        let r = read_response(&mut Cursor::new(&raw[..])).expect("exactly the limit");
        assert_eq!(r.body.len(), MAX_BODY);
        raw.push(b'x');
        let e = read_response(&mut Cursor::new(&raw[..])).expect_err("past the limit");
        assert!(matches!(e, ServeError::TooLarge { .. }), "{e}");
        let long = format!("HTTP/1.1 200 {}\r\n\r\n", "x".repeat(MAX_REQUEST_LINE));
        assert!(read_response(&mut Cursor::new(long.as_bytes())).is_err());
        let flood = format!(
            "HTTP/1.1 200 OK\r\n{}\r\n",
            "A: b\r\n".repeat(MAX_HEADERS + 1)
        );
        let e = read_response(&mut Cursor::new(flood.as_bytes())).expect_err("flood");
        assert!(e.to_string().contains("headers"), "{e}");
    }

    #[test]
    fn rejects_garbage_status_line() {
        let e = read_response(&mut Cursor::new(&b"not http\r\n\r\n"[..])).expect_err("garbage");
        assert!(e.to_string().contains("status line"));
    }
}
