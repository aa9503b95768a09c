//! A tiny blocking HTTP client for the daemon.
//!
//! Deliberately minimal and dependency-free, like the server's HTTP
//! layer: one request per connection, `Content-Length` (or
//! read-to-close) response bodies. The fleet transport and the
//! integration tests read the daemon's responses through it.

use crate::error::ServeError;
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Bound on establishing a connection: a daemon that is down or
/// unroutable should fail fast, not hang the client.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Bound on socket reads and writes once connected.
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// Open a connection to `addr` with explicit connect, read, and write
/// deadlines.
fn connect(addr: &str) -> Result<TcpStream, ServeError> {
    let target = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| ServeError::BadRequest(format!("address `{addr}` resolves to nothing")))?;
    let stream = TcpStream::connect_timeout(&target, CONNECT_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

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

/// Send one request and read the full response.
///
/// # Errors
///
/// [`ServeError::Io`] on connection trouble and
/// [`ServeError::BadRequest`] on unparseable response framing.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<Response, ServeError> {
    let mut stream = connect(addr)?;
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    read_response(&mut BufReader::new(stream))
}

/// Parse a status line + headers + body from `r`.
///
/// # Errors
///
/// As [`request`].
pub fn read_response(r: &mut impl BufRead) -> Result<Response, ServeError> {
    let mut line = String::new();
    r.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            ServeError::BadRequest(format!("malformed status line `{}`", line.trim()))
        })?;
    let mut content_length: Option<usize> = None;
    loop {
        let mut header = String::new();
        r.read_line(&mut header)?;
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            }
        }
    }
    let body = if let Some(len) = content_length {
        let mut buf = vec![0u8; len];
        r.read_exact(&mut buf)
            .map_err(|_| ServeError::BadRequest("response body truncated".into()))?;
        buf
    } else {
        let mut buf = Vec::new();
        r.read_to_end(&mut buf)?;
        buf
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

    #[test]
    fn rejects_garbage_status_line() {
        let e = read_response(&mut Cursor::new(&b"not http\r\n\r\n"[..])).expect_err("garbage");
        assert!(e.to_string().contains("status line"));
    }
}
