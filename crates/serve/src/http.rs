//! A deliberately small HTTP/1.1 layer over blocking streams.
//!
//! The daemon depends on nothing outside `std`, so this module
//! hand-rolls exactly the slice of HTTP the service needs: one request
//! per connection (`Connection: close`), `Content-Length` bodies with
//! hard limits, and fixed responses. Parsing and rendering work on
//! generic `BufRead`/`Write` so every path is unit-testable on
//! in-memory buffers.

use crate::error::ServeError;
use std::io::{BufRead, Read, Write};

/// Longest accepted request line, bytes (including CRLF).
pub const MAX_REQUEST_LINE: usize = 8192;
/// Longest accepted header line, bytes.
pub const MAX_HEADER_LINE: usize = 8192;
/// Most headers accepted on one request.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted request body, bytes.
pub const MAX_BODY: usize = 1 << 20;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method token, verbatim (e.g. `GET`).
    pub method: String,
    /// The request target (path + optional query), verbatim.
    pub path: String,
    /// Header name/value pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// Parse one request with the default body limit ([`MAX_BODY`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for malformed or truncated framing,
    /// [`ServeError::TooLarge`] for an oversized body.
    pub fn parse(r: &mut impl BufRead) -> Result<Request, ServeError> {
        Request::parse_with_limit(r, MAX_BODY)
    }

    /// [`Request::parse`] with an explicit body limit (tests use small
    /// ones).
    ///
    /// # Errors
    ///
    /// As [`Request::parse`].
    pub fn parse_with_limit(r: &mut impl BufRead, max_body: usize) -> Result<Request, ServeError> {
        let line = read_line_limited(r, MAX_REQUEST_LINE, "request line")?;
        let mut parts = line.split_whitespace();
        let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(p), Some(v)) if parts.next().is_none() => (m, p, v),
            _ => {
                return Err(ServeError::BadRequest(format!(
                    "malformed request line `{line}`"
                )))
            }
        };
        if !version.starts_with("HTTP/1.") {
            return Err(ServeError::BadRequest(format!(
                "unsupported protocol `{version}`"
            )));
        }
        if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
            return Err(ServeError::BadRequest(format!(
                "malformed method token `{method}`"
            )));
        }
        let mut headers = Vec::new();
        loop {
            let line = read_line_limited(r, MAX_HEADER_LINE, "header")?;
            if line.is_empty() {
                break;
            }
            if headers.len() >= MAX_HEADERS {
                return Err(ServeError::BadRequest(format!(
                    "more than {MAX_HEADERS} headers"
                )));
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| ServeError::BadRequest(format!("malformed header `{line}`")))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        let request = Request {
            method: method.to_string(),
            path: path.to_string(),
            headers,
            body: Vec::new(),
        };
        let body = match request.header("content-length") {
            None => Vec::new(),
            Some(v) => {
                let len: usize = v
                    .parse()
                    .map_err(|_| ServeError::BadRequest(format!("bad content-length `{v}`")))?;
                if len > max_body {
                    return Err(ServeError::TooLarge {
                        got: len,
                        limit: max_body,
                    });
                }
                let mut body = vec![0u8; len];
                r.read_exact(&mut body).map_err(|_| {
                    ServeError::BadRequest(format!("body truncated before {len} bytes"))
                })?;
                body
            }
        };
        Ok(Request { body, ..request })
    }

    /// The first header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when the body is not UTF-8.
    pub fn body_str(&self) -> Result<&str, ServeError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| ServeError::BadRequest("body is not UTF-8".into()))
    }
}

/// Read one CRLF- (or LF-) terminated line of at most `limit` bytes,
/// without the terminator.
pub(crate) fn read_line_limited(
    r: &mut impl BufRead,
    limit: usize,
    what: &str,
) -> Result<String, ServeError> {
    let mut buf = Vec::new();
    let mut t = r.take(limit as u64 + 1);
    t.read_until(b'\n', &mut buf)?;
    if buf.last() != Some(&b'\n') {
        return Err(if buf.len() > limit {
            ServeError::BadRequest(format!("{what} longer than {limit} bytes"))
        } else {
            ServeError::BadRequest(format!("connection closed mid-{what} (truncated request)"))
        });
    }
    buf.pop();
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf).map_err(|_| ServeError::BadRequest(format!("{what} is not UTF-8")))
}

/// The reason phrase of the status codes this daemon emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Write one complete response with a `Content-Length` body and
/// `Connection: close`.
///
/// # Errors
///
/// Propagates the underlying write error.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status_reason(status),
        body.len()
    )?;
    w.write_all(body)?;
    w.flush()
}

/// Render a [`ServeError`] as its JSON error response.
///
/// # Errors
///
/// Propagates the underlying write error.
pub fn write_error(w: &mut impl Write, e: &ServeError) -> std::io::Result<()> {
    let body = crate::json(&serde::Value::Obj(vec![(
        "error".to_string(),
        serde::Value::Str(e.to_string()),
    )]));
    write_response(w, e.status(), "application/json", body.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(bytes: &[u8]) -> Result<Request, ServeError> {
        Request::parse(&mut Cursor::new(bytes))
    }

    #[test]
    fn parses_get_without_body() {
        let r = parse(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").expect("parses");
        assert_eq!((r.method.as_str(), r.path.as_str()), ("GET", "/metrics"));
        assert_eq!(r.header("host"), Some("x"));
        assert_eq!(r.header("HOST"), Some("x"));
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let r = parse(b"POST /tasks HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"").expect("parses");
        assert_eq!(r.method, "POST");
        assert_eq!(r.body_str().expect("utf8"), "{\"a\"");
    }

    #[test]
    fn rejects_malformed_method_token() {
        let e = parse(b"ge!t /x HTTP/1.1\r\n\r\n").expect_err("bad token");
        assert_eq!(e.status(), 400);
        assert!(e.to_string().contains("method token"));
    }

    #[test]
    fn rejects_truncated_request_line() {
        let e = parse(b"GET /tasks HT").expect_err("truncated");
        assert_eq!(e.status(), 400);
        assert!(e.to_string().contains("truncated request"));
    }

    #[test]
    fn rejects_oversized_body_with_413() {
        let mut c = Cursor::new(&b"POST /tasks HTTP/1.1\r\nContent-Length: 50\r\n\r\n"[..]);
        let e = Request::parse_with_limit(&mut c, 10).expect_err("too large");
        assert!(matches!(e, ServeError::TooLarge { got: 50, limit: 10 }));
        assert_eq!(e.status(), 413);
    }

    #[test]
    fn rejects_truncated_body() {
        let e = parse(b"POST /tasks HTTP/1.1\r\nContent-Length: 10\r\n\r\nab").expect_err("short");
        assert!(e.to_string().contains("truncated"));
    }

    #[test]
    fn rejects_unsupported_protocol_and_bad_headers() {
        assert!(parse(b"GET /x SPDY/9\r\n\r\n").is_err());
        assert!(parse(b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n").is_err());
        assert!(parse(b"GET /x HTTP/1.1 extra\r\n\r\n").is_err());
    }

    #[test]
    fn response_framing_is_exact() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", b"{}").expect("writes");
        let text = String::from_utf8(out).expect("utf8");
        assert_eq!(
            text,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}"
        );
    }
}
