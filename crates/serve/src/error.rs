//! Typed errors of the serving layer.
//!
//! Every failure a request can hit maps to one variant here, and every
//! variant maps to one HTTP status — so handlers never invent ad-hoc
//! status codes and clients get one consistent error shape:
//! `{"error": "<message>"}` with the right status line.

use std::fmt;

/// Everything that can fail while serving a request.
#[derive(Debug)]
pub enum ServeError {
    /// The request is syntactically or semantically malformed
    /// (unparseable JSON, unknown kind, unknown workload name). 400.
    BadRequest(String),
    /// The requested resource does not exist. 404.
    NotFound(String),
    /// The method is not supported on this path. 405.
    MethodNotAllowed {
        /// The offending method.
        method: String,
        /// The path it was attempted on.
        path: String,
    },
    /// The request body exceeds the configured limit. 413.
    TooLarge {
        /// Bytes announced or received.
        got: usize,
        /// The configured ceiling.
        limit: usize,
    },
    /// A stored result record failed its checksum or did not parse;
    /// carries the path so the operator can inspect or delete it. 500.
    StoreCorrupt {
        /// Path of the bad record.
        path: std::path::PathBuf,
        /// What exactly was wrong.
        detail: String,
    },
    /// Filesystem trouble under the data directory. 500.
    Io(std::io::Error),
    /// A dispatched task panicked on this worker. 500.
    TaskPanicked(String),
}

impl ServeError {
    /// The HTTP status this error renders as.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::BadRequest(_) => 400,
            ServeError::NotFound(_) => 404,
            ServeError::MethodNotAllowed { .. } => 405,
            ServeError::TooLarge { .. } => 413,
            ServeError::StoreCorrupt { .. } | ServeError::Io(_) | ServeError::TaskPanicked(_) => {
                500
            }
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::NotFound(what) => write!(f, "not found: {what}"),
            ServeError::MethodNotAllowed { method, path } => {
                write!(f, "method {method} not allowed on {path}")
            }
            ServeError::TooLarge { got, limit } => {
                write!(f, "body of {got} bytes exceeds the {limit}-byte limit")
            }
            ServeError::StoreCorrupt { path, detail } => write!(
                f,
                "stored result {} is corrupt ({detail}); delete it to re-run the task",
                path.display()
            ),
            ServeError::Io(e) => write!(f, "i/o: {e}"),
            ServeError::TaskPanicked(msg) => write!(f, "task panicked on worker: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statuses_match_variants() {
        assert_eq!(ServeError::BadRequest("x".into()).status(), 400);
        assert_eq!(ServeError::NotFound("x".into()).status(), 404);
        assert_eq!(
            ServeError::MethodNotAllowed {
                method: "PUT".into(),
                path: "/tasks".into()
            }
            .status(),
            405
        );
        assert_eq!(ServeError::TooLarge { got: 9, limit: 1 }.status(), 413);
        let corrupt = ServeError::StoreCorrupt {
            path: "/tmp/x.json".into(),
            detail: "checksum mismatch".into(),
        };
        assert_eq!(corrupt.status(), 500);
        assert!(corrupt.to_string().contains("delete it to re-run"));
    }
}
