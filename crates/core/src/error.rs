//! Typed errors of the end-to-end pipeline.

use std::fmt;
use xps_explore::{ExploreError, JournalError};

/// Everything that can abort a measured pipeline run.
///
/// Per-task failures (a panicking anneal, a failing matrix cell) do
/// not abort — they are retried, then degraded around and reported in
/// [`ExploreStats::recovery`](xps_explore::ExploreStats); these
/// variants are the conditions with no sensible degradation.
#[derive(Debug)]
pub enum PipelineError {
    /// The pipeline options violate an invariant (caught up front).
    InvalidPipeline(String),
    /// The exploration phase failed terminally.
    Explore(ExploreError),
    /// The measured cross-configuration matrix could not be built
    /// (non-finite or non-positive cells).
    InvalidMatrix(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::InvalidPipeline(msg) => write!(f, "invalid pipeline options: {msg}"),
            PipelineError::Explore(e) => write!(f, "{e}"),
            PipelineError::InvalidMatrix(msg) => write!(f, "invalid measured matrix: {msg}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Explore(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ExploreError> for PipelineError {
    fn from(e: ExploreError) -> PipelineError {
        PipelineError::Explore(e)
    }
}

impl From<JournalError> for PipelineError {
    fn from(e: JournalError) -> PipelineError {
        PipelineError::Explore(ExploreError::Journal(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_chain() {
        let e = PipelineError::from(ExploreError::EmptyWorkloads);
        assert!(e.to_string().contains("at least one workload"));
        assert!(std::error::Error::source(&e).is_some());
        let e = PipelineError::InvalidPipeline("matrix_ops must be >= 1".into());
        assert!(e.to_string().contains("matrix_ops"));
    }
}
