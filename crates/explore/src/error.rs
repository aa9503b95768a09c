//! Typed errors for the exploration pipeline.
//!
//! The crash-safety layer never reports failures as bare strings: every
//! way a run can go wrong has a variant here, so callers can
//! distinguish "a task kept panicking" from "the journal on disk is
//! corrupt" from "the options are nonsense" and react accordingly
//! (retry, degrade, or refuse to start).

use crate::journal::JournalError;
use std::fmt;

/// The terminal failure mode of one task, after its retry budget was
/// spent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskFailure {
    /// The task panicked; carries the panic message when it was a
    /// string payload (the common case), or a placeholder otherwise.
    Panicked(String),
    /// The task failed with an injected (or otherwise reported) error.
    Failed(String),
}

impl fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskFailure::Panicked(msg) => write!(f, "panicked: {msg}"),
            TaskFailure::Failed(msg) => write!(f, "failed: {msg}"),
        }
    }
}

/// One task (an anneal, a cross evaluation, a matrix cell) that failed
/// on every attempt. The surrounding run keeps going — the error is
/// recorded, reported, and the result degraded — unless nothing at all
/// survived (see [`ExploreError::WorkloadFailed`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskError {
    /// Stable identity of the task in the run's journal keyspace,
    /// e.g. `anneal#0/4`.
    pub task: String,
    /// Attempts made (1 + retries).
    pub attempts: u32,
    /// How the final attempt failed.
    pub failure: TaskFailure,
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "task `{}` {} after {} attempt(s)",
            self.task, self.failure, self.attempts
        )
    }
}

impl std::error::Error for TaskError {}

/// Everything that can abort an exploration run.
///
/// Per-task failures do **not** abort a run (they degrade it and are
/// listed in the run's [`RecoveryStats`](crate::RecoveryStats)); these
/// are the conditions with no sensible degradation.
#[derive(Debug)]
pub enum ExploreError {
    /// The options violate an invariant (caught at construction, not
    /// deep inside an anneal).
    InvalidOptions(String),
    /// The workload set is empty.
    EmptyWorkloads,
    /// Every multi-start anneal of one workload failed permanently, so
    /// there is no configuration to report for it.
    WorkloadFailed {
        /// The workload whose anneals all failed.
        workload: String,
        /// The last start's terminal error.
        error: TaskError,
    },
    /// The checkpoint journal could not be read or written.
    Journal(JournalError),
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::InvalidOptions(msg) => write!(f, "invalid exploration options: {msg}"),
            ExploreError::EmptyWorkloads => write!(f, "need at least one workload"),
            ExploreError::WorkloadFailed { workload, error } => {
                write!(f, "every anneal of `{workload}` failed; last: {error}")
            }
            ExploreError::Journal(e) => write!(f, "journal: {e}"),
        }
    }
}

impl std::error::Error for ExploreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExploreError::WorkloadFailed { error, .. } => Some(error),
            ExploreError::Journal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JournalError> for ExploreError {
    fn from(e: JournalError) -> ExploreError {
        ExploreError::Journal(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_carry_context() {
        let t = TaskError {
            task: "anneal#0/2".into(),
            attempts: 3,
            failure: TaskFailure::Panicked("boom".into()),
        };
        let s = t.to_string();
        assert!(s.contains("anneal#0/2") && s.contains("3 attempt") && s.contains("boom"));
        let e = ExploreError::WorkloadFailed {
            workload: "mcf".into(),
            error: t,
        };
        assert!(e.to_string().contains("mcf"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(ExploreError::EmptyWorkloads
            .to_string()
            .contains("at least one workload"));
    }
}
