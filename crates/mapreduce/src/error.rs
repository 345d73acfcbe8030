//! Job-level error type.

use std::error::Error;
use std::fmt;

use slider_core::TreeError;
use slider_dcache::CacheError;

/// Errors reported by the windowed job driver.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum JobError {
    /// A contraction tree rejected the slide.
    Tree(TreeError),
    /// The slide violates the execution mode's window discipline (e.g.
    /// removing splits from an append-only job, or a fixed-width slide that
    /// is not a whole number of buckets).
    ModeViolation(String),
    /// Asked to remove more splits than the window holds.
    RemoveExceedsWindow {
        /// Splits the caller asked to drop.
        requested: usize,
        /// Splits currently in the window.
        window: usize,
    },
    /// A split id was reused within the job's lifetime.
    DuplicateSplit(u64),
    /// An interior splice addressed a split range outside the window.
    SpliceOutOfRange {
        /// Window position of the splice (0 = oldest split).
        at: usize,
        /// Splits the splice would insert or evict.
        count: usize,
        /// Splits currently in the window.
        window: usize,
    },
    /// Asked to evict the oldest batch of a window that holds none. The
    /// feeder's bookkeeping makes this unreachable in normal operation; it
    /// is reported as a typed error (never a panic) so a corrupted window
    /// count degrades into a recoverable failure.
    EmptyWindow,
    /// The job configuration is inconsistent (detailed in the message).
    BadConfig(String),
    /// The memoization cache rejected an operation (e.g. a node id outside
    /// the cache cluster).
    Cache(CacheError),
    /// A failure injected by a scripted fault plan (chaos testing): the
    /// operation was made to fail deterministically before reaching the
    /// engine, so recovery paths — retries, circuit breakers, restores —
    /// can be exercised without corrupting any real state.
    Injected(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Tree(e) => write!(f, "contraction tree error: {e}"),
            JobError::ModeViolation(msg) => write!(f, "window mode violation: {msg}"),
            JobError::RemoveExceedsWindow { requested, window } => {
                write!(
                    f,
                    "cannot remove {requested} splits from a window of {window}"
                )
            }
            JobError::DuplicateSplit(id) => write!(f, "split id {id} was already used"),
            JobError::SpliceOutOfRange { at, count, window } => {
                write!(
                    f,
                    "splice of {count} splits at position {at} is outside a window of {window}"
                )
            }
            JobError::EmptyWindow => {
                write!(f, "cannot evict the oldest batch of an empty window")
            }
            JobError::BadConfig(msg) => write!(f, "bad job configuration: {msg}"),
            JobError::Cache(e) => write!(f, "memoization cache error: {e}"),
            JobError::Injected(msg) => write!(f, "injected fault: {msg}"),
        }
    }
}

impl Error for JobError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            JobError::Tree(e) => Some(e),
            JobError::Cache(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TreeError> for JobError {
    fn from(e: TreeError) -> Self {
        JobError::Tree(e)
    }
}

impl From<CacheError> for JobError {
    fn from(e: CacheError) -> Self {
        JobError::Cache(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let err = JobError::from(TreeError::RemoveFromAppendOnly);
        assert!(err.to_string().contains("append-only"));
        assert!(err.source().is_some());
        assert!(JobError::DuplicateSplit(3).source().is_none());
    }
}
