//! Typed serving errors.

use std::fmt;

use crate::config::ServeConfigError;

/// Why a query could not be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded queue is at `queue_cap`; the submit was rejected
    /// immediately (backpressure — retry later or shed load).
    QueueFull,
    /// `submit` was called with a tenant id other than 0, the only one
    /// the server admits.
    UnknownTenant {
        /// The offending tenant id.
        tenant: usize,
    },
    /// The query's dimensionality does not match the engine's.
    WrongDim {
        /// Dimensionality the engine was built for.
        expected: usize,
        /// Dimensionality of the submitted query.
        got: usize,
    },
    /// The vector has a NaN or infinite coordinate. Checked at admission,
    /// before a cache key is built or a queue slot taken.
    NonFinite {
        /// Index of the first non-finite coordinate.
        at: usize,
    },
    /// Overload protection shed this submit: the queued work already
    /// fills the backlog budget (`max_queue_batches * max_batch`), so
    /// serving more of it would push dispatches past the batching
    /// deadline. Distinct from [`QueueFull`](Self::QueueFull), which is
    /// the hard cap.
    Overloaded,
    /// The server is shutting down and no longer admits queries.
    /// Queries admitted *before* shutdown are still served (drained).
    ShuttingDown,
    /// The engine panicked while serving a batch; the server closed and
    /// failed all in-flight queries with this error.
    EngineFailed,
    /// The [`ServeConfig`](crate::ServeConfig) was invalid.
    Config(ServeConfigError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "queue is full (backpressure)"),
            ServeError::UnknownTenant { tenant } => {
                write!(f, "unknown tenant {tenant} (only tenant 0 is admitted)")
            }
            ServeError::WrongDim { expected, got } => {
                write!(f, "query has dim {got}, engine expects {expected}")
            }
            ServeError::NonFinite { at } => {
                write!(f, "coordinate {at} is NaN or infinite")
            }
            ServeError::Overloaded => {
                write!(f, "shed: the backlog projects past the batch deadline")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::EngineFailed => write!(f, "engine failed while serving a batch"),
            ServeError::Config(e) => write!(f, "invalid serve config: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ServeConfigError> for ServeError {
    fn from(e: ServeConfigError) -> Self {
        ServeError::Config(e)
    }
}
