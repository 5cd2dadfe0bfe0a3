//! Typed service errors.

use std::fmt;
use std::time::Duration;

/// Why the service could not (or would not) answer a query.
///
/// Every variant is a *detected* condition — the service's contract is that
/// a query either returns the oracle answer on the generation that served
/// it or one of these errors; it never returns a silently wrong answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The query's deadline expired while it waited in the admission
    /// queue; the worker checks it once, before the search.
    Timeout {
        /// How far past the deadline the query was abandoned.
        missed_by: Duration,
    },
    /// The admission queue was full and the query was shed at submission
    /// time (load shedding: reject early instead of queueing work that
    /// would time out anyway).
    Shed {
        /// Queue capacity at the time of the shed.
        queue_len: usize,
    },
    /// The service is shutting down; the query was not executed.
    ShuttingDown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Timeout { missed_by } => {
                write!(f, "query deadline exceeded (missed by {missed_by:?})")
            }
            ServeError::Shed { queue_len } => {
                write!(f, "query shed: admission queue full ({queue_len} slots)")
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ServeError::Shed { queue_len: 8 };
        assert!(e.to_string().contains("8 slots"), "{e}");
        let t = ServeError::Timeout {
            missed_by: Duration::from_millis(3),
        };
        assert!(t.to_string().contains("3ms"), "{t}");
        assert!(std::error::Error::source(&e).is_none());
        assert!(std::error::Error::source(&ServeError::ShuttingDown).is_none());
    }
}
