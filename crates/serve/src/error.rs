//! Typed service errors, extending the structural [`FcError`] taxonomy.

use fc_catalog::FcError;
use std::fmt;
use std::time::Duration;

/// Why the service could not (or would not) answer a query.
///
/// Every variant is a *detected* condition — the service's contract is that
/// a query either returns a correct answer (exact or degraded) or one of
/// these errors; it never returns a silently wrong answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The query's deadline expired before an answer was produced. The
    /// deadline is propagated into the certified descent itself (via
    /// `fc_coop::CancelToken`), so a query caught mid-descent stops at the
    /// next descent step rather than running to completion.
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
    /// The search path crosses a quarantined (blamed-by-audit) region and
    /// degraded reads are disabled.
    Quarantined {
        /// Arena index of the first quarantined node on the path.
        node: u32,
    },
    /// The certified descent kept detecting corruption through every
    /// retry, and the degraded fallback is disabled.
    Degraded {
        /// The last structural error observed.
        error: FcError,
        /// Total attempts made (1 + retries).
        attempts: u32,
        /// Generation ids the attempts ran against, in observation order
        /// (deduplicated consecutively). A failed query thereby reports
        /// *which* published generation(s) it saw — the signal the shard
        /// layer needs to tell a corrupt replica from cross-replica
        /// divergence.
        gens: Vec<u64>,
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
            ServeError::Quarantined { node } => {
                write!(
                    f,
                    "path crosses quarantined node {node} and degraded reads are off"
                )
            }
            ServeError::Degraded {
                error,
                attempts,
                gens,
            } => {
                write!(
                    f,
                    "search failed after {attempts} attempts (generations {gens:?}): {error}"
                )
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Degraded { error, .. } => Some(error),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ServeError::Degraded {
            error: FcError::NoProcessors,
            attempts: 3,
            gens: vec![4, 5],
        };
        assert!(e.to_string().contains("3 attempts"));
        assert!(e.to_string().contains("[4, 5]"), "{e}");
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&ServeError::ShuttingDown).is_none());
    }
}
