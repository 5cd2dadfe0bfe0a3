//! Typed cluster-level errors, extending [`ServeError`] across shards.

use fc_serve::ServeError;
use std::fmt;

/// Why the cluster could not answer a query. Mirrors the single-service
/// contract one level up: **an answer equal to the sequential oracle on
/// the generation(s) that served it, or one of these — never a silently
/// wrong answer.**
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// Every replica of `shard` failed the query; `last` is the error
    /// from the final replica tried. This is the only way a key range
    /// becomes unanswerable — a single quarantined replica fails over to
    /// its peer instead.
    ShardUnavailable {
        /// The shard whose replica set was exhausted.
        shard: usize,
        /// Replicas tried before giving up.
        tried: usize,
        /// The last replica's error.
        last: ServeError,
    },
    /// The end-to-end deadline budget ran out before `shard` answered:
    /// earlier legs consumed it, or a batched leg's slice expired
    /// mid-descent. Distinct from a per-leg [`ServeError::Timeout`],
    /// which is a replica timing out a single-query leg.
    BudgetExhausted {
        /// First shard the query could not get an answer from in budget.
        shard: usize,
        /// Escalation legs completed before the budget died.
        legs_done: usize,
    },
    /// The cluster is shutting down; the query was not executed.
    ShuttingDown,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::ShardUnavailable { shard, tried, last } => write!(
                f,
                "shard {shard} unavailable: all {tried} replicas failed (last: {last})"
            ),
            ShardError::BudgetExhausted { shard, legs_done } => write!(
                f,
                "deadline budget exhausted before shard {shard} ({legs_done} legs done)"
            ),
            ShardError::ShuttingDown => write!(f, "cluster is shutting down"),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::ShardUnavailable { last, .. } => Some(last),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ShardError::ShardUnavailable {
            shard: 2,
            tried: 2,
            last: ServeError::ShuttingDown,
        };
        assert!(e.to_string().contains("shard 2"));
        assert!(std::error::Error::source(&e).is_some());
        let b = ShardError::BudgetExhausted {
            shard: 3,
            legs_done: 1,
        };
        assert!(b.to_string().contains("shard 3"));
        assert!(std::error::Error::source(&b).is_none());
    }
}
