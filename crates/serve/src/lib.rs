//! # fc-serve — deadline-aware concurrent serving of cooperative searches
//!
//! The paper's cooperative search is a PRAM algorithm; this crate wraps the
//! workspace's implementation (`fc-coop`) in a production-shaped *service*
//! so the robustness machinery (`fc-resilience`) can be exercised under
//! concurrency, deadlines, and injected chaos:
//!
//! * [`service::Service`] — a std-thread worker pool answering path
//!   queries against immutable published generations with
//!   `fc_coop::certified_descent`: the sequential (`p = 1`) descent, whose
//!   answers equal the cooperative search's at a fraction of its wall-clock
//!   cost on one thread, each per-node answer certified in `O(1)`;
//! * [`epoch::EpochPtr`] — epoch-based hot swap: rebuilds publish with one
//!   atomic swap, in-flight readers drain on the old generation, and
//!   retired generations are reclaimed only when every reader slot has
//!   moved past the retire epoch (readers never block on the writer);
//! * [`queue::AdmissionQueue`] — bounded admission with immediate load
//!   shedding;
//! * per-query deadlines propagated into the search itself via
//!   `fc_coop::CancelToken` (polled at every descent step);
//! * [`backoff::DecorrelatedJitter`] — retry backoff for transient
//!   structural failures (a corrupted generation that a repair republish
//!   fixes between attempts);
//! * [`quarantine::Quarantine`] — a circuit breaker over audit-blamed
//!   subtrees: quarantined paths are served by a degraded per-node binary
//!   search over the authoritative native catalogs until probe queries
//!   certify the repaired structure;
//! * a background auditor thread running `fc-resilience`'s audit on a
//!   schedule (and on demand when a worker detects corruption), repairing
//!   and republishing.
//!
//! The service's contract: **a query either returns an answer equal to the
//! sequential oracle on the generation that served it, or a typed
//! [`ServeError`] — never a silently wrong answer.** The chaos harness
//! (`examples/chaos_serve.rs`, `tests/serve_concurrency.rs`) asserts this
//! over ≥10⁵ mixed query/update/fault operations.

#![warn(missing_docs)]

pub mod backoff;
pub mod epoch;
pub mod error;
pub mod quarantine;
pub mod queue;
pub mod service;
mod worker;

pub use backoff::DecorrelatedJitter;
pub use epoch::EpochPtr;
pub use error::ServeError;
pub use quarantine::{BreakerState, Quarantine};
pub use queue::{AdmissionQueue, PushError};
pub use service::{
    Generation, QueryOk, QueryResult, ReplicaHealth, ServeConfig, ServeStats, Service,
};
