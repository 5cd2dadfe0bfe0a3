//! # fc-serve — deadline-aware concurrent serving of path queries
//!
//! This crate wraps the workspace's cooperative search structure
//! (`fc-coop`) in a production-shaped *service*, so the write path and the
//! robustness machinery (`fc-resilience`) can be exercised under
//! concurrency, deadlines, and injected chaos:
//!
//! * [`service::Service`] — a std-thread worker pool answering path
//!   queries against immutable published generations with one
//!   `partition_point` per path node on the generation's native catalogs:
//!   the sequential oracle itself. A served query names its leaf, so the
//!   per-node searches are independent and need no cascade;
//! * [`epoch::EpochPtr`] — epoch-based hot swap: every update batch
//!   publishes with one atomic swap before it is acked, in-flight readers
//!   drain on the old generation, and
//!   retired generations are reclaimed only when every reader slot has
//!   moved past the retire epoch (readers never block on the writer);
//! * [`queue::AdmissionQueue`] — bounded admission with immediate load
//!   shedding;
//! * a per-query deadline, checked once when a worker picks the query up;
//! * a background auditor thread running `fc-resilience`'s audit on a
//!   schedule (building a generation's derived data on first use),
//!   repairing the writer's structure and republishing.
//!
//! The service's contract: **a query either returns an answer equal to the
//! sequential oracle on the generation that served it, or a typed
//! [`ServeError`] — never a silently wrong answer.** The fault model
//! corrupts only derived data and treats native catalogs as
//! authoritative, so injected faults cannot reach the read. The chaos
//! harness (`examples/chaos_serve.rs`, `tests/serve_concurrency.rs`)
//! asserts this over ≥10⁵ mixed query/update/fault operations.

#![warn(missing_docs)]

pub mod epoch;
pub mod error;
pub mod queue;
pub mod service;
mod worker;

pub use epoch::EpochPtr;
pub use error::ServeError;
pub use queue::{AdmissionQueue, PushError};
pub use service::{
    Generation, QueryOk, QueryResult, ReplicaHealth, ServeConfig, ServeStats, Service,
};
