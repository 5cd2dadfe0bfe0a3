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
//! * hot swap of immutable generations through one `RwLock<Arc<_>>`:
//!   every update batch publishes before it is acked, a reader pins with
//!   one read lock held for an `Arc::clone`, a publish holds the write
//!   lock for one pointer swap, and in-flight readers drain on the
//!   generation they pinned;
//! * [`queue::AdmissionQueue`] — bounded admission with immediate load
//!   shedding;
//! * a per-query deadline, checked once when a worker picks the query up;
//! * [`Service::audit_blocking`]: `fc-resilience`'s audit of the published
//!   generation (building its derived data on first use), repairing the
//!   writer's structure and republishing — run when called, never in the
//!   background.
//!
//! The service's contract: **a query either returns an answer equal to the
//! sequential oracle on the generation that served it, or a typed
//! [`ServeError`] — never a silently wrong answer.** The fault model
//! corrupts only derived data and treats native catalogs as
//! authoritative, so injected faults cannot reach the read. The chaos
//! harness (`examples/chaos_serve.rs`, `tests/serve_concurrency.rs`)
//! asserts this over ≥10⁵ mixed query/update/fault operations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod queue;
pub mod service;
mod worker;

pub use error::ServeError;
pub use queue::{AdmissionQueue, PushError};
pub use service::{
    Generation, QueryOk, QueryResult, ReplicaHealth, ServeConfig, ServeStats, Service,
};
