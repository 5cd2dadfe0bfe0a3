//! # fc-shard — a sharded, replicated cooperative-search cluster
//!
//! `fc-serve` made one cooperative-search structure a service; this crate
//! makes *many* of them a cluster. The key universe is partitioned into
//! contiguous ranges by a versioned [`RoutingTable`]; each range is owned
//! by a shard, and each shard is a [`ReplicaSet`] of independent
//! `fc_serve::Service` instances (own workers, generation chain)
//! started on one shared, copy-on-write structure. On top
//! sit:
//!
//! * [`ShardCluster::query_blocking`] — owner-shard routing with replica
//!   failover on typed errors and ascending *escalation* for path nodes
//!   whose owner-shard successor is `+∞`, under an end-to-end deadline
//!   split across legs;
//! * [`ShardCluster::query_batch`] — the scatter/gather fast path: the
//!   batch is grouped per owner shard and each query runs the serve
//!   workers' read (one `partition_point` per path node on the native
//!   catalogs) directly against pinned replica generations, on real OS
//!   threads;
//! * [`ShardCluster::split_shard`] / [`ShardCluster::rebalance_if_hot`] —
//!   hot-shard splitting that publishes a `version + 1` routing table
//!   through the same kind of `RwLock<Arc<_>>` cell generations use: a
//!   query pins the state with one read lock held for an `Arc::clone`,
//!   and a split holds the write lock for one pointer swap;
//! * a chaos hook ([`ShardCluster::inject`]) driving `fc-resilience`
//!   fault plans per replica.
//!
//! The contract lifts verbatim from the single service: **every answer
//! equals the sequential oracle on the generation(s) that served it, or a
//! typed error ([`ShardError`]) — never a silently wrong answer.** The
//! cluster chaos test (`tests/shard_cluster.rs`) asserts this per leg
//! while corrupting replicas and splitting a shard mid-storm.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durable;
pub mod error;
pub mod partition;
pub mod rebalance;
pub mod replica;
pub mod router;

pub use durable::{ColdStartReport, DurableCluster};
pub use error::ShardError;
pub use fc_store::{StoreConfig, StoreError};
pub use partition::RoutingTable;
pub use rebalance::shard_heat;
pub use replica::ReplicaSet;
pub use router::{
    ClusterState, ClusterWriteStats, ShardCluster, ShardConfig, ShardLeg, ShardStats, ShardedOk,
};
