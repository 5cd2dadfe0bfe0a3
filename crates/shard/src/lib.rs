//! # fc-shard — a sharded, replicated cooperative-search cluster
//!
//! `fc-serve` made one cooperative-search structure a service; this crate
//! makes *many* of them a cluster. The key universe is partitioned into
//! contiguous ranges by a versioned [`RoutingTable`]; each range is owned
//! by a shard, and each shard is a [`ReplicaSet`] of independent
//! `fc_serve::Service` instances (own workers, auditor, quarantine
//! breaker, generation chain) started on one shared, copy-on-write
//! preprocessed structure. On top sit:
//!
//! * [`ShardCluster::query_blocking`] — owner-shard routing with replica
//!   failover and ascending *escalation* for path nodes whose owner-shard
//!   successor is `+∞`, under an end-to-end deadline split across legs;
//! * [`ShardCluster::query_batch`] — the scatter/gather fast path: the
//!   batch is grouped per owner shard and each query runs the serve
//!   workers' certified read (`fc_coop::certified_descent`) directly
//!   against pinned replica generations, on real OS threads;
//! * [`ShardCluster::range_report`] — scattered range reporting merged in
//!   global key order via `fc_retrieval::merge_shard_reports`;
//! * [`ShardCluster::split_shard`] / [`ShardCluster::rebalance_if_hot`] —
//!   hot-shard splitting that publishes a `version + 1` routing table
//!   through the same epoch hot-swap machinery generations use, without
//!   blocking queries;
//! * chaos hooks ([`ShardCluster::inject`],
//!   [`ShardCluster::force_quarantine_replica`]) driving `fc-resilience`
//!   fault plans per replica.
//!
//! The contract lifts verbatim from the single service: **every answer
//! equals the sequential oracle on the generation(s) that served it, or a
//! typed error ([`ShardError`]) — never a silently wrong answer.** The
//! cluster chaos test (`tests/shard_cluster.rs`) asserts this per leg
//! while corrupting replicas, force-quarantining a full replica, and
//! splitting a shard mid-storm.

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
