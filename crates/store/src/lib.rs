//! fc-store: snapshot + WAL durability for fractional-cascading services.
//!
//! This crate extends the workspace's correctness contract — *the
//! oracle-equal answer or a typed error, never a silently-wrong answer* —
//! across process death. It persists a published
//! [`CatalogTree`](fc_catalog::CatalogTree) generation as a versioned,
//! checksummed [`snapshot`], logs every
//! [`UpdateOp`](fc_catalog::UpdateOp) batch through a CRC-framed [`wal`]
//! *before* the in-memory catalogs see it, and on restart
//! [`recover`](recover())s the catalogs by applying the replayed log to
//! the newest valid snapshot with `CatalogTree::apply_batch`, the writer's
//! own function — or refuses with a typed [`StoreError`] when a snapshot,
//! a record or an op does not validate. It depends on `fc-catalog` alone.
//!
//! The pieces:
//!
//! * [`Store`] — one directory of `snap-*.fcs` + `wal-*.fcw` files with an
//!   append/persist/prune API (`fc-shard`'s `DurableCluster` keeps one
//!   per shard). [`Store::recover`] recovers a directory and resumes its
//!   writer in one read.
//! * [`recover()`] — the crash-recovery state machine: newest valid
//!   snapshot → ordered idempotent replay → one `apply_batch`.
//! * [`manifest`] — the cluster commit point: routing-table version and
//!   cuts persisted alongside per-shard stores so `fc-shard` cold-starts
//!   with routing restored (`DurableCluster`).
//! * [`fault`] — byte-surgery helpers (torn writes, bit flips, missing
//!   segments, half rotations, legacy markers) for the durability test
//!   suites.
//!
//! Everything is `std`-only: keys serialize through [`KeyCodec`], the
//! CRC-32 is built in (slicing-by-16), and the recovery paths
//! (`snapshot.rs`, `wal.rs`, `recover.rs`, `manifest.rs`) are in the
//! `cargo xtask lint` scope — lexically panic-free and index-free,
//! because a recovery that panics on corrupt bytes is just a slower way
//! to serve a wrong answer.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod codec;
mod error;
pub mod fault;
mod frame;
pub mod manifest;
mod recover;
pub mod snapshot;
mod store;
pub mod wal;

pub use codec::{crc32, KeyCodec};
pub use error::StoreError;
pub use manifest::{read_manifest, write_manifest, Manifest};
pub use recover::{recover, Recovered};
pub use snapshot::{load_newest_valid, read_snapshot_file, write_snapshot_file, SnapshotData};
pub use store::{Store, StoreConfig};
pub use wal::{ReplayStats, WalEntry};
