//! # fc-catalog — trees with catalogs and fractional cascading
//!
//! This crate implements the *substrate* of the paper: a rooted tree whose
//! nodes store sorted catalogs, preprocessed by **fractional cascading**
//! (Chazelle–Guibas; parallel construction à la Atallah–Cole–Goodrich) so
//! that a key can be located in every catalog along a root-to-leaf path in
//! `O(log n + m)` sequential time instead of `O(m log n)`.
//!
//! The structure built here — augmented catalogs with *bridge* pointers that
//! satisfy the fan-out property (Property 1 of Section 2 of the paper), the
//! adjacency property (Property 2), and bridge monotonicity (Property 3) —
//! is the input to the cooperative-search preprocessing in `fc-coop`.
//!
//! Layout:
//! * [`key`] — the `CatalogKey` trait (ordered keys with a `+∞` supremum).
//! * [`tree`] — arena-allocated rooted trees with per-node catalogs.
//! * [`gen`] — synthetic workload generators (balanced, skewed, paths,
//!   caterpillars, d-ary trees; uniform and adversarial catalog-size
//!   distributions).
//! * [`cascade`] — the fractional cascaded structure `S` and its builders
//!   (sequential and level-parallel with PRAM cost accounting).
//! * [`search`] — the sequential search baselines: naive per-node binary
//!   search and fractionally cascaded iterative search.
//! * [`invariants`] — checkers for Properties 1–3, used by tests and by the
//!   Figure 4 experiment.

#![warn(missing_docs)]
// Explicit index loops mirror the one-processor-per-index PRAM semantics.
#![allow(clippy::needless_range_loop)]

pub mod cascade;
pub mod error;
pub mod gen;
pub mod invariants;
pub mod key;
pub mod pipeline;
pub mod search;
pub mod tree;

pub use cascade::{BridgeRows, CascadeArena, CascadedNodeMut, CascadedNodeRef, CascadedTree};
pub use error::FcError;
pub use key::CatalogKey;
pub use search::{search_path_fc, search_path_fc_into, search_path_naive, PathSearchOutput};
pub use tree::{CatalogTree, NodeId, TreeError, UpdateOp};
