//! # fc-retrieval — cooperative geometric retrieval (Section 4)
//!
//! Theorem 6 applies the cooperative-search machinery to three reporting
//! problems, all built on balanced binary trees with catalogs of total size
//! `O(n log n)`:
//!
//! * **Orthogonal segment intersection** ([`segint`]) — a segment tree on
//!   the y-coordinates; the query descends to the leaf of the query
//!   segment's height and runs **two explicit cooperative searches** (for
//!   the two x-extremes) along that path, which identifies a contiguous
//!   catalog range to report at every path node.
//! * **Orthogonal range search** ([`range2d`]) — a range tree on x with
//!   y-sorted catalogs; two boundary paths, cooperative y-searches along
//!   them, canonical children reached through a single bridge step.
//! * **Point enclosure** ([`enclosure`]) — a segment tree on x whose nodes
//!   carry *interval trees* (themselves trees with catalogs) for the 1D
//!   y-stabbing subproblem; the paper gives no construction ("similar
//!   approach"), this is the standard O(n log n) realisation.
//!
//! Two retrieval modes, as in the paper: **direct** (mark/collect every
//! reported item; costs an extra `O(log log n)` prefix sum plus `k/p`) and
//! **indirect** (return a linked list of catalog ranges; `O(1)` extra on a
//! CRCW PRAM with enough processors). [`report`] implements both with the
//! matching cost accounting.
//!
//! [`range3d`] extends range search to `d = 3` (Corollary 2): an x-tree
//! whose nodes own 2D structures, searched by recursive processor
//! splitting.

#![warn(missing_docs)]
// Interval-tree node payloads are internal tuples, not public API.
#![allow(clippy::type_complexity)]

pub mod enclosure;
pub mod range2d;
pub mod range3d;
pub mod ranged;
pub mod report;
pub mod segint;

pub use range2d::RangeTree2D;
pub use report::{charge_direct, charge_indirect, RangeList, ReportRange};
pub use segint::SegmentIntersection;
