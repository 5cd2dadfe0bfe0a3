//! # fc-coop — optimal cooperative search in fractional cascaded trees
//!
//! This crate implements the primary contribution of *"Optimal Cooperative
//! Search in Fractional Cascaded Data Structures"* (Tamassia & Vitter,
//! SPAA 1990): preprocessing a balanced binary tree with catalogs of total
//! size `n` into a structure `T'` on which **all `p` processors of a CREW
//! PRAM cooperate on a single root-to-leaf search** and finish in
//! `O((log n)/log p)` steps, for any `1 <= p <= n` (Theorem 1). Extensions
//! cover explicit searches on long paths (Theorem 2) and trees of degree
//! `d` (Theorem 3).
//!
//! ## How the structure works (Section 2.1, "Our Final Approach")
//!
//! Starting from the fractional cascaded structure `S` (built by
//! `fc-catalog`), the preprocessing forms one *substructure* `T_i` per
//! processor band `2^(2^i) < p <= 2^(2^(i+1))`:
//!
//! * `S` is truncated to its top `(1 - 2^-i)·log n` levels and partitioned
//!   into subtrees (*units*) of height `h_i = Θ(log p)`;
//! * for each unit root `u` with `t` augmented entries, `m = ceil(t/s_i)`
//!   *skeleton trees* `U_1..U_m` are formed — same shape as the unit, one
//!   key per node; root keys are every `s_i`-th entry of `u`'s catalog,
//!   child keys are induced by the bridges. The sampling factor
//!   `s_i = (2b+2)(2b+1)^(h_i)` makes the skeleton keys *disjoint* per node
//!   (Lemma 1), which is what bounds the total space by `O(n)` (Lemma 2).
//!
//! A search hops one unit at a time: knowing `find(y, u)` at a unit root,
//! `Θ(log p)` levels are traversed in `O(1)` CREW steps by assigning one
//! processor to each candidate catalog position in a window around the
//! skeleton keys (Lemma 3 guarantees the window covers the true answer).
//!
//! ## Module map
//!
//! * [`params`] — the constants `b`, `alpha`, `h_i`, `s_i`, truncation
//!   depths; paper-exact [`params::ParamMode::Theory`] and an auto-tuned
//!   [`params::ParamMode::Auto`] ablation.
//! * [`skeleton`] — units and compacted skeleton forests; Lemma 1 checker.
//! * [`structure`] — [`CoopStructure`]: `S` + all substructures, space
//!   accounting (Lemma 2).
//! * [`explicit`] — explicit cooperative search (Section 2.2), plain,
//!   checked (typed errors on corrupt structures), and cancellable.
//! * [`implicit`] — implicit cooperative search under the consistency
//!   assumption (Section 2.3), with pluggable branch oracles.
//! * [`general`] — long paths and degree-`d` trees (Section 2.4).
//! * [`reach`] — `reach(c, U)` computation for the Figure 1/2 experiments.
//! * [`cancel`] — cooperative cancellation tokens polled at descent steps
//!   (deadline propagation into the cancellable explicit search).
//! * [`batch`] — batched inter-query parallelism for the experiments.
//! * [`dynamic`] — dynamic updates (open problem 4): buffered global
//!   rebuilding with atomic batch drains and post-rebuild self-audit,
//!   plus the opt-in `fc-dyn` incremental mode (node-to-root bridge and
//!   sample patches, per-key-touched cost, clone-and-rebuild fallback).

#![warn(missing_docs)]
// Explicit index loops mirror the one-processor-per-index PRAM semantics.
#![allow(clippy::needless_range_loop)]

pub mod batch;
pub mod cancel;
pub mod dynamic;
pub mod explicit;
pub mod general;
pub mod implicit;
pub mod params;
pub mod reach;
pub mod skeleton;
pub mod structure;

pub use batch::{explicit_batch, explicit_batch_seq, implicit_batch};
pub use cancel::CancelToken;
pub use explicit::{
    coop_search_explicit, coop_search_explicit_cancellable, coop_search_explicit_checked,
    ExplicitSearchResult,
};
pub use implicit::{coop_search_implicit, Branch, BranchOracle, ConsistentLeafOracle};
pub use params::{CoopParams, ParamMode};
pub use structure::CoopStructure;
// The incremental write path's public surface, re-exported so downstream
// layers (serve/shard/store) need no direct fc-dyn dependency.
pub use fc_dyn::{DynCascade, DynConfig, DynCounters, DynError, PatchReport, QueryReport};
