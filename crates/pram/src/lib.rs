//! # fc-pram — PRAM substrate for the cooperative-search reproduction
//!
//! The paper ("Optimal Cooperative Search in Fractional Cascaded Data
//! Structures", Tamassia & Vitter, SPAA 1990) states its results in the
//! PRAM model: `p` synchronous processors sharing a memory, with the EREW
//! (exclusive read, exclusive write), CREW (concurrent read, exclusive
//! write), and CRCW (concurrent read, concurrent write) access disciplines.
//!
//! Real PRAMs do not exist, so this crate provides three substitutes that
//! together let the rest of the workspace both *measure* and *execute* the
//! paper's algorithms:
//!
//! 1. [`Pram`] — a step-synchronous **cost model**. Algorithms charge
//!    "rounds" of unit operations to it; the model converts each round into
//!    parallel steps by Brent scheduling (`ceil(ops / p)`), and tracks total
//!    work, peak per-step parallelism, and round count. Every theorem-shaped
//!    experiment in the workspace reports `Pram` step counts, which is
//!    exactly the quantity the paper's theorems bound.
//! 2. [`shadow`] — a provenance-tracking shadow memory. The real
//!    algorithms report every access through the [`Tracer`] hooks, and
//!    [`ShadowMem`] checks each synchronous round against the claimed
//!    discipline (EREW/CREW/CRCW), so tests can verify that, e.g., the CREW
//!    cooperative search never performs a concurrent write.
//! 3. [`exec`] — thin rayon-backed helpers for running the same round
//!    structure on real cores, used by the wall-clock Criterion benches.
//!
//! [`primitives`] implements the textbook PRAM building blocks the paper
//! uses implicitly: cooperative (p-ary) binary search, prefix sums, and
//! parallel merge.

#![warn(missing_docs)]

pub mod conflict;
pub mod cost;
pub mod exec;
pub mod listrank;
pub mod primitives;
pub mod shadow;

pub use cost::{Model, Pram, PramReport};
pub use primitives::{coop_lower_bound, coop_lower_bound_traced};
pub use shadow::{NoTrace, PhaseStats, Region, ShadowMem, ShadowViolation, Tracer};
