//! # fc-resilience — fault injection, self-audit, and localized repair
//!
//! The paper's cooperative search is only as good as the structure it runs
//! on: a single flipped bridge can silently return a wrong leaf, because
//! the search *trusts* the fan-out property instead of verifying it. This
//! crate makes the workspace's structures defensible against memory
//! corruption and processor failure:
//!
//! * [`fault`] — a deterministic, seedable [`FaultPlan`] injector covering
//!   bridge perturbation/crossing, skeleton-sample deletion, catalog entry
//!   corruption (swaps, native-key clobbers, lost terminals), `native_succ`
//!   perturbation, and killing virtual processors at chosen PRAM rounds.
//!   Every structural fault is **detectable by construction** — each kind
//!   provably violates an audited invariant.
//! * [`audit`](crate::audit::audit) — an `O(W log W)` self-check over the
//!   `W` words it scans that re-derives every redundant field (rows,
//!   bridges, skeleton keys) from its defining equation and returns a
//!   localized [`BlameReport`], never a panic.
//! * [`repair`](crate::repair::repair) — a blame-driven fixpoint that
//!   restores validity by rewriting only the flagged catalogs, rows, and
//!   skeleton units, falling back to a full rebuild only when localized
//!   information cannot decide (and reporting the cost of both).
//!
//! Together with `fc-coop`'s `coop_search_explicit_checked` (which verifies
//! windows and bridge crossings per query) and the `Pram` failure schedule
//! (degraded-mode re-scheduling onto survivors), this closes the loop:
//! **inject → detect → repair → re-validate**, exercised end to end by
//! `tests/resilience.rs` and the `E-fault` bench experiment.
//!
//! ```
//! use fc_catalog::gen::{self, SizeDist};
//! use fc_coop::{CoopStructure, ParamMode};
//! use fc_resilience::{audit, repair, FaultPlan, FaultSpec};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(5);
//! let tree = gen::balanced_binary(7, 4000, SizeDist::Uniform, &mut rng);
//! let mut st = CoopStructure::preprocess(tree, ParamMode::Auto);
//!
//! let plan = FaultPlan::generate(&st, &FaultSpec::one_of_each(), 42);
//! plan.apply(&mut st);                 // inject
//! let report = audit(&st);             // detect
//! assert!(!report.is_clean());
//! let stats = repair(&mut st, &report); // repair
//! assert!(audit(&st).is_clean());      // re-validate
//! assert!(stats.repair_ops < stats.full_rebuild_ops);
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod fault;
pub mod repair;

pub use audit::{audit, Blame, BlameReport};
pub use fault::{shard_seed, Fault, FaultPlan, FaultSpec};
pub use repair::{audit_and_repair, repair, RepairStats};
