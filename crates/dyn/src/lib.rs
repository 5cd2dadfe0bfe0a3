//! # fc-dyn — incremental dynamic catalog maintenance
//!
//! The serving stack's write path so far has been *global rebuilding*:
//! buffer updates per node, and when enough accumulate, rebuild the whole
//! cascaded structure from scratch (`fc_coop::DynamicCoop`). That keeps
//! every query oracle-correct but makes write cost proportional to the
//! structure, not to the keys touched.
//!
//! This crate implements the incremental alternative in the direction of
//! Mehlhorn–Näher dynamic fractional cascading and Nekrich's *Searching
//! in Dynamic Catalogs on a Tree*: a per-node **slot arena** whose slots
//! never move (stable indices), ordered by doubly-linked `prev`/`next`
//! chains, with
//!
//! * **tombstones** — deletion flips a `live` bit; keys stay behind as
//!   order markers, so bridges and finger entries never dangle;
//! * **samples + bridges** — every node's augmented list holds, besides
//!   its native keys, a sample of each child's augmented list; a sample
//!   slot carries a `down` bridge to the *slot index* it mirrors (stable
//!   across unrelated edits) and the mirrored slot carries the matching
//!   `up` back-reference;
//! * **hysteresis** — when the live run between two consecutive samples
//!   of a child grows past 8 (`2 * s` for the sampling rate `s = 4`), a
//!   middle element is promoted into the parent (a *split*); when it
//!   shrinks below 2, a bounding sample is tombstoned (a *merge*).
//!   Splits and merges are themselves insertions/deletions one level up,
//!   so maintenance propagates only along the affected node-to-root path;
//! * **fingers** — a sparse sorted `(key, slot)` index per node gives
//!   `O(log)` entry into any list; finger slots are never invalidated
//!   (tombstones, not splices), only their gaps drift, and the update
//!   path densifies a gap it found too long.
//!
//! Every mutation returns a [`PatchReport`] whose counters *are* the
//! per-key-touched cost metric; the last reports are retained in a
//! bounded [`PatchLog`]. Every structural suspicion is a typed
//! [`DynError`] — a corrupted bridge or cycled link produces an error,
//! never a silently wrong answer and never a hang (all walks carry cycle
//! guards). Density invariants (bounded tombstone fraction per node) are
//! tracked eagerly; when violated, [`DynCascade::needs_compaction`]
//! reports the node so the owner (`DynamicCoop`) can fall back to the
//! always-correct clone-and-rebuild.
//!
//! The honesty check: Afshani's lower bound for dynamic fractional
//! cascading rules out the "ideal" combination of `O(log log n)` updates
//! with `O(1)`-per-level queries in general; this implementation is
//! engineering within that envelope — amortized per-path updates, walks
//! bounded by hysteresis plus a budget with a typed finger fallback.
//!
//! The cascade's shape (sampling rate, hysteresis band, finger gap, walk
//! budget) is fixed by constants in [`patch`]; [`DynConfig`] holds only
//! the compaction thresholds.

pub mod cascade;
pub mod patch;

pub use cascade::DynCascade;
pub use patch::{DynConfig, DynCounters, PatchLog, PatchReport, QueryReport};

/// A typed structural error from the incremental cascade.
///
/// Every variant names the node (arena index) where the suspicion arose,
/// so the owner can target its fallback/quarantine. These are *detection*
/// results: the query or patch that produced one has not returned a
/// wrong answer, and the structure is still safe to rebuild from (the
/// arena itself, scanned flat, remains the authoritative key set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynError {
    /// A node index outside the arena.
    NodeOutOfRange {
        /// The offending node index.
        node: u32,
    },
    /// A slot index outside a node's arena.
    SlotOutOfRange {
        /// Node whose arena was indexed.
        node: u32,
        /// The offending slot index.
        slot: u32,
    },
    /// Two consecutive path entries are not parent and child.
    PathMismatch {
        /// The parent-side node.
        parent: u32,
        /// The node that is not its child.
        child: u32,
    },
    /// A live sample slot's `down` bridge does not mirror its key.
    CorruptBridge {
        /// Node holding the sample.
        node: u32,
        /// The sample slot.
        slot: u32,
    },
    /// A linked-list walk exceeded the arena size (cycle or torn link).
    CorruptLink {
        /// The node whose list is suspect.
        node: u32,
    },
    /// Keys along the list are not non-decreasing.
    CorruptOrder {
        /// The node whose list is suspect.
        node: u32,
        /// First slot at which order breaks.
        slot: u32,
    },
    /// Live/dead tallies disagree with the list contents.
    CorruptCounts {
        /// The node whose counters are suspect.
        node: u32,
    },
    /// A finger entry's recorded key differs from its slot's key.
    CorruptFinger {
        /// The node whose finger index is suspect.
        node: u32,
        /// Index into the finger vector.
        finger: u32,
    },
    /// Tombstones exceed the configured density bound (compaction due).
    DensityViolation {
        /// The over-dense node.
        node: u32,
        /// Tombstoned slots.
        dead: u32,
        /// Total slots.
        total: u32,
    },
    /// The reserved `SUPREMUM` key was used as a real entry.
    SupremumKey {
        /// The node targeted by the update.
        node: u32,
    },
}

impl DynError {
    /// The node this error points at, for quarantine targeting.
    pub fn node(&self) -> u32 {
        match *self {
            DynError::NodeOutOfRange { node }
            | DynError::SlotOutOfRange { node, .. }
            | DynError::CorruptBridge { node, .. }
            | DynError::CorruptLink { node }
            | DynError::CorruptOrder { node, .. }
            | DynError::CorruptCounts { node }
            | DynError::CorruptFinger { node, .. }
            | DynError::DensityViolation { node, .. }
            | DynError::SupremumKey { node } => node,
            DynError::PathMismatch { parent, .. } => parent,
        }
    }
}

impl std::fmt::Display for DynError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            DynError::NodeOutOfRange { node } => write!(f, "node {node} out of range"),
            DynError::SlotOutOfRange { node, slot } => {
                write!(f, "slot {slot} out of range at node {node}")
            }
            DynError::PathMismatch { parent, child } => {
                write!(f, "path step {parent} -> {child} is not an edge")
            }
            DynError::CorruptBridge { node, slot } => {
                write!(f, "corrupt bridge at node {node} slot {slot}")
            }
            DynError::CorruptLink { node } => write!(f, "corrupt link chain at node {node}"),
            DynError::CorruptOrder { node, slot } => {
                write!(f, "key order violated at node {node} slot {slot}")
            }
            DynError::CorruptCounts { node } => write!(f, "live/dead tallies wrong at node {node}"),
            DynError::CorruptFinger { node, finger } => {
                write!(f, "stale finger {finger} at node {node}")
            }
            DynError::DensityViolation { node, dead, total } => {
                write!(f, "density violation at node {node}: {dead}/{total} dead")
            }
            DynError::SupremumKey { node } => {
                write!(f, "reserved SUPREMUM key used at node {node}")
            }
        }
    }
}

impl std::error::Error for DynError {}
