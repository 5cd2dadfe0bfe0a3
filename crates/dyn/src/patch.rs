//! Patch accounting: per-update cost reports, the bounded patch log, and
//! the cascade-wide counters the serving layer surfaces as write-path
//! health.

/// Sampling rate `s`: at build time every `s`-th augmented entry of a
/// child is mirrored into its parent (the static builder's rate).
pub(crate) const SAMPLE: usize = 4;
/// Split a block (the live run between consecutive samples of one child)
/// when it exceeds this many live entries: `2 * s`.
pub(crate) const BLOCK_HI: u32 = 8;
/// Merge (tombstone a bounding sample) when a block shrinks below this
/// many live entries: `max(1, s / 2)`.
pub(crate) const BLOCK_LO: u32 = 2;
/// Target gap between finger entries; a locate that walked more than
/// `2 * FINGER_GAP` slots densifies its gap.
pub(crate) const FINGER_GAP: u32 = 32;
/// Forward-walk budget for bridge descent before falling back to the
/// child's finger index (counted, not an error).
pub(crate) const WALK_BUDGET: u32 = 256;
/// How many recent [`PatchReport`]s the [`PatchLog`] retains.
pub(crate) const LOG_CAP: usize = 64;

/// Compaction thresholds for the incremental cascade.
///
/// The cascade's shape is fixed: it samples at the static builder's rate
/// with a 2:1 hysteresis band around it, so a freshly built
/// [`DynCascade`](crate::DynCascade) starts in the middle of its comfort
/// zone and neither splits nor merges on the first update.
#[derive(Debug, Clone, Copy)]
pub struct DynConfig {
    /// A node is compaction-due when `dead > max(min_dead, dead_frac *
    /// total)`.
    pub dead_frac: f64,
    /// Absolute tombstone allowance before density is even considered.
    pub min_dead: u32,
}

impl Default for DynConfig {
    fn default() -> Self {
        DynConfig {
            dead_frac: 0.5,
            min_dead: 64,
        }
    }
}

/// The cost of one incremental update, in units of structure touched.
///
/// `nodes_touched + slots_walked` is the "per key touched" metric the
/// ROADMAP asks for: it is independent of the structure size except
/// through the node-to-root path length and the hysteresis constants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchReport {
    /// The operation changed nothing (duplicate insert, absent delete).
    pub noop: bool,
    /// Nodes whose lists were modified (1 + propagation height).
    pub nodes_touched: u32,
    /// Linked-list slots stepped over across all walks of this patch.
    pub slots_walked: u32,
    /// Samples promoted into parents (block splits).
    pub samples_added: u32,
    /// Samples tombstoned in parents (block merges + delete chains).
    pub samples_dropped: u32,
    /// Finger entries added to densify an over-long gap.
    pub fingers_added: u32,
}

impl PatchReport {
    /// The scalar per-key-touched cost of this patch.
    pub fn cost(&self) -> u32 {
        self.nodes_touched + self.slots_walked
    }
}

/// The cost of one path query through the incremental cascade.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryReport {
    /// Linked-list slots stepped over across all walks.
    pub slots_walked: u32,
    /// Bridges crossed (one per descended level on the fast path).
    pub bridge_hops: u32,
    /// Descents that exhausted the walk budget and re-entered through the
    /// child's finger index instead (correct, just slower).
    pub finger_fallbacks: u32,
}

/// A bounded ring of the most recent [`PatchReport`]s plus a lifetime
/// total, for operators asking "what did the last updates cost?".
#[derive(Debug, Clone, Default)]
pub struct PatchLog {
    buf: Vec<PatchReport>,
    cap: usize,
    cursor: usize,
    total: u64,
}

impl PatchLog {
    /// An empty log retaining at most `cap` reports.
    pub fn new(cap: usize) -> Self {
        PatchLog {
            buf: Vec::new(),
            cap: cap.max(1),
            cursor: 0,
            total: 0,
        }
    }

    /// Record one patch (overwrites the oldest once full).
    pub fn push(&mut self, rep: PatchReport) {
        if self.buf.len() < self.cap {
            self.buf.push(rep);
        } else if let Some(slot) = self.buf.get_mut(self.cursor) {
            *slot = rep;
        }
        self.cursor = (self.cursor + 1) % self.cap;
        self.total += 1;
    }

    /// The retained reports, oldest-overwritten ring order.
    pub fn recent(&self) -> &[PatchReport] {
        &self.buf
    }

    /// Lifetime patches recorded.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Cascade-wide write-path counters (monotone except the live/dead
/// gauges), surfaced through `GenStats` and the net health report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DynCounters {
    /// Structure-changing incremental applies (noops excluded).
    pub applies: u64,
    /// Updates that changed nothing.
    pub noops: u64,
    /// Cumulative per-key-touched cost over all applies.
    pub cost_total: u64,
    /// Live native entries across all nodes (gauge).
    pub live_native: u64,
    /// Tombstoned slots across all nodes (gauge).
    pub tombstones: u64,
    /// Samples promoted over the cascade lifetime.
    pub samples_added: u64,
    /// Samples tombstoned over the cascade lifetime.
    pub samples_dropped: u64,
}

impl DynCounters {
    /// Fraction of all slots that are tombstones (0 when empty).
    pub fn tombstone_ratio(&self) -> f64 {
        let total = self.live_native + self.tombstones;
        if total == 0 {
            0.0
        } else {
            self.tombstones as f64 / total as f64
        }
    }
}
