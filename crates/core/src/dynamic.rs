//! Dynamic cooperative search — the paper's open problem 4.
//!
//! Section 5 lists "cooperative update in dynamic data structures" as
//! open, noting that *sequential* dynamic fractional cascading achieves
//! `O(log log n)` update time (Mehlhorn–Näher, reference [14]). This
//! module provides the standard **global rebuilding** baseline on top of
//! the static structure:
//!
//! * insertions and deletions are buffered per node (ordered sets);
//! * a search runs the static cooperative search and *corrects* each
//!   node's answer against the buffers (skip deleted static entries
//!   forward, race against the best buffered insertion) — `O(1 + d_v)`
//!   extra per node, where `d_v` is the deleted run at the answer;
//! * when the total buffered-change count exceeds a fraction of `n`, the
//!   whole structure is rebuilt from the logical catalogs, amortising the
//!   `O(n)` rebuild over `Θ(n)` updates.
//!
//! The result: exact dynamic queries at `O((log n)/log p)` + buffer
//! overhead, `O(1)` amortised-per-update buffering plus the amortised
//! rebuild — a baseline against which a true cooperative dynamic scheme
//! (still open) can be compared. Costs are charged to the usual [`Pram`].
//!
//! **Incremental mode** ([`DynamicCoop::new_incremental`]) replaces the
//! buffers with `fc_dyn`'s slot-arena cascade: each update patches
//! bridges and samples only along the affected node-to-root path, so
//! update cost is per key touched rather than per structure, and every
//! update is visible to [`DynamicCoop::search`] immediately. The static
//! structure then lags until the next (rare) rebuild — triggered only by
//! a density-invariant violation, detected corruption, or an explicit
//! [`DynamicCoop::force_rebuild`] — which doubles as compaction: the
//! cascade is rebuilt tombstone-free from its live catalogs. The
//! clone-and-rebuild path thus remains the always-correct fallback
//! behind the fast path.

use crate::explicit::coop_search_explicit;
use crate::params::ParamMode;
use crate::structure::CoopStructure;
use fc_catalog::{invariants, CatalogKey, CatalogTree, NodeId};
use fc_dyn::{DynCascade, DynConfig, DynError, QueryReport};
use fc_pram::cost::Pram;
use std::collections::BTreeSet;
use std::sync::Arc;

pub use fc_catalog::UpdateOp;

/// Snapshot of the rebuild/generation counters, for the serving layer's
/// epoch bookkeeping and the amortisation experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenStats {
    /// Monotone generation id: the generation of the structure this
    /// wrapper started from (see [`DynamicCoop::wrap`]; 0 for a fresh
    /// tree), bumped by exactly 1 on every rebuild. The static structure
    /// returned by [`DynamicCoop::structure`] is the one produced by
    /// generation `generation`.
    pub generation: u64,
    /// Rebuilds this wrapper performed (`generation` minus the starting
    /// generation).
    pub rebuilds: u64,
    /// Buffered changes drained into the logical catalogs by the most
    /// recent rebuild.
    pub last_drained: usize,
    /// Buffered changes drained across all rebuilds.
    pub total_drained: usize,
    /// Changes buffered since the last rebuild.
    pub pending: usize,
    /// Rebuilds whose post-rebuild structural self-audit failed (must stay
    /// 0 — a nonzero value means the rebuild itself produced an invalid
    /// structure).
    pub audit_failures: u64,
    /// Incremental-mode: updates applied on the fast in-place path
    /// (zero in buffered mode).
    pub incremental_applies: u64,
    /// Incremental-mode: full clone-and-rebuild fallbacks forced by
    /// density violations or detected corruption (a subset of
    /// `rebuilds`; explicit `force_rebuild` calls are not counted here).
    pub fallback_rebuilds: u64,
    /// Incremental-mode: cumulative per-key-touched cost (nodes + slots
    /// walked) across all incremental applies.
    pub keys_touched: u64,
    /// Incremental-mode gauge: live native entries in the cascade.
    pub live_entries: u64,
    /// Incremental-mode gauge: tombstoned slots awaiting compaction.
    pub tombstones: u64,
}

impl GenStats {
    /// Fraction of cascade slots that are tombstones (0 outside
    /// incremental mode or when empty).
    pub fn tombstone_ratio(&self) -> f64 {
        let total = self.live_entries + self.tombstones;
        if total == 0 {
            0.0
        } else {
            self.tombstones as f64 / total as f64
        }
    }
}

/// A buffer-consistency violation found by [`DynamicCoop::audit_buffers`].
///
/// The insert/delete buffers are *authoritative* state (like the native
/// catalogs), but they obey invariants the update path maintains by
/// construction; a violated invariant means the buffers were corrupted
/// behind the API's back (fault injection, memory error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferBlame {
    /// `ins[node]` contains a key that is already present in the static
    /// catalog ([`DynamicCoop::insert`] never buffers such a key).
    InsDuplicatesStatic {
        /// Arena index of the node.
        node: u32,
    },
    /// `del[node]` contains a key absent from the static catalog
    /// ([`DynamicCoop::remove`] only buffers statically present keys).
    DelPhantom {
        /// Arena index of the node.
        node: u32,
    },
    /// `ins[node]` and `del[node]` overlap (the update path always removes
    /// from one before inserting into the other).
    InsDelOverlap {
        /// Arena index of the node.
        node: u32,
    },
    /// The change counter is inconsistent with the buffer sizes: every
    /// buffered op changes exactly one buffer element, so
    /// `changes >= Σ|ins| + Σ|del|` and both sides have equal parity.
    CounterMismatch {
        /// The stored counter.
        changes: usize,
        /// Total buffered elements.
        buffered: usize,
    },
    /// Incremental mode: the cascade's own structural audit found dirt
    /// (corrupt bridge/link/order, stale finger, density violation).
    IncrementalDirty {
        /// Arena index of the node the cascade audit blamed.
        node: u32,
    },
}

/// A dynamic wrapper over the cooperative structure.
///
/// The static structure is shared and immutable: [`DynamicCoop::structure`]
/// hands out the `Arc` a serving layer publishes, a rebuild swaps in a new
/// one, and the in-place repair and fault-injection hooks copy it first
/// when anyone else still holds it.
pub struct DynamicCoop<K: CatalogKey> {
    st: Arc<CoopStructure<K>>,
    ins: Vec<BTreeSet<K>>,
    del: Vec<BTreeSet<K>>,
    changes: usize,
    mode: ParamMode,
    /// Rebuild when `changes > max(rebuild_min, frac * n)`.
    frac: f64,
    rebuild_min: usize,
    /// Number of rebuilds performed (for the amortisation experiment).
    pub rebuilds: u64,
    gen: GenStats,
    /// Incremental cascade (`None` = classic buffered mode).
    incr: Option<DynCascade<K>>,
    /// Ops whose incremental apply aborted on typed corruption, awaiting
    /// re-apply after the fallback rebuild. Never dropped silently.
    retry: Vec<UpdateOp<K>>,
}

impl<K: CatalogKey> DynamicCoop<K> {
    /// Preprocess `tree` and wrap the result (see [`DynamicCoop::wrap`]).
    /// `frac` is the rebuild threshold as a fraction of the current total
    /// catalog size (`0 < frac`; 0.25 is a reasonable default).
    pub fn new(tree: CatalogTree<K>, mode: ParamMode, frac: f64) -> Self {
        Self::wrap(
            Arc::new(CoopStructure::preprocess(tree, mode)),
            0,
            mode,
            frac,
        )
    }

    /// Wrap an already preprocessed structure without copying it: the
    /// wrapper shares `st` with every other holder (peer replicas,
    /// published generations) until a rebuild replaces it. `generation` is
    /// the generation that produced `st` (0 for a fresh tree); the
    /// wrapper's [`GenStats::generation`] counts on from it. Rebuilds
    /// preprocess with `mode`.
    pub fn wrap(st: Arc<CoopStructure<K>>, generation: u64, mode: ParamMode, frac: f64) -> Self {
        assert!(frac > 0.0);
        let nodes = st.tree().len();
        DynamicCoop {
            st,
            ins: vec![BTreeSet::new(); nodes],
            del: vec![BTreeSet::new(); nodes],
            changes: 0,
            mode,
            frac,
            rebuild_min: 64,
            rebuilds: 0,
            gen: GenStats {
                generation,
                ..GenStats::default()
            },
            incr: None,
            retry: Vec::new(),
        }
    }

    /// Like [`DynamicCoop::new`], but updates take `fc_dyn`'s incremental
    /// path: in-place node-to-root patches with per-key-touched cost,
    /// immediately visible to [`DynamicCoop::search`]. The buffered
    /// clone-and-rebuild machinery stays in place as the always-correct
    /// fallback (density violation, detected corruption, or explicit
    /// [`DynamicCoop::force_rebuild`]).
    pub fn new_incremental(tree: CatalogTree<K>, mode: ParamMode, frac: f64) -> Self {
        Self::new_incremental_with(tree, mode, frac, DynConfig::default())
    }

    /// [`DynamicCoop::new_incremental`] with explicit compaction thresholds.
    pub fn new_incremental_with(
        tree: CatalogTree<K>,
        mode: ParamMode,
        frac: f64,
        cfg: DynConfig,
    ) -> Self {
        Self::new(tree, mode, frac).into_incremental(cfg)
    }

    /// Switch a freshly built wrapper to incremental mode: build `fc_dyn`'s
    /// cascade over the (shared) structure's catalogs. Nothing is buffered
    /// yet, so no update is lost by the switch.
    pub fn into_incremental(mut self, cfg: DynConfig) -> Self {
        debug_assert_eq!(self.changes, 0, "switch modes before the first update");
        self.incr = Some(DynCascade::build(self.st.tree(), cfg));
        self
    }

    /// Whether updates take the incremental path.
    pub fn incremental(&self) -> bool {
        self.incr.is_some()
    }

    /// The incremental cascade, when in incremental mode.
    pub fn incremental_cascade(&self) -> Option<&DynCascade<K>> {
        self.incr.as_ref()
    }

    /// The underlying static structure (rebuilt lazily), as the shared
    /// `Arc` a publish hands out without copying.
    pub fn structure(&self) -> &Arc<CoopStructure<K>> {
        &self.st
    }

    /// Buffered changes since the last rebuild.
    pub fn pending_changes(&self) -> usize {
        self.changes
    }

    /// The buffered (not yet drained) insertions at `node`.
    pub fn buffered_inserts(&self, node: NodeId) -> &BTreeSet<K> {
        &self.ins[node.idx()]
    }

    /// The buffered (not yet drained) deletions at `node`.
    pub fn buffered_deletes(&self, node: NodeId) -> &BTreeSet<K> {
        &self.del[node.idx()]
    }

    /// Insert `key` into `node`'s catalog. No-op if the key is already
    /// logically present.
    pub fn insert(&mut self, node: NodeId, key: K, pram: &mut Pram) {
        if self.incr.is_some() {
            let fallback = self.incr_apply(UpdateOp::Insert(node, key), pram);
            self.settle_incremental(fallback, pram);
            return;
        }
        self.buffer_insert(node, key, pram);
        self.maybe_rebuild(pram);
    }

    /// Delete `key` from `node`'s catalog. No-op if absent.
    pub fn remove(&mut self, node: NodeId, key: K, pram: &mut Pram) {
        if self.incr.is_some() {
            let fallback = self.incr_apply(UpdateOp::Remove(node, key), pram);
            self.settle_incremental(fallback, pram);
            return;
        }
        self.buffer_remove(node, key, pram);
        self.maybe_rebuild(pram);
    }

    /// Apply a batch of updates **atomically with respect to rebuilds**: no
    /// rebuild can fire while the batch is partially applied, so a rebuild
    /// (and hence any generation published from it by the serving layer)
    /// observes either none or all of the batch. The rebuild check runs
    /// once, after the last op. Returns `true` if that check rebuilt.
    ///
    /// In incremental mode each op patches the cascade in place and the
    /// commit-point check only rebuilds on a fallback trigger (density
    /// violation or detected corruption), so the return value stays
    /// "`true` iff the static structure is fresh to publish".
    pub fn apply_batch(&mut self, ops: &[UpdateOp<K>], pram: &mut Pram) -> bool {
        if self.incr.is_some() {
            let mut fallback = false;
            for &op in ops {
                fallback |= self.incr_apply(op, pram);
            }
            return self.settle_incremental(fallback, pram);
        }
        for &op in ops {
            match op {
                UpdateOp::Insert(node, key) => self.buffer_insert(node, key, pram),
                UpdateOp::Remove(node, key) => self.buffer_remove(node, key, pram),
            }
        }
        self.maybe_rebuild(pram)
    }

    /// One op on the incremental path. Returns `true` when the cascade
    /// asks for the clone-and-rebuild fallback (corruption detected or
    /// density bound crossed). A corrupted apply parks the op in the
    /// retry queue — it is never lost; `settle_incremental` rebuilds
    /// from the authoritative flat arenas and re-applies it.
    fn incr_apply(&mut self, op: UpdateOp<K>, pram: &mut Pram) -> bool {
        let Some(dc) = self.incr.as_mut() else {
            return false;
        };
        let res = match op {
            UpdateOp::Insert(node, key) => dc.apply_insert(node, key),
            UpdateOp::Remove(node, key) => dc.apply_remove(node, key),
        };
        match res {
            Ok(rep) => {
                pram.seq(1 + rep.cost() as usize);
                self.gen.incremental_applies += 1;
                self.gen.keys_touched += rep.cost() as u64;
                if !rep.noop {
                    self.changes += 1;
                }
                dc.needs_compaction().is_some()
            }
            Err(_) => {
                self.changes += 1;
                self.retry.push(op);
                true
            }
        }
    }

    /// Commit-point check for the incremental path: rebuild (compact)
    /// when any op of the batch tripped a fallback trigger, then drain
    /// the retry queue against the fresh cascade. An op that fails even
    /// on a freshly built cascade is a builder bug; it is surfaced as an
    /// `audit_failures` tick, never silently dropped mid-queue.
    fn settle_incremental(&mut self, fallback: bool, pram: &mut Pram) -> bool {
        let density = self
            .incr
            .as_ref()
            .is_some_and(|dc| dc.needs_compaction().is_some());
        if !(fallback || density) {
            return false;
        }
        self.gen.fallback_rebuilds += 1;
        self.force_rebuild(pram);
        let retry = std::mem::take(&mut self.retry);
        for op in retry {
            if let Some(dc) = self.incr.as_mut() {
                let res = match op {
                    UpdateOp::Insert(node, key) => dc.apply_insert(node, key),
                    UpdateOp::Remove(node, key) => dc.apply_remove(node, key),
                };
                match res {
                    Ok(rep) => {
                        pram.seq(1 + rep.cost() as usize);
                        self.gen.incremental_applies += 1;
                        self.gen.keys_touched += rep.cost() as u64;
                    }
                    Err(_) => self.gen.audit_failures += 1,
                }
            }
        }
        true
    }

    /// Buffer an insert without checking the rebuild threshold.
    fn buffer_insert(&mut self, node: NodeId, key: K, pram: &mut Pram) {
        debug_assert!(key < K::SUPREMUM);
        pram.seq(1);
        if self.del[node.idx()].remove(&key) {
            self.changes += 1;
            return;
        }
        if self.st.tree().catalog(node).binary_search(&key).is_ok() {
            return; // already present statically
        }
        if self.ins[node.idx()].insert(key) {
            self.changes += 1;
        }
    }

    /// Buffer a delete without checking the rebuild threshold.
    fn buffer_remove(&mut self, node: NodeId, key: K, pram: &mut Pram) {
        pram.seq(1);
        if self.ins[node.idx()].remove(&key) {
            self.changes += 1;
            return;
        }
        if self.st.tree().catalog(node).binary_search(&key).is_ok()
            && self.del[node.idx()].insert(key)
        {
            self.changes += 1;
        }
    }

    /// The logical catalog of `node` (static minus deletions plus
    /// insertions; in incremental mode the cascade's live native keys,
    /// recovered by flat arena scan) — `O(catalog)` work; used by tests
    /// and rebuilds.
    pub fn logical_catalog(&self, node: NodeId) -> Vec<K> {
        if let Some(dc) = &self.incr {
            return dc.live_native_catalog(node);
        }
        let mut out: Vec<K> = self
            .st
            .tree()
            .catalog(node)
            .iter()
            .filter(|k| !self.del[node.idx()].contains(k))
            .copied()
            .collect();
        out.extend(self.ins[node.idx()].iter().copied());
        out.sort_unstable();
        // The logical catalog is a set; dedup also keeps a rebuild safe
        // (no strict-order panic in the tree builder) when the insert
        // buffer was corrupted with a statically present key and the
        // rebuild fires before the corruption is audited and repaired.
        out.dedup();
        out
    }

    /// Dynamic cooperative search: for every node on the root-to-leaf
    /// `path`, the smallest *logical* entry `>= y` (`None` = `+∞`).
    ///
    /// In incremental mode this serves from the live cascade (every
    /// applied update visible); a typed cascade error degrades to the
    /// per-node flat-arena scan — correct under arbitrary link/bridge
    /// corruption because the arenas, not the links, are authoritative.
    /// Use [`DynamicCoop::search_checked`] to observe the error itself.
    pub fn search(&self, path: &[NodeId], y: K, pram: &mut Pram) -> Vec<Option<K>> {
        if let Some(dc) = &self.incr {
            let mut out = Vec::with_capacity(path.len());
            let mut rep = QueryReport::default();
            match dc.search_path_into(path, y, &mut out, &mut rep) {
                Ok(()) => {
                    pram.seq(1 + (rep.slots_walked + rep.bridge_hops) as usize);
                    return out;
                }
                Err(_) => {
                    // Degraded read: per-node scan over the flat arenas.
                    return path
                        .iter()
                        .map(|&n| dc.live_native_catalog(n).into_iter().find(|&k| k >= y))
                        .collect();
                }
            }
        }
        let out = coop_search_explicit(&self.st, path, y, pram);
        path.iter()
            .zip(&out.finds)
            .map(|(&node, find)| {
                // Static candidate: skip past deleted entries.
                let cat = self.st.tree().catalog(node);
                let mut idx = find.native_idx as usize;
                let mut skips = 0usize;
                while idx < cat.len() && self.del[node.idx()].contains(&cat[idx]) {
                    idx += 1;
                    skips += 1;
                }
                let static_cand = cat.get(idx).copied();
                // Buffered candidate.
                let ins_cand = self.ins[node.idx()].range(y..).next().copied();
                let buf_len = self.ins[node.idx()].len();
                pram.seq(1 + skips + (usize::BITS - buf_len.leading_zeros()) as usize);
                match (static_cand, ins_cand) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                }
            })
            .collect()
    }

    /// Incremental-mode search that surfaces the cascade's typed error
    /// instead of degrading: callers distinguishing "fast-path answer"
    /// from "corruption detected" (the fault-injection gates) use this.
    /// In buffered mode it never errs.
    pub fn search_checked(
        &self,
        path: &[NodeId],
        y: K,
        pram: &mut Pram,
    ) -> Result<Vec<Option<K>>, DynError> {
        if let Some(dc) = &self.incr {
            let mut out = Vec::with_capacity(path.len());
            let mut rep = QueryReport::default();
            dc.search_path_into(path, y, &mut out, &mut rep)?;
            pram.seq(1 + (rep.slots_walked + rep.bridge_hops) as usize);
            return Ok(out);
        }
        Ok(self.search(path, y, pram))
    }

    fn maybe_rebuild(&mut self, pram: &mut Pram) -> bool {
        let n = self.st.tree().total_catalog_size();
        let threshold = self.rebuild_min.max((n as f64 * self.frac) as usize);
        if self.changes <= threshold {
            return false;
        }
        self.force_rebuild(pram);
        true
    }

    /// Rebuild the static structure from the logical catalogs now,
    /// regardless of the buffered-change threshold: drain the insert/delete
    /// buffers into the catalogs **atomically** (the buffers are read once,
    /// under exclusive access, so no half-applied state is observable), then
    /// re-assert structural cleanliness of the rebuilt cascade. Recovery
    /// calls this once to drain its replay.
    pub fn force_rebuild(&mut self, pram: &mut Pram) {
        let drained = self.changes;
        // Rebuild from the logical catalogs.
        let tree = self.st.tree();
        let parents: Vec<Option<u32>> = tree.ids().map(|id| tree.parent(id).map(|p| p.0)).collect();
        let catalogs: Vec<Vec<K>> = tree.ids().map(|id| self.logical_catalog(id)).collect();
        let new_tree = CatalogTree::from_parents(parents, catalogs);
        // Charge the parallel preprocessing cost (level-synchronous).
        let mut cost = pram.fork();
        self.st = Arc::new(CoopStructure::preprocess_cost(
            new_tree, self.mode, &mut cost,
        ));
        pram.join_max([cost]);
        // Incremental mode: the rebuild doubles as compaction — a fresh
        // tombstone-free cascade over the just-drained catalogs.
        if let Some(dc) = self.incr.take() {
            self.incr = Some(DynCascade::build(self.st.tree(), dc.config()));
        }
        for s in self.ins.iter_mut().chain(self.del.iter_mut()) {
            s.clear();
        }
        self.changes = 0;
        self.rebuilds += 1;
        self.gen.generation += 1;
        self.gen.rebuilds = self.rebuilds;
        self.gen.last_drained = drained;
        self.gen.total_drained += drained;
        // Post-rebuild self-audit: the freshly built cascade must satisfy
        // every fractional-cascading invariant. A failure here is a builder
        // bug, not user corruption — it is counted, never panicked on, so
        // a caller (recovery) can refuse to serve the bad generation.
        if invariants::validate(&invariants::check_all(self.st.cascade())).is_err() {
            self.gen.audit_failures += 1;
        }
    }

    /// Rebuild/generation counters (see [`GenStats`]).
    pub fn gen_stats(&self) -> GenStats {
        let mut gs = GenStats {
            pending: self.changes,
            ..self.gen
        };
        if let Some(dc) = &self.incr {
            let c = dc.counters();
            gs.live_entries = c.live_native;
            gs.tombstones = c.tombstones;
        }
        gs
    }

    /// Check the buffer invariants the update path maintains by
    /// construction (see [`BufferBlame`]). A clean result is `Ok(())`; any
    /// violation means the buffers were corrupted behind the API (fault
    /// injection, memory error) and the next rebuild would bake the
    /// corruption into the catalogs.
    pub fn audit_buffers(&self) -> Result<(), Vec<BufferBlame>> {
        // Incremental mode: the cascade, not the buffers, is the
        // authoritative dynamic state — audit it instead.
        if let Some(dc) = &self.incr {
            return match dc.audit() {
                Ok(()) => Ok(()),
                Err(e) => Err(vec![BufferBlame::IncrementalDirty { node: e.node() }]),
            };
        }
        let mut blames = Vec::new();
        let mut buffered = 0usize;
        for id in self.st.tree().ids() {
            let i = id.idx();
            let native = self.st.tree().catalog(id);
            buffered += self.ins[i].len() + self.del[i].len();
            if self.ins[i].iter().any(|k| native.binary_search(k).is_ok()) {
                blames.push(BufferBlame::InsDuplicatesStatic { node: id.0 });
            }
            if self.del[i].iter().any(|k| native.binary_search(k).is_err()) {
                blames.push(BufferBlame::DelPhantom { node: id.0 });
            }
            if self.ins[i].intersection(&self.del[i]).next().is_some() {
                blames.push(BufferBlame::InsDelOverlap { node: id.0 });
            }
        }
        if self.changes < buffered || !(self.changes - buffered).is_multiple_of(2) {
            blames.push(BufferBlame::CounterMismatch {
                changes: self.changes,
                buffered,
            });
        }
        if blames.is_empty() {
            Ok(())
        } else {
            Err(blames)
        }
    }

    /// Mutable insert/delete buffers and change counter — a fault-injection
    /// hook for `fc-resilience` (buffer corruptions must be *detected* by
    /// [`DynamicCoop::audit_buffers`], never silently baked into a rebuild).
    /// Not part of the stable API.
    #[doc(hidden)]
    #[allow(clippy::type_complexity)]
    pub fn buffers_mut_for_fault_injection(
        &mut self,
    ) -> (&mut Vec<BTreeSet<K>>, &mut Vec<BTreeSet<K>>, &mut usize) {
        (&mut self.ins, &mut self.del, &mut self.changes)
    }

    /// Mutable static structure — hook for audit-guided repair and for
    /// fault injection.
    /// Copy on write: when a published generation or a peer replica still
    /// shares the structure, this wrapper first takes a private copy, so
    /// the write never reaches them. Not part of the stable API.
    #[doc(hidden)]
    pub fn structure_mut_for_repair(&mut self) -> &mut CoopStructure<K> {
        Arc::make_mut(&mut self.st)
    }

    /// Mutable incremental cascade — fault-injection hook (corruptions
    /// must surface as typed errors/audit dirt, never wrong answers).
    /// Not part of the stable API.
    #[doc(hidden)]
    pub fn incremental_mut_for_fault_injection(&mut self) -> Option<&mut DynCascade<K>> {
        self.incr.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_catalog::gen::{self, SizeDist};
    use fc_pram::Model;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn brute(dy: &DynamicCoop<i64>, path: &[NodeId], y: i64) -> Vec<Option<i64>> {
        path.iter()
            .map(|&node| dy.logical_catalog(node).into_iter().find(|&k| k >= y))
            .collect()
    }

    #[test]
    fn dynamic_search_matches_brute_force_through_updates() {
        let mut rng = SmallRng::seed_from_u64(801);
        let tree = gen::balanced_binary(7, 4000, SizeDist::Uniform, &mut rng);
        let mut dy = DynamicCoop::new(tree, ParamMode::Auto, 0.25);
        let mut pram = Pram::new(1 << 14, Model::Crew);
        let node_count = dy.structure().tree().len();
        for step in 0..3000 {
            let node = NodeId(rng.gen_range(0..node_count as u32));
            let key = rng.gen_range(0..64_000i64);
            if rng.gen_bool(0.6) {
                dy.insert(node, key, &mut pram);
            } else {
                dy.remove(node, key, &mut pram);
            }
            if step % 150 == 0 {
                let leaf = gen::random_leaf(dy.structure().tree(), &mut rng);
                let path = dy.structure().tree().path_from_root(leaf);
                let y = rng.gen_range(-5..64_005i64);
                let got = dy.search(&path, y, &mut pram);
                assert_eq!(got, brute(&dy, &path, y), "step {step}");
            }
        }
        assert!(dy.rebuilds > 0, "enough churn must trigger rebuilds");
    }

    #[test]
    fn delete_then_search_skips_deleted_entries() {
        let mut rng = SmallRng::seed_from_u64(803);
        let tree = gen::balanced_binary(5, 800, SizeDist::Uniform, &mut rng);
        let mut dy = DynamicCoop::new(tree, ParamMode::Auto, 10.0); // never rebuild
        let mut pram = Pram::new(64, Model::Crew);
        let leaf = dy.structure().tree().leaves()[0];
        let path = dy.structure().tree().path_from_root(leaf);
        // Delete the first few entries of the root catalog and search below
        // them.
        let root = path[0];
        let first: Vec<i64> = dy
            .structure()
            .tree()
            .catalog(root)
            .iter()
            .take(3)
            .copied()
            .collect();
        for &k in &first {
            dy.remove(root, k, &mut pram);
        }
        let got = dy.search(&path, i64::MIN, &mut pram);
        let expect = dy.logical_catalog(root).first().copied();
        assert_eq!(got[0], expect);
    }

    #[test]
    fn insert_visible_immediately_and_idempotent() {
        let mut rng = SmallRng::seed_from_u64(805);
        let tree = gen::balanced_binary(4, 200, SizeDist::Uniform, &mut rng);
        let mut dy = DynamicCoop::new(tree, ParamMode::Auto, 10.0);
        let mut pram = Pram::new(64, Model::Crew);
        let leaf = dy.structure().tree().leaves()[0];
        let path = dy.structure().tree().path_from_root(leaf);
        let node = path[1];
        dy.insert(node, 7777, &mut pram);
        dy.insert(node, 7777, &mut pram); // idempotent
        let got = dy.search(&path, 7777, &mut pram);
        assert_eq!(got[1], Some(7777));
        // Remove it again: gone.
        dy.remove(node, 7777, &mut pram);
        let got = dy.search(&path, 7777, &mut pram);
        assert_ne!(got[1], Some(7777));
    }

    #[test]
    fn rebuild_amortisation_bounds_total_steps() {
        let mut rng = SmallRng::seed_from_u64(807);
        let tree = gen::balanced_binary(6, 2000, SizeDist::Uniform, &mut rng);
        let mut dy = DynamicCoop::new(tree, ParamMode::Auto, 0.25);
        let mut pram = Pram::new(1 << 12, Model::Crew);
        let updates = 4000usize;
        for _ in 0..updates {
            let node = NodeId(rng.gen_range(0..dy.structure().tree().len() as u32));
            dy.insert(node, rng.gen_range(0..1_000_000i64), &mut pram);
        }
        assert!(dy.rebuilds >= 2);
        // Amortised steps per update stay polylogarithmic-ish: the rebuild
        // cost is O(n polylog / p) and is triggered every Theta(n) updates.
        let per_update = pram.steps() as f64 / updates as f64;
        assert!(
            per_update < 50.0,
            "amortised steps per update too high: {per_update}"
        );
    }

    #[test]
    fn batch_apply_defers_rebuild_to_the_commit_point() {
        let mut rng = SmallRng::seed_from_u64(811);
        let tree = gen::balanced_binary(6, 2000, SizeDist::Uniform, &mut rng);
        let mut dy = DynamicCoop::new(tree, ParamMode::Auto, 0.25);
        let mut pram = Pram::new(1 << 12, Model::Crew);
        let node_count = dy.structure().tree().len() as u32;
        // A batch big enough to cross the rebuild threshold several times
        // over must still rebuild at most once — at the commit point — so a
        // generation can never observe a half-applied batch.
        let ops: Vec<UpdateOp<i64>> = (0..3000)
            .map(|_| {
                let node = NodeId(rng.gen_range(0..node_count));
                let key = rng.gen_range(0..1_000_000i64);
                if rng.gen_bool(0.7) {
                    UpdateOp::Insert(node, key)
                } else {
                    UpdateOp::Remove(node, key)
                }
            })
            .collect();
        let before = dy.rebuilds;
        let rebuilt = dy.apply_batch(&ops, &mut pram);
        assert!(rebuilt, "3000 changes must cross the threshold");
        assert_eq!(dy.rebuilds, before + 1, "exactly one rebuild, at commit");
        assert_eq!(dy.pending_changes(), 0, "commit drained the buffers");
        // The drained state matches replaying the same ops one by one.
        let mut rng2 = SmallRng::seed_from_u64(811);
        let tree2 = gen::balanced_binary(6, 2000, SizeDist::Uniform, &mut rng2);
        let mut dy2 = DynamicCoop::new(tree2, ParamMode::Auto, 0.25);
        let mut pram2 = Pram::new(1 << 12, Model::Crew);
        for &op in &ops {
            match op {
                UpdateOp::Insert(n, k) => dy2.insert(n, k, &mut pram2),
                UpdateOp::Remove(n, k) => dy2.remove(n, k, &mut pram2),
            }
        }
        for id in dy.structure().tree().ids() {
            assert_eq!(dy.logical_catalog(id), dy2.logical_catalog(id));
        }
    }

    #[test]
    fn every_rebuild_reaudits_clean_and_bumps_the_generation() {
        let mut rng = SmallRng::seed_from_u64(813);
        let tree = gen::balanced_binary(6, 2000, SizeDist::Uniform, &mut rng);
        let mut dy = DynamicCoop::new(tree, ParamMode::Auto, 0.1);
        let mut pram = Pram::new(1 << 12, Model::Crew);
        let node_count = dy.structure().tree().len() as u32;
        for _ in 0..4000 {
            let node = NodeId(rng.gen_range(0..node_count));
            dy.insert(node, rng.gen_range(0..1_000_000i64), &mut pram);
        }
        let gs = dy.gen_stats();
        assert!(gs.rebuilds >= 2);
        assert_eq!(gs.generation, gs.rebuilds);
        assert_eq!(gs.audit_failures, 0, "rebuilds must re-audit clean");
        assert!(gs.total_drained > 0);
        assert!(dy.audit_buffers().is_ok());
    }

    #[test]
    fn force_rebuild_drains_pending_changes() {
        let mut rng = SmallRng::seed_from_u64(815);
        let tree = gen::balanced_binary(5, 800, SizeDist::Uniform, &mut rng);
        let mut dy = DynamicCoop::new(tree, ParamMode::Auto, 100.0); // never auto-rebuild
        let mut pram = Pram::new(64, Model::Crew);
        let root = dy.structure().tree().root();
        dy.insert(root, 123_456_789, &mut pram);
        assert_eq!(dy.pending_changes(), 1);
        dy.force_rebuild(&mut pram);
        assert_eq!(dy.pending_changes(), 0);
        assert_eq!(dy.gen_stats().last_drained, 1);
        // Drained key is now in the static catalog.
        assert!(dy
            .structure()
            .tree()
            .catalog(root)
            .binary_search(&123_456_789)
            .is_ok());
    }

    #[test]
    fn corrupted_buffers_are_blamed() {
        let mut rng = SmallRng::seed_from_u64(817);
        let tree = gen::balanced_binary(5, 800, SizeDist::Uniform, &mut rng);
        let mut dy = DynamicCoop::new(tree, ParamMode::Auto, 100.0);
        let mut pram = Pram::new(64, Model::Crew);
        let root = dy.structure().tree().root();
        dy.insert(root, 77_777_777, &mut pram);
        assert!(dy.audit_buffers().is_ok());
        // A statically present key smuggled into the insert buffer.
        let stat = dy.structure().tree().catalog(root)[0];
        {
            let (ins, _, _) = dy.buffers_mut_for_fault_injection();
            ins[root.idx()].insert(stat);
        }
        let blames = dy.audit_buffers().unwrap_err();
        assert!(blames
            .iter()
            .any(|b| matches!(b, BufferBlame::InsDuplicatesStatic { node } if *node == root.0)));
    }

    #[test]
    fn incremental_search_matches_brute_force_through_updates() {
        let mut rng = SmallRng::seed_from_u64(821);
        let tree = gen::balanced_binary(6, 3000, SizeDist::Uniform, &mut rng);
        let mut dy = DynamicCoop::new_incremental(tree, ParamMode::Auto, 0.25);
        let mut pram = Pram::new(1 << 14, Model::Crew);
        let node_count = dy.structure().tree().len();
        for step in 0..3000 {
            let node = NodeId(rng.gen_range(0..node_count as u32));
            let key = rng.gen_range(0..64_000i64);
            if rng.gen_bool(0.6) {
                dy.insert(node, key, &mut pram);
            } else {
                dy.remove(node, key, &mut pram);
            }
            if step % 150 == 0 {
                let leaf = gen::random_leaf(dy.structure().tree(), &mut rng);
                let path = dy.structure().tree().path_from_root(leaf);
                let y = rng.gen_range(-5..64_005i64);
                let got = dy.search(&path, y, &mut pram);
                assert_eq!(got, brute(&dy, &path, y), "step {step}");
                let checked = dy.search_checked(&path, y, &mut pram).expect("clean");
                assert_eq!(checked, got);
            }
        }
        let gs = dy.gen_stats();
        assert!(
            gs.incremental_applies >= 3000,
            "every op took the fast path"
        );
        assert!(gs.keys_touched > 0);
        assert!(gs.live_entries > 0);
        assert!(dy.audit_buffers().is_ok());
        // Mean per-update touched cost stays per-key, not per-structure.
        let mean = gs.keys_touched as f64 / gs.incremental_applies as f64;
        assert!(mean < 300.0, "per-update cost too high: {mean}");
    }

    #[test]
    fn incremental_updates_avoid_threshold_rebuild_storms() {
        let mut rng = SmallRng::seed_from_u64(823);
        let tree = gen::balanced_binary(6, 2000, SizeDist::Uniform, &mut rng);
        let mut dy = DynamicCoop::new_incremental(tree, ParamMode::Auto, 0.25);
        let mut pram = Pram::new(1 << 12, Model::Crew);
        let node_count = dy.structure().tree().len() as u32;
        // The same churn that forces >= 2 rebuilds in buffered mode.
        for _ in 0..4000 {
            let node = NodeId(rng.gen_range(0..node_count));
            dy.insert(node, rng.gen_range(0..1_000_000i64), &mut pram);
        }
        // Inserts never create tombstones, so no density fallback either.
        assert_eq!(dy.rebuilds, 0, "no clone-and-rebuild on the fast path");
        assert_eq!(dy.gen_stats().fallback_rebuilds, 0);
    }

    #[test]
    fn incremental_corruption_is_typed_then_heals_by_fallback() {
        let mut rng = SmallRng::seed_from_u64(825);
        let tree = gen::balanced_binary(5, 1500, SizeDist::Uniform, &mut rng);
        let mut dy = DynamicCoop::new_incremental(tree, ParamMode::Auto, 0.25);
        let mut pram = Pram::new(1 << 12, Model::Crew);
        let root = dy.structure().tree().root();
        // Corrupt a bridge behind the API's back.
        assert!(dy
            .incremental_mut_for_fault_injection()
            .expect("incremental")
            .corrupt_bridge_for_fault_injection(root.0));
        // The audit sees it ...
        let blames = dy.audit_buffers().unwrap_err();
        assert!(matches!(blames[0], BufferBlame::IncrementalDirty { .. }));
        // ... checked search is typed or correct, plain search degrades
        // to the correct flat scan, never a wrong answer. Sweep paths
        // into both subtrees so the corrupted bridge is exercised no
        // matter which child it sampled.
        let leaves = dy.structure().tree().leaves();
        let probes = [leaves[0], leaves[leaves.len() - 1]];
        let mut saw_typed = false;
        for &leaf in &probes {
            let path = dy.structure().tree().path_from_root(leaf);
            for y in (0..64_000i64).step_by(997) {
                match dy.search_checked(&path, y, &mut pram) {
                    Ok(ans) => assert_eq!(ans, brute(&dy, &path, y), "y={y}"),
                    Err(_) => saw_typed = true,
                }
                assert_eq!(dy.search(&path, y, &mut pram), brute(&dy, &path, y));
            }
        }
        assert!(saw_typed, "the corrupted bridge must surface typed");
        // Now corrupt a link too: the next insert's locate walk hits the
        // cycle guard, the op parks in the retry queue, and the settle
        // step performs exactly one fallback rebuild that also clears the
        // bridge corruption — and the acked op survives the round trip.
        assert!(dy
            .incremental_mut_for_fault_injection()
            .expect("incremental")
            .corrupt_link_for_fault_injection(root.0));
        let before = dy.gen_stats().fallback_rebuilds;
        for k in 0..200i64 {
            dy.insert(root, 70_000 + k, &mut pram);
        }
        let gs = dy.gen_stats();
        assert!(gs.fallback_rebuilds > before, "the fallback must fire");
        assert!(dy.audit_buffers().is_ok(), "the rebuild heals everything");
        assert_eq!(gs.audit_failures, 0, "no op may be dropped silently");
        // All 200 acked inserts are present, including the parked one.
        let cat = dy.logical_catalog(root);
        for k in 0..200i64 {
            assert!(cat.contains(&(70_000 + k)), "lost acked insert {k}");
        }
    }

    #[test]
    fn incremental_density_violation_triggers_compaction_fallback() {
        let mut rng = SmallRng::seed_from_u64(827);
        let tree = gen::balanced_binary(4, 1200, SizeDist::Uniform, &mut rng);
        let cfg = fc_dyn::DynConfig {
            min_dead: 16,
            dead_frac: 0.1,
        };
        let mut dy = DynamicCoop::new_incremental_with(tree, ParamMode::Auto, 0.25, cfg);
        let mut pram = Pram::new(1 << 12, Model::Crew);
        let root = dy.structure().tree().root();
        let keys = dy.logical_catalog(root);
        for &k in &keys {
            dy.remove(root, k, &mut pram);
        }
        let gs = dy.gen_stats();
        assert!(gs.fallback_rebuilds >= 1, "density must force compaction");
        assert!(dy.audit_buffers().is_ok(), "compaction leaves it clean");
        assert!(dy.logical_catalog(root).is_empty());
    }

    #[test]
    fn supremum_key_rejected_in_debug() {
        // SUPREMUM is reserved; inserting it is a programming error guarded
        // by a debug assertion — here we just verify normal keys work at
        // the extremes.
        let mut rng = SmallRng::seed_from_u64(809);
        let tree = gen::balanced_binary(3, 100, SizeDist::Uniform, &mut rng);
        let mut dy = DynamicCoop::new(tree, ParamMode::Auto, 10.0);
        let mut pram = Pram::new(8, Model::Crew);
        let root = dy.structure().tree().root();
        dy.insert(root, i64::MAX - 1, &mut pram);
        let path = vec![root];
        let got = dy.search(&path, i64::MAX - 1, &mut pram);
        assert_eq!(got[0], Some(i64::MAX - 1));
    }
}
