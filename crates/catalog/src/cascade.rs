//! The fractional cascaded structure `S` (Section 2 of the paper).
//!
//! Every node's native catalog is *augmented* with a `1/s` sample of each
//! child's augmented catalog (plus a terminal `+∞`), and every augmented
//! entry stores:
//!
//! * `native_succ` — the position of the smallest **native** entry `>=` the
//!   augmented key, which converts an augmented-catalog location into the
//!   `find(y, v)` answer the application wants;
//! * one **bridge** per child — the position of the smallest entry `>=` the
//!   augmented key in that child's augmented catalog.
//!
//! With sampling factor `s` strictly greater than the node degree, the total
//! augmented size is `O(n)` and the structure satisfies the paper's three
//! properties (Section 2):
//!
//! 1. *Fan-out*: `find(y, w)` lies within `b = s - 1` entries of
//!    `bridge[v, w, find(y, v)]`.
//! 2. Adjacent entries of `v` bridge to positions at most `2b + 1` apart in
//!    a child.
//! 3. Bridges never cross (they are monotone in the entry order).
//!
//! Properties 1 and 3 hold by construction (verified by
//! [`crate::invariants`]); property 2 is implied and measured by the
//! Figure 4 experiment.
//!
//! **Storage (DESIGN.md §14).** The whole structure lives in a
//! [`CascadeArena`]: one flat `Vec<K>` holding every node's augmented
//! catalog back to back with per-node `(offset, len)` `u32` spans, a
//! parallel flat `u32` array for the native successors, and one flat `u32`
//! array for all bridges (node-major, one `t_v`-long row per child slot).
//! A descent step therefore touches three contiguous arrays instead of
//! chasing `Vec<Vec<_>>` pointers, the probe itself is std's
//! `partition_point`, and publishing a new generation is a handful of
//! memcpys. Per-node access goes through the borrowed views
//! [`CascadedNodeRef`] / [`CascadedNodeMut`].
//!
//! Three builders are provided: [`CascadedTree::build`] (sequential
//! bottom-up), [`CascadedTree::build_par`] (rayon, level-synchronous), and
//! [`CascadedTree::build_cost`] (level-synchronous with EREW PRAM cost
//! accounting). All three produce bit-identical structures; the
//! level-synchronous schedule costs `O(log² n)` PRAM steps, a relaxation of
//! the `O(log n)` pipelined schedule of Atallah–Cole–Goodrich [1]
//! (documented in DESIGN.md; the pipelined *cost schedule* is available as
//! [`CascadedTree::pipelined_depth_estimate`] for the preprocessing
//! experiment). Construction stages per-node `Vec`s (cold path) and then
//! publishes them into the arena in one flattening pass, which is what
//! keeps every builder bit-identical to the pre-arena layout.

use crate::error::FcError;
use crate::key::CatalogKey;
use crate::tree::{CatalogTree, NodeId};
use fc_pram::cost::Pram;
use fc_pram::shadow::Tracer;
use rayon::prelude::*;
use std::sync::Arc;

/// Flat structure-of-arrays storage for every node's augmented catalog,
/// native-successor table, and bridge rows (DESIGN.md §14).
///
/// Span invariants, enforced at publish time:
///
/// * `key_off` has `nodes + 1` monotone entries; node `v`'s augmented keys
///   and native successors are the parallel slices
///   `keys[key_off[v]..key_off[v + 1]]` /
///   `native_succ[key_off[v]..key_off[v + 1]]`, always non-empty (the
///   terminal `+∞` guarantees `t_v >= 1`);
/// * `bridge_off` has `nodes + 1` monotone entries; node `v`'s block
///   `bridges[bridge_off[v]..bridge_off[v + 1]]` is `degree(v)` rows of
///   exactly `t_v` entries each (row = child slot, in child order);
/// * all offsets are `u32`, so the structure caps at `2^32 - 1` augmented
///   entries — far above the paper's `O(n)` regimes, and half the index
///   width of a pointer-per-node layout.
///
/// Cloning the arena is five `memcpy`s, which is what makes generation
/// publish in `fc-serve` cheap, and the flat sections encode/decode into
/// snapshots without per-node walks.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeArena<K> {
    /// Every augmented catalog, node-major.
    keys: Vec<K>,
    /// `native_succ[i]` parallel to `keys[i]`.
    native_succ: Vec<u32>,
    /// Key/native-successor span offsets (`nodes + 1` entries).
    key_off: Vec<u32>,
    /// All bridge rows, node-major then slot-major.
    bridges: Vec<u32>,
    /// Bridge block offsets (`nodes + 1` entries).
    bridge_off: Vec<u32>,
}

impl<K: CatalogKey> CascadeArena<K> {
    /// Flatten staged per-node buffers into the arena, checking the span
    /// invariants once here so every later access can trust them.
    fn publish(bufs: Vec<NodeBuf<K>>) -> Self {
        let total_keys: usize = bufs.iter().map(|b| b.keys.len()).sum();
        let total_bridges: usize = bufs.iter().map(|b| b.keys.len() * b.bridges.len()).sum();
        assert!(
            total_keys < u32::MAX as usize && total_bridges < u32::MAX as usize,
            "augmented structure exceeds u32 spans"
        );
        let mut keys = Vec::with_capacity(total_keys);
        let mut native_succ = Vec::with_capacity(total_keys);
        let mut key_off = Vec::with_capacity(bufs.len() + 1);
        let mut bridges = Vec::with_capacity(total_bridges);
        let mut bridge_off = Vec::with_capacity(bufs.len() + 1);
        for buf in bufs {
            let t = buf.keys.len();
            assert!(t >= 1, "augmented catalog missing its terminal +inf");
            assert_eq!(t, buf.native_succ.len(), "native_succ span mismatch");
            key_off.push(keys.len() as u32);
            bridge_off.push(bridges.len() as u32);
            keys.extend(buf.keys);
            native_succ.extend(buf.native_succ);
            for row in buf.bridges {
                assert_eq!(t, row.len(), "bridge row span mismatch");
                bridges.extend(row);
            }
        }
        key_off.push(keys.len() as u32);
        bridge_off.push(bridges.len() as u32);
        CascadeArena {
            keys,
            native_succ,
            key_off,
            bridges,
            bridge_off,
        }
    }

    /// Augmented key span of node `v`.
    #[inline]
    fn keys_of(&self, id: NodeId) -> &[K] {
        let lo = self.key_off[id.idx()] as usize;
        let hi = self.key_off[id.idx() + 1] as usize;
        &self.keys[lo..hi]
    }

    /// One native-successor cell — the descent's per-node result read,
    /// without materialising a full node view.
    #[inline]
    fn native_succ_at(&self, id: NodeId, i: usize) -> u32 {
        let lo = self.key_off[id.idx()] as usize;
        self.native_succ[lo + i]
    }

    /// One bridge cell `(v, slot, i)` — the descent's hop read, computed
    /// straight off the flat offsets.
    #[inline]
    fn bridge_at(&self, id: NodeId, slot: usize, i: usize) -> u32 {
        let lo = self.key_off[id.idx()] as usize;
        let hi = self.key_off[id.idx() + 1] as usize;
        let base = self.bridge_off[id.idx()] as usize;
        self.bridges[base + slot * (hi - lo) + i]
    }

    /// Borrowed view of one node's three sections.
    #[inline]
    fn node(&self, id: NodeId) -> CascadedNodeRef<'_, K> {
        let lo = self.key_off[id.idx()] as usize;
        let hi = self.key_off[id.idx() + 1] as usize;
        let blo = self.bridge_off[id.idx()] as usize;
        let bhi = self.bridge_off[id.idx() + 1] as usize;
        CascadedNodeRef {
            keys: &self.keys[lo..hi],
            native_succ: &self.native_succ[lo..hi],
            bridges: BridgeRows {
                data: &self.bridges[blo..bhi],
                row_len: hi - lo,
            },
        }
    }

    /// [`CascadeArena::node`] with every lookup bounds-checked: `None`
    /// instead of a panic on an out-of-range id (the checked-descent path).
    fn node_get(&self, id: NodeId) -> Option<CascadedNodeRef<'_, K>> {
        let lo = *self.key_off.get(id.idx())? as usize;
        let hi = *self.key_off.get(id.idx() + 1)? as usize;
        let blo = *self.bridge_off.get(id.idx())? as usize;
        let bhi = *self.bridge_off.get(id.idx() + 1)? as usize;
        Some(CascadedNodeRef {
            keys: self.keys.get(lo..hi)?,
            native_succ: self.native_succ.get(lo..hi)?,
            bridges: BridgeRows {
                data: self.bridges.get(blo..bhi)?,
                row_len: hi - lo,
            },
        })
    }

    /// Mutable view of one node's three sections (split borrows over the
    /// three flat arrays — spans never overlap).
    fn node_mut(&mut self, id: NodeId) -> CascadedNodeMut<'_, K> {
        let lo = self.key_off[id.idx()] as usize;
        let hi = self.key_off[id.idx() + 1] as usize;
        let blo = self.bridge_off[id.idx()] as usize;
        let bhi = self.bridge_off[id.idx() + 1] as usize;
        CascadedNodeMut {
            keys: &mut self.keys[lo..hi],
            native_succ: &mut self.native_succ[lo..hi],
            bridges: BridgeRowsMut {
                data: &mut self.bridges[blo..bhi],
                row_len: hi - lo,
            },
        }
    }

    /// Total augmented entries (the flat key array's length).
    #[inline]
    fn total_entries(&self) -> usize {
        self.keys.len()
    }

    /// Length of the longest per-node span.
    fn max_span(&self) -> usize {
        self.key_off
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }
}

/// Borrowed view of one node's augmented data inside the [`CascadeArena`]:
/// parallel `keys` / `native_succ` slices plus the node's [`BridgeRows`].
/// `Copy`, so it can be passed around like the old per-node struct without
/// touching the arena again.
#[derive(Debug, Clone, Copy)]
pub struct CascadedNodeRef<'a, K> {
    /// Augmented catalog: non-decreasing, always ends with `K::SUPREMUM`.
    pub keys: &'a [K],
    /// `native_succ[i]` = smallest native-catalog index `j` with
    /// `native[j] >= keys[i]`, or `native.len()` if none.
    pub native_succ: &'a [u32],
    /// One bridge row per child slot; `bridges[c][i]` = smallest index `j`
    /// in child `c`'s augmented catalog with `child.keys[j] >= keys[i]`.
    pub bridges: BridgeRows<'a>,
}

/// Mutable counterpart of [`CascadedNodeRef`] — the fault-injection and
/// repair hook. Spans are fixed at build time: cells can be rewritten,
/// rows and catalogs can never change length.
#[derive(Debug)]
pub struct CascadedNodeMut<'a, K> {
    /// Augmented catalog cells (value mutation only).
    pub keys: &'a mut [K],
    /// Native-successor cells, parallel to `keys`.
    pub native_succ: &'a mut [u32],
    /// Bridge rows, one per child slot.
    pub bridges: BridgeRowsMut<'a>,
}

/// A 2-D view over a node's flat bridge block: `len()` rows (one per child
/// slot) of exactly `row_len` entries each. Indexing yields the row slice,
/// so call sites read like the old `Vec<Vec<u32>>` (`bridges[slot][i]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BridgeRows<'a> {
    data: &'a [u32],
    row_len: usize,
}

impl<'a> BridgeRows<'a> {
    /// Number of rows (child slots).
    #[inline]
    pub fn len(self) -> usize {
        self.data.len().checked_div(self.row_len).unwrap_or(0)
    }

    /// Whether the node has no bridge rows (a leaf).
    #[inline]
    pub fn is_empty(self) -> bool {
        self.data.is_empty()
    }

    /// Row for child `slot`, or `None` when out of range. The returned
    /// slice borrows the arena (`'a`), not this view, so it outlives
    /// temporaries.
    #[inline]
    pub fn get(self, slot: usize) -> Option<&'a [u32]> {
        let lo = slot.checked_mul(self.row_len)?;
        self.data.get(lo..lo + self.row_len)
    }

    /// Iterate over the rows in child order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = &'a [u32]> {
        // chunks_exact on an empty slice with row_len 0 would panic; a
        // leaf's empty block yields no rows either way.
        self.data.chunks_exact(self.row_len.max(1))
    }
}

impl std::ops::Index<usize> for BridgeRows<'_> {
    type Output = [u32];
    #[inline]
    fn index(&self, slot: usize) -> &[u32] {
        &self.data[slot * self.row_len..(slot + 1) * self.row_len]
    }
}

/// Mutable counterpart of [`BridgeRows`].
#[derive(Debug)]
pub struct BridgeRowsMut<'a> {
    data: &'a mut [u32],
    row_len: usize,
}

impl BridgeRowsMut<'_> {
    /// Number of rows (child slots).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.row_len).unwrap_or(0)
    }

    /// Whether the node has no bridge rows (a leaf).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Mutable row for child `slot`, or `None` when out of range.
    #[inline]
    pub fn get_mut(&mut self, slot: usize) -> Option<&mut [u32]> {
        let lo = slot.checked_mul(self.row_len)?;
        self.data.get_mut(lo..lo + self.row_len)
    }
}

impl std::ops::Index<usize> for BridgeRowsMut<'_> {
    type Output = [u32];
    #[inline]
    fn index(&self, slot: usize) -> &[u32] {
        &self.data[slot * self.row_len..(slot + 1) * self.row_len]
    }
}

impl std::ops::IndexMut<usize> for BridgeRowsMut<'_> {
    #[inline]
    fn index_mut(&mut self, slot: usize) -> &mut [u32] {
        &mut self.data[slot * self.row_len..(slot + 1) * self.row_len]
    }
}

/// Per-node staging buffer used during construction, before the flattening
/// publish into the [`CascadeArena`]. Building through per-node `Vec`s
/// keeps every builder's merge logic — and therefore its output — bit-for-
/// bit identical to the pre-arena layout; only the final storage changed.
#[derive(Debug, Clone)]
struct NodeBuf<K> {
    keys: Vec<K>,
    native_succ: Vec<u32>,
    bridges: Vec<Vec<u32>>,
}

/// The fractional cascaded data structure over a [`CatalogTree`].
///
/// The tree is held behind an `Arc`, so a structure built with
/// [`CascadedTree::build_bidir_shared`] shares the native catalogs with
/// its caller instead of copying them.
#[derive(Debug, Clone)]
pub struct CascadedTree<K> {
    tree: Arc<CatalogTree<K>>,
    arena: CascadeArena<K>,
    sample: usize,
}

/// Result of locating `y` at one node: the index of the smallest native
/// entry `>= y`, which equals `catalog.len()` when the answer is the
/// conceptual terminal `+∞`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Find {
    /// Index into the node's *native* catalog (possibly `== len`).
    pub native_idx: u32,
}

impl<K: CatalogKey> CascadedTree<K> {
    /// Build the cascaded structure sequentially, bottom-up.
    ///
    /// `sample` is the sampling factor `s`; it must exceed the maximum node
    /// degree for the augmented size to stay linear. `s = 4` is the standard
    /// choice for binary trees (total augmented size `<= 2n + O(#nodes)`).
    ///
    /// # Panics
    /// Panics if `sample <= tree.max_degree()` or `sample < 2`, or if the
    /// level schedule is corrupt (see [`CascadedTree::try_build`] for the
    /// non-panicking form).
    pub fn build(tree: CatalogTree<K>, sample: usize) -> Self {
        Self::try_build(tree, sample).unwrap_or_else(|e| panic!("cascade build failed: {e}"))
    }

    /// Fallible form of [`CascadedTree::build`]: a corrupt level schedule
    /// surfaces as [`FcError::UnbuiltNode`] instead of a panic.
    pub fn try_build(tree: CatalogTree<K>, sample: usize) -> Result<Self, FcError> {
        Self::build_inner(tree, sample, BuildMode::Sequential, None)
    }

    /// Build with rayon parallelism (level-synchronous, leaves upward).
    pub fn build_par(tree: CatalogTree<K>, sample: usize) -> Self {
        Self::try_build_par(tree, sample).unwrap_or_else(|e| panic!("cascade build failed: {e}"))
    }

    /// Fallible form of [`CascadedTree::build_par`].
    pub fn try_build_par(tree: CatalogTree<K>, sample: usize) -> Result<Self, FcError> {
        Self::build_inner(tree, sample, BuildMode::Parallel, None)
    }

    /// Build while charging EREW PRAM cost for the level-synchronous
    /// schedule: each level is one batch of independent merges, each merge
    /// charged `O(log len)` rounds of `len` ops (rank-by-binary-search
    /// parallel merge).
    pub fn build_cost(tree: CatalogTree<K>, sample: usize, pram: &mut Pram) -> Self {
        Self::try_build_cost(tree, sample, pram)
            .unwrap_or_else(|e| panic!("cascade build failed: {e}"))
    }

    /// Fallible form of [`CascadedTree::build_cost`].
    pub fn try_build_cost(
        tree: CatalogTree<K>,
        sample: usize,
        pram: &mut Pram,
    ) -> Result<Self, FcError> {
        Self::build_inner(tree, sample, BuildMode::Sequential, Some(pram))
    }

    /// Build the **bidirectional** cascaded structure (the structure the
    /// paper actually takes from [1]): augmented catalogs sample both the
    /// children's and the parent's augmented catalogs. Realised in two
    /// passes over a tree — bottom-up (`B_v = C_v ∪ sample(B_children)`)
    /// then top-down (`A_v = B_v ∪ sample(A_parent)`, parents final first).
    ///
    /// Both directions of Property 2 then hold: at most `s - 1` child
    /// entries sit strictly between consecutive parent-sampled entries
    /// *and* at most `s - 1` parent entries sit inside any child gap. The
    /// reverse bound is what Lemma 1's skeleton-key disjointness needs;
    /// the downward-only [`CascadedTree::build`] does not provide it (a
    /// node with a tiny catalog would receive every skeleton tree's key on
    /// the same entry).
    pub fn build_bidir(tree: CatalogTree<K>, sample: usize) -> Self {
        Self::build_bidir_inner(Arc::new(tree), sample, None)
    }

    /// [`CascadedTree::build_bidir`] over a tree the caller keeps: the
    /// structure holds a second reference to `tree`, not a copy.
    pub fn build_bidir_shared(tree: Arc<CatalogTree<K>>, sample: usize) -> Self {
        Self::build_bidir_inner(tree, sample, None)
    }

    /// [`CascadedTree::build_bidir`] with EREW cost accounting (two
    /// level-synchronous sweeps instead of one).
    pub fn build_bidir_cost(tree: CatalogTree<K>, sample: usize, pram: &mut Pram) -> Self {
        Self::build_bidir_inner(Arc::new(tree), sample, Some(pram))
    }

    fn build_bidir_inner(
        tree: Arc<CatalogTree<K>>,
        sample: usize,
        mut pram: Option<&mut Pram>,
    ) -> Self {
        assert!(sample >= 2, "sampling factor must be at least 2");
        assert!(
            sample > tree.max_degree() + 1,
            "bidirectional cascading needs sampling factor {} > degree {} + 1",
            sample,
            tree.max_degree()
        );
        let levels = tree.levels();
        // Pass 1 (bottom-up): B_v = C_v ∪ sample(B_children).
        let mut lists: Vec<Vec<K>> = vec![Vec::new(); tree.len()];
        for level in levels.iter().rev() {
            let mut level_ops = 0usize;
            for &id in level {
                let mut acc: Vec<K> = tree.catalog(id).to_vec();
                for &c in tree.children(id) {
                    let sampled: Vec<K> = lists[c.idx()]
                        .iter()
                        .skip(sample - 1)
                        .step_by(sample)
                        .copied()
                        .collect();
                    acc = fc_pram::primitives::merge_seq(&acc, &sampled);
                }
                acc.dedup();
                level_ops += acc.len();
                lists[id.idx()] = acc;
            }
            if let Some(pram) = pram.as_deref_mut() {
                let depth = usize::BITS - level_ops.max(1).leading_zeros();
                for _ in 0..depth {
                    pram.round(level_ops);
                }
            }
        }
        // Pass 2 (top-down): A_v = B_v ∪ sample(final A_parent).
        for level in levels.iter() {
            let mut level_ops = 0usize;
            for &id in level {
                if let Some(par) = tree.parent(id) {
                    let sampled: Vec<K> = lists[par.idx()]
                        .iter()
                        .skip(sample - 1)
                        .step_by(sample)
                        .copied()
                        .collect();
                    let mut acc = fc_pram::primitives::merge_seq(&lists[id.idx()], &sampled);
                    acc.dedup();
                    level_ops += acc.len();
                    lists[id.idx()] = acc;
                }
            }
            if let Some(pram) = pram.as_deref_mut() {
                let depth = usize::BITS - level_ops.max(1).leading_zeros();
                for _ in 0..depth {
                    pram.round(level_ops);
                }
            }
        }
        // Terminal +inf, exactly once, everywhere.
        for l in &mut lists {
            while l.last() == Some(&K::SUPREMUM) {
                l.pop();
            }
            l.push(K::SUPREMUM);
        }
        // Pass 3: native successors and downward bridges on the final lists.
        let mut bufs: Vec<NodeBuf<K>> = Vec::with_capacity(tree.len());
        for id in tree.ids() {
            let keys = lists[id.idx()].clone();
            let native = tree.catalog(id);
            let mut native_succ = Vec::with_capacity(keys.len());
            let mut j = 0usize;
            for &k in &keys {
                while j < native.len() && native[j] < k {
                    j += 1;
                }
                native_succ.push(j as u32);
            }
            let mut bridges = Vec::with_capacity(tree.children(id).len());
            for &c in tree.children(id) {
                let child_keys = &lists[c.idx()];
                let mut bj = 0usize;
                let mut bv = Vec::with_capacity(keys.len());
                for &k in &keys {
                    while bj < child_keys.len() && child_keys[bj] < k {
                        bj += 1;
                    }
                    debug_assert!(bj < child_keys.len());
                    bv.push(bj as u32);
                }
                bridges.push(bv);
            }
            bufs.push(NodeBuf {
                keys,
                native_succ,
                bridges,
            });
        }
        let arena = CascadeArena::publish(bufs);
        if let Some(pram) = pram {
            pram.round(arena.total_entries());
        }
        CascadedTree {
            tree,
            arena,
            sample,
        }
    }

    /// [`CascadedTree::try_build`] replayed under an access tracer: the
    /// same level-synchronous schedule, executed on the genuinely EREW
    /// round structure and reporting every logical access to `tr`.
    ///
    /// Per level (bottom-up), three phases:
    ///
    /// * `build/sample` — one round; each sampled child entry is read by
    ///   exactly one processor (a child has one parent) and copied to a
    ///   private staging cell `("stage", node)[i]`, while the native catalog
    ///   is gathered the same way — all cells distinct, so exclusive;
    /// * `build/merge` — Batcher bitonic-merge-network rounds over the
    ///   staging cells: each round is a set of disjoint compare-exchange
    ///   pairs, each touched by exactly one processor. Merges of different
    ///   nodes on the same level share rounds (that is the
    ///   level-synchronous claim). The CREW rank-by-binary-search merge
    ///   charged by [`CascadedTree::build_cost`] would *not* pass EREW —
    ///   the network is the exclusive schedule the paper's EREW
    ///   preprocessing claim (via Atallah–Cole–Goodrich) relies on;
    /// * `build/publish` — one round; processor `i` reads its own staging
    ///   cell and writes the node's augmented entry `("aug", node)[i]`, its
    ///   native successor `("nsucc", node)[i]`, and one bridge cell per
    ///   child slot (`("bridge", node * (d+1) + slot)[i]`, `d` = max
    ///   degree) — rank bookkeeping rides along with the merge records.
    ///
    /// The returned structure is bit-identical to [`CascadedTree::try_build`].
    pub fn try_build_traced<Tr: Tracer>(
        tree: CatalogTree<K>,
        sample: usize,
        tr: &mut Tr,
    ) -> Result<Self, FcError> {
        assert!(sample >= 2, "sampling factor must be at least 2");
        assert!(
            sample > tree.max_degree(),
            "sampling factor {} must exceed max degree {} for linear size",
            sample,
            tree.max_degree()
        );
        let slot_span = tree.max_degree() + 1;
        let mut nodes: Vec<Option<NodeBuf<K>>> = (0..tree.len()).map(|_| None).collect();
        let levels = tree.levels();
        for level in levels.iter().rev() {
            // Compute the level's nodes first; emission replays the access
            // schedule that produces exactly these results.
            let mut built: Vec<(NodeId, NodeBuf<K>)> = Vec::with_capacity(level.len());
            for &id in level {
                built.push((id, cascade_node(&tree, id, &nodes, sample)?));
            }
            if tr.live() {
                // Phase 1: sample children + gather native, one exclusive
                // round for the whole level.
                tr.phase("build/sample");
                let mut pid = 0usize;
                for &(id, _) in &built {
                    let stage = ("stage", id.idx());
                    let mut cursor = tree.catalog(id).len();
                    for (i, _) in tree.catalog(id).iter().enumerate() {
                        tr.read(pid, ("native", id.idx()), i);
                        tr.write(pid, stage, i);
                        pid += 1;
                    }
                    for &c in tree.children(id) {
                        let child_len = nodes[c.idx()].as_ref().map(|n| n.keys.len()).unwrap_or(0);
                        let mut pos = sample - 1;
                        while pos < child_len {
                            tr.read(pid, ("aug", c.idx()), pos);
                            tr.write(pid, stage, cursor);
                            cursor += 1;
                            pid += 1;
                            pos += sample;
                        }
                    }
                }
                tr.barrier();
                // Phase 2: bitonic merge networks, level-synchronous — the
                // r-th rounds of all nodes' networks coincide.
                tr.phase("build/merge");
                let schedules: Vec<(usize, MergeRounds)> = built
                    .iter()
                    .map(|&(id, _)| {
                        let mut rounds = Vec::new();
                        let mut acc = tree.catalog(id).len();
                        for &c in tree.children(id) {
                            let child_len =
                                nodes[c.idx()].as_ref().map(|n| n.keys.len()).unwrap_or(0);
                            let sampled = if child_len >= sample {
                                1 + (child_len - sample) / sample
                            } else {
                                0
                            };
                            if sampled > 0 {
                                bitonic_merge_rounds(acc + sampled, &mut rounds);
                                acc += sampled;
                            }
                        }
                        (id.idx(), rounds)
                    })
                    .collect();
                let depth = schedules.iter().map(|(_, r)| r.len()).max().unwrap_or(0);
                for r in 0..depth {
                    let mut pid = 0usize;
                    for (idx, rounds) in &schedules {
                        let stage = ("stage", *idx);
                        if let Some(pairs) = rounds.get(r) {
                            for &(a, b) in pairs {
                                tr.read(pid, stage, a);
                                tr.read(pid, stage, b);
                                tr.write(pid, stage, a);
                                tr.write(pid, stage, b);
                                pid += 1;
                            }
                        }
                    }
                    tr.barrier();
                }
                // Phase 3: publish — one processor per output entry.
                tr.phase("build/publish");
                let mut pid = 0usize;
                for (id, node) in &built {
                    let stage = ("stage", id.idx());
                    for i in 0..node.keys.len() {
                        tr.read(pid, stage, i);
                        tr.write(pid, ("aug", id.idx()), i);
                        tr.write(pid, ("nsucc", id.idx()), i);
                        for slot in 0..node.bridges.len() {
                            tr.write(pid, ("bridge", id.idx() * slot_span + slot), i);
                        }
                        pid += 1;
                    }
                }
                tr.barrier();
            }
            for (id, node) in built {
                nodes[id.idx()] = Some(node);
            }
        }
        let mut done = Vec::with_capacity(nodes.len());
        for (idx, n) in nodes.into_iter().enumerate() {
            done.push(n.ok_or(FcError::UnbuiltNode { node: idx as u32 })?);
        }
        Ok(CascadedTree {
            arena: CascadeArena::publish(done),
            tree: Arc::new(tree),
            sample,
        })
    }

    fn build_inner(
        tree: CatalogTree<K>,
        sample: usize,
        mode: BuildMode,
        mut pram: Option<&mut Pram>,
    ) -> Result<Self, FcError> {
        assert!(sample >= 2, "sampling factor must be at least 2");
        assert!(
            sample > tree.max_degree(),
            "sampling factor {} must exceed max degree {} for linear size",
            sample,
            tree.max_degree()
        );
        let mut nodes: Vec<Option<NodeBuf<K>>> = (0..tree.len()).map(|_| None).collect();
        // Process levels bottom-up; within a level all nodes are independent.
        let levels = tree.levels();
        for level in levels.iter().rev() {
            let build_one = |&id: &NodeId| -> Result<(usize, NodeBuf<K>), FcError> {
                let node = cascade_node(&tree, id, &nodes, sample)?;
                Ok((id.idx(), node))
            };
            let built: Vec<(usize, NodeBuf<K>)> = match mode {
                BuildMode::Sequential => level.iter().map(build_one).collect::<Result<_, _>>()?,
                BuildMode::Parallel => level
                    .par_iter()
                    .map(build_one)
                    .collect::<Result<Vec<_>, _>>()?,
            };
            if let Some(pram) = pram.as_deref_mut() {
                // EREW cost of the level: all merges run concurrently;
                // depth = log of the largest merged list, ops per round =
                // total output size of the level.
                let level_ops: usize = built.iter().map(|(_, n)| n.keys.len()).sum();
                let max_len = built.iter().map(|(_, n)| n.keys.len()).max().unwrap_or(0);
                let depth = usize::BITS - max_len.leading_zeros();
                for _ in 0..depth {
                    pram.round(level_ops);
                }
            }
            for (idx, node) in built {
                nodes[idx] = Some(node);
            }
        }
        let mut done = Vec::with_capacity(nodes.len());
        for (idx, n) in nodes.into_iter().enumerate() {
            done.push(n.ok_or(FcError::UnbuiltNode { node: idx as u32 })?);
        }
        Ok(CascadedTree {
            arena: CascadeArena::publish(done),
            tree: Arc::new(tree),
            sample,
        })
    }

    /// The underlying tree.
    #[inline]
    pub fn tree(&self) -> &CatalogTree<K> {
        &self.tree
    }

    /// The underlying tree as the shared handle the structure holds.
    #[inline]
    pub fn shared_tree(&self) -> &Arc<CatalogTree<K>> {
        &self.tree
    }

    /// The flat arena backing the structure (read-only; DESIGN.md §14).
    #[inline]
    pub fn arena(&self) -> &CascadeArena<K> {
        &self.arena
    }

    /// The sampling factor `s`.
    #[inline]
    pub fn sample_factor(&self) -> usize {
        self.sample
    }

    /// The fan-out bound `b` of Property 1: with sampling factor `s`, the
    /// true answer is within `b = s - 1` back-steps of the bridge target.
    #[inline]
    pub fn fanout_bound(&self) -> usize {
        self.sample - 1
    }

    /// Augmented node data for `id`, as a borrowed arena view.
    #[inline]
    pub fn aug(&self, id: NodeId) -> CascadedNodeRef<'_, K> {
        self.arena.node(id)
    }

    /// Mutable augmented node data — a fault-injection hook for tests and
    /// robustness experiments (corrupting bridges/keys must be *detected*
    /// by [`crate::invariants::check_all`] and *repaired* by the searches'
    /// coverage fallbacks). Cell values can be rewritten; the flat spans
    /// are fixed, so lengths cannot change. Not part of the stable API.
    #[doc(hidden)]
    pub fn aug_mut_for_fault_injection(&mut self, id: NodeId) -> CascadedNodeMut<'_, K> {
        self.arena.node_mut(id)
    }

    /// Augmented catalog keys of `id`.
    #[inline]
    pub fn keys(&self, id: NodeId) -> &[K] {
        self.arena.keys_of(id)
    }

    /// Total number of augmented entries over all nodes (the structure's
    /// space, up to the constant per-entry field count). Lemma-2-style
    /// linearity of the *cooperative* structure is measured on top of this.
    pub fn total_aug_size(&self) -> usize {
        self.arena.total_entries()
    }

    /// Locate `y` in the augmented catalog of `id`: smallest augmented
    /// index with `keys[i] >= y`, by `partition_point`. Always exists
    /// because of the terminal `+∞`.
    #[inline]
    pub fn find_aug(&self, id: NodeId, y: K) -> usize {
        let keys = self.arena.keys_of(id);
        let i = keys.partition_point(|k| *k < y);
        debug_assert!(i < keys.len(), "terminal +inf guarantees a hit");
        i
    }

    /// Given the augmented location `aug_idx` of `y` at `parent`, locate `y`
    /// in child slot `slot` of `parent` via the bridge plus a back-walk of
    /// at most `b = s - 1` steps (Property 1). Returns the child's augmented
    /// index and the number of walk steps taken (for cost accounting).
    #[inline]
    pub fn descend(&self, parent: NodeId, slot: usize, aug_idx: usize, y: K) -> (usize, usize) {
        let child = self.tree.children(parent)[slot];
        let child_keys = self.arena.keys_of(child);
        let mut j = self.arena.bridge_at(parent, slot, aug_idx) as usize;
        let mut walked = 0usize;
        while j > 0 && child_keys[j - 1] >= y {
            j -= 1;
            walked += 1;
        }
        debug_assert!(walked <= self.fanout_bound(), "fan-out property violated");
        (j, walked)
    }

    /// Audited variant of [`descend`](Self::descend) for searches that must
    /// never return a silently wrong answer on a corrupted structure.
    ///
    /// [`descend`](Self::descend) corrects bridge *overshoot* by back-walking,
    /// but a bridge corrupted to *undershoot* (point before the true lower
    /// bound) produces a wrong child position with no visible symptom. Here we
    /// verify all three failure modes — bridge index out of range, back-walk
    /// longer than the fan-out bound `b`, and a landing position whose key is
    /// still `< y` — and return a blame coordinate instead of a bad position.
    pub fn checked_descend(
        &self,
        parent: NodeId,
        slot: usize,
        aug_idx: usize,
        y: K,
    ) -> Result<(usize, usize), FcError> {
        let blame = FcError::CorruptBridge {
            node: parent.0,
            slot,
            entry: aug_idx,
        };
        let children = self.tree.children(parent);
        let child = *children.get(slot).ok_or(blame)?;
        let child_keys = self.arena.node_get(child).ok_or(blame)?.keys;
        let bridge_row = self
            .arena
            .node_get(parent)
            .and_then(|n| n.bridges.get(slot))
            .ok_or(blame)?;
        let mut j = *bridge_row.get(aug_idx).ok_or(blame)? as usize;
        if j >= child_keys.len() {
            return Err(blame);
        }
        let mut walked = 0usize;
        while j > 0 && child_keys.get(j - 1).is_some_and(|&k| k >= y) {
            j -= 1;
            walked += 1;
            if walked > self.fanout_bound() {
                return Err(blame);
            }
        }
        // Undershoot: the landing key is still below y, so `j` is not the
        // lower bound — `descend` would have silently returned it.
        match child_keys.get(j) {
            Some(&k) if k >= y => Ok((j, walked)),
            _ => Err(blame),
        }
    }

    /// Convert an augmented location at `id` into the native `find(y, v)`
    /// answer.
    #[inline]
    pub fn native_result(&self, id: NodeId, aug_idx: usize) -> Find {
        Find {
            native_idx: self.arena.native_succ_at(id, aug_idx),
        }
    }

    /// Closed-form depth estimate for the pipelined Atallah–Cole–Goodrich
    /// construction on this instance: `3 * height + O(log largest merge)`.
    /// The schedule itself is *executed* by [`crate::pipeline`]; this
    /// estimate is kept as a cheap analytic cross-check.
    pub fn pipelined_depth_estimate(&self) -> u64 {
        let h = self.tree.height() as u64;
        let max_aug = self.arena.max_span().max(1);
        3 * h + (usize::BITS - max_aug.leading_zeros()) as u64
    }
}

#[derive(Clone, Copy, PartialEq)]
enum BuildMode {
    Sequential,
    Parallel,
}

/// Build one node's augmented catalog + bridges from its (already built)
/// children.
fn cascade_node<K: CatalogKey>(
    tree: &CatalogTree<K>,
    id: NodeId,
    nodes: &[Option<NodeBuf<K>>],
    sample: usize,
) -> Result<NodeBuf<K>, FcError> {
    let native = tree.catalog(id);
    let children = tree.children(id);

    // Gather the sampled child lists (every `sample`-th entry).
    let mut lists: Vec<Vec<K>> = Vec::with_capacity(children.len() + 1);
    lists.push(native.to_vec());
    for &c in children {
        let child = nodes[c.idx()]
            .as_ref()
            .ok_or(FcError::UnbuiltNode { node: c.0 })?;
        lists.push(
            child
                .keys
                .iter()
                .skip(sample - 1)
                .step_by(sample)
                .copied()
                .collect(),
        );
    }
    // k-way merge (k = degree + 1 <= sample, small).
    let mut keys = kway_merge(&lists);
    // Exactly one terminal SUPREMUM.
    while keys.last() == Some(&K::SUPREMUM) {
        keys.pop();
    }
    keys.push(K::SUPREMUM);

    // native_succ: two-pointer walk over (keys, native).
    let mut native_succ = Vec::with_capacity(keys.len());
    let mut j = 0usize;
    for &k in &keys {
        while j < native.len() && native[j] < k {
            j += 1;
        }
        native_succ.push(j as u32);
    }

    // bridges: two-pointer walk over (keys, child.keys) per child.
    let mut bridges = Vec::with_capacity(children.len());
    for &c in children {
        let child_keys = &nodes[c.idx()]
            .as_ref()
            .ok_or(FcError::UnbuiltNode { node: c.0 })?
            .keys;
        let mut bj = 0usize;
        let mut bv = Vec::with_capacity(keys.len());
        for &k in &keys {
            while bj < child_keys.len() && child_keys[bj] < k {
                bj += 1;
            }
            debug_assert!(
                bj < child_keys.len(),
                "child terminal +inf guarantees a hit"
            );
            bv.push(bj as u32);
        }
        bridges.push(bv);
    }

    Ok(NodeBuf {
        keys,
        native_succ,
        bridges,
    })
}

/// A merge network schedule: each round is a set of pairwise-disjoint
/// compare-exchange pairs.
type MergeRounds = Vec<Vec<(usize, usize)>>;

/// Append the rounds of a Batcher bitonic merge network over `len` cells
/// (padded virtually to a power of two; comparators touching padding are
/// dropped). Each round is a set of pairwise-disjoint compare-exchange
/// pairs — the EREW-exclusive merge schedule replayed by
/// [`CascadedTree::try_build_traced`].
fn bitonic_merge_rounds(len: usize, rounds: &mut MergeRounds) {
    if len < 2 {
        return;
    }
    let m = len.next_power_of_two();
    let mut stride = m / 2;
    while stride >= 1 {
        let mut pairs = Vec::new();
        for i in 0..m {
            if i & stride == 0 && (i | stride) < len {
                pairs.push((i, i | stride));
            }
        }
        if !pairs.is_empty() {
            rounds.push(pairs);
        }
        stride /= 2;
    }
}

/// Merge `k` sorted lists (small `k`): repeated pairwise merge.
fn kway_merge<K: CatalogKey>(lists: &[Vec<K>]) -> Vec<K> {
    let mut acc: Vec<K> = Vec::new();
    for l in lists {
        acc = fc_pram::primitives::merge_seq(&acc, l);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, SizeDist};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn sample_tree() -> CatalogTree<i64> {
        CatalogTree::from_parents(
            vec![None, Some(0), Some(0), Some(1), Some(1), Some(2), Some(2)],
            vec![
                vec![50],
                vec![10, 30, 70],
                vec![20, 60],
                vec![5, 15, 25, 35, 45],
                vec![55, 65],
                vec![1, 2, 3],
                vec![80, 90],
            ],
        )
    }

    #[test]
    fn augmented_catalogs_end_with_supremum() {
        let fc = CascadedTree::build(sample_tree(), 4);
        for id in fc.tree().ids() {
            assert_eq!(*fc.keys(id).last().unwrap(), i64::SUPREMUM);
            assert!(fc.keys(id).windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn arena_spans_tile_the_flat_arrays() {
        let fc = CascadedTree::build(sample_tree(), 4);
        let a = fc.arena();
        // Offset tables are monotone and cover the flat arrays exactly.
        assert_eq!(a.key_off.len(), fc.tree().len() + 1);
        assert_eq!(a.bridge_off.len(), fc.tree().len() + 1);
        assert!(a.key_off.windows(2).all(|w| w[0] < w[1]), "t_v >= 1");
        assert!(a.bridge_off.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*a.key_off.last().unwrap() as usize, a.keys.len());
        assert_eq!(a.native_succ.len(), a.keys.len());
        assert_eq!(*a.bridge_off.last().unwrap() as usize, a.bridges.len());
        // Per node: bridge block = degree * t_v, rows in child order.
        for id in fc.tree().ids() {
            let t = fc.keys(id).len();
            let block = (a.bridge_off[id.idx() + 1] - a.bridge_off[id.idx()]) as usize;
            assert_eq!(block, fc.tree().children(id).len() * t);
            assert_eq!(fc.aug(id).bridges.len(), fc.tree().children(id).len());
            for row in fc.aug(id).bridges.iter() {
                assert_eq!(row.len(), t);
            }
        }
    }

    #[test]
    fn find_aug_plus_native_succ_equals_direct_lower_bound() {
        let fc = CascadedTree::build(sample_tree(), 4);
        for id in fc.tree().ids() {
            let native = fc.tree().catalog(id).to_vec();
            for y in -2..100 {
                let aug = fc.find_aug(id, y);
                let got = fc.native_result(id, aug).native_idx as usize;
                let want = native.partition_point(|k| *k < y);
                assert_eq!(got, want, "node {id:?} y {y}");
            }
        }
    }

    #[test]
    fn descend_finds_childs_lower_bound() {
        let fc = CascadedTree::build(sample_tree(), 4);
        let t = fc.tree();
        for id in t.ids() {
            for (slot, &child) in t.children(id).iter().enumerate() {
                for y in -2..100 {
                    let pa = fc.find_aug(id, y);
                    let (ca, walked) = fc.descend(id, slot, pa, y);
                    assert_eq!(ca, fc.find_aug(child, y), "node {id:?} slot {slot} y {y}");
                    assert!(walked <= fc.fanout_bound());
                }
            }
        }
    }

    #[test]
    fn sequential_and_parallel_builds_agree() {
        let mut rng = SmallRng::seed_from_u64(17);
        let tree = gen::balanced_binary(6, 3000, SizeDist::Uniform, &mut rng);
        let a = CascadedTree::build(tree.clone(), 4);
        let b = CascadedTree::build_par(tree, 4);
        assert_eq!(a.arena(), b.arena(), "arenas must be bit-identical");
        for id in a.tree().ids() {
            assert_eq!(a.keys(id), b.keys(id));
            assert_eq!(a.aug(id).native_succ, b.aug(id).native_succ);
            assert_eq!(a.aug(id).bridges, b.aug(id).bridges);
        }
    }

    #[test]
    fn traced_build_matches_untraced_and_is_erew_clean() {
        use fc_pram::shadow::ShadowMem;
        use fc_pram::Model;
        let mut rng = SmallRng::seed_from_u64(19);
        for (h, total) in [(4u32, 600usize), (6, 2500)] {
            let tree = gen::balanced_binary(h, total, SizeDist::Uniform, &mut rng);
            let plain = CascadedTree::build(tree.clone(), 4);
            let mut sh = ShadowMem::new(Model::Erew);
            let traced = CascadedTree::try_build_traced(tree, 4, &mut sh).unwrap();
            assert!(sh.finish(), "violations: {:?}", &sh.violations()[..1]);
            assert_eq!(plain.arena(), traced.arena());
            for id in plain.tree().ids() {
                assert_eq!(plain.keys(id), traced.keys(id));
                assert_eq!(plain.aug(id).native_succ, traced.aug(id).native_succ);
                assert_eq!(plain.aug(id).bridges, traced.aug(id).bridges);
            }
            // Sanity: every claimed phase actually ran.
            let phases: Vec<&str> = sh.phase_stats().iter().map(|&(p, _)| p).collect();
            assert!(phases.contains(&"build/sample"));
            assert!(phases.contains(&"build/merge"));
            assert!(phases.contains(&"build/publish"));
        }
    }

    #[test]
    fn bitonic_rounds_are_disjoint_within_a_round() {
        for len in [2usize, 3, 7, 8, 33, 100] {
            let mut rounds = Vec::new();
            bitonic_merge_rounds(len, &mut rounds);
            assert!(!rounds.is_empty());
            for pairs in &rounds {
                let mut seen = std::collections::HashSet::new();
                for &(a, b) in pairs {
                    assert!(a < len && b < len);
                    assert!(seen.insert(a), "index {a} reused in a round");
                    assert!(seen.insert(b), "index {b} reused in a round");
                }
            }
        }
    }

    #[test]
    fn cost_build_charges_polylog_depth() {
        let mut rng = SmallRng::seed_from_u64(23);
        let tree = gen::balanced_binary(8, 10_000, SizeDist::Uniform, &mut rng);
        let n = tree.total_catalog_size();
        let procs = (n / (usize::BITS - n.leading_zeros()) as usize).max(1);
        let mut pram = Pram::new(procs, fc_pram::Model::Erew);
        let fc = CascadedTree::build_cost(tree, 4, &mut pram);
        // Depth should be O(log^2 n): generously, <= 4 * log^2 n.
        let log_n = (usize::BITS - n.leading_zeros()) as u64;
        assert!(
            pram.steps() <= 4 * log_n * log_n,
            "steps {} log^2 bound {}",
            pram.steps(),
            4 * log_n * log_n
        );
        // Work must be linear-ish: O(n log n) at worst for this schedule.
        assert!(pram.work() <= (4 * n as u64) * log_n);
        assert!(fc.total_aug_size() >= n);
    }

    #[test]
    fn total_aug_size_is_linear() {
        let mut rng = SmallRng::seed_from_u64(29);
        for total in [1000usize, 4000, 16_000] {
            let tree = gen::balanced_binary(9, total, SizeDist::Uniform, &mut rng);
            let nodes = tree.len();
            let fc = CascadedTree::build(tree, 4);
            // |A| <= 2n + 2 * #nodes (terminal entries + geometric series).
            assert!(
                fc.total_aug_size() <= 2 * total + 2 * nodes,
                "aug {} vs bound {}",
                fc.total_aug_size(),
                2 * total + 2 * nodes
            );
        }
    }

    #[test]
    fn skewed_catalogs_still_work() {
        let mut rng = SmallRng::seed_from_u64(31);
        let tree = gen::balanced_binary(6, 5000, SizeDist::SingleHeavy(0.7), &mut rng);
        let fc = CascadedTree::build(tree, 4);
        let t = fc.tree();
        for leaf in t.leaves().into_iter().take(8) {
            let path = t.path_from_root(leaf);
            for y in [-5i64, 0, 777, 40_000, 79_999, 80_000] {
                let mut aug = fc.find_aug(t.root(), y);
                let mut prev = t.root();
                for &nid in &path[1..] {
                    let slot = t.child_slot(prev, nid);
                    aug = fc.descend(prev, slot, aug, y).0;
                    prev = nid;
                    let got = fc.native_result(nid, aug).native_idx as usize;
                    assert_eq!(got, t.catalog(nid).partition_point(|k| *k < y));
                }
            }
        }
    }

    #[test]
    fn single_node_tree() {
        let tree = CatalogTree::from_parents(vec![None], vec![vec![3i64, 9]]);
        let fc = CascadedTree::build(tree, 2);
        assert_eq!(fc.find_aug(NodeId(0), 5), 1);
        assert_eq!(fc.native_result(NodeId(0), 1).native_idx, 1);
        assert_eq!(
            fc.native_result(NodeId(0), fc.find_aug(NodeId(0), 100))
                .native_idx,
            2
        );
    }

    #[test]
    fn empty_catalog_nodes_get_terminal_only_plus_samples() {
        let tree = CatalogTree::from_parents(
            vec![None, Some(0)],
            vec![Vec::<i64>::new(), (0..40).map(|i| i * 2).collect()],
        );
        let fc = CascadedTree::build(tree, 4);
        // Root native is empty; aug must still contain child samples + SUP.
        assert!(fc.keys(NodeId(0)).len() > 1);
        assert_eq!(
            fc.native_result(NodeId(0), fc.find_aug(NodeId(0), 10))
                .native_idx,
            0
        );
    }

    #[test]
    fn mut_view_edits_land_in_the_arena() {
        let mut fc = CascadedTree::build(sample_tree(), 4);
        let root = fc.tree().root();
        let before = fc.aug(root).bridges[0][1];
        {
            let mut aug = fc.aug_mut_for_fault_injection(root);
            aug.bridges[0][1] = before + 1;
            let row = aug.bridges.get_mut(0).unwrap();
            row[2] = 0;
        }
        assert_eq!(fc.aug(root).bridges[0][1], before + 1);
        assert_eq!(fc.aug(root).bridges[0][2], 0);
        // Out-of-range slots are None, mirrored by the shared view.
        assert!(fc.aug(root).bridges.get(99).is_none());
        let mut aug = fc.aug_mut_for_fault_injection(root);
        assert!(aug.bridges.get_mut(99).is_none());
    }

    #[test]
    fn bidir_build_searches_correctly() {
        let mut rng = SmallRng::seed_from_u64(37);
        let tree = gen::balanced_binary(7, 6000, SizeDist::Uniform, &mut rng);
        let fc = CascadedTree::build_bidir(tree, 4);
        let t = fc.tree();
        for leaf in t.leaves().into_iter().take(6) {
            let path = t.path_from_root(leaf);
            for y in [-3i64, 0, 500, 47_000, 95_999, 96_000] {
                let mut aug = fc.find_aug(t.root(), y);
                let mut prev = t.root();
                for &nid in &path[1..] {
                    let slot = t.child_slot(prev, nid);
                    aug = fc.descend(prev, slot, aug, y).0;
                    prev = nid;
                    assert_eq!(
                        fc.native_result(nid, aug).native_idx as usize,
                        t.catalog(nid).partition_point(|k| *k < y)
                    );
                }
            }
        }
    }

    #[test]
    fn bidir_reverse_gap_bound_holds() {
        // The property Lemma 1 needs: at most s - 1 parent augmented
        // entries lie strictly inside any child augmented gap, i.e. at most
        // s parent entries bridge to the same child entry.
        let mut rng = SmallRng::seed_from_u64(41);
        let tree = gen::balanced_binary(7, 8000, SizeDist::SingleHeavy(0.8), &mut rng);
        let fc = CascadedTree::build_bidir(tree, 4);
        let t = fc.tree();
        for v in t.ids() {
            for (slot, _) in t.children(v).iter().enumerate() {
                let bridges = &fc.aug(v).bridges[slot];
                let mut run = 1usize;
                for w in bridges.windows(2) {
                    if w[0] == w[1] {
                        run += 1;
                        assert!(
                            run <= fc.sample_factor(),
                            "{run} parent entries bridge to one child entry at {v:?}"
                        );
                    } else {
                        run = 1;
                    }
                }
            }
        }
    }

    #[test]
    fn bidir_size_stays_linear() {
        let mut rng = SmallRng::seed_from_u64(43);
        for total in [2000usize, 8000, 32_000] {
            let tree = gen::balanced_binary(9, total, SizeDist::Uniform, &mut rng);
            let nodes = tree.len();
            let fc = CascadedTree::build_bidir(tree, 4);
            assert!(
                fc.total_aug_size() <= 3 * total + 3 * nodes,
                "bidir aug {} vs bound {}",
                fc.total_aug_size(),
                3 * total + 3 * nodes
            );
        }
    }

    #[test]
    #[should_panic(expected = "must exceed max degree")]
    fn sample_factor_must_exceed_degree() {
        let mut rng = SmallRng::seed_from_u64(1);
        let tree = gen::dary(4, 2, 100, &mut rng);
        let _ = CascadedTree::build(tree, 4);
    }
}
