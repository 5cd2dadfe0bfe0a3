//! Flat structure-of-arrays rooted ordered trees with per-node catalogs.
//!
//! The paper's object of study is "a rooted tree `T` with `O(n)` nodes
//! storing catalogs of total size `n`" (Section 1). [`CatalogTree`] is that
//! object, stored as parallel flat arrays indexed by [`NodeId`]: parent and
//! depth words, an ordered child list flattened into one `Vec<NodeId>` with
//! per-node `(offset, len)` spans, and every catalog concatenated into one
//! `Vec<K>` with matching spans. Individual catalogs may be empty or hold
//! `Θ(n)` entries — the variable-size case is exactly what makes the
//! paper's preprocessing nontrivial (end of Section 2, "First Approach").
//!
//! The SoA layout (DESIGN.md §14) removes one pointer indirection from
//! every descent step: `catalog(v)` is a bounds-checked slice of a single
//! contiguous allocation instead of a chase through a `Vec<Vec<K>>`, and
//! the whole tree clones with `O(arrays)` memcpys instead of `O(nodes)`
//! heap allocations.

use crate::key::CatalogKey;

/// Index of a node in a [`CatalogTree`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The arena index as a usize.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Sentinel parent word for the root (no parent).
const NO_PARENT: u32 = u32::MAX;

/// One catalog update, as [`CatalogTree::apply_batch`] takes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOp<K> {
    /// Insert `key` into `node`'s catalog.
    Insert(NodeId, K),
    /// Delete `key` from `node`'s catalog.
    Remove(NodeId, K),
}

/// A rooted ordered tree with catalogs, in structure-of-arrays layout.
///
/// All per-node arrays are parallel and indexed by [`NodeId`]; the child
/// and catalog arrays are shared flat storage sliced by `u32` offset
/// tables of length `len() + 1` (span of node `v` = `off[v]..off[v + 1]`),
/// so both total sizes are capped at `u32::MAX` entries — enforced at
/// construction, and far above the paper's `O(n)` regimes.
#[derive(Debug, Clone)]
pub struct CatalogTree<K> {
    /// `parents[v]` = parent index, [`NO_PARENT`] for the root.
    parents: Vec<u32>,
    /// `depths[v]` = depth from the root (root = 0).
    depths: Vec<u32>,
    /// All ordered child lists, concatenated in node order.
    children_flat: Vec<NodeId>,
    /// Child span offsets (`len() + 1` entries, monotone).
    child_off: Vec<u32>,
    /// All sorted catalogs, concatenated in node order.
    catalog_flat: Vec<K>,
    /// Catalog span offsets (`len() + 1` entries, monotone).
    cat_off: Vec<u32>,
    root: NodeId,
}

impl<K: CatalogKey> CatalogTree<K> {
    /// Build a tree from parallel arrays: `parents[i]` is the parent of node
    /// `i` (`None` exactly for the root) and `catalogs[i]` its sorted
    /// catalog. Children are ordered by node index.
    ///
    /// # Panics
    /// Panics if there is not exactly one root, if a parent index is out of
    /// range or not older than its child (parents must precede children,
    /// i.e. the arrays must be in topological order), or if any catalog is
    /// not strictly increasing.
    pub fn from_parents(parents: Vec<Option<u32>>, catalogs: Vec<Vec<K>>) -> Self {
        assert_eq!(parents.len(), catalogs.len());
        assert!(!parents.is_empty(), "tree must have at least one node");
        let n = parents.len();
        assert!(n < NO_PARENT as usize, "node count exceeds u32 indexing");

        // Pass 1: validate parents, count children, derive depths.
        let mut parent_words = vec![NO_PARENT; n];
        let mut depths = vec![0u32; n];
        let mut child_counts = vec![0u32; n];
        let mut root = None;
        for (i, par) in parents.iter().enumerate() {
            match par {
                None => {
                    assert!(root.is_none(), "more than one root");
                    root = Some(NodeId(i as u32));
                }
                Some(p) => {
                    let p = *p as usize;
                    assert!(p < i, "parent {p} must precede child {i}");
                    parent_words[i] = p as u32;
                    depths[i] = depths[p] + 1;
                    child_counts[p] += 1;
                }
            }
        }
        let root = root.expect("tree must have a root");

        // Child spans: prefix sums of the counts, then a second pass fills
        // each span in ascending node order (= the ordered child list).
        let mut child_off = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        for &c in &child_counts {
            child_off.push(acc);
            acc += c;
        }
        child_off.push(acc);
        let mut children_flat = vec![NodeId(0); acc as usize];
        let mut cursor = child_off.clone();
        for (i, &pw) in parent_words.iter().enumerate() {
            if pw != NO_PARENT {
                children_flat[cursor[pw as usize] as usize] = NodeId(i as u32);
                cursor[pw as usize] += 1;
            }
        }

        // Catalog spans: validate order, then concatenate.
        let total: usize = catalogs.iter().map(Vec::len).sum();
        assert!(total < u32::MAX as usize, "catalog total exceeds u32 spans");
        let mut cat_off = Vec::with_capacity(n + 1);
        let mut catalog_flat = Vec::with_capacity(total);
        for (i, catalog) in catalogs.into_iter().enumerate() {
            assert!(
                catalog.windows(2).all(|w| w[0] < w[1]),
                "catalog of node {i} must be strictly increasing"
            );
            debug_assert!(
                catalog.last().is_none_or(|&k| k < K::SUPREMUM),
                "catalog of node {i} must not contain the SUPREMUM sentinel"
            );
            cat_off.push(catalog_flat.len() as u32);
            catalog_flat.extend(catalog);
        }
        cat_off.push(catalog_flat.len() as u32);

        CatalogTree {
            parents: parent_words,
            depths,
            children_flat,
            child_off,
            catalog_flat,
            cat_off,
            root,
        }
    }

    /// The root node id.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// Whether the tree has no nodes (never true: construction requires one).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// The sorted catalog of `id`.
    #[inline]
    pub fn catalog(&self, id: NodeId) -> &[K] {
        let lo = self.cat_off[id.idx()] as usize;
        let hi = self.cat_off[id.idx() + 1] as usize;
        &self.catalog_flat[lo..hi]
    }

    /// All catalogs concatenated node-major — the flat backing array.
    /// Snapshot encoding walks this in one pass; node `id`'s span is
    /// exactly [`CatalogTree::catalog`]`(id)`.
    #[inline]
    pub fn catalog_flat(&self) -> &[K] {
        &self.catalog_flat
    }

    /// Ordered children of `id`.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        let lo = self.child_off[id.idx()] as usize;
        let hi = self.child_off[id.idx() + 1] as usize;
        &self.children_flat[lo..hi]
    }

    /// Parent of `id`, `None` for the root.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        let p = self.parents[id.idx()];
        (p != NO_PARENT).then_some(NodeId(p))
    }

    /// Depth of `id` (root = 0).
    #[inline]
    pub fn depth(&self, id: NodeId) -> u32 {
        self.depths[id.idx()]
    }

    /// Whether `id` is a leaf.
    #[inline]
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.child_off[id.idx()] == self.child_off[id.idx() + 1]
    }

    /// Iterator over all node ids in arena (topological) order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.parents.len() as u32).map(NodeId)
    }

    /// All leaves, in arena order.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.ids().filter(|&id| self.is_leaf(id)).collect()
    }

    /// Total number of catalog entries over all nodes (the paper's `n`).
    #[inline]
    pub fn total_catalog_size(&self) -> usize {
        self.catalog_flat.len()
    }

    /// Apply `ops` in order with set semantics (inserting a present key or
    /// removing an absent one changes nothing) and return the new tree
    /// with the number of catalog entries that changed. One pass: the
    /// untouched spans of the flat catalog array are copied in bulk, each
    /// touched node's catalog is merged with the last op on each of its
    /// keys, the catalog offsets shift by the running size change, and
    /// the shape arrays are cloned — `O(n + m log m)` for `n` entries and
    /// `m` ops.
    ///
    /// # Panics
    /// Panics if an op names a node outside the tree, or if the catalogs
    /// outgrow the `u32` spans.
    pub fn apply_batch(&self, ops: &[UpdateOp<K>]) -> (Self, usize) {
        let n = self.len();
        // The last op on a (node, key) decides whether the key is present:
        // sort newest-first within each pair and keep the first.
        let mut edits: Vec<(u32, K, usize, bool)> = ops
            .iter()
            .enumerate()
            .map(|(i, op)| match *op {
                UpdateOp::Insert(node, key) => (node.0, key, i, true),
                UpdateOp::Remove(node, key) => (node.0, key, i, false),
            })
            .collect();
        edits.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(b.2.cmp(&a.2)));
        edits.dedup_by_key(|e| (e.0, e.1));

        let inserts = edits.iter().filter(|e| e.3).count();
        let mut flat = Vec::with_capacity(self.catalog_flat.len() + inserts);
        let mut cat_off = Vec::with_capacity(n + 1);
        let mut changed = 0usize;
        let mut next = 0usize; // first node whose span is not yet written
        let mut rest = edits.as_slice();
        while let Some(&(node, ..)) = rest.first() {
            let v = node as usize;
            assert!(v < n, "update names node {v} outside a tree of {n} nodes");
            self.copy_spans(next, v, &mut flat, &mut cat_off);
            let run = rest.iter().take_while(|e| e.0 == node).count();
            let (mine, later) = rest.split_at(run);
            rest = later;
            cat_off.push(flat.len() as u32);
            let cat = self.catalog(NodeId(node));
            let mut i = 0usize;
            for &(_, key, _, insert) in mine {
                let j = i + cat[i..].partition_point(|k| *k < key);
                flat.extend_from_slice(&cat[i..j]);
                i = j;
                let present = cat.get(i) == Some(&key);
                if present {
                    i += 1;
                }
                if insert {
                    debug_assert!(key < K::SUPREMUM, "catalogs must not store the SUPREMUM");
                    flat.push(key);
                }
                if present != insert {
                    changed += 1;
                }
            }
            flat.extend_from_slice(&cat[i..]);
            next = v + 1;
        }
        self.copy_spans(next, n, &mut flat, &mut cat_off);
        cat_off.push(flat.len() as u32);
        // Every offset is at most the final length, so no cast above
        // truncated if this holds.
        assert!(
            flat.len() < u32::MAX as usize,
            "catalog total exceeds u32 spans"
        );
        let tree = CatalogTree {
            parents: self.parents.clone(),
            depths: self.depths.clone(),
            children_flat: self.children_flat.clone(),
            child_off: self.child_off.clone(),
            catalog_flat: flat,
            cat_off,
            root: self.root,
        };
        (tree, changed)
    }

    /// Append the catalogs of nodes `from..to` unchanged to `flat`, and
    /// their offsets, rebased onto `flat`'s current end, to `cat_off`.
    fn copy_spans(&self, from: usize, to: usize, flat: &mut Vec<K>, cat_off: &mut Vec<u32>) {
        let lo = self.cat_off[from] as usize;
        let hi = self.cat_off[to] as usize;
        let base = flat.len();
        cat_off.extend(
            self.cat_off[from..to]
                .iter()
                .map(|&off| (base + off as usize - lo) as u32),
        );
        flat.extend_from_slice(&self.catalog_flat[lo..hi]);
    }

    /// Maximum node degree (number of children).
    pub fn max_degree(&self) -> usize {
        self.child_off
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Height of the tree (longest root-to-leaf edge count).
    pub fn height(&self) -> u32 {
        self.depths.iter().copied().max().unwrap_or(0)
    }

    /// The path from the root to `leaf`, inclusive, as node ids.
    ///
    /// # Panics
    /// Panics (debug) if `leaf` is not in the arena.
    pub fn path_from_root(&self, leaf: NodeId) -> Vec<NodeId> {
        let mut path = Vec::with_capacity(self.depth(leaf) as usize + 1);
        let mut cur = Some(leaf);
        while let Some(id) = cur {
            path.push(id);
            cur = self.parent(id);
        }
        path.reverse();
        debug_assert_eq!(path[0], self.root);
        path
    }

    /// Which child slot of `parent` leads to `child`.
    ///
    /// # Panics
    /// Panics if `child` is not a child of `parent`.
    pub fn child_slot(&self, parent: NodeId, child: NodeId) -> usize {
        self.children(parent)
            .iter()
            .position(|&c| c == child)
            .expect("child_slot: not a child of parent")
    }

    /// Nodes grouped by depth: `levels()[d]` lists all nodes at depth `d`.
    pub fn levels(&self) -> Vec<Vec<NodeId>> {
        let mut levels: Vec<Vec<NodeId>> = vec![Vec::new(); self.height() as usize + 1];
        for id in self.ids() {
            levels[self.depth(id) as usize].push(id);
        }
        levels
    }

    /// Recompute every node's depth with the Euler tour technique
    /// (`fc-pram::listrank`): `O(log n)` EREW rounds — the parallel tree
    /// preprocessing step the paper's `O(log n)`-time bound presumes.
    /// Returns the depths (equal to the stored depth words, asserted in
    /// tests) and charges the cost to `pram`.
    pub fn depths_parallel(&self, pram: &mut fc_pram::cost::Pram) -> Vec<u32> {
        let parent: Vec<usize> = self
            .parents
            .iter()
            .enumerate()
            .map(|(i, &p)| if p == NO_PARENT { i } else { p as usize })
            .collect();
        let children: Vec<Vec<usize>> = self
            .ids()
            .map(|id| self.children(id).iter().map(|c| c.idx()).collect())
            .collect();
        fc_pram::listrank::euler_tour_depths(&parent, &children, pram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small fixed tree:
    /// ```text
    ///        0 [10,20]
    ///       / \
    ///  [5] 1   2 [15,25,35]
    ///     / \
    ///    3   4 []
    ///  [1,2]
    /// ```
    fn sample() -> CatalogTree<i64> {
        CatalogTree::from_parents(
            vec![None, Some(0), Some(0), Some(1), Some(1)],
            vec![vec![10, 20], vec![5], vec![15, 25, 35], vec![1, 2], vec![]],
        )
    }

    #[test]
    fn structure_queries() {
        let t = sample();
        assert_eq!(t.len(), 5);
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.children(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(t.parent(NodeId(3)), Some(NodeId(1)));
        assert_eq!(t.depth(NodeId(4)), 2);
        assert!(t.is_leaf(NodeId(2)));
        assert!(!t.is_leaf(NodeId(1)));
        assert_eq!(t.height(), 2);
        assert_eq!(t.max_degree(), 2);
        assert_eq!(t.total_catalog_size(), 8);
        assert_eq!(t.leaves(), vec![NodeId(2), NodeId(3), NodeId(4)]);
    }

    #[test]
    fn flat_spans_are_contiguous_and_ordered() {
        let t = sample();
        // Catalog spans tile one contiguous array in node order.
        assert_eq!(t.cat_off, vec![0, 2, 3, 6, 8, 8]);
        assert_eq!(t.catalog_flat, vec![10, 20, 5, 15, 25, 35, 1, 2]);
        // Child spans likewise, each span ordered by node index.
        assert_eq!(t.child_off, vec![0, 2, 4, 4, 4, 4]);
        assert_eq!(
            t.children_flat,
            vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
        assert_eq!(t.catalog(NodeId(2)), &[15, 25, 35]);
    }

    #[test]
    fn path_from_root_walks_up() {
        let t = sample();
        assert_eq!(
            t.path_from_root(NodeId(3)),
            vec![NodeId(0), NodeId(1), NodeId(3)]
        );
        assert_eq!(t.path_from_root(NodeId(0)), vec![NodeId(0)]);
    }

    #[test]
    fn child_slots() {
        let t = sample();
        assert_eq!(t.child_slot(NodeId(0), NodeId(1)), 0);
        assert_eq!(t.child_slot(NodeId(0), NodeId(2)), 1);
    }

    #[test]
    fn levels_group_by_depth() {
        let t = sample();
        let lv = t.levels();
        assert_eq!(lv.len(), 3);
        assert_eq!(lv[0], vec![NodeId(0)]);
        assert_eq!(lv[1], vec![NodeId(1), NodeId(2)]);
        assert_eq!(lv[2], vec![NodeId(3), NodeId(4)]);
    }

    #[test]
    fn empty_catalogs_are_allowed() {
        let t = sample();
        assert!(t.catalog(NodeId(4)).is_empty());
    }

    #[test]
    fn parallel_depths_match_stored_depths() {
        let t = sample();
        let mut pram = fc_pram::Pram::new(16, fc_pram::Model::Erew);
        let depths = t.depths_parallel(&mut pram);
        for id in t.ids() {
            assert_eq!(depths[id.idx()], t.depth(id));
        }
        assert!(pram.rounds() > 0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_catalog_rejected() {
        let _ = CatalogTree::from_parents(vec![None], vec![vec![3i64, 1]]);
    }

    #[test]
    #[should_panic(expected = "more than one root")]
    fn two_roots_rejected() {
        let _ = CatalogTree::from_parents(vec![None, None], vec![vec![], Vec::<i64>::new()]);
    }

    #[test]
    #[should_panic(expected = "must precede")]
    fn parent_after_child_rejected() {
        let _ = CatalogTree::from_parents(vec![Some(1), None], vec![vec![], Vec::<i64>::new()]);
    }
}
