//! Units (height-`h_i` subtrees of `S'`) and their skeleton forests
//! `U_1, ..., U_m` (Section 2.1, "Our Final Approach", Figure 3).
//!
//! A **unit** is one of the subtrees the truncated structure `S'` is
//! partitioned into, rooted at a node whose depth is a multiple of the hop
//! height `h_i`. For a unit rooted at `u` whose augmented catalog has `t`
//! entries, the **skeleton forest** consists of `m = ceil(t / s_i)` trees of
//! the same shape as the unit, each carrying one augmented-catalog position
//! (*key*) per node:
//!
//! * the root key of `U_j` is the `(j+1)·s_i`-th entry of `u`'s catalog
//!   (the last tree gets the terminal `+∞` — the *sparse node* when the
//!   catalog was too small to sample at all);
//! * every child key is induced by the bridge from its parent's key.
//!
//! Lemma 1 proves the sampling factor `s_i = (2b+2)(2b+1)^(h_i)` makes the
//! `m` keys of every node pairwise distinct; [`check_lemma1`] verifies this
//! on built forests. The forests are stored compacted (BFS order per unit),
//! which is what lets Step 3 of the search assign processors in `O(1)`.

use crate::params::SubParams;
use fc_catalog::{CascadedTree, CatalogKey, NodeId};

/// Sentinel for "no child inside this unit".
pub const NO_CHILD: u32 = u32::MAX;

/// One unit of a substructure: a height-`<= h_i` subtree of `S'` with its
/// compacted skeleton forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unit {
    /// The unit's root in the underlying tree.
    pub root: NodeId,
    /// Unit nodes in BFS order (`nodes[0] == root`).
    pub nodes: Vec<NodeId>,
    /// For each unit-local node, the unit-local positions of its left and
    /// right children (`NO_CHILD` when the child is absent or outside the
    /// unit). Units are binary: the paper's main case.
    pub children_pos: Vec<[u32; 2]>,
    /// Relative level (0 at the unit root) of each unit-local node.
    pub level_of: Vec<u8>,
    /// Unit-local node indices in inorder (used by the implicit search's
    /// R→L transition detection, Section 2.3 / point-location Step 6).
    pub inorder: Vec<u32>,
    /// Number of skeleton trees `m`.
    pub m: u32,
    /// Compacted key matrix: `keys[j * nodes.len() + z]` is the
    /// augmented-catalog index of `key[z, U_j]` in node `z`'s catalog.
    pub keys: Vec<u32>,
}

impl Unit {
    /// Key (augmented index) of unit-local node `z` in skeleton tree `j`.
    #[inline]
    pub fn key(&self, j: usize, z: usize) -> u32 {
        self.keys[j * self.nodes.len() + z]
    }

    /// Whether the forest consists of the single sparse tree (root catalog
    /// too small to sample).
    #[inline]
    pub fn is_sparse(&self) -> bool {
        self.m == 1
    }

    /// Number of stored skeleton keys (the unit's share of `T_i`'s space).
    #[inline]
    pub fn space(&self) -> usize {
        self.keys.len()
    }
}

/// One substructure `T_i`: all units for hop height `h_i`, plus a map from
/// unit-root tree nodes to unit ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Substructure {
    /// The parameters this substructure was built for.
    pub sp: SubParams,
    /// All units, in order of discovery (BFS over unit roots).
    pub units: Vec<Unit>,
    /// `unit_of_root[node_idx]` = unit id if that node is a unit root.
    pub unit_of_root: Vec<u32>,
}

/// Sentinel for "not a unit root".
pub const NOT_A_ROOT: u32 = u32::MAX;

impl Substructure {
    /// Build `T_i` over the cascaded tree: units rooted at depths
    /// `0, h, 2h, ... < trunc`, clipped at depth `trunc`.
    pub fn build<K: CatalogKey>(fc: &CascadedTree<K>, sp: SubParams) -> Self {
        let tree = fc.tree();
        let mut unit_of_root = vec![NOT_A_ROOT; tree.len()];
        let mut units = Vec::new();
        if sp.trunc == 0 {
            // Fully truncated: the whole search is the sequential tail.
            return Substructure {
                sp,
                units,
                unit_of_root,
            };
        }
        for id in tree.ids() {
            let d = tree.depth(id);
            if d.is_multiple_of(sp.h) && d < sp.trunc {
                let unit = build_unit(fc, id, sp);
                unit_of_root[id.idx()] = units.len() as u32;
                units.push(unit);
            }
        }
        Substructure {
            sp,
            units,
            unit_of_root,
        }
    }

    /// The unit rooted at `node`, if any.
    #[inline]
    pub fn unit_at(&self, node: NodeId) -> Option<&Unit> {
        let u = self.unit_of_root[node.idx()];
        (u != NOT_A_ROOT).then(|| &self.units[u as usize])
    }

    /// Total skeleton keys stored (the space Lemma 2 bounds).
    pub fn space(&self) -> usize {
        self.units.iter().map(Unit::space).sum()
    }

    /// Rebuild the unit rooted at `root` from the (repaired) cascaded
    /// structure, leaving every other unit untouched. Returns the number of
    /// skeleton keys rewritten, or `None` when `root` does not root a unit
    /// of this substructure. This is the localized-repair primitive: after
    /// a catalog/bridge fix at a node, only the `O(1)` units whose key
    /// matrices read through that node need refilling — not the whole `T_i`.
    pub fn rebuild_unit_at<K: CatalogKey>(
        &mut self,
        fc: &CascadedTree<K>,
        root: NodeId,
    ) -> Option<usize> {
        let u = self.unit_of_root[root.idx()];
        if u == NOT_A_ROOT {
            return None;
        }
        let unit = build_unit(fc, root, self.sp);
        let words = unit.space();
        self.units[u as usize] = unit;
        Some(words)
    }
}

/// Build the unit rooted at `root`: BFS to relative depth `sp.h`, clipped at
/// absolute depth `sp.trunc`, then fill the skeleton key matrix top-down.
fn build_unit<K: CatalogKey>(fc: &CascadedTree<K>, root: NodeId, sp: SubParams) -> Unit {
    let tree = fc.tree();
    let root_depth = tree.depth(root);

    // BFS over the unit's nodes.
    let mut nodes = vec![root];
    let mut level_of = vec![0u8];
    let mut children_pos: Vec<[u32; 2]> = Vec::new();
    let mut head = 0usize;
    while head < nodes.len() {
        let v = nodes[head];
        let lvl = level_of[head];
        let mut cp = [NO_CHILD; 2];
        if (lvl as u32) < sp.h && tree.depth(v) < sp.trunc {
            for (slot, &c) in tree.children(v).iter().enumerate() {
                debug_assert!(slot < 2, "units require binary trees");
                debug_assert!(tree.depth(c) == tree.depth(v) + 1);
                cp[slot] = nodes.len() as u32;
                nodes.push(c);
                level_of.push(lvl + 1);
            }
        }
        children_pos.push(cp);
        head += 1;
    }
    debug_assert_eq!(tree.depth(root), root_depth);

    // Inorder sequence of unit-local indices (iterative, stack-based).
    let mut inorder = Vec::with_capacity(nodes.len());
    let mut stack: Vec<(u32, bool)> = vec![(0, false)];
    while let Some((z, expanded)) = stack.pop() {
        if expanded {
            inorder.push(z);
            continue;
        }
        let [l, r] = children_pos[z as usize];
        if r != NO_CHILD {
            stack.push((r, false));
        }
        stack.push((z, true));
        if l != NO_CHILD {
            stack.push((l, false));
        }
    }
    debug_assert_eq!(inorder.len(), nodes.len());

    // Skeleton forest: m trees, keys induced by bridges.
    let t = fc.keys(root).len();
    let m = t.div_ceil(sp.s).max(1);
    let zn = nodes.len();
    let mut keys = vec![0u32; m * zn];
    for j in 0..m {
        // Root key: (j+1)*s-th entry (1-indexed) = index (j+1)*s - 1; the
        // last tree takes the terminal +inf (index t - 1).
        let root_key = if j + 1 == m {
            (t - 1) as u32
        } else {
            ((j + 1) * sp.s - 1) as u32
        };
        keys[j * zn] = root_key;
        // Top-down in BFS order: parents precede children.
        for z in 0..zn {
            let kz = keys[j * zn + z];
            let v = nodes[z];
            for (slot, &cpos) in children_pos[z].iter().enumerate() {
                if cpos != NO_CHILD {
                    let bridge = fc.aug(v).bridges[slot][kz as usize];
                    keys[j * zn + cpos as usize] = bridge;
                }
            }
        }
    }

    Unit {
        root,
        nodes,
        children_pos,
        level_of,
        inorder,
        m: m as u32,
        keys,
    }
}

/// Verify Lemma 1 on a built substructure: for every unit and every
/// unit-local node, the keys across the `m` skeleton trees are pairwise
/// distinct. Returns the number of violating (unit, node) pairs (0 when the
/// lemma holds) and the minimum observed key gap at the unit roots.
pub fn check_lemma1(sub: &Substructure) -> (usize, usize) {
    let mut violations = 0usize;
    let mut min_root_gap = usize::MAX;
    for unit in &sub.units {
        let zn = unit.nodes.len();
        for z in 0..zn {
            let mut ks: Vec<u32> = (0..unit.m as usize).map(|j| unit.key(j, z)).collect();
            ks.sort_unstable();
            let distinct = ks.windows(2).all(|w| w[0] < w[1]);
            if !distinct {
                violations += 1;
            }
            if z == 0 && unit.m >= 3 {
                // Gap statistic over the sampled root keys; the final tree's
                // +inf key may legitimately sit next to the last sample, so
                // it is excluded.
                let mut sampled: Vec<u32> =
                    (0..unit.m as usize - 1).map(|j| unit.key(j, 0)).collect();
                sampled.sort_unstable();
                for w in sampled.windows(2) {
                    min_root_gap = min_root_gap.min((w[1] - w[0]) as usize);
                }
            }
        }
    }
    (violations, min_root_gap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{CoopParams, ParamMode};
    use fc_catalog::gen::{self, SizeDist};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn build_sub(height: u32, total: usize, seed: u64) -> (CascadedTree<i64>, Substructure) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let tree = gen::balanced_binary(height, total, SizeDist::Uniform, &mut rng);
        let fc = CascadedTree::build_bidir(tree, 4);
        let params = CoopParams::derive(fc.fanout_bound(), height, ParamMode::Auto);
        let sp = params.subs[0];
        let sub = Substructure::build(&fc, sp);
        (fc, sub)
    }

    #[test]
    fn units_tile_the_covered_levels() {
        let (fc, sub) = build_sub(8, 5000, 1);
        let tree = fc.tree();
        let h = sub.sp.h;
        // Every node at depth multiple of h above trunc is a unit root.
        let expected: usize = tree
            .ids()
            .filter(|&id| tree.depth(id) % h == 0 && tree.depth(id) < sub.sp.trunc)
            .count();
        assert_eq!(sub.units.len(), expected);
        assert!(expected > 0);
    }

    #[test]
    fn unit_shape_matches_tree() {
        let (fc, sub) = build_sub(8, 5000, 2);
        let tree = fc.tree();
        for unit in &sub.units {
            assert_eq!(unit.nodes[0], unit.root);
            for (z, cp) in unit.children_pos.iter().enumerate() {
                for (slot, &pos) in cp.iter().enumerate() {
                    if pos != NO_CHILD {
                        let child = unit.nodes[pos as usize];
                        assert_eq!(tree.children(unit.nodes[z])[slot], child);
                        assert_eq!(unit.level_of[pos as usize], unit.level_of[z] + 1);
                    }
                }
            }
            // No node deeper than h relative levels.
            assert!(unit.level_of.iter().all(|&l| (l as u32) <= sub.sp.h));
        }
    }

    #[test]
    fn root_keys_are_the_sampled_entries() {
        let (fc, sub) = build_sub(8, 20_000, 3);
        for unit in &sub.units {
            let t = fc.keys(unit.root).len();
            let m = unit.m as usize;
            assert_eq!(m, t.div_ceil(sub.sp.s).max(1));
            for j in 0..m {
                let k = unit.key(j, 0) as usize;
                if j + 1 == m {
                    assert_eq!(k, t - 1, "last tree takes +inf");
                    assert_eq!(fc.keys(unit.root)[k], i64::SUPREMUM);
                } else {
                    assert_eq!(k, (j + 1) * sub.sp.s - 1);
                }
            }
        }
    }

    #[test]
    fn child_keys_follow_bridges() {
        let (fc, sub) = build_sub(6, 3000, 4);
        for unit in &sub.units {
            for j in 0..unit.m as usize {
                for z in 0..unit.nodes.len() {
                    for (slot, &cpos) in unit.children_pos[z].iter().enumerate() {
                        if cpos != NO_CHILD {
                            let expect =
                                fc.aug(unit.nodes[z]).bridges[slot][unit.key(j, z) as usize];
                            assert_eq!(unit.key(j, cpos as usize), expect);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lemma1_holds_on_random_instances() {
        for seed in 0..5 {
            let (_fc, sub) = build_sub(8, 10_000, 100 + seed);
            let (violations, min_gap) = check_lemma1(&sub);
            assert_eq!(violations, 0, "seed {seed}");
            // Root keys are spaced >= s by construction.
            if min_gap != usize::MAX {
                assert!(min_gap >= sub.sp.s, "gap {min_gap} < s {}", sub.sp.s);
            }
        }
    }

    #[test]
    fn lemma1_holds_on_skewed_instances() {
        let mut rng = SmallRng::seed_from_u64(55);
        let tree = gen::balanced_binary(8, 10_000, SizeDist::SingleHeavy(0.8), &mut rng);
        let fc = CascadedTree::build_bidir(tree, 4);
        let params = CoopParams::derive(fc.fanout_bound(), 8, ParamMode::Auto);
        for &sp in &params.subs {
            let sub = Substructure::build(&fc, sp);
            let (violations, _) = check_lemma1(&sub);
            assert_eq!(violations, 0, "h = {}", sp.h);
        }
    }

    #[test]
    fn sparse_units_have_single_tree_with_sup_key() {
        // Tiny catalogs: every unit root has fewer than s entries.
        let mut rng = SmallRng::seed_from_u64(9);
        let tree = gen::balanced_binary(6, 120, SizeDist::Uniform, &mut rng);
        let fc = CascadedTree::build_bidir(tree, 4);
        let params = CoopParams::derive(fc.fanout_bound(), 6, ParamMode::Auto);
        let sub = Substructure::build(&fc, params.subs[0]);
        for unit in &sub.units {
            if fc.keys(unit.root).len() <= sub.sp.s {
                assert!(unit.is_sparse());
                let k = unit.key(0, 0) as usize;
                assert_eq!(fc.keys(unit.root)[k], i64::SUPREMUM);
            }
        }
    }

    #[test]
    fn zero_trunc_builds_no_units() {
        let (fc, _) = build_sub(6, 1000, 10);
        let sp = SubParams {
            i: 0,
            h: 1,
            s: 56,
            p_min: 1,
            p_max: u64::MAX,
            trunc: 0,
        };
        let sub = Substructure::build(&fc, sp);
        assert!(sub.units.is_empty());
        assert_eq!(sub.space(), 0);
    }
}
