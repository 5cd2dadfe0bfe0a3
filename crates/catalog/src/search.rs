//! Sequential search baselines along explicit root-to-leaf paths.
//!
//! Two algorithms, both returning `find(y, v)` for every node `v` on the
//! path (the paper's search output, Section 1):
//!
//! * [`search_path_naive`] — an independent binary search per node:
//!   `O(m log n)` for a path of `m` nodes. This is the strawman fractional
//!   cascading beats.
//! * [`search_path_fc`] — one binary search at the first node, then a
//!   bridge + constant-length walk per edge: `O(log n + m)`. This is the
//!   classical sequential fractional cascading search and the `p = 1`
//!   baseline of the cooperative experiments.

use crate::cascade::{CascadedTree, Find};
use crate::key::CatalogKey;
use crate::tree::{CatalogTree, NodeId};
use fc_pram::cost::Pram;

/// Output of a path search: `results[i]` is `find(y, path[i])`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSearchOutput {
    /// One result per path node, in path order.
    pub results: Vec<Find>,
}

/// Binary search independently in every catalog of `path`.
///
/// If `pram` is given, each node charges `ceil(log2(catalog len + 1))`
/// sequential steps (a single processor walks the path).
pub fn search_path_naive<K: CatalogKey>(
    tree: &CatalogTree<K>,
    path: &[NodeId],
    y: K,
    mut pram: Option<&mut Pram>,
) -> PathSearchOutput {
    let results = path
        .iter()
        .map(|&id| {
            let cat = tree.catalog(id);
            if let Some(pram) = pram.as_deref_mut() {
                let len = cat.len();
                pram.seq(((usize::BITS - len.leading_zeros()) as usize).max(1));
            }
            Find {
                native_idx: cat.partition_point(|k| *k < y) as u32,
            }
        })
        .collect();
    PathSearchOutput { results }
}

/// Fractionally cascaded sequential search: binary search in the first
/// path node's augmented catalog, then one bridge + back-walk per edge.
///
/// `path` must be a downward path (each element a child of the previous).
/// If `pram` is given, charges `log |A_root|` steps for the entry search
/// and `1 + walk` steps per edge.
///
/// # Panics
/// Panics (debug) if `path` is not a connected downward path.
pub fn search_path_fc<K: CatalogKey>(
    fc: &CascadedTree<K>,
    path: &[NodeId],
    y: K,
    pram: Option<&mut Pram>,
) -> PathSearchOutput {
    let mut results = Vec::with_capacity(path.len());
    search_path_fc_into(fc, path, y, pram, &mut results);
    PathSearchOutput { results }
}

/// [`search_path_fc`] writing into a caller-supplied buffer (cleared
/// first) — the batched hot loop's form: reusing one buffer across a
/// query stream removes the per-query allocation entirely.
pub fn search_path_fc_into<K: CatalogKey>(
    fc: &CascadedTree<K>,
    path: &[NodeId],
    y: K,
    mut pram: Option<&mut Pram>,
    results: &mut Vec<Find>,
) {
    assert!(!path.is_empty(), "path must be nonempty");
    let tree = fc.tree();
    results.clear();

    let mut aug = fc.find_aug(path[0], y);
    if let Some(pram) = pram.as_deref_mut() {
        let len = fc.keys(path[0]).len();
        pram.seq(((usize::BITS - len.leading_zeros()) as usize).max(1));
    }
    results.push(fc.native_result(path[0], aug));

    for w in path.windows(2) {
        let (parent, child) = (w[0], w[1]);
        let slot = tree.child_slot(parent, child);
        let (next, walked) = fc.descend(parent, slot, aug, y);
        if let Some(pram) = pram.as_deref_mut() {
            pram.seq(1 + walked);
        }
        aug = next;
        results.push(fc.native_result(child, aug));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, SizeDist};
    use fc_pram::Model;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn fc_matches_naive_on_random_trees() {
        let mut rng = SmallRng::seed_from_u64(101);
        for height in [0u32, 1, 3, 6, 9] {
            let total = 200usize << height.min(6);
            let tree = gen::balanced_binary(height, total, SizeDist::Uniform, &mut rng);
            let fc = CascadedTree::build(tree.clone(), 4);
            for _ in 0..20 {
                let leaf = gen::random_leaf(&tree, &mut rng);
                let path = tree.path_from_root(leaf);
                let y = rng.gen_range(-10..(total as i64 * 16) + 10);
                let a = search_path_naive(&tree, &path, y, None);
                let b = search_path_fc(&fc, &path, y, None);
                assert_eq!(a, b, "height {height} y {y}");
            }
        }
    }

    #[test]
    fn fc_is_cheaper_than_naive_on_deep_paths() {
        let mut rng = SmallRng::seed_from_u64(103);
        let tree = gen::balanced_binary(10, 1 << 15, SizeDist::Uniform, &mut rng);
        let fc = CascadedTree::build(tree.clone(), 4);
        let leaf = gen::random_leaf(&tree, &mut rng);
        let path = tree.path_from_root(leaf);
        let mut naive_cost = Pram::new(1, Model::Crew);
        let mut fc_cost = Pram::new(1, Model::Crew);
        for _ in 0..50 {
            let y = rng.gen_range(0..(1i64 << 19));
            search_path_naive(&tree, &path, y, Some(&mut naive_cost));
            search_path_fc(&fc, &path, y, Some(&mut fc_cost));
        }
        assert!(
            fc_cost.steps() * 2 < naive_cost.steps(),
            "fc {} vs naive {}",
            fc_cost.steps(),
            naive_cost.steps()
        );
    }

    #[test]
    fn works_on_single_node_path() {
        let mut rng = SmallRng::seed_from_u64(105);
        let tree = gen::balanced_binary(3, 100, SizeDist::Uniform, &mut rng);
        let fc = CascadedTree::build(tree.clone(), 4);
        let path = vec![tree.root()];
        let out = search_path_fc(&fc, &path, 50, None);
        assert_eq!(out.results.len(), 1);
        assert_eq!(out, search_path_naive(&tree, &path, 50, None));
    }

    #[test]
    fn extreme_queries_hit_boundaries() {
        let mut rng = SmallRng::seed_from_u64(107);
        let tree = gen::balanced_binary(5, 500, SizeDist::Uniform, &mut rng);
        let fc = CascadedTree::build(tree.clone(), 4);
        let leaf = gen::random_leaf(&tree, &mut rng);
        let path = tree.path_from_root(leaf);
        for y in [i64::MIN, -1, 0, i64::MAX - 1] {
            let a = search_path_naive(&tree, &path, y, None);
            let b = search_path_fc(&fc, &path, y, None);
            assert_eq!(a, b, "y {y}");
        }
        // y below everything: every result must be index 0.
        let lo = search_path_fc(&fc, &path, i64::MIN, None);
        assert!(lo.results.iter().all(|f| f.native_idx == 0));
        // y above everything: every result must be the catalog length.
        let hi = search_path_fc(&fc, &path, i64::MAX - 1, None);
        for (f, &id) in hi.results.iter().zip(&path) {
            assert_eq!(f.native_idx as usize, tree.catalog(id).len());
        }
    }

    #[test]
    fn works_on_path_trees() {
        let mut rng = SmallRng::seed_from_u64(109);
        let tree = gen::path(64, 2000, SizeDist::Uniform, &mut rng);
        let fc = CascadedTree::build(tree.clone(), 4);
        let leaf = *tree.leaves().first().unwrap();
        let path = tree.path_from_root(leaf);
        assert_eq!(path.len(), 64);
        for _ in 0..10 {
            let y = rng.gen_range(0..32_000);
            assert_eq!(
                search_path_naive(&tree, &path, y, None),
                search_path_fc(&fc, &path, y, None)
            );
        }
    }
}
