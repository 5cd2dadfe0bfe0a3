//! Everything a run feeds the stack, derived from the workload seed alone:
//! the tree, the query stream, and the update stream. The served program
//! only ever receives these generated inputs.

use fc_catalog::gen::{self, SizeDist};
use fc_catalog::{CatalogTree, NodeId};
use fc_coop::dynamic::UpdateOp;
use fc_shard::ShardedOk;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Queries in the pool each phase cycles through.
const QUERY_POOL: usize = 1 << 16;
/// Share of the update stream that inserts fresh keys (the rest removes).
const INSERT_SHARE: f64 = 0.7;

/// One durable write plus the leaf a read must descend to see it.
#[derive(Debug, Clone, Copy)]
pub struct Update {
    pub op: UpdateOp<i64>,
    /// A leaf below the op's node: the path to it crosses the node.
    pub probe_leaf: NodeId,
}

pub struct Inputs {
    pub tree: CatalogTree<i64>,
    /// Uniform `(leaf, key)` successor queries.
    pub queries: Vec<(NodeId, i64)>,
    /// Inserts of keys absent from their node, and removes of keys present
    /// in the original tree; no key is inserted twice at one node.
    pub updates: Vec<Update>,
}

/// Build the inputs for a `depth`/`keys` tree and `updates` writes. Query
/// keys are uniform over the generator's own key range `0..16·keys`, so
/// they land among the keys rather than past all of them.
pub fn generate(depth: u32, keys: usize, updates: usize, seed: u64) -> Inputs {
    let mut rng = SmallRng::seed_from_u64(seed);
    let tree = gen::balanced_binary(depth, keys, SizeDist::Uniform, &mut rng);
    // The key range `gen::balanced_binary` draws from.
    let span = (keys as i64 * 16).max(1024);
    let leaves = tree.leaves();
    let queries = (0..QUERY_POOL)
        .map(|_| {
            (
                leaves[rng.gen_range(0..leaves.len())],
                rng.gen_range(0..span),
            )
        })
        .collect();
    let nodes = tree.len() as u32;
    let mut inserted: HashSet<(u32, i64)> = HashSet::new();
    let mut removed: HashSet<(u32, i64)> = HashSet::new();
    let mut stream = Vec::with_capacity(updates);
    while stream.len() < updates {
        let node = NodeId(rng.gen_range(0..nodes));
        let cat = tree.catalog(node);
        let op = if rng.gen_bool(INSERT_SHARE) {
            let key = rng.gen_range(0..span);
            if cat.binary_search(&key).is_ok() || !inserted.insert((node.0, key)) {
                continue;
            }
            UpdateOp::Insert(node, key)
        } else {
            if cat.is_empty() {
                continue;
            }
            let key = cat[rng.gen_range(0..cat.len())];
            if !removed.insert((node.0, key)) {
                continue;
            }
            UpdateOp::Remove(node, key)
        };
        stream.push(Update {
            op,
            probe_leaf: leaf_below(&tree, node),
        });
    }
    Inputs {
        tree,
        queries,
        updates: stream,
    }
}

fn leaf_below(tree: &CatalogTree<i64>, mut node: NodeId) -> NodeId {
    while let Some(&child) = tree.children(node).first() {
        node = child;
    }
    node
}

/// Sequential oracle: the smallest key `>= y` in one sorted catalog.
pub fn successor(cat: &[i64], y: i64) -> Option<i64> {
    cat.get(cat.partition_point(|k| *k < y)).copied()
}

/// Whether `(node id, answer)` entries (a wire answer, or a service's
/// path and answers) equal per-node `partition_point` on the tree the
/// benchmark generated, node for node along the root-to-leaf path.
pub fn answers_ok(
    tree: &CatalogTree<i64>,
    leaf: NodeId,
    y: i64,
    entries: &[(u32, Option<i64>)],
) -> bool {
    let path = tree.path_from_root(leaf);
    path.len() == entries.len()
        && path
            .iter()
            .zip(entries)
            .all(|(&node, &(id, ans))| id == node.0 && ans == successor(tree.catalog(node), y))
}

/// Whether a cluster answer is right: every leg must equal the oracle on
/// the catalogs of the generation that served it, and the merged answer
/// must be the first non-empty leg answer per node, in leg order.
pub fn sharded_ok(tree: &CatalogTree<i64>, leaf: NodeId, y: i64, ok: &ShardedOk<i64>) -> bool {
    let path = tree.path_from_root(leaf);
    if ok.path != path || ok.legs.is_empty() {
        return false;
    }
    let mut merged: Vec<Option<i64>> = vec![None; path.len()];
    for leg in &ok.legs {
        if leg.path != path || leg.answers.len() != path.len() {
            return false;
        }
        let served = leg.gen.st.tree();
        for ((&node, &ans), slot) in path.iter().zip(&leg.answers).zip(merged.iter_mut()) {
            if ans != successor(served.catalog(node), y) {
                return false;
            }
            if slot.is_none() {
                *slot = ans;
            }
        }
    }
    merged == ok.answers
}

/// The key an update op writes.
pub fn op_key(op: &UpdateOp<i64>) -> i64 {
    match *op {
        UpdateOp::Insert(_, k) | UpdateOp::Remove(_, k) => k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_keys_stay_in_range() {
        let a = generate(4, 800, 300, 11);
        let b = generate(4, 800, 300, 11);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.updates.len(), 300);
        for (x, y) in a.updates.iter().zip(&b.updates) {
            assert_eq!(x.op, y.op);
        }
        assert!(a.queries.iter().all(|&(_, y)| (0..800 * 16).contains(&y)));
        let c = generate(4, 800, 300, 12);
        assert_ne!(a.queries, c.queries);
    }

    #[test]
    fn updates_are_fresh_inserts_and_real_removes() {
        let inp = generate(4, 800, 500, 5);
        let inserts = inp
            .updates
            .iter()
            .filter(|u| matches!(u.op, UpdateOp::Insert(..)))
            .count();
        assert!((250..450).contains(&inserts), "{inserts}");
        for u in &inp.updates {
            let path = inp.tree.path_from_root(u.probe_leaf);
            match u.op {
                UpdateOp::Insert(node, k) => {
                    assert!(inp.tree.catalog(node).binary_search(&k).is_err());
                    assert!(path.contains(&node));
                }
                UpdateOp::Remove(node, k) => {
                    assert!(inp.tree.catalog(node).binary_search(&k).is_ok());
                    assert!(path.contains(&node));
                }
            }
        }
    }

    #[test]
    fn wire_oracle_rejects_a_wrong_entry() {
        let inp = generate(3, 400, 0, 9);
        let (leaf, y) = inp.queries[0];
        let mut entries: Vec<(u32, Option<i64>)> = inp
            .tree
            .path_from_root(leaf)
            .iter()
            .map(|&n| (n.0, successor(inp.tree.catalog(n), y)))
            .collect();
        assert!(answers_ok(&inp.tree, leaf, y, &entries));
        entries[1].1 = Some(-1);
        assert!(!answers_ok(&inp.tree, leaf, y, &entries));
        entries.pop();
        assert!(!answers_ok(&inp.tree, leaf, y, &entries));
    }
}
