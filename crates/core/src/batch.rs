//! Batched queries on real cores — the public batch API.
//!
//! The PRAM cost model measures what the paper bounds; this module is the
//! physical counterpart for throughput-oriented users: a batch of
//! independent searches executed with rayon, one task per query. (The
//! *intra*-query parallelism of the paper targets latency on a PRAM;
//! inter-query parallelism is what a multicore actually exploits — both
//! views are reported by the Criterion benches.)
//!
//! Two entry points, both re-exported at the crate root:
//!
//! * [`explicit_batch`] / [`explicit_batch_seq`] — raw batched descent,
//!   returning the full [`ExplicitSearchResult`] plus per-query step
//!   counts (experiment-grade output).
//! * [`implicit_batch`] — batched implicit searches with pluggable branch
//!   oracles.
//!
//! Serving-grade batches (the `fc-shard` gather legs) loop over
//! [`crate::explicit::certified_descent`] instead.

use crate::explicit::{coop_search_explicit, ExplicitSearchResult};
use crate::implicit::{coop_search_implicit, BranchOracle, ImplicitSearchResult};
use crate::structure::CoopStructure;
use fc_catalog::{CatalogKey, NodeId};
use fc_pram::cost::{Model, Pram};
use rayon::prelude::*;

/// Run a batch of explicit searches in parallel on the rayon pool. Each
/// query gets its own `p`-processor cost model; the returned step counts
/// are per query.
///
/// Queries are `(leaf, y)` pairs; paths are derived from the leaves.
pub fn explicit_batch<K: CatalogKey>(
    st: &CoopStructure<K>,
    queries: &[(NodeId, K)],
    p: usize,
) -> Vec<(ExplicitSearchResult, u64)> {
    queries
        .par_iter()
        .map(|&(leaf, y)| {
            let path = st.tree().path_from_root(leaf);
            let mut pram = Pram::new(p, Model::Crew);
            let out = coop_search_explicit(st, &path, y, &mut pram);
            (out, pram.steps())
        })
        .collect()
}

/// Sequential reference for [`explicit_batch`] (used by tests/benches).
pub fn explicit_batch_seq<K: CatalogKey>(
    st: &CoopStructure<K>,
    queries: &[(NodeId, K)],
    p: usize,
) -> Vec<(ExplicitSearchResult, u64)> {
    queries
        .iter()
        .map(|&(leaf, y)| {
            let path = st.tree().path_from_root(leaf);
            let mut pram = Pram::new(p, Model::Crew);
            let out = coop_search_explicit(st, &path, y, &mut pram);
            (out, pram.steps())
        })
        .collect()
}

/// Run a batch of implicit searches in parallel. The oracle must be
/// `Sync`; each query gets its own cost model.
pub fn implicit_batch<K: CatalogKey, O: BranchOracle<K> + Sync>(
    st: &CoopStructure<K>,
    oracles: &[(O, K)],
    p: usize,
) -> Vec<(ImplicitSearchResult, u64)> {
    oracles
        .par_iter()
        .map(|(oracle, y)| {
            let mut pram = Pram::new(p, Model::Crew);
            let out = coop_search_implicit(st, oracle, *y, &mut pram);
            (out, pram.steps())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::explicit::certified_descent;
    use crate::params::ParamMode;
    use fc_catalog::gen::{self, SizeDist};
    use fc_catalog::FcError;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn parallel_batch_equals_sequential_batch() {
        let mut rng = SmallRng::seed_from_u64(701);
        let tree = gen::balanced_binary(9, 20_000, SizeDist::Uniform, &mut rng);
        let st = CoopStructure::preprocess(tree, ParamMode::Auto);
        let queries: Vec<(NodeId, i64)> = (0..200)
            .map(|_| {
                (
                    gen::random_leaf(st.tree(), &mut rng),
                    rng.gen_range(0..(20_000i64 * 16)),
                )
            })
            .collect();
        let par = explicit_batch(&st, &queries, 1 << 16);
        let seq = explicit_batch_seq(&st, &queries, 1 << 16);
        assert_eq!(par.len(), seq.len());
        for ((a, sa), (b, sb)) in par.iter().zip(&seq) {
            assert_eq!(a.finds, b.finds);
            assert_eq!(sa, sb, "step accounting is deterministic");
        }
    }

    fn oracle(st: &CoopStructure<i64>, leaf: NodeId, y: i64) -> Vec<Option<i64>> {
        st.tree()
            .path_from_root(leaf)
            .iter()
            .map(|&node| {
                let cat = st.tree().catalog(node);
                cat.get(cat.partition_point(|k| *k < y)).copied()
            })
            .collect()
    }

    /// [`certified_descent`] over a batch of `(leaf, y)` queries.
    fn certified(
        st: &CoopStructure<i64>,
        queries: &[(NodeId, i64)],
        cancel: &CancelToken,
    ) -> Vec<Result<Vec<Option<i64>>, FcError>> {
        queries
            .iter()
            .map(|&(leaf, y)| {
                let mut out = Vec::new();
                let path = st.tree().path_from_root(leaf);
                certified_descent(st, &path, y, cancel, &mut out).map(|()| out)
            })
            .collect()
    }

    #[test]
    fn verified_batch_matches_the_sequential_oracle() {
        let mut rng = SmallRng::seed_from_u64(709);
        let tree = gen::balanced_binary(7, 6000, SizeDist::Uniform, &mut rng);
        let st = CoopStructure::preprocess(tree, ParamMode::Auto);
        let queries: Vec<(NodeId, i64)> = (0..150)
            .map(|_| {
                (
                    gen::random_leaf(st.tree(), &mut rng),
                    rng.gen_range(-5..(6000i64 * 16 + 5)),
                )
            })
            .collect();
        let cancel = CancelToken::new();
        let out = certified(&st, &queries, &cancel);
        assert_eq!(out.len(), queries.len());
        for (res, &(leaf, y)) in out.iter().zip(&queries) {
            let got = res.as_ref().expect("clean structure must certify");
            assert_eq!(*got, oracle(&st, leaf, y));
        }
    }

    #[test]
    fn verified_batch_agrees_with_raw_batch_finds() {
        let mut rng = SmallRng::seed_from_u64(711);
        let tree = gen::balanced_binary(6, 2000, SizeDist::LeafHeavy, &mut rng);
        let st = CoopStructure::preprocess(tree, ParamMode::Auto);
        let queries: Vec<(NodeId, i64)> = (0..60)
            .map(|_| {
                (
                    gen::random_leaf(st.tree(), &mut rng),
                    rng.gen_range(0..(2000i64 * 16)),
                )
            })
            .collect();
        let cancel = CancelToken::new();
        let verified = certified(&st, &queries, &cancel);
        let raw = explicit_batch(&st, &queries, 256);
        for ((v, (r, _)), &(leaf, _)) in verified.iter().zip(&raw).zip(&queries) {
            let path = st.tree().path_from_root(leaf);
            let from_raw: Vec<Option<i64>> = path
                .iter()
                .zip(&r.finds)
                .map(|(&node, f)| st.tree().catalog(node).get(f.native_idx as usize).copied())
                .collect();
            assert_eq!(v.as_ref().expect("clean"), &from_raw);
        }
    }

    #[test]
    fn verified_batch_cancels_instead_of_answering() {
        let mut rng = SmallRng::seed_from_u64(713);
        let tree = gen::balanced_binary(5, 800, SizeDist::Uniform, &mut rng);
        let st = CoopStructure::preprocess(tree, ParamMode::Auto);
        let queries: Vec<(NodeId, i64)> = (0..10)
            .map(|_| (gen::random_leaf(st.tree(), &mut rng), 5i64))
            .collect();
        let cancel = CancelToken::new();
        cancel.cancel();
        let out = certified(&st, &queries, &cancel);
        assert_eq!(out.len(), queries.len());
        for res in &out {
            assert_eq!(*res, Err(FcError::Cancelled));
        }
    }

    #[test]
    fn verified_empty_batch() {
        let mut rng = SmallRng::seed_from_u64(715);
        let tree = gen::balanced_binary(4, 200, SizeDist::Uniform, &mut rng);
        let st = CoopStructure::preprocess(tree, ParamMode::Auto);
        let cancel = CancelToken::new();
        assert!(certified(&st, &[], &cancel).is_empty());
        // An empty path has no node to answer: `Ok`, with the buffer cleared.
        let mut out = vec![Some(1i64)];
        assert_eq!(certified_descent(&st, &[], 5, &cancel, &mut out), Ok(()));
        assert!(out.is_empty());
    }

    #[test]
    fn empty_batch() {
        let mut rng = SmallRng::seed_from_u64(703);
        let tree = gen::balanced_binary(4, 200, SizeDist::Uniform, &mut rng);
        let st = CoopStructure::preprocess(tree, ParamMode::Auto);
        assert!(explicit_batch(&st, &[], 64).is_empty());
    }

    #[test]
    fn implicit_batch_reaches_targets() {
        use crate::implicit::ConsistentLeafOracle;
        let mut rng = SmallRng::seed_from_u64(707);
        let tree = gen::balanced_binary(7, 4000, SizeDist::Uniform, &mut rng);
        let st = CoopStructure::preprocess(tree, ParamMode::Auto);
        // LeafOracleAdapter borrows the tree and the oracle, both Sync, so
        // batches work directly.
        use crate::implicit::LeafOracleAdapter;
        let targets: Vec<NodeId> = (0..20)
            .map(|_| gen::random_leaf(st.tree(), &mut rng))
            .collect();
        let oracles: Vec<ConsistentLeafOracle> = targets
            .iter()
            .map(|&t| ConsistentLeafOracle::new(st.tree(), t))
            .collect();
        let pairs: Vec<(LeafOracleAdapter<'_, i64>, i64)> = oracles
            .iter()
            .map(|o| (LeafOracleAdapter::new(st.tree(), o), 777i64))
            .collect();
        let out = implicit_batch(&st, &pairs, 1 << 14);
        for ((res, _), &target) in out.iter().zip(&targets) {
            assert_eq!(*res.path.last().unwrap(), target);
        }
    }
}
