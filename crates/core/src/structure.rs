//! The preprocessed cooperative search structure `T'` (Theorem 1).
//!
//! [`CoopStructure`] bundles the fractional cascaded tree `S` with the
//! substructures `T_i` and exposes the space accounting that Lemma 2
//! bounds: the skeleton-forest sizes sum geometrically, so the whole of
//! `T'` occupies `O(n)` words.

use crate::params::{CoopParams, ParamMode};
use crate::skeleton::Substructure;
use fc_catalog::{CascadedTree, CatalogKey, CatalogTree};
use fc_pram::cost::Pram;
use std::sync::{Arc, OnceLock};

/// The cooperative search structure `T'` over a balanced binary catalog
/// tree.
///
/// ```
/// use fc_catalog::gen::{self, SizeDist};
/// use fc_coop::{CoopStructure, ParamMode};
/// use fc_coop::explicit::coop_search_explicit;
/// use fc_pram::{Model, Pram};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(1);
/// let tree = gen::balanced_binary(8, 4000, SizeDist::Uniform, &mut rng);
/// let st = CoopStructure::preprocess(tree, ParamMode::Auto);
///
/// let leaf = gen::random_leaf(st.tree(), &mut rng);
/// let path = st.tree().path_from_root(leaf);
/// let mut pram = Pram::new(1 << 16, Model::Crew); // 2^16 CREW processors
/// let out = coop_search_explicit(&st, &path, 1234, &mut pram);
/// assert_eq!(out.finds.len(), path.len());
/// assert!(pram.steps() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct CoopStructure<K> {
    tree: Arc<CatalogTree<K>>,
    mode: ParamMode,
    /// `S`, the parameters and every `T_i`, built from `tree` on first use
    /// unless a constructor built them eagerly.
    derived: OnceLock<Derived<K>>,
}

/// The part of `T'` that is a function of the native catalogs.
#[derive(Debug, Clone)]
struct Derived<K> {
    fc: CascadedTree<K>,
    params: CoopParams,
    subs: Vec<Substructure>,
}

impl<K: CatalogKey> Derived<K> {
    fn from_cascade(fc: CascadedTree<K>, mode: ParamMode, b: usize) -> Self {
        let height = fc.tree().height();
        let params = CoopParams::derive(b, height, mode);
        let subs = params
            .subs
            .iter()
            .map(|&sp| Substructure::build(&fc, sp))
            .collect();
        Derived { fc, params, subs }
    }
}

/// Per-substructure space row for the Lemma 2 experiment.
#[derive(Debug, Clone, Copy)]
pub struct SpaceRow {
    /// Substructure index.
    pub i: u32,
    /// Hop height.
    pub h: u32,
    /// Sampling factor.
    pub s: usize,
    /// Skeleton keys stored in this `T_i`.
    pub skeleton_words: usize,
    /// Number of units.
    pub units: usize,
}

/// The sampling factor of `S`: 4, the binary-tree standard.
const SAMPLE: usize = 4;

fn assert_binary<K: CatalogKey>(tree: &CatalogTree<K>) {
    assert!(
        tree.max_degree() <= 2,
        "CoopStructure requires a binary tree; binarize degree-d trees first (Theorem 3)"
    );
}

impl<K: CatalogKey> CoopStructure<K> {
    /// Full preprocessing: build the fractional cascaded structure `S`
    /// (sampling factor 4, the binary-tree standard) and every substructure
    /// `T_i`.
    ///
    /// # Panics
    /// Panics if the tree is not binary (use [`crate::general::binarize`]
    /// for higher degrees first, as Theorem 3 prescribes).
    pub fn preprocess(tree: CatalogTree<K>, mode: ParamMode) -> Self {
        let st = Self::deferred(tree, mode);
        st.derived();
        st
    }

    /// Wrap `tree` without preprocessing it: [`CoopStructure::tree`] is
    /// available at once, and the first call that needs `S`, the
    /// parameters or a substructure builds all three, bit-identical to
    /// [`CoopStructure::preprocess`]. The serving stack holds its
    /// structures this way, so a write publishes native catalogs only.
    ///
    /// # Panics
    /// Panics if the tree is not binary, as [`CoopStructure::preprocess`].
    pub fn deferred(tree: CatalogTree<K>, mode: ParamMode) -> Self {
        assert_binary(&tree);
        CoopStructure {
            tree: Arc::new(tree),
            mode,
            derived: OnceLock::new(),
        }
    }

    /// Preprocess from an existing cascaded structure, using its guaranteed
    /// fan-out bound `b`.
    pub fn from_cascade(fc: CascadedTree<K>, mode: ParamMode) -> Self {
        let b = fc.fanout_bound();
        Self::from_cascade_with_b(fc, mode, b)
    }

    /// Preprocess with an explicit fan-out constant `b` (the
    /// instance-calibrated ablation; searches validate window coverage at
    /// runtime and fall back to a full binary search on violation, counting
    /// the event).
    pub fn from_cascade_with_b(fc: CascadedTree<K>, mode: ParamMode, b: usize) -> Self {
        Self::with_derived(Derived::from_cascade(fc, mode, b), mode)
    }

    fn with_derived(derived: Derived<K>, mode: ParamMode) -> Self {
        CoopStructure {
            tree: Arc::clone(derived.fc.shared_tree()),
            mode,
            derived: OnceLock::from(derived),
        }
    }

    /// Preprocess while charging EREW PRAM cost: the cascade build is
    /// level-synchronous, and each substructure's skeleton fill is `h_i + 1`
    /// rounds of its total key count (every tree `U_j` of every unit fills
    /// one level per round, all in parallel, with exclusive reads because
    /// Lemma 1 keeps the key sets disjoint).
    pub fn preprocess_cost(tree: CatalogTree<K>, mode: ParamMode, pram: &mut Pram) -> Self {
        assert_binary(&tree);
        let fc = CascadedTree::build_bidir_cost(tree, SAMPLE, pram);
        let height = fc.tree().height();
        let b = fc.fanout_bound();
        let params = CoopParams::derive(b, height, mode);
        let mut subs = Vec::with_capacity(params.subs.len());
        for &sp in &params.subs {
            let sub = Substructure::build(&fc, sp);
            let words = sub.space();
            let rounds = sp.h as usize + 1;
            for _ in 0..rounds {
                pram.round(words.div_ceil(rounds));
            }
            subs.push(sub);
        }
        Self::with_derived(Derived { fc, params, subs }, mode)
    }

    /// The derived part, built now if no call has needed it yet. The
    /// paper applies [1] to the *bidirectional* version of T; the reverse
    /// samples are what make Lemma 1's key disjointness hold.
    fn derived(&self) -> &Derived<K> {
        self.derived.get_or_init(|| {
            let fc = CascadedTree::build_bidir_shared(Arc::clone(&self.tree), SAMPLE);
            let b = fc.fanout_bound();
            Derived::from_cascade(fc, self.mode, b)
        })
    }

    fn derived_mut(&mut self) -> &mut Derived<K> {
        self.derived();
        let cell = self.derived.get_mut();
        // fc-lint: allow(panic-free) -- the derived() call above initialised the cell
        cell.expect("derived() initialised the cell")
    }

    /// Whether `S`, the parameters and the substructures exist yet (see
    /// [`CoopStructure::deferred`]).
    pub fn is_derived(&self) -> bool {
        self.derived.get().is_some()
    }

    /// The underlying fractional cascaded structure `S`.
    #[inline]
    pub fn cascade(&self) -> &CascadedTree<K> {
        &self.derived().fc
    }

    /// The underlying catalog tree. Never builds the derived part.
    #[inline]
    pub fn tree(&self) -> &CatalogTree<K> {
        &self.tree
    }

    /// The derived parameters.
    #[inline]
    pub fn params(&self) -> &CoopParams {
        &self.derived().params
    }

    /// All substructures, in increasing hop height.
    #[inline]
    pub fn substructures(&self) -> &[Substructure] {
        &self.derived().subs
    }

    /// The substructure serving `p` processors, if any hop height pays off
    /// at that `p`.
    pub fn select(&self, p: usize) -> Option<&Substructure> {
        let d = self.derived();
        d.params.select(p).map(|i| &d.subs[i])
    }

    /// Mutable cascaded structure — a fault-injection hook for robustness
    /// tests and the `fc-resilience` crate (corruptions must be *detected*
    /// by the audit, never produce silently wrong answers). Not part of the
    /// stable API.
    #[doc(hidden)]
    pub fn cascade_mut_for_fault_injection(&mut self) -> &mut CascadedTree<K> {
        &mut self.derived_mut().fc
    }

    /// Mutable substructures — fault-injection/repair hook paired with
    /// [`Self::cascade_mut_for_fault_injection`]. Not part of the stable API.
    #[doc(hidden)]
    pub fn substructures_mut_for_fault_injection(&mut self) -> &mut [Substructure] {
        &mut self.derived_mut().subs
    }

    /// Split borrow for localized repair: the (already repaired) cascade
    /// read-only alongside mutable substructures, so individual units can be
    /// rebuilt in place. Not part of the stable API.
    #[doc(hidden)]
    pub fn cascade_and_subs_mut_for_repair(&mut self) -> (&CascadedTree<K>, &mut [Substructure]) {
        let d = self.derived_mut();
        (&d.fc, &mut d.subs)
    }

    /// Per-substructure space breakdown (the Lemma 2 experiment's rows).
    pub fn space_rows(&self) -> Vec<SpaceRow> {
        self.substructures()
            .iter()
            .map(|sub| SpaceRow {
                i: sub.sp.i,
                h: sub.sp.h,
                s: sub.sp.s,
                skeleton_words: sub.space(),
                units: sub.units.len(),
            })
            .collect()
    }

    /// Total words of `T'`: augmented catalogs + bridges + skeleton keys.
    /// Lemma 2: this is `O(n)`.
    pub fn total_space_words(&self) -> usize {
        let fc = self.cascade();
        let mut words = 0usize;
        for id in fc.tree().ids() {
            let aug = fc.aug(id);
            words += aug.keys.len() // keys
                + aug.native_succ.len() // native successor pointers
                + aug.bridges.iter().map(<[u32]>::len).sum::<usize>(); // bridges
        }
        words
            + self
                .substructures()
                .iter()
                .map(Substructure::space)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_catalog::gen::{self, SizeDist};
    use fc_pram::Model;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn preprocess_builds_every_band() {
        let mut rng = SmallRng::seed_from_u64(71);
        let tree = gen::balanced_binary(8, 8000, SizeDist::Uniform, &mut rng);
        let st = CoopStructure::preprocess(tree, ParamMode::Auto);
        assert!(!st.substructures().is_empty());
        for sub in st.substructures() {
            assert!(sub.sp.h >= 1);
        }
    }

    #[test]
    fn lemma2_total_space_is_linear() {
        let mut rng = SmallRng::seed_from_u64(73);
        let mut ratios = Vec::new();
        for height in [8u32, 10, 12] {
            let n = 1usize << (height + 4);
            let tree = gen::balanced_binary(height, n, SizeDist::Uniform, &mut rng);
            let st = CoopStructure::preprocess(tree, ParamMode::Theory);
            ratios.push(st.total_space_words() as f64 / n as f64);
        }
        // Space per catalog entry must not grow with n (Lemma 2).
        let max = ratios.iter().cloned().fold(0.0, f64::max);
        let min = ratios.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max / min < 1.5,
            "space/n ratios should be flat, got {ratios:?}"
        );
    }

    #[test]
    fn lemma2_per_substructure_bound() {
        // Lemma 2's two terms: T_i's skeleton space is at most the number
        // of covered nodes (units partition S', every unit has >= 1 tree)
        // plus the extra trees, bounded by (aug entries / s_i) * 2^(h_i+1).
        let mut rng = SmallRng::seed_from_u64(79);
        let tree = gen::balanced_binary(12, 1 << 16, SizeDist::Uniform, &mut rng);
        let nodes = tree.len();
        let st = CoopStructure::preprocess(tree, ParamMode::Auto);
        let aug_total = st.cascade().total_aug_size();
        let rows = st.space_rows();
        let mut sum = 0usize;
        for row in &rows {
            let sparse_term = 2 * nodes; // shared boundary nodes double-count
            let extra_term = (aug_total / row.s + row.units) * (1usize << (row.h + 1));
            assert!(
                row.skeleton_words <= sparse_term + extra_term,
                "row {row:?} exceeds Lemma 2 bound {} + {}",
                sparse_term,
                extra_term
            );
            sum += row.skeleton_words;
        }
        // The sum over all substructures stays linear in n + #nodes.
        assert!(
            sum <= 6 * (aug_total + nodes),
            "total skeleton space {sum} vs linear bound {}",
            6 * (aug_total + nodes)
        );
    }

    #[test]
    fn preprocess_cost_depth_is_polylog() {
        let mut rng = SmallRng::seed_from_u64(83);
        let n = 1usize << 14;
        let tree = gen::balanced_binary(10, n, SizeDist::Uniform, &mut rng);
        let log_n = (usize::BITS - n.leading_zeros()) as u64;
        let procs = (n as u64 / log_n).max(1) as usize;
        let mut pram = Pram::new(procs, Model::Erew);
        let st = CoopStructure::preprocess_cost(tree, ParamMode::Auto, &mut pram);
        assert!(st.total_space_words() > 0);
        assert!(
            pram.steps() <= 6 * log_n * log_n,
            "steps {} exceed 6 log^2 n = {}",
            pram.steps(),
            6 * log_n * log_n
        );
    }

    #[test]
    fn select_returns_band_for_large_p() {
        let mut rng = SmallRng::seed_from_u64(89);
        let tree = gen::balanced_binary(12, 64_000, SizeDist::Uniform, &mut rng);
        let st = CoopStructure::preprocess(tree, ParamMode::Auto);
        // With enough processors, some hop height always beats the
        // sequential estimate on a deep tree.
        assert!(st.select(1 << 28).is_some());
        // Cost-aware selection declines when nothing pays off.
        assert!(st.select(1).is_none());
    }

    #[test]
    #[should_panic(expected = "binary tree")]
    fn non_binary_tree_rejected() {
        let mut rng = SmallRng::seed_from_u64(97);
        let tree = gen::dary(3, 3, 500, &mut rng);
        let _ = CoopStructure::preprocess(tree, ParamMode::Auto);
    }
}
