//! Explicit cooperative search (Section 2.2).
//!
//! Given a root-to-leaf path known in advance, `p` processors locate `y` in
//! every catalog along the path in `O((log n)/log p)` CREW steps:
//!
//! 1. a cooperative `p`-ary binary search locates `y` in the root's
//!    augmented catalog;
//! 2. each *hop* advances `h_i = Θ(log p)` levels in `O(1)` steps — Step 2
//!    moves right to the nearest sampled entry (choosing the skeleton tree
//!    `U_j`), Step 3 assigns one processor to each candidate position in
//!    the window `[k - q - r, k + q]` around every path node's skeleton
//!    key (Lemma 3 guarantees the window contains `find(y, v)`);
//! 3. the truncated tail (at most `(log n)/log p` levels) is searched
//!    sequentially through the bridges (Step 5).
//!
//! The implementation computes each window's answer by binary search but
//! **charges the PRAM cost of the window scan** the paper prescribes, and
//! verifies that the true answer indeed falls inside the window — a
//! per-query validation of Lemma 3. A violation (possible only when the
//! structure was built with an understated fan-out constant `b`) is counted
//! in [`SearchStats::fallbacks`] and repaired with a full binary search, so
//! results are always exact.

use crate::cancel::CancelToken;
use crate::skeleton::NO_CHILD;
use crate::structure::CoopStructure;
use fc_catalog::cascade::Find;
use fc_catalog::search::search_path_fc;
use fc_catalog::{CatalogKey, FcError, NodeId};
use fc_pram::cost::Pram;
use fc_pram::primitives::coop_lower_bound_traced;
use fc_pram::shadow::{NoTrace, Tracer};

/// Counters describing how a cooperative search executed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Constant-time hops performed (Steps 2–4 iterations).
    pub hops: usize,
    /// Window-coverage violations repaired by binary search (0 whenever the
    /// structure uses the guaranteed fan-out bound — Lemma 3).
    pub fallbacks: usize,
    /// Total candidate positions examined across all hop windows.
    pub window_ops: u64,
    /// Path nodes searched sequentially in the truncated tail (Step 5).
    pub tail_nodes: usize,
    /// Hop height of the substructure used (`None` = fully sequential).
    pub used_h: Option<u32>,
}

/// Result of an explicit cooperative search.
#[derive(Debug, Clone)]
pub struct ExplicitSearchResult {
    /// `finds[i]` is `find(y, path[i])`, exactly as the sequential search
    /// would report.
    pub finds: Vec<Find>,
    /// `augs[i]` is the located position in `path[i]`'s *augmented*
    /// catalog — one bridge step away from any child's answer, which is
    /// how the retrieval structures (Theorem 6) reach the canonical nodes
    /// hanging off the search path in `O(1)`.
    pub augs: Vec<usize>,
    /// Execution counters.
    pub stats: SearchStats,
}

/// Run an explicit cooperative search for `y` along `path` (a downward path
/// starting at the root) with the processor count carried by `pram`.
///
/// Degrades gracefully: if processors die mid-search ([`Pram::kill`] or a
/// scheduled failure), the remaining hops re-select a substructure sized for
/// the survivors and continue, still returning the exact answer in
/// `O((log n)/log p')` steps for `p'` survivors.
///
/// # Panics
/// Panics if `path` is empty, does not start at the root, or is not a
/// connected downward path.
pub fn coop_search_explicit<K: CatalogKey>(
    st: &CoopStructure<K>,
    path: &[NodeId],
    y: K,
    pram: &mut Pram,
) -> ExplicitSearchResult {
    match search_explicit_inner(st, path, y, pram, false, None, &mut NoTrace) {
        Ok(out) => out,
        Err(e) => unreachable!("unchecked explicit search cannot fail: {e}"),
    }
}

/// [`coop_search_explicit`] with every logical access reported to a
/// [`Tracer`] on the CREW round structure of Section 2.2:
///
/// * Step 1 runs the traced cooperative `p`-ary root search (shared reads
///   of the query cell `("query", 0)` — legal under CREW, the analyzer's
///   canary under EREW);
/// * Step 2 (`search/hop-select`) has `min(s, t)` processors share the
///   position cursor and probe distinct augmented entries, one of them
///   publishing the selected skeleton tree to `("sel", 0)`;
/// * Step 3 (`search/hop-windows`) assigns one processor per candidate
///   window position: shared reads of the query, selection, and skeleton
///   key cells, private reads of `("aug", node)` at its candidate and left
///   neighbour (≤ 2 readers per catalog cell), and exactly one winner per
///   window writing its result cell `("res", 0)[i]` — every write
///   exclusive, which is the paper's CREW claim (Theorem 1/4);
/// * the Step 5 tail (`search/tail`) is single-processor bridge walking.
///
/// Results are bit-identical to [`coop_search_explicit`], as are the
/// `pram` charges.
pub fn coop_search_explicit_traced<K: CatalogKey, Tr: Tracer>(
    st: &CoopStructure<K>,
    path: &[NodeId],
    y: K,
    pram: &mut Pram,
    tr: &mut Tr,
) -> ExplicitSearchResult {
    match search_explicit_inner(st, path, y, pram, false, None, tr) {
        Ok(out) => out,
        Err(e) => unreachable!("unchecked explicit search cannot fail: {e}"),
    }
}

/// Audited variant of [`coop_search_explicit`] for structures that may have
/// been corrupted: instead of trusting the fan-out and window bounds, every
/// bridge crossing and window is verified, and the first violated invariant
/// aborts the search with a localized [`FcError`] — never a silently wrong
/// answer. The blame coordinate feeds `fc-resilience`'s audit/repair pass.
///
/// Costs the same PRAM steps as the unchecked search up to the abort point
/// (the guards are `O(1)` per hop and ride along with work already charged).
///
/// # Panics
/// Panics on the same malformed-`path` conditions as
/// [`coop_search_explicit`]. Structure corruption never panics.
pub fn coop_search_explicit_checked<K: CatalogKey>(
    st: &CoopStructure<K>,
    path: &[NodeId],
    y: K,
    pram: &mut Pram,
) -> Result<ExplicitSearchResult, FcError> {
    search_explicit_inner(st, path, y, pram, true, None, &mut NoTrace)
}

/// [`coop_search_explicit_checked`] with cooperative cancellation: the
/// token is polled once per descent step (root search, every hop, every
/// sequential tail node), so a query whose deadline passes mid-search
/// aborts within `O(1)` steps with [`FcError::Cancelled`] instead of
/// running to completion. All structural guards of the checked search stay
/// active — the result is never silently wrong, merely absent when
/// cancelled. It keeps the PRAM cost accounting for the experiments; served
/// reads search each path node's native catalog directly (`fc-serve`).
pub fn coop_search_explicit_cancellable<K: CatalogKey>(
    st: &CoopStructure<K>,
    path: &[NodeId],
    y: K,
    pram: &mut Pram,
    cancel: &CancelToken,
) -> Result<ExplicitSearchResult, FcError> {
    search_explicit_inner(st, path, y, pram, true, Some(cancel), &mut NoTrace)
}

/// Verify that `g` is a locally consistent lower-bound position for `y` in
/// `keys` (used in checked mode after every binary search: on a corrupted,
/// unsorted catalog a binary search can land anywhere).
fn audit_locate<K: CatalogKey>(keys: &[K], g: usize, y: K, node: u32) -> Result<(), FcError> {
    let prev_below = g == 0 || keys.get(g - 1).is_some_and(|&k| k < y);
    match keys.get(g) {
        Some(&k) if k >= y && prev_below => Ok(()),
        _ => Err(FcError::CorruptCatalog {
            node,
            entry: g.min(keys.len().saturating_sub(1)),
        }),
    }
}

fn search_explicit_inner<K: CatalogKey, Tr: Tracer>(
    st: &CoopStructure<K>,
    path: &[NodeId],
    y: K,
    pram: &mut Pram,
    checked: bool,
    cancel: Option<&CancelToken>,
    tr: &mut Tr,
) -> Result<ExplicitSearchResult, FcError> {
    assert!(!path.is_empty(), "path must be nonempty");
    assert_eq!(path[0], st.tree().root(), "path must start at the root");
    if let Some(c) = cancel {
        c.check()?;
    }

    let fc = st.cascade();
    let tree = st.tree();
    let slot_span = tree.max_degree() + 1;
    if checked && pram.processors() == 0 {
        return Err(FcError::NoProcessors);
    }

    let mut p_sel = pram.processors();
    let Some(mut sub) = st.select(p_sel) else {
        // No hop height pays off at this p: sequential fractional cascading
        // (the p = 1 baseline) is the right algorithm. The augmented walk
        // below runs FIRST: in checked mode it audits every bridge the
        // sequential search will trust, so `search_path_fc` (whose descents
        // are unchecked and may assert on a corrupted structure) only runs
        // once the path's bridges are certified. The walk costs what the
        // sequential search charges anyway.
        let mut augs = Vec::with_capacity(path.len());
        let mut aug = fc.find_aug(path[0], y);
        if checked {
            audit_locate(fc.keys(path[0]), aug, y, path[0].0)?;
        }
        if tr.live() {
            // Single-processor replay: the root binary search's probe
            // sequence, then one bridge step per level — trivially
            // exclusive, recorded for the per-phase access counts.
            tr.phase("search/seq");
            let keys = fc.keys(path[0]);
            tr.read(0, ("query", 0), 0);
            let (mut lo, mut hi) = (0usize, keys.len());
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                tr.read(0, ("aug", path[0].idx()), mid);
                if keys[mid] < y {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            tr.write(0, ("res", 0), 0);
            tr.barrier();
        }
        augs.push(aug);
        for (i, w) in path.windows(2).enumerate() {
            if let Some(c) = cancel {
                c.check()?;
            }
            let slot = st.tree().child_slot(w[0], w[1]);
            let (next, walked) = if checked {
                fc.checked_descend(w[0], slot, aug, y)?
            } else {
                fc.descend(w[0], slot, aug, y)
            };
            if tr.live() {
                tr.read(0, ("bridge", w[0].idx() * slot_span + slot), aug);
                for b in 0..=walked {
                    tr.read(0, ("aug", w[1].idx()), next + b);
                }
                tr.write(0, ("res", 0), i + 1);
                tr.barrier();
            }
            aug = next;
            augs.push(aug);
        }
        let out = search_path_fc(fc, path, y, Some(pram));
        return Ok(ExplicitSearchResult {
            finds: out.results,
            augs,
            stats: SearchStats {
                tail_nodes: path.len().saturating_sub(1),
                used_h: None,
                ..SearchStats::default()
            },
        });
    };

    let mut stats = SearchStats {
        used_h: Some(sub.sp.h),
        ..SearchStats::default()
    };

    // Step 1: cooperative p-ary search in the root's augmented catalog.
    tr.phase("search/root");
    let mut aug = coop_lower_bound_traced(
        fc.keys(path[0]),
        &y,
        pram,
        tr,
        ("aug", path[0].idx()),
        ("query", 0),
    );
    if tr.live() {
        // Hand the located position to the hop machinery: one processor
        // copies the root search's cursor into the hop cursor cell.
        tr.read(0, ("clb-cursor", path[0].idx()), 0);
        tr.write(0, ("cursor", 0), 0);
        tr.write(0, ("res", 0), 0);
        tr.barrier();
    }
    if checked {
        audit_locate(fc.keys(path[0]), aug, y, path[0].0)?;
    }
    let mut finds = Vec::with_capacity(path.len());
    let mut augs = Vec::with_capacity(path.len());
    finds.push(fc.native_result(path[0], aug));
    augs.push(aug);
    let mut pos = 0usize;

    // Steps 2-4: hop unit by unit while the current node roots a unit.
    // `realigning` is set after a mid-search processor failure forced a
    // substructure switch: the current node need not root a unit of the new
    // forest, so we walk sequentially until the levels line up again.
    let mut realigning = false;
    while pos + 1 < path.len() {
        if let Some(c) = cancel {
            c.check()?;
        }
        // Graceful degradation: processors may have died in the rounds just
        // charged. Re-read the machine size and re-Brent-schedule the rest
        // of the search onto the survivors.
        let p_now = pram.processors();
        if checked && p_now == 0 {
            return Err(FcError::NoProcessors);
        }
        if p_now != p_sel {
            p_sel = p_now;
            match st.select(p_now) {
                Some(s) => {
                    sub = s;
                    stats.used_h = Some(s.sp.h);
                    realigning = true;
                }
                None => break, // too few survivors to hop: sequential tail
            }
        }

        let v = path[pos];
        let unit = match sub.unit_at(v) {
            Some(u) => u,
            None => {
                if realigning {
                    // One sequential bridge step toward the next unit root
                    // of the newly selected forest.
                    let w = path[pos + 1];
                    let slot = tree.child_slot(v, w);
                    let (next, walked) = if checked {
                        fc.checked_descend(v, slot, aug, y)?
                    } else {
                        fc.descend(v, slot, aug, y)
                    };
                    if tr.live() {
                        tr.phase("search/tail");
                        tr.read(0, ("bridge", v.idx() * slot_span + slot), aug);
                        for b in 0..=walked {
                            tr.read(0, ("aug", w.idx()), next + b);
                        }
                        tr.write(0, ("res", 0), pos + 1);
                        tr.write(0, ("cursor", 0), 0);
                        tr.barrier();
                    }
                    pram.seq(1 + walked);
                    aug = next;
                    finds.push(fc.native_result(w, aug));
                    augs.push(aug);
                    pos += 1;
                    stats.tail_nodes += 1;
                    continue;
                }
                break;
            }
        };
        realigning = false;

        // Step 2: move right to the nearest sampled entry, selecting U_j.
        // The paper assigns s_i processors to find it; arithmetic gives the
        // same answer, charged identically.
        let t = fc.keys(v).len();
        let j = (aug / sub.sp.s).min(unit.m as usize - 1);
        let k_sel = sub.sp.s.min(t);
        if tr.live() {
            // Step 2 replay: min(s, t) processors share the cursor and
            // probe distinct entries right of it; the one holding the
            // sampled entry publishes the selected skeleton tree.
            tr.phase("search/hop-select");
            for i in 0..k_sel {
                tr.read(i, ("cursor", 0), 0);
                tr.read(i, ("aug", v.idx()), (aug + i).min(t - 1));
            }
            let sel_cell = (j * sub.sp.s).min(t - 1);
            let winner = sel_cell.saturating_sub(aug).min(k_sel - 1);
            tr.write(winner, ("sel", 0), 0);
            tr.barrier();
        }
        pram.round(k_sel);

        // Step 3: one window per path node inside the unit, all scanned in
        // a single synchronous round.
        let mut z = 0usize;
        let mut ops = 0usize;
        let start_pos = pos;
        tr.phase("search/hop-windows");
        let mut pid_base = 0usize;
        let mut cursor_winner: Option<usize> = None;
        while pos + 1 < path.len() {
            let w = path[pos + 1];
            let slot = tree.child_slot(path[pos], w);
            let cpos = unit.children_pos[z][slot];
            if cpos == NO_CHILD {
                break;
            }
            let l = unit.level_of[cpos as usize] as u32;
            let k = unit.key(j, cpos as usize) as usize;
            let (q, r) = st.params().window(&sub.sp, l);
            let len = fc.keys(w).len();
            let lo = k.saturating_sub(q + r);
            let hi = (k + q).min(len - 1);
            ops += hi - lo + 1;
            let g = fc.find_aug(w, y);
            if tr.live() {
                // One processor per candidate position: shared reads of
                // query/selection/skeleton-key cells, private probes of the
                // candidate and its left neighbour (≤ 2 readers per cell),
                // and the unique boundary winner writes the result cell.
                let skel = ("skel", unit.root.idx());
                for (off, c) in (lo..=hi).enumerate() {
                    let pid = pid_base + off;
                    tr.read(pid, ("query", 0), 0);
                    tr.read(pid, ("sel", 0), 0);
                    tr.read(pid, skel, j * unit.nodes.len() + cpos as usize);
                    tr.read(pid, ("aug", w.idx()), c);
                    if c > 0 {
                        tr.read(pid, ("aug", w.idx()), c - 1);
                    }
                }
                if (lo..=hi).contains(&g) {
                    let winner = pid_base + (g - lo);
                    tr.write(winner, ("res", 0), pos + 1);
                    cursor_winner = Some(winner);
                }
                pid_base += hi - lo + 1;
            }
            if checked {
                audit_locate(fc.keys(w), g, y, w.0)?;
            }
            if g < lo || g > hi {
                if checked {
                    // Lemma 3 violated at search time: a corrupt skeleton
                    // key (or understated b) steered the window away from
                    // the true answer. Blame the node and abort.
                    return Err(FcError::WindowOverrun {
                        node: w.0,
                        level: l,
                        got: g,
                        lo,
                        hi,
                    });
                }
                // Lemma 3 violation (only possible with an understated b):
                // repair with a full binary search.
                stats.fallbacks += 1;
                pram.seq((usize::BITS - len.leading_zeros()) as usize);
            }
            finds.push(fc.native_result(w, g));
            augs.push(g);
            aug = g;
            z = cpos as usize;
            pos += 1;
        }
        if tr.live() {
            // The last window's winner advances the hop cursor; the round
            // closes with one synchronous barrier covering every window.
            if let Some(wpid) = cursor_winner {
                tr.write(wpid, ("cursor", 0), 0);
            }
            tr.barrier();
        }
        stats.window_ops += ops as u64;
        pram.round(ops);
        pram.seq(1); // hop bookkeeping
        stats.hops += 1;
        if pos == start_pos {
            break; // unit had no room below (clipped) — go sequential
        }
    }

    // Step 5: sequential tail through the bridges.
    while pos + 1 < path.len() {
        if let Some(c) = cancel {
            c.check()?;
        }
        let v = path[pos];
        let w = path[pos + 1];
        let slot = tree.child_slot(v, w);
        let (next, walked) = if checked {
            fc.checked_descend(v, slot, aug, y)?
        } else {
            fc.descend(v, slot, aug, y)
        };
        if tr.live() {
            tr.phase("search/tail");
            tr.read(0, ("bridge", v.idx() * slot_span + slot), aug);
            for b in 0..=walked {
                tr.read(0, ("aug", w.idx()), next + b);
            }
            tr.write(0, ("res", 0), pos + 1);
            tr.write(0, ("cursor", 0), 0);
            tr.barrier();
        }
        pram.seq(1 + walked);
        aug = next;
        finds.push(fc.native_result(w, aug));
        augs.push(aug);
        pos += 1;
        stats.tail_nodes += 1;
    }

    Ok(ExplicitSearchResult { finds, augs, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamMode;
    use fc_catalog::gen::{self, SizeDist};
    use fc_catalog::search::search_path_naive;
    use fc_pram::Model;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn build(height: u32, total: usize, mode: ParamMode, seed: u64) -> CoopStructure<i64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let tree = gen::balanced_binary(height, total, SizeDist::Uniform, &mut rng);
        CoopStructure::preprocess(tree, mode)
    }

    fn check_against_naive(
        st: &CoopStructure<i64>,
        p: usize,
        queries: usize,
        seed: u64,
    ) -> SearchStats {
        let mut rng = SmallRng::seed_from_u64(seed);
        let tree = st.tree();
        let total = tree.total_catalog_size();
        let mut last = SearchStats::default();
        for _ in 0..queries {
            let leaf = gen::random_leaf(tree, &mut rng);
            let path = tree.path_from_root(leaf);
            let y = rng.gen_range(-10..(total as i64 * 16) + 10);
            let naive = search_path_naive(tree, &path, y, None);
            let mut pram = Pram::new(p, Model::Crew);
            let coop = coop_search_explicit(st, &path, y, &mut pram);
            assert_eq!(coop.finds, naive.results, "p={p} y={y}");
            last = coop.stats;
        }
        last
    }

    #[test]
    fn matches_naive_across_processor_counts_auto() {
        let st = build(9, 20_000, ParamMode::Auto, 301);
        for p in [1usize, 2, 8, 64, 512, 4096, 1 << 15, 1 << 20] {
            check_against_naive(&st, p, 25, 400 + p as u64);
        }
    }

    #[test]
    fn matches_naive_across_processor_counts_theory() {
        let st = build(9, 20_000, ParamMode::Theory, 303);
        for p in [1usize, 3, 16, 256, 1 << 12, 1 << 20] {
            check_against_naive(&st, p, 25, 500 + p as u64);
        }
    }

    #[test]
    fn lemma3_no_fallbacks_with_guaranteed_b() {
        for mode in [ParamMode::Theory, ParamMode::Auto] {
            let st = build(10, 50_000, mode, 307);
            let mut rng = SmallRng::seed_from_u64(311);
            let tree = st.tree();
            for p in [64usize, 4096, 1 << 16] {
                for _ in 0..50 {
                    let leaf = gen::random_leaf(tree, &mut rng);
                    let path = tree.path_from_root(leaf);
                    let y = rng.gen_range(0..(50_000i64 * 16));
                    let mut pram = Pram::new(p, Model::Crew);
                    let out = coop_search_explicit(&st, &path, y, &mut pram);
                    assert_eq!(out.stats.fallbacks, 0, "mode {mode:?} p {p}");
                }
            }
        }
    }

    #[test]
    fn hops_replace_tail_as_p_grows() {
        let st = build(12, 1 << 16, ParamMode::Auto, 313);
        let tree = st.tree();
        let mut rng = SmallRng::seed_from_u64(317);
        let leaf = gen::random_leaf(tree, &mut rng);
        let path = tree.path_from_root(leaf);
        let y = 12345;
        let mut prev_tail = usize::MAX;
        for p in [1usize << 10, 1 << 14, 1 << 18] {
            let mut pram = Pram::new(p, Model::Crew);
            let out = coop_search_explicit(&st, &path, y, &mut pram);
            if let Some(h) = out.stats.used_h {
                assert!(h >= 1);
                assert!(out.stats.hops >= 1);
            }
            assert!(out.stats.tail_nodes <= prev_tail);
            prev_tail = prev_tail.min(out.stats.tail_nodes);
        }
    }

    #[test]
    fn steps_decrease_with_more_processors() {
        let st = build(12, 1 << 16, ParamMode::Auto, 331);
        let tree = st.tree();
        let mut rng = SmallRng::seed_from_u64(337);
        let mut total_steps = Vec::new();
        for p in [1usize, 1 << 16, 1 << 30] {
            let mut steps = 0u64;
            let mut rng2 = SmallRng::seed_from_u64(rng.gen());
            for _ in 0..30 {
                let leaf = gen::random_leaf(tree, &mut rng2);
                let path = tree.path_from_root(leaf);
                let y = rng2.gen_range(0..(1i64 << 24));
                let mut pram = Pram::new(p, Model::Crew);
                coop_search_explicit(&st, &path, y, &mut pram);
                steps += pram.steps();
            }
            total_steps.push(steps);
        }
        assert!(
            total_steps[2] < total_steps[0],
            "p = 2^30 should beat p = 1: {total_steps:?}"
        );
    }

    #[test]
    fn skewed_catalogs_are_searched_correctly() {
        let mut rng = SmallRng::seed_from_u64(341);
        let tree = gen::balanced_binary(9, 30_000, SizeDist::SingleHeavy(0.7), &mut rng);
        let st = CoopStructure::preprocess(tree, ParamMode::Auto);
        check_against_naive(&st, 1 << 14, 40, 347);
    }

    #[test]
    fn partial_paths_are_supported() {
        let st = build(8, 5000, ParamMode::Auto, 349);
        let tree = st.tree();
        let mut rng = SmallRng::seed_from_u64(353);
        let leaf = gen::random_leaf(tree, &mut rng);
        let full = tree.path_from_root(leaf);
        for cut in 1..=full.len() {
            let path = &full[..cut];
            let y = 777;
            let naive = search_path_naive(tree, path, y, None);
            let mut pram = Pram::new(1 << 12, Model::Crew);
            let coop = coop_search_explicit(&st, path, y, &mut pram);
            assert_eq!(coop.finds, naive.results, "cut {cut}");
        }
    }

    #[test]
    fn boundary_queries() {
        let st = build(8, 5000, ParamMode::Auto, 359);
        let tree = st.tree();
        let leaf = tree.leaves()[0];
        let path = tree.path_from_root(leaf);
        for y in [i64::MIN, -1, 0, i64::MAX - 1] {
            let naive = search_path_naive(tree, &path, y, None);
            let mut pram = Pram::new(1 << 12, Model::Crew);
            let coop = coop_search_explicit(&st, &path, y, &mut pram);
            assert_eq!(coop.finds, naive.results, "y {y}");
        }
    }

    #[test]
    fn traced_search_matches_untraced_and_is_crew_clean() {
        use fc_pram::ShadowMem;
        let st = build(9, 20_000, ParamMode::Auto, 401);
        let tree = st.tree();
        let mut rng = SmallRng::seed_from_u64(403);
        for p in [1usize, 64, 4096, 1 << 16] {
            for _ in 0..10 {
                let leaf = gen::random_leaf(tree, &mut rng);
                let path = tree.path_from_root(leaf);
                let y = rng.gen_range(-10..(20_000i64 * 16) + 10);
                let mut pram = Pram::new(p, Model::Crew);
                let plain = coop_search_explicit(&st, &path, y, &mut pram);
                let mut pram_t = Pram::new(p, Model::Crew);
                let mut shadow = ShadowMem::new(Model::Crew);
                let traced = coop_search_explicit_traced(&st, &path, y, &mut pram_t, &mut shadow);
                assert_eq!(traced.finds, plain.finds, "p={p} y={y}");
                assert_eq!(traced.augs, plain.augs, "p={p} y={y}");
                assert_eq!(traced.stats, plain.stats, "p={p} y={y}");
                assert_eq!(
                    pram_t.steps(),
                    pram.steps(),
                    "traced replay must not change cost"
                );
                assert_eq!(pram_t.rounds(), pram.rounds());
                assert!(
                    shadow.finish(),
                    "CREW violation at p={p} y={y}: {:?}",
                    shadow.violations().first()
                );
            }
        }
    }

    #[test]
    fn traced_search_is_the_erew_canary_for_p_above_one() {
        use fc_pram::ShadowMem;
        let st = build(12, 64_000, ParamMode::Auto, 409);
        let tree = st.tree();
        let mut rng = SmallRng::seed_from_u64(419);
        let leaf = gen::random_leaf(tree, &mut rng);
        let path = tree.path_from_root(leaf);

        // p = 1: a single processor breaks no EREW rule.
        let mut pram = Pram::new(1, Model::Crew);
        let mut shadow = ShadowMem::new(Model::Erew);
        coop_search_explicit_traced(&st, &path, 4321, &mut pram, &mut shadow);
        assert!(shadow.finish(), "sequential search must be EREW-clean");

        // p > 1: the cooperative root search shares the query cell — the
        // canary violation the analyzer gate requires to be detectable.
        let mut pram = Pram::new(1 << 20, Model::Crew);
        let mut shadow = ShadowMem::new(Model::Erew);
        let out = coop_search_explicit_traced(&st, &path, 4321, &mut pram, &mut shadow);
        assert!(out.stats.used_h.is_some(), "hop path must engage");
        assert!(!shadow.finish(), "CREW search must violate EREW");
        let v = &shadow.violations()[0];
        assert!(
            v.phase.starts_with("search/"),
            "blame must name a search phase, got {}",
            v.phase
        );
        assert!(!v.pairs.is_empty());
        let repro = shadow.repro().expect("first violation has a repro");
        assert!(repro.pids.len() >= 2);
        assert!(!repro.trace.is_empty());
    }

    #[test]
    #[should_panic(expected = "start at the root")]
    fn path_must_start_at_root() {
        let st = build(6, 1000, ParamMode::Auto, 361);
        let tree = st.tree();
        let leaf = tree.leaves()[0];
        let path = tree.path_from_root(leaf);
        let mut pram = Pram::new(64, Model::Crew);
        let _ = coop_search_explicit(&st, &path[1..], 5, &mut pram);
    }
}
