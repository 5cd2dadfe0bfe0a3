//! Blame-driven localized repair.
//!
//! [`repair`] consumes a [`BlameReport`] and restores the structure to a
//! *valid* state (every [`crate::audit`] check passes, hence
//! `fc_catalog::invariants::validate` passes) touching only the flagged
//! regions — much cheaper than the full rebuild `fc_coop::dynamic` falls
//! back to. The fix order exploits the dependency chain of the structure:
//!
//! 1. **Catalogs** (the only non-derivable state): sort the flagged node's
//!    keys (a value swap is undone exactly), restore the terminal supremum,
//!    and re-insert missing native keys into order-compatible suspect slots
//!    (a clobbered native-valued entry is restored exactly — the missing
//!    value fits precisely where the duplicate it left behind sits).
//! 2. **Rows**: `native_succ` and bridge arrays of every flagged or
//!    catalog-touched node (and of its parent, whose bridges point into it)
//!    are recomputed from scratch by the builder's exact two-pointer walk.
//! 3. **Skeleton units**: every flagged unit, and every unit whose key
//!    matrix reads a touched node, is rebuilt in place via
//!    [`fc_coop::skeleton::Substructure::rebuild_unit_at`].
//!
//! Because a corrupt catalog can cast blame on innocent neighbors, the pass
//! runs as a fixpoint: repair, re-audit, repeat (bounded). If the audit is
//! still dirty after [`MAX_ROUNDS`] — possible when corruption destroyed
//! non-derivable sampled values — the pass falls back to a full rebuild
//! from the (authoritative) native catalogs, and says so in the stats.

use crate::audit::{audit, Blame, BlameReport};
use fc_catalog::{CascadedTree, CatalogKey};
use fc_coop::CoopStructure;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Fixpoint bound before the full-rebuild fallback.
pub const MAX_ROUNDS: usize = 3;

/// What a [`repair`] pass did and what it cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Fixpoint rounds executed (audit passes not counted).
    pub rounds: usize,
    /// Catalog entries rewritten (sorted entries count once per node fix).
    pub catalog_entries_fixed: usize,
    /// `native_succ`/bridge rows recomputed.
    pub rows_recomputed: usize,
    /// Skeleton units rebuilt in place.
    pub units_rebuilt: usize,
    /// Words written by the localized repair.
    pub repair_ops: usize,
    /// Words a full rebuild would write (the structure's total size) — the
    /// cost `fc_coop::dynamic`'s rebuild fallback pays.
    pub full_rebuild_ops: usize,
    /// Whether the fixpoint failed to converge and the full rebuild ran.
    pub fell_back_to_full_rebuild: bool,
}

/// Repair `st` in place, guided by `report` (normally the output of
/// [`audit`]). Returns what was done; after return,
/// [`audit`] of `st` is clean — via localized fixes when possible, via the
/// full-rebuild fallback otherwise.
pub fn repair<K: CatalogKey>(st: &mut CoopStructure<K>, report: &BlameReport) -> RepairStats {
    let mut stats = RepairStats {
        full_rebuild_ops: st.total_space_words(),
        ..RepairStats::default()
    };
    if report.is_clean() {
        return stats;
    }

    let mut current = report.clone();
    for _ in 0..MAX_ROUNDS {
        stats.rounds += 1;
        repair_round(st, &current, &mut stats);
        current = audit(st);
        if current.is_clean() {
            return stats;
        }
    }

    // Fixpoint did not converge: rebuild everything from the native
    // catalogs, which the fault model treats as authoritative.
    let fc = st.cascade();
    let rebuilt =
        CascadedTree::build_bidir_shared(Arc::clone(fc.shared_tree()), fc.sample_factor());
    let mode = st.params().mode;
    let b = st.params().b;
    *st = CoopStructure::from_cascade_with_b(rebuilt, mode, b);
    stats.repair_ops += stats.full_rebuild_ops;
    stats.fell_back_to_full_rebuild = true;
    stats
}

/// Convenience round trip: audit, then repair if dirty. Returns the initial
/// report and the repair stats.
pub fn audit_and_repair<K: CatalogKey>(st: &mut CoopStructure<K>) -> (BlameReport, RepairStats) {
    let report = audit(st);
    let stats = repair(st, &report);
    (report, stats)
}

fn repair_round<K: CatalogKey>(
    st: &mut CoopStructure<K>,
    report: &BlameReport,
    stats: &mut RepairStats,
) {
    // Partition the blame.
    let mut catalog_nodes: BTreeSet<u32> = BTreeSet::new();
    let mut row_nodes: BTreeSet<u32> = BTreeSet::new();
    let mut bad_units: BTreeSet<(usize, usize)> = BTreeSet::new();
    for b in &report.findings {
        match *b {
            Blame::Catalog { node, .. } => {
                catalog_nodes.insert(node);
            }
            Blame::NativeSucc { node, .. } | Blame::Bridge { node, .. } => {
                row_nodes.insert(node);
            }
            Blame::Skeleton { sub, unit } => {
                bad_units.insert((sub, unit));
            }
        }
    }

    // Phase 1: catalogs.
    let node_ids: Vec<fc_catalog::NodeId> = st.tree().ids().collect();
    for &nid in &catalog_nodes {
        let Some(&id) = node_ids.get(nid as usize) else {
            continue;
        };
        let native: Vec<K> = st.tree().catalog(id).to_vec();
        let fc = st.cascade_mut_for_fault_injection();
        let keys = &mut fc.aug_mut_for_fault_injection(id).keys;
        let mut touched = 0usize;

        // 1a. Sort: a value transposition is undone exactly; otherwise a
        //     no-op on already-ordered keys.
        if keys.iter().zip(keys.iter().skip(1)).any(|(a, b)| a > b) {
            keys.sort_unstable();
            touched += keys.len();
        }
        // 1b. Terminal supremum.
        if let Some(last) = keys.last_mut() {
            if *last != K::SUPREMUM {
                *last = K::SUPREMUM;
                touched += 1;
            }
        }
        // 1c. Missing native keys: place each into the order-compatible
        //     suspect slot (prefer a duplicate — the footprint a clobbered
        //     entry leaves behind).
        for &nv in &native {
            if keys.binary_search(&nv).is_ok() {
                continue;
            }
            let i = keys.partition_point(|k| *k < nv);
            if i + 1 >= keys.len() {
                continue; // would clobber the terminal: not repairable locally
            }
            // Overwriting the insertion slot always preserves strict order
            // (keys[i-1] < nv < keys[i] <= keys[i+1]), and when the entry
            // was clobbered to a copy of its successor, this restores the
            // original value exactly.
            if let Some(slot) = keys.get_mut(i) {
                *slot = nv;
                touched += 1;
            }
        }
        if touched > 0 {
            stats.catalog_entries_fixed += touched;
            stats.repair_ops += touched;
        }
        row_nodes.insert(nid); // rows of a touched catalog must be redone
        if let Some(p) = st.tree().parent(id) {
            row_nodes.insert(p.0); // parent bridges point into this catalog
        }
    }

    // Phase 2: rows — recompute native_succ and all bridge rows of every
    // flagged/touched node with the builder's exact walks.
    for &nid in &row_nodes {
        let Some(&id) = node_ids.get(nid as usize) else {
            continue;
        };
        let tree_keys: Vec<K> = {
            let fc = st.cascade();
            fc.keys(id).to_vec()
        };
        let native: Vec<K> = st.tree().catalog(id).to_vec();
        let children: Vec<fc_catalog::NodeId> = st.tree().children(id).to_vec();
        let child_key_lists: Vec<Vec<K>> = children
            .iter()
            .map(|&c| st.cascade().keys(c).to_vec())
            .collect();

        let n = tree_keys.len();
        let mut native_succ = Vec::with_capacity(n);
        let mut j = 0usize;
        for &k in &tree_keys {
            while native.get(j).is_some_and(|&x| x < k) {
                j += 1;
            }
            native_succ.push(j as u32);
        }
        let mut bridges = Vec::with_capacity(children.len());
        for child_keys in &child_key_lists {
            let mut bj = 0usize;
            let mut bv = Vec::with_capacity(n);
            for &k in &tree_keys {
                while child_keys.get(bj).is_some_and(|&x| x < k) {
                    bj += 1;
                }
                bv.push((bj as u32).min(child_keys.len().saturating_sub(1) as u32));
            }
            bridges.push(bv);
        }

        let fc = st.cascade_mut_for_fault_injection();
        let mut aug = fc.aug_mut_for_fault_injection(id);
        let words = native_succ.len() + bridges.iter().map(Vec::len).sum::<usize>();
        // Arena spans are fixed-length, so a repair rewrites cells in place;
        // phase 1 never changes catalog lengths, so the shapes always match.
        for (dst, src) in aug.native_succ.iter_mut().zip(&native_succ) {
            *dst = *src;
        }
        for (slot, bv) in bridges.iter().enumerate() {
            if let Some(row) = aug.bridges.get_mut(slot) {
                for (dst, src) in row.iter_mut().zip(bv) {
                    *dst = *src;
                }
            }
        }
        stats.rows_recomputed += 1;
        stats.repair_ops += words;
    }

    // Phase 3: skeleton units — flagged units plus any unit reading a
    // touched node's catalog or bridges.
    let mut touched_nodes: BTreeSet<u32> = catalog_nodes;
    touched_nodes.extend(row_nodes.iter().copied());
    let (fc, subs) = st.cascade_and_subs_mut_for_repair();
    for (si, sub) in subs.iter_mut().enumerate() {
        let roots: Vec<(usize, fc_catalog::NodeId)> = sub
            .units
            .iter()
            .enumerate()
            .filter(|(ui, unit)| {
                bad_units.contains(&(si, *ui))
                    || unit.nodes.iter().any(|nd| touched_nodes.contains(&nd.0))
            })
            .map(|(ui, unit)| (ui, unit.root))
            .collect();
        for (_ui, root) in roots {
            if let Some(words) = sub.rebuild_unit_at(fc, root) {
                stats.units_rebuilt += 1;
                stats.repair_ops += words;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_catalog::gen::{self, SizeDist};
    use fc_catalog::invariants;
    use fc_coop::ParamMode;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn build(seed: u64) -> CoopStructure<i64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let tree = gen::balanced_binary(7, 4000, SizeDist::Uniform, &mut rng);
        CoopStructure::preprocess(tree, ParamMode::Auto)
    }

    #[test]
    fn clean_repair_is_a_noop() {
        let mut st = build(23);
        let (report, stats) = audit_and_repair(&mut st);
        assert!(report.is_clean());
        assert_eq!(stats.rounds, 0);
        assert_eq!(stats.repair_ops, 0);
    }

    #[test]
    fn bridge_tamper_round_trip() {
        let mut st = build(29);
        let root = st.tree().root();
        {
            let fc = st.cascade_mut_for_fault_injection();
            fc.aug_mut_for_fault_injection(root).bridges[0][5] += 1;
        }
        let (report, stats) = audit_and_repair(&mut st);
        assert!(!report.is_clean());
        assert!(!stats.fell_back_to_full_rebuild);
        assert!(stats.repair_ops < stats.full_rebuild_ops);
        assert!(audit(&st).is_clean());
        invariants::validate(&invariants::check_all(st.cascade())).unwrap();
    }

    #[test]
    fn key_swap_round_trip_restores_exact_values() {
        let mut st = build(31);
        let root = st.tree().root();
        let before = st.cascade().keys(root).to_vec();
        {
            let fc = st.cascade_mut_for_fault_injection();
            let keys = &mut fc.aug_mut_for_fault_injection(root).keys;
            keys.swap(2, 3);
        }
        let (_, stats) = audit_and_repair(&mut st);
        assert!(!stats.fell_back_to_full_rebuild);
        assert_eq!(st.cascade().keys(root), &before[..]);
        assert!(audit(&st).is_clean());
    }
}
