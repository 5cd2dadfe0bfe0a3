//! Localized structural self-audit of a [`CoopStructure`].
//!
//! [`crate::audit`] re-derives every redundant field of the structure from
//! its defining equation and reports each mismatch as a [`Blame`] coordinate
//! at the granularity the repair pass acts on: a catalog entry, a
//! `native_succ` entry, a bridge cell, or a whole skeleton unit.
//!
//! The checks, per node `v` with augmented catalog `A_v`:
//!
//! 1. **Order** — `A_v` is strictly increasing (builders dedup).
//! 2. **Terminal** — the last entry is `K::SUPREMUM`.
//! 3. **Completeness** — every native key of `v` appears in `A_v`
//!    (`A_v ⊇ C_v` by construction; a corrupted entry that *removes* a
//!    native key would make searches legitimately-looking but wrong).
//! 4. **Provenance** — every non-terminal entry of `A_v` appears in
//!    `C_v ∪ A_children ∪ A_parent` (all augmented values are native values
//!    or samples of a neighbor's augmented catalog).
//! 5. **`native_succ` exactness** — each entry equals the recomputed
//!    two-pointer rank of the key in the native catalog.
//! 6. **Bridge exactness** — each bridge cell equals the recomputed
//!    `partition_point` of the key in the child's augmented catalog (the
//!    builders use exact walks, so *any* deviation is corruption; in
//!    particular an **undershoot** — which the unaudited search would turn
//!    into a silently wrong answer — is caught here).
//!
//! And per skeleton unit: the root keys obey the sampling formula
//! (`(j+1)·s − 1`, last tree `t − 1`), the tree count is `⌈t/s⌉`, and every
//! child key equals the bridge-induced value of its parent key.
//!
//! Blame is *localized*, not forensic: a corrupt child catalog can make an
//! innocent parent's (correct) bridges look inexact. The repair fixpoint
//! tolerates this — it fixes catalogs first, recomputes the flagged rows
//! from the fixed catalogs, and re-audits.

use fc_catalog::{CatalogKey, FcError};
use fc_coop::CoopStructure;

/// One localized audit finding, at repair granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blame {
    /// The augmented catalog of `node` is wrong at (or around) `entry`:
    /// order violation, lost terminal, missing native key (`entry` is the
    /// insertion position), or unprovenanced value.
    Catalog {
        /// Arena index of the node.
        node: u32,
        /// Offending entry (or insertion position for a missing native).
        entry: usize,
    },
    /// `native_succ[entry]` of `node` differs from its recomputed value.
    NativeSucc {
        /// Arena index of the node.
        node: u32,
        /// Offending entry.
        entry: usize,
    },
    /// `bridges[slot][entry]` of `node` differs from its recomputed value.
    Bridge {
        /// Arena index of the parent node owning the bridge.
        node: u32,
        /// Child slot.
        slot: usize,
        /// Offending entry.
        entry: usize,
    },
    /// Skeleton unit `unit` of substructure `sub` violates the root-key
    /// formula or the bridge induction (flagged once per unit — the repair
    /// granularity is a whole unit rebuild).
    Skeleton {
        /// Substructure index (position in `CoopStructure::substructures`).
        sub: usize,
        /// Unit index within the substructure.
        unit: usize,
    },
}

impl Blame {
    /// The typed error this finding corresponds to, for interop with the
    /// checked search paths.
    pub fn to_error(self) -> FcError {
        match self {
            Blame::Catalog { node, entry } => FcError::CorruptCatalog { node, entry },
            Blame::NativeSucc { node, entry } => FcError::CorruptCatalog { node, entry },
            Blame::Bridge { node, slot, entry } => FcError::CorruptBridge { node, slot, entry },
            Blame::Skeleton { sub, unit } => FcError::WindowOverrun {
                node: unit as u32,
                level: sub as u32,
                got: 0,
                lo: 0,
                hi: 0,
            },
        }
    }
}

/// Aggregated audit result: all findings plus the scan cost (in examined
/// words), used by the `E-fault` experiment to price detection.
#[derive(Debug, Clone, Default)]
pub struct BlameReport {
    /// Every localized finding, in scan order.
    pub findings: Vec<Blame>,
    /// Words examined by the audit (catalog entries + rows + skeleton keys).
    pub words_scanned: usize,
}

impl BlameReport {
    /// `true` when the structure passed every check.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The first finding as a typed error, if any.
    pub fn first_error(&self) -> Option<FcError> {
        self.findings.first().map(|b| b.to_error())
    }

    /// Arena indices of all catalog/row-blamed nodes (deduplicated,
    /// unordered).
    pub fn blamed_nodes(&self) -> Vec<u32> {
        let mut nodes: Vec<u32> = self
            .findings
            .iter()
            .filter_map(|b| match *b {
                Blame::Catalog { node, .. }
                | Blame::NativeSucc { node, .. }
                | Blame::Bridge { node, .. } => Some(node),
                Blame::Skeleton { .. } => None,
            })
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

/// Audit every redundant field of `st` (see the module docs for the check
/// list). Runs in `O(W log W)` time for the `W` words it scans: the
/// provenance check merges each catalog once with each neighbor's, and the
/// completeness, `native_succ` and bridge checks binary-search one entry
/// at a time. Never panics on corrupted input.
pub fn audit<K: CatalogKey>(st: &CoopStructure<K>) -> BlameReport {
    let fc = st.cascade();
    let tree = st.tree();
    let mut findings = Vec::new();
    let mut words = 0usize;

    for v in tree.ids() {
        let aug = fc.aug(v);
        let keys = &aug.keys;
        let n = keys.len();
        let native = tree.catalog(v);
        words += n;
        if n == 0 {
            findings.push(Blame::Catalog {
                node: v.0,
                entry: 0,
            });
            continue;
        }

        // 1. Strict order.
        let mut sorted = true;
        for (i, (a, b)) in keys.iter().zip(keys.iter().skip(1)).enumerate() {
            if a >= b {
                findings.push(Blame::Catalog {
                    node: v.0,
                    entry: i + 1,
                });
                sorted = false;
            }
        }
        // 2. Terminal supremum.
        if keys.last() != Some(&K::SUPREMUM) {
            findings.push(Blame::Catalog {
                node: v.0,
                entry: n - 1,
            });
        }
        // 3. Completeness: every native key present.
        for &nv in native {
            let present = if sorted {
                keys.binary_search(&nv).is_ok()
            } else {
                keys.contains(&nv)
            };
            if !present {
                let entry = keys.partition_point(|k| *k < nv).min(n - 1);
                findings.push(Blame::Catalog { node: v.0, entry });
            }
        }
        // 4. Provenance: every non-terminal value is native or a neighbor
        //    sample. One merge per neighbor catalog (see `mark_present`).
        let body = keys.get(..n - 1).unwrap_or_default();
        let mut found: Vec<bool> = body
            .iter()
            .map(|k| native.binary_search(k).is_ok())
            .collect();
        for &c in tree.children(v) {
            mark_present(body, sorted, fc.keys(c), &mut found);
        }
        if let Some(p) = tree.parent(v) {
            mark_present(body, sorted, fc.keys(p), &mut found);
        }
        for (i, _) in found.iter().enumerate().filter(|(_, f)| !**f) {
            findings.push(Blame::Catalog {
                node: v.0,
                entry: i,
            });
        }
        // 5. native_succ exactness.
        words += aug.native_succ.len();
        if aug.native_succ.len() != n {
            findings.push(Blame::NativeSucc {
                node: v.0,
                entry: 0,
            });
        } else {
            for (i, (&stored, &key)) in aug.native_succ.iter().zip(keys.iter()).enumerate() {
                let expect = native.partition_point(|x| *x < key) as u32;
                if stored != expect {
                    findings.push(Blame::NativeSucc {
                        node: v.0,
                        entry: i,
                    });
                }
            }
        }
        // 6. Bridge exactness (covers undershoot, overshoot, and crossing:
        //    the builder's value is the unique exact partition point).
        for (slot, &c) in tree.children(v).iter().enumerate() {
            let child_keys = fc.keys(c);
            let Some(row) = aug.bridges.get(slot) else {
                findings.push(Blame::Bridge {
                    node: v.0,
                    slot,
                    entry: 0,
                });
                continue;
            };
            words += row.len();
            if row.len() != n {
                findings.push(Blame::Bridge {
                    node: v.0,
                    slot,
                    entry: 0,
                });
                continue;
            }
            for (i, (&stored, &key)) in row.iter().zip(keys.iter()).enumerate() {
                let expect = child_keys.partition_point(|x| *x < key) as u32;
                if stored != expect {
                    findings.push(Blame::Bridge {
                        node: v.0,
                        slot,
                        entry: i,
                    });
                }
            }
        }
    }

    // Skeleton forests: root-key formula + bridge induction, one blame per
    // bad unit (unit rebuild is the repair granularity).
    for (si, sub) in st.substructures().iter().enumerate() {
        'units: for (ui, unit) in sub.units.iter().enumerate() {
            let zn = unit.nodes.len();
            words += unit.keys.len();
            let t = fc.keys(unit.root).len();
            let m = unit.m as usize;
            if m != t.div_ceil(sub.sp.s).max(1) || unit.keys.len() != m * zn {
                findings.push(Blame::Skeleton { sub: si, unit: ui });
                continue;
            }
            for j in 0..m {
                let expect_root = if j + 1 == m {
                    t - 1
                } else {
                    (j + 1) * sub.sp.s - 1
                };
                if unit.key(j, 0) as usize != expect_root {
                    findings.push(Blame::Skeleton { sub: si, unit: ui });
                    continue 'units;
                }
                for (z, (cps, &wz)) in unit.children_pos.iter().zip(unit.nodes.iter()).enumerate() {
                    let kz = unit.key(j, z) as usize;
                    for (slot, &cpos) in cps.iter().enumerate() {
                        if cpos == fc_coop::skeleton::NO_CHILD {
                            continue;
                        }
                        let induced = fc
                            .aug(wz)
                            .bridges
                            .get(slot)
                            .and_then(|row| row.get(kz))
                            .copied();
                        if induced != Some(unit.key(j, cpos as usize)) {
                            findings.push(Blame::Skeleton { sub: si, unit: ui });
                            continue 'units;
                        }
                    }
                }
            }
        }
    }

    BlameReport {
        findings,
        words_scanned: words,
    }
}

/// Set `found[i]` for every `keys[i]` that occurs in `neighbor`. The
/// neighbor may itself be corrupt: it is merged as is when strictly
/// increasing and through a sorted copy otherwise. A strictly increasing
/// `keys` (`keys_sorted`) walks both lists once, `O(|keys| + |neighbor|)`;
/// an unsorted one (already blamed by the order check) binary-searches
/// each of its keys instead.
fn mark_present<K: CatalogKey>(keys: &[K], keys_sorted: bool, neighbor: &[K], found: &mut [bool]) {
    let copy: Vec<K>;
    let neighbor = if neighbor.windows(2).all(|w| w.first() < w.last()) {
        neighbor
    } else {
        let mut c = neighbor.to_vec();
        c.sort_unstable();
        c.dedup();
        copy = c;
        &copy
    };
    if keys_sorted {
        let mut rest = neighbor.iter().peekable();
        for (k, f) in keys.iter().zip(found.iter_mut()) {
            while rest.next_if(|x| *x < k).is_some() {}
            if rest.peek() == Some(&k) {
                *f = true;
            }
        }
    } else {
        for (k, f) in keys.iter().zip(found.iter_mut()) {
            *f |= neighbor.binary_search(k).is_ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_catalog::gen::{self, SizeDist};
    use fc_coop::ParamMode;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn build(seed: u64) -> CoopStructure<i64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let tree = gen::balanced_binary(7, 4000, SizeDist::Uniform, &mut rng);
        CoopStructure::preprocess(tree, ParamMode::Auto)
    }

    thread_local! {
        // Comparisons (`cmp` and `==`) made through `Counted` keys on
        // this thread.
        static COMPARISONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// An `i64` key that counts every comparison made on it.
    #[derive(Debug, Clone, Copy)]
    struct Counted(i64);

    fn tick() {
        COMPARISONS.with(|c| c.set(c.get() + 1));
    }

    impl PartialEq for Counted {
        fn eq(&self, other: &Self) -> bool {
            tick();
            self.0 == other.0
        }
    }

    impl Eq for Counted {}

    impl PartialOrd for Counted {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Counted {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            tick();
            self.0.cmp(&other.0)
        }
    }

    impl CatalogKey for Counted {
        const SUPREMUM: Self = Counted(i64::MAX);
    }

    /// The audit's key comparisons stay within `2 · W · log2 W` for `W`
    /// scanned words, on thin (height 12) and fat (height 6) trees alike:
    /// every membership test is a merge or a binary search, never a scan
    /// of a neighbor catalog per entry.
    #[test]
    fn audit_comparisons_are_quasilinear_in_words() {
        for (height, total) in [(6, 20_000), (6, 80_000), (12, 20_000), (12, 80_000)] {
            let mut rng = SmallRng::seed_from_u64(23);
            let tree = gen::balanced_binary(height, total, SizeDist::Uniform, &mut rng);
            let parents = tree.ids().map(|id| tree.parent(id).map(|p| p.0)).collect();
            let catalogs = tree
                .ids()
                .map(|id| tree.catalog(id).iter().map(|&k| Counted(k)).collect())
                .collect();
            let tree = fc_catalog::CatalogTree::from_parents(parents, catalogs);
            let st = CoopStructure::preprocess(tree, ParamMode::Auto);
            COMPARISONS.with(|c| c.set(0));
            let report = audit(&st);
            let comparisons = COMPARISONS.with(|c| c.get());
            assert!(report.is_clean(), "height {height}: {:?}", report.findings);
            let words = report.words_scanned as f64;
            let bound = 2.0 * words * words.log2();
            assert!(
                (comparisons as f64) <= bound,
                "height {height}, {total} keys: {comparisons} comparisons for {words} words \
                 exceed 2 · W · log2 W = {bound:.0}"
            );
        }
    }

    #[test]
    fn clean_structure_audits_clean() {
        let st = build(11);
        let report = audit(&st);
        assert!(report.is_clean(), "false positives: {:?}", report.findings);
        assert!(report.words_scanned > 0);
    }

    #[test]
    fn bridge_tamper_is_blamed_at_the_cell() {
        let mut st = build(13);
        let root = st.tree().root();
        {
            let fc = st.cascade_mut_for_fault_injection();
            let mut aug = fc.aug_mut_for_fault_injection(root);
            aug.bridges[0][3] += 2;
        }
        let report = audit(&st);
        assert!(report
            .findings
            .iter()
            .any(|b| matches!(*b, Blame::Bridge { node, slot: 0, entry: 3 } if node == root.0)));
    }

    #[test]
    fn lost_supremum_is_blamed() {
        let mut st = build(17);
        let root = st.tree().root();
        {
            let fc = st.cascade_mut_for_fault_injection();
            let aug = fc.aug_mut_for_fault_injection(root);
            let n = aug.keys.len();
            aug.keys[n - 1] = aug.keys[n - 2];
        }
        let report = audit(&st);
        assert!(report
            .findings
            .iter()
            .any(|b| matches!(*b, Blame::Catalog { node, .. } if node == root.0)));
    }

    #[test]
    fn skeleton_tamper_is_blamed_at_the_unit() {
        let mut st = build(19);
        assert!(!st.substructures().is_empty());
        {
            let subs = st.substructures_mut_for_fault_injection();
            let unit = &mut subs[0].units[0];
            unit.keys[0] = unit.keys[0].wrapping_add(1);
        }
        let report = audit(&st);
        assert!(report
            .findings
            .iter()
            .any(|b| matches!(*b, Blame::Skeleton { sub: 0, unit: 0 })));
    }
}
