//! Property tests for incremental dynamic catalog maintenance (fc-dyn).
//!
//! The contract under test: a [`DynamicCoop`] in incremental mode, fed an
//! arbitrary interleaving of inserts, deletes, and searches, answers every
//! search exactly as a structure **rebuilt from scratch** over the same
//! logical catalogs would — across tree shapes, sizes, and delete-heavy
//! mixes — and under injected corruption it degrades to a *typed* error or
//! a correct answer, never a wrong one, with the next write forcing the
//! clone-and-rebuild fallback that heals the cascade.
//!
//! Three oracles cross-check each other at every probe point:
//!
//! 1. a plain `BTreeSet` per node (successor = `range(y..).next()`),
//! 2. a buffered-mode [`DynamicCoop`] force-rebuilt immediately before the
//!    comparison (the literal "rebuild the world" baseline), and
//! 3. the incremental structure's own `logical_catalog`.

use std::collections::BTreeSet;

use fc_catalog::gen::{self, SizeDist};
use fc_catalog::{CatalogTree, NodeId};
use fc_coop::dynamic::DynamicCoop;
use fc_coop::ParamMode;
use fc_pram::{Model, Pram};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Key axis for generated ops: small enough that inserts collide and
/// deletes hit live keys, so tombstones and same-key churn are exercised.
const KEY_SPAN: i64 = 4_096;

fn pram() -> Pram {
    Pram::new(1 << 16, Model::Crew)
}

/// Per-node set oracle: the logical catalogs, maintained independently.
struct SetOracle {
    cats: Vec<BTreeSet<i64>>,
}

impl SetOracle {
    fn new(tree: &CatalogTree<i64>) -> Self {
        let cats = tree
            .ids()
            .map(|id| tree.catalog(id).iter().copied().collect())
            .collect();
        Self { cats }
    }

    fn insert(&mut self, node: NodeId, key: i64) {
        self.cats[node.0 as usize].insert(key);
    }

    fn remove(&mut self, node: NodeId, key: i64) {
        self.cats[node.0 as usize].remove(&key);
    }

    fn answers(&self, path: &[NodeId], y: i64) -> Vec<Option<i64>> {
        path.iter()
            .map(|n| self.cats[n.0 as usize].range(y..).next().copied())
            .collect()
    }
}

/// One random interleaving on `tree`: every op is applied to the
/// incremental structure, the buffered baseline, and the set oracle; every
/// `probe_every` ops, all three must agree on successor answers along a
/// random root-to-leaf path (probing random keys plus the boundary keys
/// around recently touched ones).
fn run_interleaving(tree: CatalogTree<i64>, seed: u64, ops: usize, probe_every: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut incr = DynamicCoop::new_incremental(tree.clone(), ParamMode::Auto, 0.25);
    // frac = infinity: the baseline never rebuilds on its own, so each
    // probe's force_rebuild really is "from scratch, right now".
    let mut scratch = DynamicCoop::new(tree.clone(), ParamMode::Auto, f64::INFINITY);
    let mut oracle = SetOracle::new(&tree);
    let mut p = pram();
    let node_count = tree.len() as u32;
    let mut touched: Vec<i64> = Vec::new();

    for step in 0..ops {
        let node = NodeId(rng.gen_range(0..node_count));
        // Bias deletes toward keys that exist so tombstoning is real work,
        // but keep misses in the mix (they must be no-ops everywhere).
        let deleting = rng.gen_bool(0.45);
        let key = if deleting && rng.gen_bool(0.7) {
            let cat = &oracle.cats[node.0 as usize];
            if cat.is_empty() {
                rng.gen_range(0..KEY_SPAN)
            } else {
                let skip = rng.gen_range(0..cat.len());
                *cat.iter().nth(skip).expect("non-empty")
            }
        } else {
            rng.gen_range(0..KEY_SPAN)
        };
        if deleting {
            incr.remove(node, key, &mut p);
            scratch.remove(node, key, &mut p);
            oracle.remove(node, key);
        } else {
            incr.insert(node, key, &mut p);
            scratch.insert(node, key, &mut p);
            oracle.insert(node, key);
        }
        touched.push(key);

        if (step + 1) % probe_every != 0 {
            continue;
        }
        scratch.force_rebuild(&mut p);
        let leaf = gen::random_leaf(incr.structure().tree(), &mut rng);
        let path = incr.structure().tree().path_from_root(leaf);
        let mut probes: Vec<i64> = (0..6).map(|_| rng.gen_range(-1..KEY_SPAN + 1)).collect();
        for &k in touched.iter().rev().take(4) {
            probes.extend([k - 1, k, k + 1]);
        }
        for y in probes {
            let want = oracle.answers(&path, y);
            let got = incr.search(&path, y, &mut pram());
            assert_eq!(got, want, "incremental vs set oracle, y={y} step={step}");
            let checked = incr
                .search_checked(&path, y, &mut pram())
                .expect("uncorrupted cascade must not err");
            assert_eq!(checked, want, "search_checked vs set oracle, y={y}");
            let rebuilt = scratch.search(&path, y, &mut pram());
            assert_eq!(rebuilt, want, "rebuild-from-scratch vs set oracle, y={y}");
        }
        touched.clear();
    }

    // Terminal state: logical catalogs identical to the oracle's, buffers
    // structurally clean, no rebuild ever failed its self-audit.
    for id in incr.structure().tree().ids() {
        let want: Vec<i64> = oracle.cats[id.0 as usize].iter().copied().collect();
        assert_eq!(incr.logical_catalog(id), want, "catalog drift at {id:?}");
    }
    incr.audit_buffers()
        .unwrap_or_else(|b| panic!("audit after {ops} ops: {b:?}"));
    let gs = incr.gen_stats();
    assert_eq!(gs.audit_failures, 0);
    assert!(
        gs.incremental_applies >= ops as u64,
        "every op must take the incremental path ({} < {ops})",
        gs.incremental_applies
    );
}

#[test]
fn interleavings_match_rebuild_on_balanced_trees() {
    let mut rng = SmallRng::seed_from_u64(0xD1_01);
    for (depth, total, seed) in [(3u32, 600usize, 11u64), (5, 2_000, 12), (7, 5_000, 13)] {
        let tree = gen::balanced_binary(depth, total, SizeDist::Uniform, &mut rng);
        run_interleaving(tree, seed, 600, 60);
    }
}

#[test]
fn interleavings_match_rebuild_across_shapes() {
    let mut rng = SmallRng::seed_from_u64(0xD1_02);
    let shapes: Vec<(&str, CatalogTree<i64>)> = vec![
        ("path", gen::path(9, 1_400, SizeDist::RootHeavy, &mut rng)),
        ("caterpillar", gen::caterpillar(7, 1_600, &mut rng)),
        // d-ary trees go through Theorem 3's binarization first — the
        // dynamic layer, like the static one, operates on binary trees.
        (
            "binarized-dary",
            fc_coop::general::binarize(&gen::dary(4, 3, 2_400, &mut rng)).tree,
        ),
        (
            "skewed-binary",
            gen::balanced_binary(4, 1_200, SizeDist::SingleHeavy(0.4), &mut rng),
        ),
    ];
    for (i, (label, tree)) in shapes.into_iter().enumerate() {
        eprintln!("shape sweep: {label}");
        run_interleaving(tree, 0xD1_10 + i as u64, 500, 50);
    }
}

/// Delete-heavy churn with an aggressive density config: compaction
/// fallbacks fire mid-interleaving, and answers stay oracle-equal across
/// the generation cuts.
#[test]
fn delete_storms_stay_oracle_equal_through_compaction() {
    let mut rng = SmallRng::seed_from_u64(0xD1_03);
    let tree = gen::balanced_binary(4, 1_500, SizeDist::Uniform, &mut rng);
    let cfg = fc_dyn::DynConfig {
        min_dead: 32,
        dead_frac: 0.15,
    };
    let mut incr = DynamicCoop::new_incremental_with(tree.clone(), ParamMode::Auto, 0.25, cfg);
    let mut oracle = SetOracle::new(&tree);
    let mut p = pram();
    let node_count = tree.len() as u32;

    for step in 0..1_200 {
        let node = NodeId(rng.gen_range(0..node_count));
        // 80% deletes of live keys: drive the tombstone ratio up until the
        // density invariant trips.
        if rng.gen_bool(0.8) && !oracle.cats[node.0 as usize].is_empty() {
            let cat = &oracle.cats[node.0 as usize];
            let skip = rng.gen_range(0..cat.len());
            let key = *cat.iter().nth(skip).expect("non-empty");
            incr.remove(node, key, &mut p);
            oracle.remove(node, key);
        } else {
            let key = rng.gen_range(0..KEY_SPAN);
            incr.insert(node, key, &mut p);
            oracle.insert(node, key);
        }
        if step % 97 == 0 {
            let leaf = gen::random_leaf(incr.structure().tree(), &mut rng);
            let path = incr.structure().tree().path_from_root(leaf);
            let y = rng.gen_range(0..KEY_SPAN);
            assert_eq!(incr.search(&path, y, &mut pram()), oracle.answers(&path, y));
        }
    }
    let gs = incr.gen_stats();
    assert!(
        gs.fallback_rebuilds >= 1,
        "a or-so-80% delete storm with min_dead=32 must trip compaction"
    );
    assert_eq!(gs.audit_failures, 0);
    incr.audit_buffers().expect("post-storm audit");
    for id in incr.structure().tree().ids() {
        let want: Vec<i64> = oracle.cats[id.0 as usize].iter().copied().collect();
        assert_eq!(incr.logical_catalog(id), want);
    }
}

/// Fault injection, read side: a corrupted bridge makes `search_checked`
/// return either the oracle answer or a **typed** error — never a wrong
/// answer — while the plain `search` degrades to the authoritative flat
/// scan and stays oracle-equal throughout.
#[test]
fn corrupted_bridge_is_typed_or_correct_never_wrong() {
    let mut rng = SmallRng::seed_from_u64(0xFA_01);
    let tree = gen::balanced_binary(4, 2_000, SizeDist::Uniform, &mut rng);
    let mut incr = DynamicCoop::new_incremental(tree.clone(), ParamMode::Auto, 0.25);
    let oracle = SetOracle::new(&tree);
    let root = tree.root();
    let leaves = tree.leaves();

    assert!(
        incr.incremental_mut_for_fault_injection()
            .expect("incremental mode")
            .corrupt_bridge_for_fault_injection(root.0),
        "root must hold a sample to corrupt"
    );
    assert!(
        incr.audit_buffers().is_err(),
        "the audit must blame the dirty cascade"
    );

    let mut saw_typed = false;
    for &leaf in [leaves[0], leaves[leaves.len() - 1]].iter() {
        let path = tree.path_from_root(leaf);
        for y in (0..KEY_SPAN).step_by(131) {
            let want = oracle.answers(&path, y);
            match incr.search_checked(&path, y, &mut pram()) {
                Ok(got) => assert_eq!(got, want, "checked Ok must be exact, y={y}"),
                Err(e) => {
                    // Typed, attributable corruption — and attributable to
                    // a real node of this tree.
                    assert!((e.node() as usize) < tree.len(), "blame in range: {e:?}");
                    saw_typed = true;
                }
            }
            assert_eq!(
                incr.search(&path, y, &mut pram()),
                want,
                "degraded search must stay oracle-equal, y={y}"
            );
        }
    }
    assert!(saw_typed, "the corrupted bridge must surface a typed error");
}

/// Fault injection, write side: a torn link makes the next writes park and
/// the settle pass fire the clone-and-rebuild fallback; afterwards the
/// cascade audits clean, every acked write is visible, and searches are
/// oracle-equal again on the fast path.
#[test]
fn corrupted_link_forces_fallback_then_heals() {
    let mut rng = SmallRng::seed_from_u64(0xFA_02);
    let tree = gen::balanced_binary(4, 1_800, SizeDist::Uniform, &mut rng);
    let mut incr = DynamicCoop::new_incremental(tree.clone(), ParamMode::Auto, 0.25);
    let mut oracle = SetOracle::new(&tree);
    let mut p = pram();
    let root = tree.root();

    assert!(
        incr.incremental_mut_for_fault_injection()
            .expect("incremental mode")
            .corrupt_link_for_fault_injection(root.0),
        "root list must be corruptible"
    );
    let before = incr.gen_stats().fallback_rebuilds;
    for k in 0..150i64 {
        let key = 100_000 + k;
        incr.insert(root, key, &mut p);
        oracle.insert(root, key);
    }
    let gs = incr.gen_stats();
    assert!(
        gs.fallback_rebuilds > before,
        "parked writes must force the rebuild fallback"
    );
    assert_eq!(gs.audit_failures, 0, "the healing rebuild must audit clean");
    incr.audit_buffers().expect("cascade clean after fallback");
    // No acked write was lost to the fault, and the fast path is exact.
    let want: Vec<i64> = oracle.cats[root.0 as usize].iter().copied().collect();
    assert_eq!(incr.logical_catalog(root), want);
    let leaf = tree.leaves()[0];
    let path = tree.path_from_root(leaf);
    for y in (99_990..100_160).step_by(7) {
        let want = oracle.answers(&path, y);
        assert_eq!(
            incr.search_checked(&path, y, &mut pram())
                .expect("healed cascade must not err"),
            want
        );
    }
}
