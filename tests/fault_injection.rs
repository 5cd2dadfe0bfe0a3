//! Failure injection: deliberately corrupt structure internals and verify
//! that (a) the invariant checkers detect the corruption, and (b) where a
//! runtime guard exists (the Lemma 3 window-coverage check), searches
//! remain exact by falling back.

use fc_catalog::gen::{self, SizeDist};
use fc_catalog::invariants;
use fc_catalog::search::search_path_naive;
use fc_catalog::{CascadedTree, NodeId};
use fc_coop::dynamic::{BufferBlame, DynamicCoop};
use fc_coop::explicit::coop_search_explicit;
use fc_coop::{CoopStructure, ParamMode};
use fc_pram::{Model, Pram};
use fc_resilience::{Fault, FaultPlan, FaultSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A bridge pushed past its true target breaks Property 1 or 3 and must be
/// reported by the checker.
#[test]
fn corrupted_bridge_is_detected() {
    let mut rng = SmallRng::seed_from_u64(2001);
    let tree = gen::balanced_binary(7, 4000, SizeDist::Uniform, &mut rng);
    let mut fc = CascadedTree::build_bidir(tree, 4);
    assert!(invariants::validate(&invariants::check_all(&fc)).is_ok());

    // Find an internal node with a reasonably long bridge vector and yank
    // one bridge far ahead.
    let victim = fc
        .tree()
        .ids()
        .find(|&id| !fc.tree().children(id).is_empty() && fc.aug(id).bridges[0].len() > 8)
        .expect("some internal node");
    let child = fc.tree().children(victim)[0];
    let child_len = fc.keys(child).len() as u32;
    {
        let mut aug = fc.aug_mut_for_fault_injection(victim);
        let mid = aug.bridges[0].len() / 2;
        aug.bridges[0][mid] = child_len - 1; // overshoot to the terminal
    }
    let report = invariants::check_all(&fc);
    assert!(
        invariants::validate(&report).is_err(),
        "checker must flag the corrupted bridge: {report:?}"
    );
}

/// A bridge that crosses its neighbour breaks Property 3 specifically.
#[test]
fn crossing_bridges_are_detected_as_non_monotone() {
    let mut rng = SmallRng::seed_from_u64(2003);
    let tree = gen::balanced_binary(6, 3000, SizeDist::Uniform, &mut rng);
    let mut fc = CascadedTree::build_bidir(tree, 4);
    let victim = fc
        .tree()
        .ids()
        .find(|&id| !fc.tree().children(id).is_empty() && fc.aug(id).bridges[0].len() > 8)
        .unwrap();
    {
        let mut aug = fc.aug_mut_for_fault_injection(victim);
        let mid = aug.bridges[0].len() / 2;
        let earlier = aug.bridges[0][mid - 1];
        aug.bridges[0][mid] = earlier.saturating_sub(1); // cross over
    }
    let report = invariants::check_all(&fc);
    assert!(!report.monotone, "crossing must be reported: {report:?}");
}

/// An understated fan-out constant shrinks the hop windows below what the
/// instance needs; the coverage check must catch every miss and repair it
/// with a binary search, keeping results exact.
#[test]
fn understated_b_is_repaired_by_fallbacks() {
    let mut rng = SmallRng::seed_from_u64(2005);
    // Skewed catalogs make the observed fan-out larger, so claiming b = 1
    // genuinely under-covers on some queries.
    let tree = gen::balanced_binary(10, 60_000, SizeDist::SingleHeavy(0.6), &mut rng);
    let fc = CascadedTree::build_bidir(tree, 4);
    let observed = invariants::check_all(&fc).b_observed;
    let st = CoopStructure::from_cascade_with_b(fc, ParamMode::Auto, 1);
    let mut total_fallbacks = 0usize;
    for _ in 0..200 {
        let leaf = gen::random_leaf(st.tree(), &mut rng);
        let path = st.tree().path_from_root(leaf);
        let y = rng.gen_range(0..(60_000i64 * 16));
        let naive = search_path_naive(st.tree(), &path, y, None);
        let mut pram = Pram::new(1 << 20, Model::Crew);
        let out = coop_search_explicit(&st, &path, y, &mut pram);
        assert_eq!(out.finds, naive.results, "results stay exact under faults");
        total_fallbacks += out.stats.fallbacks;
    }
    if observed > 1 {
        assert!(
            total_fallbacks > 0,
            "windows sized for b = 1 should miss somewhere when observed b = {observed}"
        );
    }
}

/// Corrupting an augmented key ordering is caught by the searches' debug
/// guards; in release the checker still reports the fan-out violation the
/// corruption induces downstream.
#[test]
fn corrupted_key_breaks_fanout_accounting() {
    let mut rng = SmallRng::seed_from_u64(2007);
    let tree = gen::balanced_binary(6, 3000, SizeDist::Uniform, &mut rng);
    let mut fc = CascadedTree::build_bidir(tree, 4);
    let victim = fc
        .tree()
        .ids()
        .find(|&id| fc.tree().children(id).len() == 2 && fc.aug(id).bridges[1].len() > 10)
        .unwrap();
    {
        let mut aug = fc.aug_mut_for_fault_injection(victim);
        // Zero out a late bridge: everything before it now "crosses".
        let last = aug.bridges[1].len() - 2;
        aug.bridges[1][last] = 0;
    }
    let report = invariants::check_all(&fc);
    assert!(invariants::validate(&report).is_err());
}

/// Build a dynamic structure with buffered churn (no auto-rebuild), so
/// every dynamic fault kind has injection sites.
fn churned_dynamic(seed: u64) -> (DynamicCoop<i64>, Pram) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let tree = gen::balanced_binary(6, 2500, SizeDist::Uniform, &mut rng);
    let mut dy = DynamicCoop::new(tree, ParamMode::Auto, 1000.0);
    let mut pram = Pram::new(1 << 10, Model::Crew);
    let node_count = dy.structure().tree().len() as u32;
    for _ in 0..300 {
        let node = NodeId(rng.gen_range(0..node_count));
        if rng.gen_bool(0.7) {
            dy.insert(node, rng.gen_range(5_000_000..6_000_000i64), &mut pram);
        } else {
            let cat = dy.structure().tree().catalog(node);
            if let Some(&k) = cat.first() {
                dy.remove(node, k, &mut pram);
            }
        }
    }
    (dy, pram)
}

/// Every dynamic-path fault kind (insert-buffer smuggle, delete-buffer
/// phantom, counter bump) is detected by the buffer audit, across seeds —
/// the dynamic analogue of the static `every_structural_fault_is_detected`.
#[test]
fn dynamic_buffer_faults_are_detected_by_the_buffer_audit() {
    for seed in 0..8u64 {
        let (mut dy, _) = churned_dynamic(2101);
        assert!(dy.audit_buffers().is_ok(), "clean before injection");
        let spec = FaultSpec::one_of_each_dynamic();
        let plan = FaultPlan::generate_dynamic(&dy, &spec, seed);
        assert_eq!(plan.dynamic_len(), spec.dynamic_total(), "seed {seed}");
        plan.apply_dynamic(&mut dy);
        let blames = dy
            .audit_buffers()
            .expect_err("corrupted buffers must be blamed");
        // Each injected kind leaves its characteristic blame.
        for fault in &plan.faults {
            let found = match *fault {
                Fault::InsBufferCorrupt { node, .. } => blames.iter().any(
                    |b| matches!(b, BufferBlame::InsDuplicatesStatic { node: n } if *n == node),
                ),
                Fault::DelBufferCorrupt { node, .. } => blames.iter().any(|b| {
                    matches!(b, BufferBlame::DelPhantom { node: n } if *n == node)
                        || matches!(b, BufferBlame::InsDelOverlap { node: n } if *n == node)
                }),
                Fault::CounterBump => blames
                    .iter()
                    .any(|b| matches!(b, BufferBlame::CounterMismatch { .. })),
                _ => continue,
            };
            assert!(found, "seed {seed}: {fault:?} left no blame in {blames:?}");
        }
    }
}

/// A combined plan corrupts both layers of a `DynamicCoop`: the static
/// audit flags the structure, the buffer audit flags the buffers, and the
/// *dynamic search* on the corrupted structure is never silently wrong —
/// the buffer corrections are applied over exact static answers, so with
/// the static answer verified (or repaired) the logical answer matches the
/// brute-force logical catalog.
#[test]
fn dynamic_search_after_buffer_repair_matches_logical_catalogs() {
    let (mut dy, mut pram) = churned_dynamic(2103);
    let spec = FaultSpec::one_of_each_dynamic();
    let plan = FaultPlan::generate_dynamic(&dy, &spec, 5);
    plan.apply_dynamic(&mut dy);
    assert!(dy.audit_buffers().is_err());

    // Repair = drop buffer entries that contradict the authoritative
    // static catalogs (what fc-serve's audit does), then re-audit.
    let statics: Vec<Vec<i64>> = {
        let tree = dy.structure().tree();
        tree.ids().map(|id| tree.catalog(id).to_vec()).collect()
    };
    {
        let (ins, del, changes) = dy.buffers_mut_for_fault_injection();
        let mut buffered = 0usize;
        for ((ins_v, del_v), cat) in ins.iter_mut().zip(del.iter_mut()).zip(&statics) {
            ins_v.retain(|k| cat.binary_search(k).is_err());
            del_v.retain(|k| cat.binary_search(k).is_ok());
            let overlap: Vec<i64> = ins_v.intersection(del_v).copied().collect();
            for k in &overlap {
                del_v.remove(k);
            }
            buffered += ins_v.len() + del_v.len();
        }
        *changes = buffered;
    }
    assert!(dy.audit_buffers().is_ok(), "repair restores the invariants");

    let mut rng = SmallRng::seed_from_u64(2104);
    for _ in 0..50 {
        let leaf = gen::random_leaf(dy.structure().tree(), &mut rng);
        let path = dy.structure().tree().path_from_root(leaf);
        let y = rng.gen_range(-5..6_000_005i64);
        let got = dy.search(&path, y, &mut pram);
        let expect: Vec<Option<i64>> = path
            .iter()
            .map(|&node| dy.logical_catalog(node).into_iter().find(|&k| k >= y))
            .collect();
        assert_eq!(got, expect);
    }
}

/// A rebuild that fires while the insert buffer holds a smuggled
/// statically-present key must not panic or bake a duplicate into the
/// catalogs: the logical catalog is a set, and the post-rebuild self-audit
/// stays clean.
#[test]
fn rebuild_with_corrupted_ins_buffer_stays_sound() {
    let (mut dy, mut pram) = churned_dynamic(2105);
    let plan = FaultPlan::generate_dynamic(
        &dy,
        &FaultSpec {
            ins_buffer_corrupts: 2,
            ..FaultSpec::default()
        },
        11,
    );
    plan.apply_dynamic(&mut dy);
    assert!(dy.audit_buffers().is_err());
    dy.force_rebuild(&mut pram);
    let gs = dy.gen_stats();
    assert_eq!(gs.audit_failures, 0, "rebuild must re-audit clean");
    assert!(dy.audit_buffers().is_ok(), "buffers drained");
    // No duplicate keys anywhere.
    for id in dy.structure().tree().ids() {
        let cat = dy.structure().tree().catalog(id);
        assert!(
            cat.windows(2).all(|w| w[0] < w[1]),
            "node {id:?} not strict"
        );
    }
}
