//! End-to-end resilience properties: every injected corruption is caught
//! with non-empty localized blame, the inject → detect → repair round trip
//! restores `invariants::validate`, checked searches never return silently
//! wrong answers on tampered structures, the served read answers the
//! oracle of the un-faulted tree under every fault kind, and processor
//! deaths mid-search degrade gracefully.

use fc_catalog::gen::{self, SizeDist};
use fc_catalog::invariants;
use fc_catalog::search::search_path_naive;
use fc_catalog::{CatalogTree, NodeId};
use fc_coop::explicit::{coop_search_explicit, coop_search_explicit_checked};
use fc_coop::general::binarize;
use fc_coop::{CoopStructure, ParamMode};
use fc_pram::{Model, Pram};
use fc_resilience::{audit, repair, Fault, FaultPlan, FaultSpec};
use fc_serve::{ServeConfig, Service};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// The shape sweep every property runs over: balanced binary trees under
/// all catalog-size distributions, plus binarized d-ary and skewed shapes.
fn shapes(rng: &mut SmallRng) -> Vec<(&'static str, CoopStructure<i64>)> {
    let mut out = Vec::new();
    for (name, dist) in [
        ("uniform", SizeDist::Uniform),
        ("single-heavy", SizeDist::SingleHeavy(0.5)),
        ("root-heavy", SizeDist::RootHeavy),
        ("leaf-heavy", SizeDist::LeafHeavy),
    ] {
        let tree = gen::balanced_binary(7, 4000, dist, rng);
        out.push((name, CoopStructure::preprocess(tree, ParamMode::Auto)));
    }
    let dary = gen::dary(3, 4, 3000, rng);
    let bin = binarize(&dary);
    out.push((
        "binarized-3ary",
        CoopStructure::preprocess(bin.tree, ParamMode::Auto),
    ));
    let cat = gen::caterpillar(24, 2000, rng);
    out.push((
        "caterpillar",
        CoopStructure::preprocess(cat, ParamMode::Auto),
    ));
    out
}

/// Property: every structural fault the injector places is detected by the
/// audit with non-empty blame — no false negatives, across shapes and seeds.
#[test]
fn every_injected_corruption_is_blamed() {
    let mut rng = SmallRng::seed_from_u64(3001);
    for (name, st) in shapes(&mut rng) {
        assert!(audit(&st).is_clean(), "{name}: clean structure flagged");
        let spec = FaultSpec::one_of_each();
        for seed in 0..10u64 {
            let plan = FaultPlan::generate(&st, &spec, seed);
            assert!(
                plan.structural_len() > 0,
                "{name} seed {seed}: injector found no feasible site"
            );
            let mut tampered = st.clone();
            plan.apply(&mut tampered);
            let report = audit(&tampered);
            assert!(
                !report.findings.is_empty(),
                "{name} seed {seed}: plan {plan:?} escaped the audit"
            );
        }
    }
}

/// Property: inject → detect → repair → re-validate. After repair the audit
/// is clean and the cascade invariants validate, on every shape.
#[test]
fn corruption_round_trip_repairs_clean() {
    let mut rng = SmallRng::seed_from_u64(3007);
    for (name, st) in shapes(&mut rng) {
        for seed in 0..5u64 {
            let mut tampered = st.clone();
            let plan = FaultPlan::generate(&tampered, &FaultSpec::one_of_each(), 100 + seed);
            plan.apply(&mut tampered);
            let report = audit(&tampered);
            assert!(!report.is_clean(), "{name} seed {seed}");
            let stats = repair(&mut tampered, &report);
            assert!(
                audit(&tampered).is_clean(),
                "{name} seed {seed}: repair left the audit dirty ({stats:?})"
            );
            invariants::validate(&invariants::check_all(tampered.cascade())).unwrap_or_else(|e| {
                panic!("{name} seed {seed}: invariants dirty after repair: {e}")
            });
            assert!(
                stats.repair_ops <= stats.full_rebuild_ops,
                "{name} seed {seed}: repair cost {} exceeded rebuild {}",
                stats.repair_ops,
                stats.full_rebuild_ops
            );
        }
    }
}

/// Property: single-fault repairs are localized — strictly cheaper than the
/// full rebuild, without falling back.
#[test]
fn single_fault_repair_is_localized() {
    let mut rng = SmallRng::seed_from_u64(3011);
    let tree = gen::balanced_binary(8, 8000, SizeDist::Uniform, &mut rng);
    let st = CoopStructure::preprocess(tree, ParamMode::Auto);
    let kinds = [
        FaultSpec {
            key_swaps: 1,
            ..FaultSpec::default()
        },
        FaultSpec {
            supremum_clobbers: 1,
            ..FaultSpec::default()
        },
        FaultSpec {
            bridge_perturbs: 1,
            ..FaultSpec::default()
        },
        FaultSpec {
            native_succ_perturbs: 1,
            ..FaultSpec::default()
        },
        FaultSpec {
            skeleton_perturbs: 1,
            ..FaultSpec::default()
        },
    ];
    for (ki, spec) in kinds.iter().enumerate() {
        for seed in 0..5u64 {
            let mut tampered = st.clone();
            let plan = FaultPlan::generate(&tampered, spec, 200 + seed);
            plan.apply(&mut tampered);
            let report = audit(&tampered);
            let stats = repair(&mut tampered, &report);
            assert!(
                !stats.fell_back_to_full_rebuild,
                "kind {ki} seed {seed}: localized repair fell back"
            );
            assert!(
                stats.repair_ops < stats.full_rebuild_ops,
                "kind {ki} seed {seed}: repair {} not cheaper than rebuild {}",
                stats.repair_ops,
                stats.full_rebuild_ops
            );
            assert!(audit(&tampered).is_clean(), "kind {ki} seed {seed}");
        }
    }
}

/// Property: on a bridge-tampered structure, the checked explicit search
/// either returns the exact answer or an `Err` with localized blame — never
/// a silently wrong answer.
#[test]
fn checked_search_never_answers_wrong_on_tampered_structure() {
    let mut rng = SmallRng::seed_from_u64(3019);
    let tree = gen::balanced_binary(8, 8000, SizeDist::Uniform, &mut rng);
    let st = CoopStructure::preprocess(tree, ParamMode::Auto);
    let n = 8000i64;
    let mut flagged = 0usize;
    for seed in 0..10u64 {
        let mut tampered = st.clone();
        let plan = FaultPlan::generate(
            &tampered,
            &FaultSpec {
                bridge_perturbs: 12,
                ..FaultSpec::default()
            },
            300 + seed,
        );
        plan.apply(&mut tampered);
        for _ in 0..40 {
            let leaf = gen::random_leaf(tampered.tree(), &mut rng);
            let path = tampered.tree().path_from_root(leaf);
            let y = rng.gen_range(0..n * 16);
            let mut pram = Pram::new(1 << 16, Model::Crew);
            match coop_search_explicit_checked(&tampered, &path, y, &mut pram) {
                Ok(out) => {
                    let truth = search_path_naive(tampered.tree(), &path, y, None);
                    assert_eq!(
                        out.finds, truth.results,
                        "seed {seed}: checked search answered wrong instead of Err"
                    );
                }
                Err(_) => flagged += 1,
            }
        }
    }
    assert!(flagged > 0, "no query ever crossed a tampered bridge");
}

fn tree_oracle(tree: &CatalogTree<i64>, leaf: NodeId, y: i64) -> Vec<Option<i64>> {
    tree.path_from_root(leaf)
        .iter()
        .map(|&v| {
            let cat = tree.catalog(v);
            cat.get(cat.partition_point(|k| *k < y)).copied()
        })
        .collect()
}

/// Property: under every structural fault kind, published through
/// `Service::inject` and left unrepaired, the served read answers every
/// query `Ok` with the per-node oracle of the original, un-faulted tree.
/// Besides random queries, one query is aimed at each corrupted augmented
/// entry: `y` is that entry's clean key, so a descent through the derived
/// data would land on it.
#[test]
fn served_read_is_correct_under_every_fault_kind() {
    let mut rng = SmallRng::seed_from_u64(3031);
    let tree = gen::balanced_binary(8, 8000, SizeDist::Uniform, &mut rng);
    let one = |f: fn(&mut FaultSpec)| {
        let mut spec = FaultSpec::default();
        f(&mut spec);
        spec
    };
    let kinds = [
        ("KeySwap", one(|s| s.key_swaps = 6)),
        ("KeyClobber", one(|s| s.key_clobbers = 6)),
        ("SupremumClobber", one(|s| s.supremum_clobbers = 6)),
        ("BridgePerturb", one(|s| s.bridge_perturbs = 12)),
        ("NativeSuccPerturb", one(|s| s.native_succ_perturbs = 12)),
        ("SkeletonPerturb", one(|s| s.skeleton_perturbs = 6)),
    ];
    let cfg = ServeConfig {
        workers: 1,
        default_deadline: Duration::from_secs(10),
        ..ServeConfig::default()
    };
    for (name, spec) in kinds {
        let svc = Service::start(tree.clone(), ParamMode::Auto, cfg.clone());
        let clean = svc.snapshot();
        let plan = svc.inject(&spec, 400);
        assert!(plan.structural_len() > 0, "{name}: no site");
        let served = svc.snapshot();
        assert!(!audit(&served.st).is_clean(), "{name}: fault not published");

        let mut queries: Vec<(NodeId, i64)> = (0..200)
            .map(|_| {
                let leaf = gen::random_leaf(&tree, &mut rng);
                (leaf, rng.gen_range(-10..8000i64 * 16 + 10))
            })
            .collect();
        for fault in &plan.faults {
            let (node, entry) = match *fault {
                Fault::KeySwap { node, entry }
                | Fault::KeyClobber { node, entry }
                | Fault::BridgePerturb { node, entry, .. }
                | Fault::NativeSuccPerturb { node, entry, .. } => (node, entry),
                _ => continue,
            };
            let mut v = NodeId(node);
            let Some(&y) = clean.st.cascade().keys(v).get(entry) else {
                continue;
            };
            while let Some(&c) = tree.children(v).first() {
                v = c;
            }
            queries.push((v, y));
        }
        for (leaf, y) in queries {
            let ok = svc
                .query_blocking(leaf, y, None)
                .unwrap_or_else(|e| panic!("{name}: query y={y} failed: {e}"));
            assert_eq!(ok.gen.id, served.id, "{name}: served by another generation");
            assert_eq!(
                ok.answers,
                tree_oracle(&tree, leaf, y),
                "{name}: served read answered wrong at y={y}"
            );
        }
        svc.shutdown();
    }
}

/// Property: killing processors mid-search yields the exact answer, and the
/// step count stays within 2x of a fresh run provisioned at the survivor
/// count (the degraded-mode guarantee).
#[test]
fn mid_search_kills_degrade_gracefully() {
    let mut rng = SmallRng::seed_from_u64(3023);
    let tree = gen::balanced_binary(10, 1 << 15, SizeDist::Uniform, &mut rng);
    let st = CoopStructure::preprocess(tree, ParamMode::Auto);
    let p0 = 1usize << 16;
    let (mut degraded_total, mut fresh_total) = (0u64, 0u64);
    for _ in 0..25 {
        let leaf = gen::random_leaf(st.tree(), &mut rng);
        let path = st.tree().path_from_root(leaf);
        let y = rng.gen_range(0..(1i64 << 19));

        let mut pram = Pram::new(p0, Model::Crew);
        let plan = FaultPlan {
            seed: 0,
            faults: vec![Fault::KillProcessors {
                at_round: 2,
                count: p0 / 2,
            }],
        };
        plan.arm(&mut pram);
        let out = coop_search_explicit(&st, &path, y, &mut pram);
        assert_eq!(pram.processors(), p0 / 2, "kill did not fire");

        let truth = search_path_naive(st.tree(), &path, y, None);
        assert_eq!(out.finds, truth.results, "degraded search answered wrong");

        let mut fresh = Pram::new(p0 / 2, Model::Crew);
        let fout = coop_search_explicit(&st, &path, y, &mut fresh);
        assert_eq!(fout.finds, truth.results);

        degraded_total += pram.steps();
        fresh_total += fresh.steps();
    }
    assert!(
        degraded_total <= 2 * fresh_total,
        "degraded steps {degraded_total} exceed 2x fresh-at-p' {fresh_total}"
    );
}

/// Property: killing everyone makes the checked search report
/// `NoProcessors` instead of dividing by zero or spinning.
#[test]
fn total_processor_loss_is_an_error_not_a_wrong_answer() {
    let mut rng = SmallRng::seed_from_u64(3027);
    let tree = gen::balanced_binary(7, 4000, SizeDist::Uniform, &mut rng);
    let st = CoopStructure::preprocess(tree, ParamMode::Auto);
    let leaf = gen::random_leaf(st.tree(), &mut rng);
    let path = st.tree().path_from_root(leaf);
    let mut pram = Pram::new(8, Model::Crew);
    pram.kill(8);
    let res = coop_search_explicit_checked(&st, &path, 123, &mut pram);
    assert!(res.is_err(), "search on zero processors must fail loudly");
}
