//! Property-style randomized tests on the core invariants, driven by
//! seeded `SmallRng` loops (deterministic, registry-free):
//!
//! * fractional cascading Properties 1–3 on arbitrary trees and catalogs;
//! * cooperative search == sequential search == naive search, for
//!   arbitrary instances, queries, and processor counts;
//! * Lemma 1 disjointness on the bidirectional structure;
//! * point location == brute force on arbitrary monotone subdivisions;
//! * retrieval == brute-force report sets;
//! * a deferred `CoopStructure` derives exactly what eager preprocessing
//!   builds, and `CatalogTree::apply_batch` matches a set model.
//!
//! Each test draws `CASES` independent instances from a fixed per-test
//! seed, so any failure is reproducible from the seed arithmetic alone.

use fc_catalog::gen::{self, SizeDist};
use fc_catalog::invariants;
use fc_catalog::search::{search_path_fc, search_path_naive};
use fc_catalog::CascadedTree;
use fc_coop::explicit::coop_search_explicit;
use fc_coop::skeleton::check_lemma1;
use fc_coop::{CoopStructure, ParamMode};
use fc_geom::cooploc::locate_coop;
use fc_geom::septree::{locate_sequential, SeparatorTree};
use fc_geom::subdivision::{MonotoneSubdivision, SubdivisionParams};
use fc_pram::primitives::{coop_lower_bound, merge_par, merge_seq, prefix_sum_par, prefix_sum_seq};
use fc_pram::{Model, Pram};
use fc_retrieval::segint::{HQuery, SegmentIntersection, VSegment};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 48;

/// Run `body` for `CASES` deterministic sub-seeds.
fn cases(test_seed: u64, body: impl Fn(&mut SmallRng)) {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(test_seed * 10_000 + case);
        body(&mut rng);
    }
}

/// Cooperative p-ary search equals binary search for arbitrary sorted
/// inputs, probes, and processor counts.
#[test]
fn prop_coop_lower_bound() {
    cases(1, |rng| {
        let n = rng.gen_range(0usize..400);
        let mut v: Vec<i64> = (0..n).map(|_| rng.gen_range(-1000i64..1000)).collect();
        v.sort_unstable();
        let y = rng.gen_range(-1100i64..1100);
        let p = rng.gen_range(1usize..600);
        let mut pram = Pram::new(p, Model::Crew);
        assert_eq!(
            coop_lower_bound(&v, &y, &mut pram),
            v.partition_point(|k| *k < y)
        );
    });
}

/// Parallel merge equals sequential merge.
#[test]
fn prop_merge() {
    cases(2, |rng| {
        let mut a: Vec<i64> = (0..rng.gen_range(0usize..300))
            .map(|_| rng.gen_range(-500i64..500))
            .collect();
        let mut b: Vec<i64> = (0..rng.gen_range(0usize..300))
            .map(|_| rng.gen_range(-500i64..500))
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(merge_par(&a, &b), merge_seq(&a, &b));
    });
}

/// Parallel prefix sums equal sequential prefix sums.
#[test]
fn prop_prefix() {
    cases(3, |rng| {
        let v: Vec<u64> = (0..rng.gen_range(0usize..5000))
            .map(|_| rng.gen_range(0u64..1000))
            .collect();
        assert_eq!(prefix_sum_par(&v), prefix_sum_seq(&v));
    });
}

/// Properties 1–3 hold on randomly shaped/sized cascaded trees, for
/// both builds.
#[test]
fn prop_cascade_invariants() {
    cases(4, |rng| {
        let height = rng.gen_range(0u32..7);
        let total = rng.gen_range(1usize..3000);
        let tree = gen::balanced_binary(height, total, SizeDist::Uniform, rng);
        let down = CascadedTree::build(tree.clone(), 4);
        assert!(invariants::validate(&invariants::check_all(&down)).is_ok());
        let bidir = CascadedTree::build_bidir(tree, 4);
        assert!(invariants::validate(&invariants::check_all(&bidir)).is_ok());
    });
}

/// Cooperative explicit search agrees with the naive baseline on
/// arbitrary instances, queries, and processor counts.
#[test]
fn prop_coop_search_agrees() {
    cases(5, |rng| {
        let total = rng.gen_range(64usize..4000);
        let p_exp = rng.gen_range(0u32..34);
        let y = rng.gen_range(-100_000i64..100_000);
        let tree = gen::balanced_binary(7, total, SizeDist::Uniform, rng);
        let st = CoopStructure::preprocess(tree, ParamMode::Auto);
        let leaf = gen::random_leaf(st.tree(), rng);
        let path = st.tree().path_from_root(leaf);
        let naive = search_path_naive(st.tree(), &path, y, None);
        let mut pram = Pram::new(1usize << p_exp, Model::Crew);
        let coop = coop_search_explicit(&st, &path, y, &mut pram);
        assert_eq!(coop.finds, naive.results);
        assert_eq!(coop.stats.fallbacks, 0);
    });
}

/// The sequential FC search agrees with naive for arbitrary skew.
#[test]
fn prop_fc_search_agrees() {
    cases(6, |rng| {
        let heavy = rng.gen_range(0.0f64..0.95);
        let tree = gen::balanced_binary(6, 2000, SizeDist::SingleHeavy(heavy), rng);
        let fc = CascadedTree::build_bidir(tree.clone(), 4);
        let leaf = gen::random_leaf(&tree, rng);
        let path = tree.path_from_root(leaf);
        for y in [-1i64, 0, 16_000, 31_999, 32_000] {
            assert_eq!(
                search_path_fc(&fc, &path, y, None),
                search_path_naive(&tree, &path, y, None)
            );
        }
    });
}

/// Lemma 1: skeleton keys are distinct on the bidirectional structure,
/// for arbitrary instances.
#[test]
fn prop_lemma1_disjoint() {
    cases(7, |rng| {
        let total = rng.gen_range(500usize..8000);
        let tree = gen::balanced_binary(8, total, SizeDist::Uniform, rng);
        let st = CoopStructure::preprocess(tree, ParamMode::Auto);
        for sub in st.substructures() {
            let (violations, _) = check_lemma1(sub);
            assert_eq!(violations, 0);
        }
    });
}

/// Point location: both locators equal brute force on arbitrary
/// subdivisions and queries.
#[test]
fn prop_point_location() {
    cases(8, |rng| {
        let regions_exp = rng.gen_range(2u32..8);
        let strips = rng.gen_range(2usize..24);
        let stick = rng.gen_range(0.0f64..0.9);
        let qx = rng.gen_range(-5.0f64..1030.0);
        let qy = rng.gen_range(-5.0f64..80.0);
        let sub = MonotoneSubdivision::generate(
            SubdivisionParams {
                regions: 1 << regions_exp,
                strips,
                stick,
                detach: 0.4,
            },
            rng,
        );
        let t = SeparatorTree::build(sub, ParamMode::Auto);
        let want = t.sub.locate_brute(qx, qy);
        let (seq, _) = locate_sequential(&t, qx, qy, None);
        assert_eq!(seq, want);
        let mut pram = Pram::new(1 << 16, Model::Crew);
        let (coop, _) = locate_coop(&t, qx, qy, &mut pram);
        assert_eq!(coop, want);
    });
}

/// Segment intersection reports exactly the brute-force set for
/// arbitrary segments and queries.
#[test]
fn prop_segment_intersection() {
    cases(9, |rng| {
        let n = rng.gen_range(1usize..200);
        let y = rng.gen_range(-50i64..1050);
        let x_lo = rng.gen_range(-50i64..1050);
        let width = rng.gen_range(0i64..1100);
        let xs = gen::distinct_sorted_keys(n, 100_000, rng);
        let segs: Vec<VSegment> = xs
            .into_iter()
            .map(|x| {
                let a = rng.gen_range(0..1000);
                let b = rng.gen_range(0..1000);
                VSegment {
                    x,
                    y_lo: a.min(b),
                    y_hi: a.max(b),
                }
            })
            .collect();
        let si = SegmentIntersection::build(segs, ParamMode::Auto);
        let q = HQuery {
            y,
            x_lo,
            x_hi: x_lo + width,
        };
        let mut pram = Pram::new(64, Model::Crew);
        let list = si.query_coop(q, true, &mut pram);
        assert_eq!(si.collect_ids(&list), si.query_brute(q));
    });
}

/// The pipelined (ACG) build converges to the direct construction on
/// arbitrary instances.
#[test]
fn prop_pipelined_build() {
    cases(10, |rng| {
        let height = rng.gen_range(0u32..7);
        let total = rng.gen_range(1usize..2500);
        let tree = gen::balanced_binary(height, total, SizeDist::Uniform, rng);
        let direct = CascadedTree::build(tree.clone(), 4);
        let (piped, stats) = fc_catalog::pipeline::build_pipelined(tree, 4, None);
        for id in direct.tree().ids() {
            assert_eq!(direct.keys(id), piped.keys(id));
        }
        // Depth bound: 4 * (height + log total + slack).
        let lg = (usize::BITS - total.max(2).leading_zeros()) as u64;
        assert!(stats.rounds <= 4 * (height as u64 + lg + 8));
    });
}

/// List ranking matches its sequential definition on random forests.
#[test]
fn prop_list_rank() {
    cases(11, |rng| {
        use fc_pram::listrank::list_rank;
        let n = rng.gen_range(1usize..300);
        // Random forest of lists: each element points to a higher index or
        // itself (guarantees termination).
        let next: Vec<usize> = (0..n)
            .map(|i| {
                if i + 1 == n || rng.gen_bool(0.2) {
                    i
                } else {
                    rng.gen_range(i + 1..n)
                }
            })
            .collect();
        let mut pram = Pram::new(n, Model::Erew);
        let ranks = list_rank(&next, &mut pram);
        for (i, &rank) in ranks.iter().enumerate() {
            // Sequential reference.
            let (mut cur, mut d) = (i, 0u64);
            while next[cur] != cur {
                cur = next[cur];
                d += 1;
            }
            assert_eq!(rank, d);
        }
    });
}

/// Euler-tour depths equal stored depths on random catalog trees.
#[test]
fn prop_euler_depths() {
    cases(12, |rng| {
        let height = rng.gen_range(0u32..8);
        let tree = gen::balanced_binary(height, 100, SizeDist::Uniform, rng);
        let mut pram = Pram::new(4 * tree.len(), Model::Erew);
        let depths = tree.depths_parallel(&mut pram);
        for id in tree.ids() {
            assert_eq!(depths[id.idx()], tree.depth(id));
        }
    });
}

/// The generic d-dimensional range tree matches brute force for
/// d in 1..=3 with arbitrary boxes.
#[test]
fn prop_range_tree_d() {
    cases(13, |rng| {
        use fc_retrieval::ranged::{brute, random_points_d, RangeTreeD};
        let d = rng.gen_range(1usize..4);
        let n = rng.gen_range(1usize..150);
        let pts = random_points_d(n, d, 5000, rng);
        let t = RangeTreeD::build(&pts);
        for _ in 0..3 {
            let bounds: Vec<(i64, i64)> = (0..d)
                .map(|_| {
                    let a = rng.gen_range(-5i64..5005);
                    let b = rng.gen_range(-5i64..5005);
                    (a.min(b), a.max(b))
                })
                .collect();
            let mut pram = Pram::new(256, Model::Crew);
            assert_eq!(t.query(&bounds, &mut pram), brute(&pts, &bounds));
        }
    });
}

/// Spatial point location equals brute force for arbitrary complexes.
#[test]
fn prop_spatial_location() {
    cases(14, |rng| {
        use fc_geom::spatial::{
            locate_spatial_coop, SpatialComplex, SpatialLocator, SpatialParams,
        };
        use fc_geom::subdivision::SubdivisionParams;
        let cells_exp = rng.gen_range(1u32..6);
        let coincide = rng.gen_range(0.0f64..0.9);
        let qz = rng.gen_range(-2.0f64..80.0);
        let complex = SpatialComplex::generate(
            SpatialParams {
                cells: 1 << cells_exp,
                footprint: SubdivisionParams {
                    regions: 16,
                    strips: 6,
                    stick: 0.4,
                    detach: 0.4,
                },
                coincide,
            },
            rng,
        );
        let loc = SpatialLocator::build(complex, ParamMode::Auto);
        let (x, y, _) = loc.complex.random_query(rng);
        let want = loc.complex.locate_brute(x, y, qz);
        let mut pram = Pram::new(1 << 12, Model::Crew);
        let (got, _) = locate_spatial_coop(&loc, x, y, qz, &mut pram);
        assert_eq!(got, want);
    });
}

/// Dynamic searches stay exact under arbitrary update sequences.
#[test]
fn prop_dynamic_updates() {
    cases(15, |rng| {
        use fc_catalog::NodeId;
        use fc_coop::dynamic::DynamicCoop;
        let updates = rng.gen_range(0usize..400);
        let tree = gen::balanced_binary(5, 600, SizeDist::Uniform, rng);
        let mut dy = DynamicCoop::new(tree, ParamMode::Auto, 0.25);
        let mut pram = Pram::new(256, Model::Crew);
        let nodes = dy.structure().tree().len() as u32;
        for _ in 0..updates {
            let node = NodeId(rng.gen_range(0..nodes));
            let key = rng.gen_range(0..10_000i64);
            if rng.gen_bool(0.5) {
                dy.insert(node, key, &mut pram);
            } else {
                dy.remove(node, key, &mut pram);
            }
        }
        let leaf = gen::random_leaf(dy.structure().tree(), rng);
        let path = dy.structure().tree().path_from_root(leaf);
        let y = rng.gen_range(-5..10_005i64);
        let got = dy.search(&path, y, &mut pram);
        let want: Vec<Option<i64>> = path
            .iter()
            .map(|&node| dy.logical_catalog(node).into_iter().find(|&k| k >= y))
            .collect();
        assert_eq!(got, want);
    });
}

/// The fc-analyze shape sweep: uniform trees from small to `2^16` keys and
/// one with 80% of its keys in a single catalog.
fn shape_sweep() -> [fc_analyze::replay::TreeShape; 4] {
    use fc_analyze::replay::TreeShape;
    [
        TreeShape {
            height: 4,
            total: 600,
            heavy: None,
            seed: 9001,
        },
        TreeShape {
            height: 6,
            total: 2500,
            heavy: None,
            seed: 9002,
        },
        TreeShape {
            height: 6,
            total: 2500,
            heavy: Some(0.8),
            seed: 9003,
        },
        TreeShape {
            height: 12,
            total: 1 << 16,
            heavy: None,
            seed: 9004,
        },
    ]
}

/// Flat-arena cascade vs a nested per-node oracle, across the fc-analyze
/// shape sweep: every node's `native_succ` table and every bridge row must
/// bit-match a definitional recomputation (one binary search per entry),
/// `find_aug` must agree with an audited per-node binary search, and its
/// composition with `native_succ` must equal the direct lower bound in the
/// native catalog — for both the downward and the bidirectional builders.
#[test]
fn prop_flat_arena_matches_nested_oracle_across_shape_sweep() {
    for shape in shape_sweep() {
        let tree = shape.gen();
        for bidir in [false, true] {
            let fc = if bidir {
                CascadedTree::build_bidir(tree.clone(), 4)
            } else {
                CascadedTree::build(tree.clone(), 4)
            };
            let t = fc.tree();
            for v in t.ids() {
                let aug = fc.aug(v);
                let native = t.catalog(v);
                // Nested oracle: native_succ recomputed definitionally.
                let oracle_ns: Vec<u32> = aug
                    .keys
                    .iter()
                    .map(|k| native.partition_point(|x| x < k) as u32)
                    .collect();
                assert_eq!(
                    aug.native_succ,
                    &oracle_ns[..],
                    "{} bidir={bidir} node {v:?}: native_succ",
                    shape.label()
                );
                // Every bridge row recomputed definitionally against the
                // child's augmented catalog.
                for (slot, &c) in t.children(v).iter().enumerate() {
                    let ck = fc.keys(c);
                    let oracle_row: Vec<u32> = aug
                        .keys
                        .iter()
                        .map(|k| ck.partition_point(|x| x < k) as u32)
                        .collect();
                    assert_eq!(
                        &aug.bridges[slot],
                        &oracle_row[..],
                        "{} bidir={bidir} node {v:?} slot {slot}: bridges",
                        shape.label()
                    );
                }
                // find_aug == audited binary search; composed with
                // native_succ it equals the direct native lower bound.
                for &k in aug.keys {
                    for y in [k.saturating_sub(1), k, k.saturating_add(1)] {
                        let i = fc.find_aug(v, y);
                        assert_eq!(i, aug.keys.partition_point(|x| *x < y));
                        assert_eq!(
                            fc.native_result(v, i).native_idx as usize,
                            native.partition_point(|x| *x < y),
                            "{} bidir={bidir} node {v:?} y {y}",
                            shape.label()
                        );
                    }
                }
            }
            // Path searches over the flat structure match the naive oracle.
            let mut rng = SmallRng::seed_from_u64(shape.seed ^ 0xF1A7);
            for _ in 0..8 {
                let leaf = gen::random_leaf(t, &mut rng);
                let path = t.path_from_root(leaf);
                let y = rng.gen_range(-10..(shape.total as i64 * 16) + 10);
                let fcr = search_path_fc(&fc, &path, y, None);
                let nv = search_path_naive(t, &path, y, None);
                assert_eq!(fcr.results, nv.results, "{} bidir={bidir}", shape.label());
            }
        }
    }
}

/// A deferred structure builds nothing until asked, then derives the
/// arena, parameters and substructures eager preprocessing builds, across
/// the shape sweep and both parameter modes.
#[test]
fn prop_deferred_structure_derives_what_preprocess_builds() {
    for shape in shape_sweep() {
        let tree = shape.gen();
        for mode in [ParamMode::Auto, ParamMode::Theory] {
            let eager = CoopStructure::preprocess(tree.clone(), mode);
            let lazy = CoopStructure::deferred(tree.clone(), mode);
            assert_eq!(lazy.tree().catalog_flat(), tree.catalog_flat());
            assert!(!lazy.is_derived(), "{}: tree() built it", shape.label());
            let (e, l) = (eager.cascade(), lazy.cascade());
            assert!(lazy.is_derived());
            assert_eq!(l.sample_factor(), e.sample_factor(), "{}", shape.label());
            assert!(l.arena() == e.arena(), "{} {mode:?}: arena", shape.label());
            assert_eq!(lazy.params(), eager.params(), "{} {mode:?}", shape.label());
            assert!(
                lazy.substructures() == eager.substructures(),
                "{} {mode:?}: substructures",
                shape.label()
            );
            assert_eq!(lazy.total_space_words(), eager.total_space_words());
        }
    }
}

/// `CatalogTree::apply_batch` agrees with a per-node `BTreeSet` model fed
/// the same ops in order: the catalogs, the shape, and the count of
/// entries that changed. Batches mix inserts of present keys and removes
/// of absent ones (no-ops), insert-then-remove and remove-then-insert of
/// one key, ops on empty catalogs, and ops on the first and last node.
#[test]
fn prop_apply_batch_matches_set_model() {
    use fc_catalog::{CatalogTree, NodeId, UpdateOp};
    use std::collections::BTreeSet;
    cases(17, |rng| {
        let height = rng.gen_range(0u32..6);
        let total = rng.gen_range(0usize..300);
        let tree = gen::balanced_binary(height, total, SizeDist::Uniform, rng);
        let nodes = tree.len() as u32;
        let span = (total as i64 * 16).max(64);
        let mut model: Vec<BTreeSet<i64>> = tree
            .ids()
            .map(|id| tree.catalog(id).iter().copied().collect())
            .collect();
        let before = model.clone();
        let pick_node = |rng: &mut SmallRng| match rng.gen_range(0..4) {
            0 => NodeId(0),
            1 => NodeId(nodes - 1),
            _ => NodeId(rng.gen_range(0..nodes)),
        };
        let mut ops: Vec<UpdateOp<i64>> = Vec::new();
        for _ in 0..rng.gen_range(0usize..60) {
            let node = pick_node(rng);
            let present = model[node.idx()].iter().copied().collect::<Vec<_>>();
            let key = if !present.is_empty() && rng.gen_bool(0.4) {
                present[rng.gen_range(0..present.len())]
            } else {
                rng.gen_range(-span..span)
            };
            match rng.gen_range(0..4) {
                0 => ops.push(UpdateOp::Insert(node, key)),
                1 => ops.push(UpdateOp::Remove(node, key)),
                2 => {
                    ops.push(UpdateOp::Insert(node, key));
                    ops.push(UpdateOp::Remove(node, key));
                }
                _ => {
                    ops.push(UpdateOp::Remove(node, key));
                    ops.push(UpdateOp::Insert(node, key));
                }
            }
        }
        for op in &ops {
            match *op {
                UpdateOp::Insert(n, k) => model[n.idx()].insert(k),
                UpdateOp::Remove(n, k) => model[n.idx()].remove(&k),
            };
        }
        let (after, changed): (CatalogTree<i64>, usize) = tree.apply_batch(&ops);
        let want_changed: usize = before
            .iter()
            .zip(&model)
            .map(|(b, m)| b.symmetric_difference(m).count())
            .sum();
        assert_eq!(changed, want_changed);
        assert_eq!(after.len(), tree.len());
        assert_eq!(after.root(), tree.root());
        for id in tree.ids() {
            assert_eq!(after.parent(id), tree.parent(id));
            assert_eq!(after.children(id), tree.children(id));
            assert_eq!(after.depth(id), tree.depth(id));
            let want: Vec<i64> = model[id.idx()].iter().copied().collect();
            assert_eq!(after.catalog(id), &want[..], "node {id:?}");
        }
        assert_eq!(
            after.total_catalog_size(),
            model.iter().map(BTreeSet::len).sum::<usize>()
        );
    });
}
