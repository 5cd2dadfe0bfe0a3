//! One function per experiment of DESIGN.md's per-experiment index.

use crate::table::Table;
use fc_catalog::gen::{self, SizeDist};
use fc_catalog::invariants;
use fc_catalog::CascadedTree;
use fc_coop::explicit::coop_search_explicit;
use fc_coop::general::{binarize, coop_search_binarized, coop_search_long_path};
use fc_coop::implicit::{
    coop_search_implicit, implicit_search_seq, ConsistentLeafOracle, LeafOracleAdapter,
};
use fc_coop::reach::{reach_overlap, reach_size};
use fc_coop::skeleton::check_lemma1;
use fc_coop::{CoopStructure, ParamMode};
use fc_geom::cooploc::locate_coop;
use fc_geom::septree::{locate_binary_per_node, locate_sequential, NodeKind, SeparatorTree};
use fc_geom::spatial::{
    locate_spatial_coop, locate_spatial_sequential, SpatialComplex, SpatialLocator, SpatialParams,
};
use fc_geom::subdivision::{MonotoneSubdivision, SubdivisionParams};
use fc_pram::{Model, Pram};
use fc_retrieval::enclosure::{random_rects, PointEnclosure};
use fc_retrieval::range2d::{random_points, RangeTree2D, Rect};
use fc_retrieval::range3d::{random_points3, Box3, RangeTree3D};
use fc_retrieval::segint::{random_segments, HQuery, SegmentIntersection};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0xF00D;

/// The processor sweep used by the search experiments (the cost model
/// accepts astronomically large p — that is the point of simulating the
/// PRAM rather than running on hardware).
const P_SWEEP: [usize; 7] = [1, 1 << 8, 1 << 12, 1 << 16, 1 << 20, 1 << 26, 1 << 32];

fn fmt_f(x: f64) -> String {
    format!("{x:.1}")
}

/// E-T1-explicit — Theorem 1, explicit search: steps vs p at fixed n.
pub fn t1_explicit() -> Table {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let height = 14u32;
    let n = 1usize << 18;
    let tree = gen::balanced_binary(height, n, SizeDist::Uniform, &mut rng);
    let auto = CoopStructure::preprocess(tree.clone(), ParamMode::Auto);
    let theory = CoopStructure::preprocess(tree, ParamMode::Theory);

    let mut t = Table::new(
        format!(
            "E-T1-explicit (Theorem 1): explicit cooperative search, n = 2^18, height {height}"
        ),
        &[
            "p",
            "steps(auto)",
            "h(auto)",
            "hops",
            "tail",
            "steps(theory)",
            "naive(1 proc)",
            "(log n)/log p",
        ],
    );
    let queries: Vec<(Vec<_>, i64)> = (0..50)
        .map(|_| {
            let leaf = gen::random_leaf(auto.tree(), &mut rng);
            (
                auto.tree().path_from_root(leaf),
                rng.gen_range(0..(n as i64 * 16)),
            )
        })
        .collect();
    let log_n = (n as f64).log2();
    for p in P_SWEEP {
        let (mut sa, mut st_, mut sn, mut hops, mut tail) = (0u64, 0u64, 0u64, 0usize, 0usize);
        let mut h = None;
        for (path, y) in &queries {
            let mut pa = Pram::new(p, Model::Crew);
            let ra = coop_search_explicit(&auto, path, *y, &mut pa);
            sa += pa.steps();
            hops += ra.stats.hops;
            tail += ra.stats.tail_nodes;
            h = h.or(ra.stats.used_h);
            let mut pt = Pram::new(p, Model::Crew);
            coop_search_explicit(&theory, path, *y, &mut pt);
            st_ += pt.steps();
            let mut pn = Pram::new(1, Model::Crew);
            fc_catalog::search::search_path_naive(auto.tree(), path, *y, Some(&mut pn));
            sn += pn.steps();
        }
        let q = queries.len() as f64;
        t.row(vec![
            format!("2^{}", (usize::BITS - 1 - p.leading_zeros())),
            fmt_f(sa as f64 / q),
            h.map_or("-".into(), |h| h.to_string()),
            fmt_f(hops as f64 / q),
            fmt_f(tail as f64 / q),
            fmt_f(st_ as f64 / q),
            fmt_f(sn as f64 / q),
            fmt_f(log_n / (p.max(2) as f64).log2()),
        ]);
    }
    t.note(
        "shape check: steps(auto) should fall like (log n)/log p once p clears the h>=2 threshold",
    );
    t.note("theory mode uses the paper's exact alpha/h_i constants (tiny hops for practical p)");
    t
}

/// E-T1-implicit — Theorem 1, implicit search.
pub fn t1_implicit() -> Table {
    let mut rng = SmallRng::seed_from_u64(SEED + 1);
    let height = 13u32;
    let n = 1usize << 17;
    let tree = gen::balanced_binary(height, n, SizeDist::Uniform, &mut rng);
    let st = CoopStructure::preprocess(tree, ParamMode::Auto);
    let mut t = Table::new(
        "E-T1-implicit (Theorem 1 / Section 2.3): implicit cooperative search, n = 2^17",
        &["p", "steps", "work", "hops", "seq steps(1 proc)"],
    );
    let targets: Vec<_> = (0..30)
        .map(|_| gen::random_leaf(st.tree(), &mut rng))
        .collect();
    for p in P_SWEEP {
        let (mut steps, mut work, mut hops, mut seq) = (0u64, 0u64, 0usize, 0u64);
        for &target in &targets {
            let oracle = ConsistentLeafOracle::new(st.tree(), target);
            let adapter = LeafOracleAdapter::new(st.tree(), &oracle);
            let y = rng.gen_range(0..(n as i64 * 16));
            let mut pram = Pram::new(p, Model::Crew);
            let out = coop_search_implicit(&st, &adapter, y, &mut pram);
            steps += pram.steps();
            work += pram.work();
            hops += out.stats.hops;
            let mut p1 = Pram::new(1, Model::Crew);
            implicit_search_seq(&st, &adapter, y, Some(&mut p1));
            seq += p1.steps();
        }
        let q = targets.len() as f64;
        t.row(vec![
            format!("2^{}", (usize::BITS - 1 - p.leading_zeros())),
            fmt_f(steps as f64 / q),
            fmt_f(work as f64 / q),
            fmt_f(hops as f64 / q),
            fmt_f(seq as f64 / q),
        ]);
    }
    t.note("implicit hops cover all 2^h unit nodes: same step shape as explicit, higher work");
    t
}

/// E-T1-prep — preprocessing time/work vs n (EREW, n/log n processors).
pub fn prep() -> Table {
    let mut t = Table::new(
        "E-T1-prep (Theorem 1): preprocessing on EREW with n/log n processors",
        &[
            "n",
            "level-sync steps",
            "work/n",
            "log^2 n",
            "pipelined rounds (ACG)",
            "pipelined work/n",
            "4 log n",
        ],
    );
    let mut rng = SmallRng::seed_from_u64(SEED + 2);
    for exp in [12u32, 14, 16, 18] {
        let n = 1usize << exp;
        let height = exp - 4;
        let tree = gen::balanced_binary(height, n, SizeDist::Uniform, &mut rng);
        let procs = (n / exp as usize).max(1);
        let mut pram = Pram::new(procs, Model::Erew);
        let _ = CoopStructure::preprocess_cost(tree.clone(), ParamMode::Auto, &mut pram);
        // The real pipelined (ACG) schedule, executed round by round.
        let (_, pstats) = fc_catalog::pipeline::build_pipelined(tree, 4, None);
        t.row(vec![
            format!("2^{exp}"),
            pram.steps().to_string(),
            fmt_f(pram.work() as f64 / n as f64),
            (exp * exp).to_string(),
            pstats.rounds.to_string(),
            fmt_f(pstats.work as f64 / n as f64),
            (4 * exp).to_string(),
        ]);
    }
    t.note("level-synchronous: O(log^2 n) depth; the executed ACG pipelined schedule: O(log n) rounds, linear work");
    t
}

/// E-L2-space — Lemma 2: total structure space vs n.
pub fn space() -> Table {
    let mut t = Table::new(
        "E-L2-space (Lemma 2): T' occupies O(n) words",
        &["n", "aug words", "skeleton words", "total", "total/n"],
    );
    let mut rng = SmallRng::seed_from_u64(SEED + 3);
    for exp in [12u32, 14, 16, 18] {
        let n = 1usize << exp;
        let tree = gen::balanced_binary(exp - 4, n, SizeDist::Uniform, &mut rng);
        let st = CoopStructure::preprocess(tree, ParamMode::Theory);
        let aug = st.cascade().total_aug_size();
        let skel: usize = st.space_rows().iter().map(|r| r.skeleton_words).sum();
        let total = st.total_space_words();
        t.row(vec![
            format!("2^{exp}"),
            aug.to_string(),
            skel.to_string(),
            total.to_string(),
            fmt_f(total as f64 / n as f64),
        ]);
    }
    t.note("total/n must stay flat as n grows (linear space)");
    t
}

/// E-L1-disjoint — Lemma 1: skeleton-key disjointness.
pub fn lemma1() -> Table {
    let mut t = Table::new(
        "E-L1-disjoint (Lemma 1): skeleton keys are distinct per node",
        &["h", "s_i", "units", "violations", "min sampled root gap"],
    );
    let mut rng = SmallRng::seed_from_u64(SEED + 4);
    let tree = gen::balanced_binary(12, 1 << 17, SizeDist::SingleHeavy(0.5), &mut rng);
    let st = CoopStructure::preprocess(tree, ParamMode::Auto);
    for sub in st.substructures() {
        let (violations, min_gap) = check_lemma1(sub);
        t.row(vec![
            sub.sp.h.to_string(),
            sub.sp.s.to_string(),
            sub.units.len().to_string(),
            violations.to_string(),
            if min_gap == usize::MAX {
                "-".into()
            } else {
                min_gap.to_string()
            },
        ]);
    }
    t.note("violations must be 0 (requires the bidirectional cascade — see DESIGN.md)");
    t
}

/// E-T2-paths — Theorem 2: long explicit paths.
pub fn t2() -> Table {
    let mut t = Table::new(
        "E-T2-paths (Theorem 2): path length k sweep, steps ~ log n/log p + k/(p^(1-eps) log p)",
        &["k", "p", "eps", "steps", "groups", "p^eps per subpath"],
    );
    let mut rng = SmallRng::seed_from_u64(SEED + 5);
    for k in [256usize, 1024, 4096] {
        let tree = gen::path(k, k * 8, SizeDist::Uniform, &mut rng);
        let st = CoopStructure::preprocess(tree, ParamMode::Auto);
        let path = st.tree().path_from_root(st.tree().leaves()[0]);
        for (p, eps) in [
            (1usize, 0.5),
            (1 << 10, 0.5),
            (1 << 20, 0.5),
            (1 << 20, 0.25),
        ] {
            let y = rng.gen_range(0..(k as i64 * 64));
            let mut pram = Pram::new(p, Model::Crew);
            let out = coop_search_long_path(&st, &path, y, eps, &mut pram);
            t.row(vec![
                k.to_string(),
                format!("2^{}", usize::BITS - 1 - p.leading_zeros()),
                eps.to_string(),
                pram.steps().to_string(),
                out.groups.to_string(),
                out.p_per_subpath.to_string(),
            ]);
        }
    }
    t.note("k/(p^(1-eps)) term dominates at large k; groups shrink as p grows");
    t
}

/// E-T3-degree — Theorem 3: degree-d trees via binarization.
pub fn t3() -> Table {
    let mut t = Table::new(
        "E-T3-degree (Theorem 3): degree-d trees, log d slowdown after binarization",
        &[
            "d",
            "orig height",
            "bin height",
            "steps (p=2^20)",
            "steps x / log2 d",
        ],
    );
    let mut rng = SmallRng::seed_from_u64(SEED + 6);
    let mut base = None;
    for d in [2usize, 4, 8, 16] {
        let height = 4u32;
        let tree = gen::dary(d, height, 40_000, &mut rng);
        let bin = binarize(&tree);
        let st = CoopStructure::preprocess(bin.tree.clone(), ParamMode::Auto);
        let leaf = gen::random_leaf(&tree, &mut rng);
        let mut steps = 0u64;
        for _ in 0..20 {
            let y = rng.gen_range(0..(40_000i64 * 16));
            let mut pram = Pram::new(1 << 20, Model::Crew);
            let _ = coop_search_binarized(&st, &bin, bin.old_to_new[leaf.idx()], y, &mut pram);
            steps += pram.steps();
        }
        let avg = steps as f64 / 20.0;
        let b = *base.get_or_insert(avg);
        let lg_d = (d as f64).log2().max(1.0);
        t.row(vec![
            d.to_string(),
            tree.height().to_string(),
            bin.tree.height().to_string(),
            fmt_f(avg),
            fmt_f((avg / b) / lg_d),
        ]);
    }
    t.note("normalised column should stay O(1): the slowdown tracks log d");
    t
}

fn default_subdivision(regions: usize, strips: usize, rng: &mut SmallRng) -> SeparatorTree {
    let sub = MonotoneSubdivision::generate(
        SubdivisionParams {
            regions,
            strips,
            stick: 0.35,
            detach: 0.45,
        },
        rng,
    );
    SeparatorTree::build(sub, ParamMode::Auto)
}

/// E-T4-planar — Theorem 4: cooperative planar point location.
pub fn t4() -> Table {
    let mut rng = SmallRng::seed_from_u64(SEED + 7);
    let t4_tree = default_subdivision(4096, 48, &mut rng);
    let mut t = Table::new(
        format!(
            "E-T4-planar (Theorem 4): point location, f = 4096 regions, {} distinct edges",
            t4_tree.sub.distinct_edges()
        ),
        &[
            "p",
            "coop steps",
            "hops",
            "seq (bridged)",
            "binary/node",
            "mismatches",
        ],
    );
    let queries: Vec<(f64, f64)> = (0..60)
        .map(|_| t4_tree.sub.random_query(&mut rng))
        .collect();
    for p in P_SWEEP {
        let (mut cs, mut hops, mut ss, mut bs, mut bad) = (0u64, 0usize, 0u64, 0u64, 0usize);
        for &(x, y) in &queries {
            let want = t4_tree.sub.locate_brute(x, y);
            let mut pc = Pram::new(p, Model::Crew);
            let (got, stats) = locate_coop(&t4_tree, x, y, &mut pc);
            cs += pc.steps();
            hops += stats.hops;
            if got != want {
                bad += 1;
            }
            let mut ps = Pram::new(1, Model::Crew);
            locate_sequential(&t4_tree, x, y, Some(&mut ps));
            ss += ps.steps();
            let mut pb = Pram::new(1, Model::Crew);
            locate_binary_per_node(&t4_tree, x, y, Some(&mut pb));
            bs += pb.steps();
        }
        let q = queries.len() as f64;
        t.row(vec![
            format!("2^{}", usize::BITS - 1 - p.leading_zeros()),
            fmt_f(cs as f64 / q),
            fmt_f(hops as f64 / q),
            fmt_f(ss as f64 / q),
            fmt_f(bs as f64 / q),
            bad.to_string(),
        ]);
    }
    t.note("mismatches must be 0; coop steps fall with log p; bridged sequential beats binary-per-node");
    t
}

/// E-T5-spatial — Theorem 5: spatial point location.
pub fn t5() -> Table {
    let mut rng = SmallRng::seed_from_u64(SEED + 8);
    let complex = SpatialComplex::generate(
        SpatialParams {
            cells: 256,
            footprint: SubdivisionParams {
                regions: 256,
                strips: 24,
                stick: 0.35,
                detach: 0.45,
            },
            coincide: 0.3,
        },
        &mut rng,
    );
    let loc = SpatialLocator::build(complex, ParamMode::Auto);
    let mut t = Table::new(
        "E-T5-spatial (Theorem 5 / Cor 1): 3D point location, 256 cells x 256 footprint regions",
        &[
            "p",
            "coop steps",
            "hops",
            "inner queries",
            "seq steps",
            "mismatches",
        ],
    );
    let queries: Vec<(f64, f64, f64)> = (0..40)
        .map(|_| loc.complex.random_query(&mut rng))
        .collect();
    for p in [1usize, 1 << 8, 1 << 14, 1 << 20, 1 << 26] {
        let (mut cs, mut hops, mut inner, mut ss, mut bad) = (0u64, 0usize, 0usize, 0u64, 0usize);
        for &(x, y, z) in &queries {
            let want = loc.complex.locate_brute(x, y, z);
            let mut pc = Pram::new(p, Model::Crew);
            let (got, stats) = locate_spatial_coop(&loc, x, y, z, &mut pc);
            cs += pc.steps();
            hops += stats.hops;
            inner += stats.inner_queries;
            if got != want {
                bad += 1;
            }
            let mut ps = Pram::new(1, Model::Crew);
            locate_spatial_sequential(&loc, x, y, z, &mut ps);
            ss += ps.steps();
        }
        let q = queries.len() as f64;
        t.row(vec![
            format!("2^{}", usize::BITS - 1 - p.leading_zeros()),
            fmt_f(cs as f64 / q),
            fmt_f(hops as f64 / q),
            fmt_f(inner as f64 / q),
            fmt_f(ss as f64 / q),
            bad.to_string(),
        ]);
    }
    t.note("two-level speedup: steps fall ~quadratically in log p (Theorem 5's (log n / log p)^2)");
    t
}

/// E-T6-segint — Theorem 6: orthogonal segment intersection.
pub fn t6() -> Table {
    let mut rng = SmallRng::seed_from_u64(SEED + 9);
    let s = SegmentIntersection::build(random_segments(20_000, 100_000, &mut rng), ParamMode::Auto);
    let mut t = Table::new(
        format!(
            "E-T6-segint (Theorem 6): segment intersection, n = 20000, catalog = {}",
            s.catalog_size()
        ),
        &[
            "p",
            "selectivity",
            "avg k",
            "direct steps",
            "indirect steps (CRCW)",
        ],
    );
    for p in [1usize, 1 << 10, 1 << 20] {
        for width in [100i64, 10_000, 2_000_000] {
            let (mut k, mut ds, mut is_) = (0u64, 0u64, 0u64);
            let mut rng2 = SmallRng::seed_from_u64(SEED + 10 + width as u64);
            for _ in 0..25 {
                let x0 = rng2.gen_range(0..100_000);
                let q = HQuery {
                    y: rng2.gen_range(0..100_000),
                    x_lo: x0,
                    x_hi: x0 + width,
                };
                let mut pd = Pram::new(p, Model::Crew);
                let list = s.query_coop(q, true, &mut pd);
                k += list.total;
                ds += pd.steps();
                let mut pi = Pram::new(p, Model::Crcw);
                s.query_coop(q, false, &mut pi);
                is_ += pi.steps();
            }
            t.row(vec![
                format!("2^{}", usize::BITS - 1 - p.leading_zeros()),
                format!("w={width}"),
                fmt_f(k as f64 / 25.0),
                fmt_f(ds as f64 / 25.0),
                fmt_f(is_ as f64 / 25.0),
            ]);
        }
    }
    t.note("direct pays k/p; indirect is output-size independent (Theorem 6 parts 1 vs 2)");
    t
}

/// E-T6-range — Theorem 6: 2D orthogonal range search.
pub fn t6r() -> Table {
    let mut rng = SmallRng::seed_from_u64(SEED + 11);
    let t2d = RangeTree2D::build(random_points(8192, 1 << 20, &mut rng), ParamMode::Auto);
    let mut t = Table::new(
        "E-T6-range (Theorem 6): 2D range search, n = 8192",
        &["p", "avg k", "direct steps", "indirect steps"],
    );
    let queries: Vec<Rect> = (0..30)
        .map(|_| {
            let (a, b) = (rng.gen_range(0i64..1 << 20), rng.gen_range(0i64..1 << 20));
            let (c, d) = (rng.gen_range(0i64..1 << 20), rng.gen_range(0i64..1 << 20));
            Rect {
                x1: a.min(b),
                x2: a.max(b),
                y1: c.min(d),
                y2: c.max(d),
            }
        })
        .collect();
    for p in [1usize, 1 << 10, 1 << 20, 1 << 30] {
        let (mut k, mut ds, mut is_) = (0u64, 0u64, 0u64);
        for &q in &queries {
            let mut pd = Pram::new(p, Model::Crew);
            let list = t2d.query_coop(q, true, &mut pd);
            k += list.total;
            ds += pd.steps();
            let mut pi = Pram::new(p, Model::Crcw);
            t2d.query_coop(q, false, &mut pi);
            is_ += pi.steps();
        }
        let q = queries.len() as f64;
        t.row(vec![
            format!("2^{}", usize::BITS - 1 - p.leading_zeros()),
            fmt_f(k as f64 / q),
            fmt_f(ds as f64 / q),
            fmt_f(is_ as f64 / q),
        ]);
    }
    t
}

/// E-T6-enclose — Theorem 6: point enclosure.
pub fn t6e() -> Table {
    let mut rng = SmallRng::seed_from_u64(SEED + 12);
    let pe = PointEnclosure::build(random_rects(8000, 100_000, &mut rng));
    let mut t = Table::new(
        format!(
            "E-T6-enclose (Theorem 6): point enclosure, n = 8000, stored intervals = {}",
            pe.stored_intervals()
        ),
        &["p", "avg k", "steps"],
    );
    let queries: Vec<(i64, i64)> = (0..30)
        .map(|_| (rng.gen_range(0..100_000), rng.gen_range(0..100_000)))
        .collect();
    for p in [1usize, 1 << 10, 1 << 20] {
        let (mut k, mut steps) = (0u64, 0u64);
        for &(x, y) in &queries {
            let mut pram = Pram::new(p, Model::Crew);
            let ids = pe.query_coop(x, y, &mut pram);
            k += ids.len() as u64;
            steps += pram.steps();
        }
        let q = queries.len() as f64;
        t.row(vec![
            format!("2^{}", usize::BITS - 1 - p.leading_zeros()),
            fmt_f(k as f64 / q),
            fmt_f(steps as f64 / q),
        ]);
    }
    t.note("interval-tree realisation: (log n/log p)^2 shape; the paper's flat bound needs an unspecified structure (EXPERIMENTS.md)");
    t
}

/// E-C2-3d — Corollary 2: 3D range search.
pub fn c2() -> Table {
    let mut rng = SmallRng::seed_from_u64(SEED + 13);
    let t3d = RangeTree3D::build(random_points3(1024, 1 << 18, &mut rng), ParamMode::Auto);
    let mut t = Table::new(
        format!(
            "E-C2-3d (Corollary 2): 3D range search, n = 1024, space = {} words",
            t3d.total_space()
        ),
        &["p", "avg k", "steps", "((log n)/log p)^2"],
    );
    let queries: Vec<Box3> = (0..20)
        .map(|_| {
            let mut dim = || {
                let (a, b) = (rng.gen_range(0i64..1 << 18), rng.gen_range(0i64..1 << 18));
                (a.min(b), a.max(b))
            };
            Box3 {
                x: dim(),
                y: dim(),
                z: dim(),
            }
        })
        .collect();
    let log_n = 1024f64.log2();
    for p in [1usize, 1 << 10, 1 << 20, 1 << 30] {
        let (mut k, mut steps) = (0u64, 0u64);
        for &q in &queries {
            let mut pram = Pram::new(p, Model::Crew);
            let ids = t3d.query_coop(q, &mut pram);
            k += ids.len() as u64;
            steps += pram.steps();
        }
        let q = queries.len() as f64;
        let shape = (log_n / (p.max(2) as f64).log2()).powi(2);
        t.row(vec![
            format!("2^{}", usize::BITS - 1 - p.leading_zeros()),
            fmt_f(k as f64 / q),
            fmt_f(steps as f64 / q),
            fmt_f(shape),
        ]);
    }
    t
}

/// F-1-reach — Figure 1: |reach(c, U)| growth with unit height.
pub fn fig1() -> Table {
    let mut rng = SmallRng::seed_from_u64(SEED + 14);
    let tree = gen::balanced_binary(10, 1 << 16, SizeDist::Uniform, &mut rng);
    let fc = CascadedTree::build_bidir(tree, 4);
    let b = fc.fanout_bound();
    let root = fc.tree().root();
    let c = fc.keys(root).len() / 2;
    let mut t = Table::new(
        "F-1-reach (Figure 1): size of reach(c, U) per level, bound (2(2b+1))^l",
        &["level l", "|reach| at level", "bound (2(2b+1))^l"],
    );
    let (per_level, total) = reach_size(&fc, root, c, 6);
    for (l, &cnt) in per_level.iter().enumerate() {
        t.row(vec![
            l.to_string(),
            cnt.to_string(),
            (2 * (2 * b + 1)).pow(l as u32).to_string(),
        ]);
    }
    t.note(format!("total reach size {total} = O(p^beta), beta < 1"));
    t
}

/// F-2-prune — Figure 2: reach overlap (why approach 2 fails).
pub fn fig2() -> Table {
    let mut rng = SmallRng::seed_from_u64(SEED + 15);
    let mut t = Table::new(
        "F-2-prune (Figure 2): naive reach storage vs distinct coverage",
        &[
            "catalog dist",
            "sum of |reach|",
            "distinct pairs",
            "blow-up",
        ],
    );
    for (name, dist) in [
        ("uniform", SizeDist::Uniform),
        ("single-heavy", SizeDist::SingleHeavy(0.6)),
    ] {
        let tree = gen::balanced_binary(7, 12_000, dist, &mut rng);
        let fc = CascadedTree::build_bidir(tree, 4);
        let (sum, distinct) = reach_overlap(&fc, fc.tree().root(), 3);
        t.row(vec![
            name.to_string(),
            sum.to_string(),
            distinct.to_string(),
            fmt_f(sum as f64 / distinct.max(1) as f64),
        ]);
    }
    t.note("the blow-up factor is what the skeleton sampling (final approach) eliminates");
    t
}

/// F-3-skeleton — Figure 3: skeleton forest statistics per substructure.
pub fn fig3() -> Table {
    let mut rng = SmallRng::seed_from_u64(SEED + 16);
    // Root-heavy catalogs: the upper nodes hold most of the entries, so
    // the forests genuinely sample (m > 1), as in the paper's Figure 3.
    let tree = gen::balanced_binary(12, 1 << 17, SizeDist::RootHeavy, &mut rng);
    let st = CoopStructure::preprocess(tree, ParamMode::Auto);
    let mut t = Table::new(
        "F-3-skeleton (Figure 3): units and skeleton forests per substructure T_i (root-heavy catalogs)",
        &["h", "s_i", "trunc", "units", "avg m", "sparse frac", "skeleton words"],
    );
    for sub in st.substructures() {
        let units = sub.units.len();
        let m_sum: usize = sub.units.iter().map(|u| u.m as usize).sum();
        let sparse = sub.units.iter().filter(|u| u.is_sparse()).count();
        t.row(vec![
            sub.sp.h.to_string(),
            sub.sp.s.to_string(),
            sub.sp.trunc.to_string(),
            units.to_string(),
            fmt_f(m_sum as f64 / units.max(1) as f64),
            fmt_f(sparse as f64 / units.max(1) as f64),
            sub.space().to_string(),
        ]);
    }
    t
}

/// F-4-fanout — Figure 4 / Lemma 1's separation bound.
pub fn fig4() -> Table {
    let mut rng = SmallRng::seed_from_u64(SEED + 17);
    let tree = gen::balanced_binary(9, 1 << 15, SizeDist::Uniform, &mut rng);
    let fc = CascadedTree::build_bidir(tree, 4);
    let b = fc.fanout_bound();
    let report = invariants::check_all(&fc);
    let mut t = Table::new(
        "F-4-fanout (Figure 4): bridge separation profile vs (2b+1)(2b+r+1)-1",
        &["r", "max observed separation", "Lemma 1 bound"],
    );
    let profile = invariants::bridge_separation_profile(&fc, 6);
    for (r, &sep) in profile.iter().enumerate() {
        t.row(vec![
            r.to_string(),
            sep.to_string(),
            ((2 * b + 1) * (2 * b + r + 1) - 1).to_string(),
        ]);
    }
    t.note(format!(
        "properties: b observed {} / guaranteed {}, adjacency {} / {}, monotone {}",
        report.b_observed,
        report.b_guaranteed,
        report.adjacency_observed,
        report.adjacency_guaranteed,
        report.monotone
    ));
    t
}

/// F-5-seqloc — Figure 5: sequential point-location trace.
pub fn fig5() -> Table {
    let mut rng = SmallRng::seed_from_u64(SEED + 18);
    let tree = default_subdivision(16, 8, &mut rng);
    let (x, y) = tree.sub.random_query(&mut rng);
    let region = tree.sub.locate_brute(x, y);
    let mut t = Table::new(
        format!(
            "F-5-seqloc (Figure 5): sequential trace for q = ({x:.2}, {y:.2}) -> region r_{region}"
        ),
        &["node", "kind", "activity", "branch"],
    );
    // Re-run the search, recording the trace.
    let fc = tree.st.cascade();
    let tr = tree.st.tree();
    let yk = tree.clamp_y(y);
    let key = fc_catalog::key::OrdF64::new(yk);
    let mut node = tr.root();
    let mut aug = fc.find_aug(node, key);
    loop {
        match tree.kind[node.idx()] {
            NodeKind::Region(r) => {
                t.row(vec![
                    format!("r_{r}"),
                    "region".into(),
                    "-".into(),
                    "-".into(),
                ]);
                break;
            }
            NodeKind::Separator(c) => {
                let native = fc.native_result(node, aug).native_idx as usize;
                let (act, branch) = match tree.classify(node, native, yk) {
                    fc_geom::septree::Activity::Active(_) => {
                        ("active", tree.discriminate(c, x, yk))
                    }
                    fc_geom::septree::Activity::Inactive => (
                        "inactive",
                        tree.strip_branch[node.idx()][tree.sub.strip_of(yk)],
                    ),
                };
                t.row(vec![
                    format!("sigma_{c}"),
                    "separator".into(),
                    act.into(),
                    format!("{branch:?}"),
                ]);
                let slot = branch.slot();
                let (next, _) = fc.descend(node, slot, aug, key);
                node = tr.children(node)[slot];
                aug = next;
            }
        }
    }
    let (got, stats) = locate_sequential(&tree, x, y, None);
    t.note(format!(
        "verified r_{got} == brute r_{region}; active {} inactive {} on the path",
        stats.active_nodes, stats.inactive_nodes
    ));
    t
}

/// F-6-cooploc — Figure 6: cooperative hop trace.
pub fn fig6() -> Table {
    let mut rng = SmallRng::seed_from_u64(SEED + 19);
    let tree = default_subdivision(1024, 24, &mut rng);
    let mut t = Table::new(
        "F-6-cooploc (Figure 6): cooperative point location traces (per query)",
        &[
            "query",
            "region",
            "hops",
            "active nodes",
            "final (L, R)",
            "tail",
            "fallbacks",
        ],
    );
    for i in 0..8 {
        let (x, y) = tree.sub.random_query(&mut rng);
        let mut pram = Pram::new(1 << 20, Model::Crew);
        let (region, stats) = locate_coop(&tree, x, y, &mut pram);
        assert_eq!(region, tree.sub.locate_brute(x, y));
        t.row(vec![
            format!("q{i}"),
            format!("r_{region}"),
            stats.hops.to_string(),
            stats.active_nodes.to_string(),
            format!("({}, {})", stats.window.0, stats.window.1),
            stats.tail_nodes.to_string(),
            stats.fallbacks.to_string(),
        ]);
    }
    t.note("the recomputed branch function satisfied the consistency assumption in every hop (debug-asserted)");
    t
}

/// A-b-calib — ablation: guaranteed fan-out bound vs instance-calibrated.
///
/// The window formulas use the fan-out constant `b`. The guaranteed bound
/// (`s − 1 = 3`) makes Lemma 3 unconditional; calibrating `b` to the
/// instance's *observed* fan-out shrinks every window by a `((2b+1)/7)^l`
/// factor and unlocks larger hop heights at the same `p`, at the price of
/// per-query coverage validation with a binary-search fallback.
pub fn ablation_b() -> Table {
    let mut rng = SmallRng::seed_from_u64(SEED + 20);
    let n = 1usize << 17;
    let tree = gen::balanced_binary(13, n, SizeDist::Uniform, &mut rng);
    let fc = fc_catalog::CascadedTree::build_bidir(tree, 4);
    let report = invariants::check_all(&fc);
    let b_obs = report.b_observed.max(1);
    let guaranteed = CoopStructure::from_cascade(fc.clone(), ParamMode::Auto);
    let calibrated = CoopStructure::from_cascade_with_b(fc, ParamMode::Auto, b_obs);
    let mut t = Table::new(
        format!(
            "A-b-calib (ablation): window constant b — guaranteed {} vs observed {}",
            report.b_guaranteed, b_obs
        ),
        &[
            "p",
            "steps (b guar.)",
            "steps (b calib.)",
            "fallbacks (calib.)",
            "h guar./calib.",
        ],
    );
    let queries: Vec<(Vec<_>, i64)> = (0..40)
        .map(|_| {
            let leaf = gen::random_leaf(guaranteed.tree(), &mut rng);
            (
                guaranteed.tree().path_from_root(leaf),
                rng.gen_range(0..(n as i64 * 16)),
            )
        })
        .collect();
    for p in [1usize << 12, 1 << 16, 1 << 20, 1 << 26] {
        let (mut sg, mut sc, mut fb) = (0u64, 0u64, 0usize);
        let (mut hg, mut hc) = (None, None);
        for (path, y) in &queries {
            let mut pg = Pram::new(p, Model::Crew);
            let rg = coop_search_explicit(&guaranteed, path, *y, &mut pg);
            sg += pg.steps();
            hg = hg.or(rg.stats.used_h);
            let mut pc = Pram::new(p, Model::Crew);
            let rc = coop_search_explicit(&calibrated, path, *y, &mut pc);
            sc += pc.steps();
            fb += rc.stats.fallbacks;
            hc = hc.or(rc.stats.used_h);
            assert_eq!(rg.finds, rc.finds);
        }
        let q = queries.len() as f64;
        t.row(vec![
            format!("2^{}", usize::BITS - 1 - p.leading_zeros()),
            fmt_f(sg as f64 / q),
            fmt_f(sc as f64 / q),
            fb.to_string(),
            format!("{}/{}", hg.map_or(0, |h| h), hc.map_or(0, |h| h)),
        ]);
    }
    t.note(
        "calibrated b gives bigger hops at the same p; fallbacks repair any window miss exactly",
    );
    t
}

/// A-modes — ablation: Theory vs Auto parameter selection across n.
pub fn ablation_modes() -> Table {
    let mut rng = SmallRng::seed_from_u64(SEED + 21);
    let mut t = Table::new(
        "A-modes (ablation): paper's band rule (Theory) vs cost-aware selection (Auto)",
        &["n", "p", "steps Theory", "steps Auto", "seq FC"],
    );
    for exp in [14u32, 18] {
        let n = 1usize << exp;
        let tree = gen::balanced_binary(exp - 4, n, SizeDist::Uniform, &mut rng);
        let theory = CoopStructure::preprocess(tree.clone(), ParamMode::Theory);
        let auto = CoopStructure::preprocess(tree, ParamMode::Auto);
        for p in [1usize << 10, 1 << 20, 1 << 30] {
            let (mut st_, mut sa, mut sq) = (0u64, 0u64, 0u64);
            for _ in 0..25 {
                let leaf = gen::random_leaf(auto.tree(), &mut rng);
                let path = auto.tree().path_from_root(leaf);
                let y = rng.gen_range(0..(n as i64 * 16));
                let mut pt = Pram::new(p, Model::Crew);
                coop_search_explicit(&theory, &path, y, &mut pt);
                st_ += pt.steps();
                let mut pa = Pram::new(p, Model::Crew);
                coop_search_explicit(&auto, &path, y, &mut pa);
                sa += pa.steps();
                let mut ps = Pram::new(1, Model::Crew);
                fc_catalog::search::search_path_fc(auto.cascade(), &path, y, Some(&mut ps));
                sq += ps.steps();
            }
            t.row(vec![
                format!("2^{exp}"),
                format!("2^{}", usize::BITS - 1 - p.leading_zeros()),
                fmt_f(st_ as f64 / 25.0),
                fmt_f(sa as f64 / 25.0),
                fmt_f(sq as f64 / 25.0),
            ]);
        }
    }
    t.note("Auto never loses to sequential; Theory can at mid-range p (the paper's constants are asymptotic)");
    t
}

/// E-Cd — Corollary 2 for general d via the recursive range tree.
pub fn cd_general() -> Table {
    let mut rng = SmallRng::seed_from_u64(SEED + 22);
    let mut t = Table::new(
        "E-Cd (Corollary 2, general d): recursive range tree, n = 512",
        &["d", "space", "n log^(d-1) n", "steps p=1", "steps p=2^20"],
    );
    let n = 512usize;
    let lg = n.ilog2() as usize + 1;
    for d in 1..=4usize {
        let pts = fc_retrieval::ranged::random_points_d(n, d, 1 << 18, &mut rng);
        let tree = fc_retrieval::ranged::RangeTreeD::build(&pts);
        let (mut s1, mut sp) = (0u64, 0u64);
        for _ in 0..15 {
            let bounds: Vec<(i64, i64)> = (0..d)
                .map(|_| {
                    let (a, b) = (rng.gen_range(0i64..1 << 18), rng.gen_range(0i64..1 << 18));
                    (a.min(b), a.max(b))
                })
                .collect();
            let mut p1 = Pram::new(1, Model::Crew);
            let r1 = tree.query(&bounds, &mut p1);
            s1 += p1.steps();
            let mut pb = Pram::new(1 << 20, Model::Crew);
            let rb = tree.query(&bounds, &mut pb);
            sp += pb.steps();
            assert_eq!(r1, rb);
        }
        t.row(vec![
            d.to_string(),
            tree.space().to_string(),
            (n * lg.pow(d as u32 - 1)).to_string(),
            fmt_f(s1 as f64 / 15.0),
            fmt_f(sp as f64 / 15.0),
        ]);
    }
    t
}

/// E-dyn — the dynamic extension (paper's open problem 4, global
/// rebuilding baseline).
pub fn dynamic() -> Table {
    use fc_catalog::NodeId;
    use fc_coop::dynamic::DynamicCoop;
    let mut rng = SmallRng::seed_from_u64(SEED + 23);
    let tree = gen::balanced_binary(10, 1 << 14, SizeDist::Uniform, &mut rng);
    let mut dy = DynamicCoop::new(tree, ParamMode::Auto, 0.25);
    let mut t = Table::new(
        "E-dyn (open problem 4): dynamic searches via buffering + global rebuilding",
        &[
            "updates so far",
            "rebuilds",
            "pending",
            "query steps (p=2^16)",
        ],
    );
    let mut pram = Pram::new(1 << 16, Model::Crew);
    let node_count = dy.structure().tree().len() as u32;
    for phase in 0..5 {
        for _ in 0..phase * 2000 {
            let node = NodeId(rng.gen_range(0..node_count));
            let key = rng.gen_range(0..1_000_000i64);
            if rng.gen_bool(0.7) {
                dy.insert(node, key, &mut pram);
            } else {
                dy.remove(node, key, &mut pram);
            }
        }
        let mut qsteps = 0u64;
        for _ in 0..20 {
            let leaf = gen::random_leaf(dy.structure().tree(), &mut rng);
            let path = dy.structure().tree().path_from_root(leaf);
            let mut qp = Pram::new(1 << 16, Model::Crew);
            dy.search(&path, rng.gen_range(0..1_000_000), &mut qp);
            qsteps += qp.steps();
        }
        t.row(vec![
            (phase * 2000 * (phase + 1) / 2 * 2).to_string(),
            dy.rebuilds.to_string(),
            dy.pending_changes().to_string(),
            fmt_f(qsteps as f64 / 20.0),
        ]);
    }
    t.note("query cost stays flat through churn; rebuilds amortise over Theta(n) updates");
    t
}

/// E-op3 — open problem 3 baseline: generalized (subtree) search paths.
pub fn op3() -> Table {
    use fc_coop::general::coop_search_subtree;
    let mut rng = SmallRng::seed_from_u64(SEED + 24);
    let tree = gen::balanced_binary(12, 1 << 16, SizeDist::Uniform, &mut rng);
    let st = CoopStructure::preprocess(tree, ParamMode::Auto);
    let root = st.tree().root();
    let m = st.tree().len();
    let mut t = Table::new(
        format!("E-op3 (open problem 3): locate y in all {m} subtree catalogs"),
        &["p", "steps", "m/p + depth"],
    );
    for p in [1usize, 1 << 6, 1 << 12, 1 << 18, 1 << 24] {
        let mut steps = 0u64;
        for _ in 0..10 {
            let y = rng.gen_range(0..(1i64 << 22));
            let mut pram = Pram::new(p, Model::Crew);
            coop_search_subtree(&st, root, y, &mut pram);
            steps += pram.steps();
        }
        t.row(vec![
            format!("2^{}", usize::BITS - 1 - p.leading_zeros()),
            fmt_f(steps as f64 / 10.0),
            fmt_f(m as f64 / p as f64 + 12.0),
        ]);
    }
    t.note("work-optimal baseline: O(log n + m/p + depth); beating the depth term cooperatively is the open problem");
    t
}

/// E-fault — fc-resilience: detection rate per fault kind, localized repair
/// cost vs full rebuild, and degraded-mode search with mid-query processor
/// kills.
pub fn efault() -> Table {
    use fc_coop::explicit::coop_search_explicit_checked;
    use fc_resilience::{audit, repair, Fault, FaultPlan, FaultSpec};

    let mut rng = SmallRng::seed_from_u64(SEED + 40);
    let height = 10u32;
    let n = 1usize << 14;
    let tree = gen::balanced_binary(height, n, SizeDist::Uniform, &mut rng);
    let st = CoopStructure::preprocess(tree, ParamMode::Auto);

    let kinds: [(&str, FaultSpec); 6] = [
        (
            "key-swap",
            FaultSpec {
                key_swaps: 1,
                ..FaultSpec::default()
            },
        ),
        (
            "key-clobber",
            FaultSpec {
                key_clobbers: 1,
                ..FaultSpec::default()
            },
        ),
        (
            "supremum-clobber",
            FaultSpec {
                supremum_clobbers: 1,
                ..FaultSpec::default()
            },
        ),
        (
            "bridge-perturb",
            FaultSpec {
                bridge_perturbs: 1,
                ..FaultSpec::default()
            },
        ),
        (
            "native-succ-perturb",
            FaultSpec {
                native_succ_perturbs: 1,
                ..FaultSpec::default()
            },
        ),
        (
            "skeleton-perturb",
            FaultSpec {
                skeleton_perturbs: 1,
                ..FaultSpec::default()
            },
        ),
    ];

    let mut t = Table::new(
        format!("E-fault (fc-resilience): inject -> detect -> repair, n = 2^14, height {height}, 20 seeds per kind"),
        &["fault kind", "detected", "repaired clean", "avg repair ops", "full rebuild ops", "fallbacks"],
    );
    let trials = 20u64;
    for (name, spec) in &kinds {
        let (mut detected, mut clean_after, mut fallbacks) = (0usize, 0usize, 0usize);
        let (mut rops, mut fops) = (0u64, 0u64);
        for seed in 0..trials {
            let plan = FaultPlan::generate(&st, spec, 1000 + seed);
            let mut tampered = st.clone();
            plan.apply(&mut tampered);
            let report = audit(&tampered);
            if !report.is_clean() {
                detected += 1;
            }
            let stats = repair(&mut tampered, &report);
            rops += stats.repair_ops as u64;
            fops += stats.full_rebuild_ops as u64;
            if stats.fell_back_to_full_rebuild {
                fallbacks += 1;
            }
            if audit(&tampered).is_clean() {
                clean_after += 1;
            }
        }
        t.row(vec![
            name.to_string(),
            format!("{detected}/{trials}"),
            format!("{clean_after}/{trials}"),
            fmt_f(rops as f64 / trials as f64),
            fmt_f(fops as f64 / trials as f64),
            fallbacks.to_string(),
        ]);
    }

    // Checked search on a heavily bridge-tampered structure: every query
    // either returns the exact answer or a localized error — never a
    // silently wrong answer.
    let plan = FaultPlan::generate(
        &st,
        &FaultSpec {
            bridge_perturbs: 32,
            ..FaultSpec::default()
        },
        99,
    );
    let mut tampered = st.clone();
    plan.apply(&mut tampered);
    let (mut errs, mut oks, mut wrong) = (0usize, 0usize, 0usize);
    for _ in 0..200 {
        let leaf = gen::random_leaf(tampered.tree(), &mut rng);
        let path = tampered.tree().path_from_root(leaf);
        let y = rng.gen_range(0..(n as i64 * 16));
        // Small p: the sequential bridge tail dominates, so queries actually
        // cross the tampered bridges instead of hopping over them.
        let mut pram = Pram::new(16, Model::Crew);
        match coop_search_explicit_checked(&tampered, &path, y, &mut pram) {
            Ok(out) => {
                oks += 1;
                let truth = fc_catalog::search::search_path_naive(tampered.tree(), &path, y, None);
                if out.finds != truth.results {
                    wrong += 1;
                }
            }
            Err(_) => errs += 1,
        }
    }
    t.note(format!(
        "checked search (p=16), 32 bridge perturbs, 200 queries: {errs} flagged Err, {oks} Ok, {wrong} wrong answers among Oks (must be 0)"
    ));

    // Degraded mode: kill half the processors two rounds into the search and
    // compare against a fresh run provisioned at the survivor count.
    let p0 = 1usize << 16;
    let queries: Vec<(Vec<_>, i64)> = (0..30)
        .map(|_| {
            let leaf = gen::random_leaf(st.tree(), &mut rng);
            (
                st.tree().path_from_root(leaf),
                rng.gen_range(0..(n as i64 * 16)),
            )
        })
        .collect();
    let (mut degraded, mut fresh, mut mism) = (0u64, 0u64, 0usize);
    for (path, y) in &queries {
        let mut pram = Pram::new(p0, Model::Crew);
        FaultPlan {
            seed: 0,
            faults: vec![Fault::KillProcessors {
                at_round: 2,
                count: p0 / 2,
            }],
        }
        .arm(&mut pram);
        let out = coop_search_explicit(&st, path, *y, &mut pram);
        degraded += pram.steps();
        let truth = fc_catalog::search::search_path_naive(st.tree(), path, *y, None);
        if out.finds != truth.results {
            mism += 1;
        }
        let mut pf = Pram::new(p0 / 2, Model::Crew);
        coop_search_explicit(&st, path, *y, &mut pf);
        fresh += pf.steps();
    }
    let q = queries.len() as f64;
    t.note(format!(
        "degraded mode (p = 2^16, half killed at round 2): avg steps {} vs fresh run at p/2 {} ({} wrong answers; bound: <= 2x fresh)",
        fmt_f(degraded as f64 / q),
        fmt_f(fresh as f64 / q),
        mism
    ));
    t
}

/// E-discipline — fc-analyze: shadow-memory recording overhead. Each
/// workload runs the production entry point (whose `Tracer` hooks compile
/// to nothing on the `NoTrace` fast path) and the identical code under a
/// live `ShadowMem`, asserting the replay stays violation-free — the same
/// clean configurations the `fc-analyze --gate` CI job enforces.
pub fn discipline() -> Table {
    use fc_catalog::pipeline::{build_pipelined, build_pipelined_traced};
    use fc_coop::explicit::coop_search_explicit_traced;
    use fc_geom::cooploc::locate_coop_traced;
    use fc_pram::listrank::{list_rank, list_rank_traced};
    use fc_pram::ShadowMem;
    use std::time::Instant;

    let mut t = Table::new(
        "E-discipline (fc-analyze): shadow-memory recording overhead, traced vs untraced",
        &[
            "workload",
            "model",
            "untraced ms",
            "traced ms",
            "overhead",
            "accesses recorded",
            "violations",
        ],
    );
    let row = |t: &mut Table,
               name: &str,
               model: &str,
               plain_ms: f64,
               traced_ms: f64,
               sh: &mut ShadowMem| {
        let accesses: u64 = sh
            .phase_stats()
            .iter()
            .map(|(_, s)| s.reads + s.writes)
            .sum();
        let clean = sh.finish();
        assert!(clean, "overhead workload `{name}` must replay clean");
        t.row(vec![
            name.to_string(),
            model.to_string(),
            fmt_f(plain_ms),
            fmt_f(traced_ms),
            format!("{:.1}x", traced_ms / plain_ms.max(1e-9)),
            accesses.to_string(),
            sh.violations().len().to_string(),
        ]);
    };

    let mut rng = SmallRng::seed_from_u64(SEED + 50);
    let tree = gen::balanced_binary(8, 1 << 13, SizeDist::Uniform, &mut rng);

    let t0 = Instant::now();
    let _ = CascadedTree::try_build(tree.clone(), 4).expect("seed build");
    let plain_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut sh = ShadowMem::new(Model::Erew);
    let t0 = Instant::now();
    let _ = CascadedTree::try_build_traced(tree.clone(), 4, &mut sh).expect("traced build");
    row(
        &mut t,
        "build-level h=8 n=2^13",
        "EREW",
        plain_ms,
        t0.elapsed().as_secs_f64() * 1e3,
        &mut sh,
    );

    let t0 = Instant::now();
    let _ = build_pipelined(tree.clone(), 4, None);
    let plain_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut sh = ShadowMem::new(Model::Erew);
    let t0 = Instant::now();
    let _ = build_pipelined_traced(tree.clone(), 4, None, &mut sh);
    row(
        &mut t,
        "build-pipelined h=8 n=2^13",
        "EREW",
        plain_ms,
        t0.elapsed().as_secs_f64() * 1e3,
        &mut sh,
    );

    let deep = gen::balanced_binary(12, 1 << 16, SizeDist::Uniform, &mut rng);
    let st = CoopStructure::preprocess(deep, ParamMode::Auto);
    let p = 1usize << 20;
    let queries: Vec<(Vec<_>, i64)> = (0..30)
        .map(|_| {
            let leaf = gen::random_leaf(st.tree(), &mut rng);
            (
                st.tree().path_from_root(leaf),
                rng.gen_range(0..(1i64 << 20)),
            )
        })
        .collect();
    let t0 = Instant::now();
    for (path, y) in &queries {
        let mut pram = Pram::new(p, Model::Crew);
        let _ = coop_search_explicit(&st, path, *y, &mut pram);
    }
    let plain_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut sh = ShadowMem::new(Model::Crew);
    let t0 = Instant::now();
    for (path, y) in &queries {
        let mut pram = Pram::new(p, Model::Crew);
        let _ = coop_search_explicit_traced(&st, path, *y, &mut pram, &mut sh);
    }
    row(
        &mut t,
        "search-explicit n=2^16 p=2^20 (30 queries)",
        "CREW",
        plain_ms,
        t0.elapsed().as_secs_f64() * 1e3,
        &mut sh,
    );

    let n = 4096usize;
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    let mut next = vec![0usize; n];
    for w in perm.windows(2) {
        next[w[0]] = w[1];
    }
    next[perm[n - 1]] = perm[n - 1];
    let t0 = Instant::now();
    let _ = list_rank(&next, &mut Pram::new(n, Model::Erew));
    let plain_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut sh = ShadowMem::new(Model::Erew);
    let t0 = Instant::now();
    let _ = list_rank_traced(&next, &mut Pram::new(n, Model::Erew), &mut sh);
    row(
        &mut t,
        "list-rank n=4096",
        "EREW",
        plain_ms,
        t0.elapsed().as_secs_f64() * 1e3,
        &mut sh,
    );

    let sub = MonotoneSubdivision::generate(
        SubdivisionParams {
            regions: 1024,
            strips: 32,
            stick: 0.4,
            detach: 0.4,
        },
        &mut rng,
    );
    let sept = SeparatorTree::build(sub, ParamMode::Auto);
    let gp = 1usize << 20;
    let pts: Vec<(f64, f64)> = (0..30).map(|_| sept.sub.random_query(&mut rng)).collect();
    let t0 = Instant::now();
    for &(x, y) in &pts {
        let _ = locate_coop(&sept, x, y, &mut Pram::new(gp, Model::Crew));
    }
    let plain_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut sh = ShadowMem::new(Model::Crew);
    let t0 = Instant::now();
    for &(x, y) in &pts {
        let _ = locate_coop_traced(&sept, x, y, &mut Pram::new(gp, Model::Crew), &mut sh);
    }
    row(
        &mut t,
        "geometry-locate f=1024 p=2^20 (30 queries)",
        "CREW",
        plain_ms,
        t0.elapsed().as_secs_f64() * 1e3,
        &mut sh,
    );

    t.note("untraced = production entry point (NoTrace hooks compile out); traced = same code under ShadowMem provenance recording");
    t.note("all rows must be violation-free; `fc-analyze --gate` enforces the same configurations in CI");
    t
}

/// E-serve — fc-serve under load: clean serving vs injected faults, one
/// fresh service per row. Every answer is verified against the sequential
/// oracle on the generation that served it; the `wrong` column must stay
/// 0.
pub fn eserve() -> Table {
    use fc_resilience::FaultSpec;
    use fc_serve::{ServeConfig, Service};
    use std::time::Duration;

    let scenarios: [(&str, bool); 2] = [("clean", false), ("static faults", true)];

    let mut t = Table::new(
        "E-serve (fc-serve): 400 verified queries per scenario, n = 3000, height 6",
        &[
            "scenario",
            "answered",
            "typed errors",
            "wrong",
            "audits dirty",
            "repairs",
            "gens",
        ],
    );

    for (row_seed, &(name, chaos)) in scenarios.iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(SEED + 60 + row_seed as u64);
        let tree = gen::balanced_binary(6, 3000, SizeDist::Uniform, &mut rng);
        let cfg = ServeConfig {
            workers: 2,
            queue_cap: 64,
            default_deadline: Duration::from_secs(30),
            ..ServeConfig::default()
        };
        let svc = Service::start(tree, ParamMode::Auto, cfg);
        let leaves = svc.snapshot().st.tree().leaves();
        let (mut answered, mut errors, mut wrong) = (0u64, 0u64, 0u64);
        for q in 0..400usize {
            if chaos && q % 100 == 50 {
                svc.inject(&FaultSpec::one_of_each(), rng.gen());
                // Audit before the next write publishes fresh derived
                // data, which would replace the corruption undetected.
                svc.audit_blocking();
            }
            if q % 25 == 10 {
                let node =
                    fc_catalog::NodeId(rng.gen_range(0..svc.snapshot().st.tree().len()) as u32);
                svc.update(fc_coop::dynamic::UpdateOp::Insert(
                    node,
                    rng.gen_range(10_000_000..20_000_000i64),
                ));
            }
            let leaf = leaves[rng.gen_range(0..leaves.len())];
            let y = rng.gen_range(-5..20_000_005i64);
            match svc.query_blocking(leaf, y, None) {
                Ok(ok) => {
                    let oracle: Vec<Option<i64>> = ok
                        .path
                        .iter()
                        .map(|&node| {
                            let cat = ok.gen.st.tree().catalog(node);
                            cat.get(cat.partition_point(|k| *k < y)).copied()
                        })
                        .collect();
                    if ok.answers == oracle {
                        answered += 1;
                    } else {
                        wrong += 1;
                    }
                }
                Err(_) => errors += 1,
            }
        }
        let stats = svc.shutdown();
        assert_eq!(
            wrong, 0,
            "scenario `{name}` produced a silently wrong answer"
        );
        t.row(vec![
            name.to_string(),
            answered.to_string(),
            errors.to_string(),
            wrong.to_string(),
            stats.audits_dirty.to_string(),
            stats.repairs.to_string(),
            stats.generations_published.to_string(),
        ]);
    }
    t.note("every Ok answer is re-checked against the sequential oracle on the generation that served it (QueryOk::gen)");
    t.note("faults corrupt only derived data, which the per-node read never touches; `audit_blocking` repairs and republishes it — `wrong` stays 0 by contract");
    t.note("every update publishes a generation whose derived data is rebuilt on first use, so each injection is audited before the next write");
    t
}

/// All experiments, in DESIGN.md order.
pub fn all() -> Vec<(&'static str, fn() -> Table)> {
    vec![
        ("t1", t1_explicit as fn() -> Table),
        ("t1i", t1_implicit),
        ("prep", prep),
        ("space", space),
        ("lemma1", lemma1),
        ("t2", t2),
        ("t3", t3),
        ("t4", t4),
        ("t5", t5),
        ("t6", t6),
        ("t6r", t6r),
        ("t6e", t6e),
        ("c2", c2),
        ("fig1", fig1),
        ("fig2", fig2),
        ("fig3", fig3),
        ("fig4", fig4),
        ("fig5", fig5),
        ("fig6", fig6),
        ("ablation-b", ablation_b),
        ("ablation-modes", ablation_modes),
        ("cd", cd_general),
        ("dyn", dynamic),
        ("op3", op3),
        ("fault", efault),
        ("discipline", discipline),
        ("serve", eserve),
    ]
}
