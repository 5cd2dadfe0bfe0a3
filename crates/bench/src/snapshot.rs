//! Core and service-level performance snapshots (`BENCH_core.json` /
//! `BENCH_serve.json` / `BENCH_shard.json` / `BENCH_net.json` /
//! `BENCH_store.json`).
//!
//! The paper experiments in [`crate::experiments`] measure PRAM steps; the
//! snapshots here measure the *systems* layers in wall-clock terms: build
//! time, sustained throughput, p50/p99 query latency, and shed rate, for
//! the single `fc_serve::Service`, the sharded `fc_shard::ShardCluster`
//! batched scatter/gather path, and the `fc-net` TCP ingress (the same
//! workload over live loopback sockets) over the same uniform workload —
//! plus the durability layer (`fc-store`): snapshot write time, WAL
//! append throughput, and full crash-recovery time over the same tree.
//!
//! JSON is hand-rolled (flat number/string fields only) so the snapshot
//! carries no serialization dependency. Regenerate with:
//!
//! ```text
//! cargo run -p fc-bench --release --bin snapshot -- <out-dir>
//! # or, alongside the paper tables:
//! cargo run -p fc-bench --release --bin harness -- --snapshot <out-dir>
//! ```
//!
//! `FC_BENCH_QUERIES` overrides the workload size (default 20 000; CI uses
//! 100 000). With `FC_BENCH_ASSERT=1` *and* ≥ 4 cores, the shard snapshot
//! asserts the acceptance bound: batched cluster throughput must be at
//! least the single-service throughput on the uniform workload.
//!
//! The committed snapshots at the repo root are the regression baseline:
//! the `compare` binary fails CI when a regenerated throughput-class
//! field drops more than `FC_BENCH_TOLERANCE` (default 30%) below the
//! committed value.

use fc_catalog::gen::{self, SizeDist};
use fc_catalog::{CatalogTree, NodeId};
use fc_coop::ParamMode;
use fc_serve::{ServeConfig, Service};
use fc_shard::{ShardCluster, ShardConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Default workload size when `FC_BENCH_QUERIES` is unset.
pub const DEFAULT_QUERIES: usize = 20_000;
/// Queries sampled (blocking, one at a time) for the latency percentiles.
const LATENCY_SAMPLE: usize = 512;
/// Benchmark tree: depth and per-tree total key count.
const TREE_DEPTH: u32 = 6;
const TREE_KEYS: usize = 6_000;
/// Key universe the uniform workload draws from.
const KEY_SPAN: i64 = 140_000;

/// One snapshot of a serving stack's wall-clock behaviour.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Which stack: `"serve"` or `"shard"`.
    pub name: String,
    /// Cores visible to the process (`std::thread::available_parallelism`).
    pub cores: usize,
    /// Wall-clock milliseconds to build the stack (preprocessing + spawn).
    pub build_ms: f64,
    /// Queries in the throughput workload.
    pub queries: usize,
    /// Sustained throughput over the workload, queries/second.
    pub throughput_qps: f64,
    /// Median single-query latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile single-query latency, microseconds.
    pub p99_us: f64,
    /// Fraction of workload queries shed or erred (0.0 on a healthy run).
    pub shed_rate: f64,
}

impl Snapshot {
    /// Serialize as a flat JSON object (stable field order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"name\": \"{}\",\n  \"cores\": {},\n  \"build_ms\": {:.3},\n  \
             \"queries\": {},\n  \"throughput_qps\": {:.1},\n  \"p50_us\": {:.2},\n  \
             \"p99_us\": {:.2},\n  \"shed_rate\": {:.6}\n}}\n",
            self.name,
            self.cores,
            self.build_ms,
            self.queries,
            self.throughput_qps,
            self.p50_us,
            self.p99_us,
            self.shed_rate
        )
    }
}

/// Workload size: `FC_BENCH_QUERIES` or [`DEFAULT_QUERIES`].
pub fn workload_size() -> usize {
    std::env::var("FC_BENCH_QUERIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_QUERIES)
        .max(LATENCY_SAMPLE)
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn bench_tree() -> CatalogTree<i64> {
    let mut rng = SmallRng::seed_from_u64(0xBE_5EED);
    gen::balanced_binary(TREE_DEPTH, TREE_KEYS, SizeDist::Uniform, &mut rng)
}

/// The uniform workload: `n` (leaf, key) successor queries.
fn workload(tree: &CatalogTree<i64>, n: usize) -> Vec<(NodeId, i64)> {
    let leaves = tree.leaves();
    let mut rng = SmallRng::seed_from_u64(0x10AD);
    (0..n)
        .map(|_| {
            (
                leaves[rng.gen_range(0..leaves.len())],
                rng.gen_range(0..KEY_SPAN),
            )
        })
        .collect()
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

/// Snapshot the single `fc_serve::Service`: all `n` queries submitted
/// asynchronously (the worker pool is the parallelism), then drained.
pub fn measure_serve(n: usize) -> Snapshot {
    let cores = cores();
    let tree = bench_tree();
    let queries = workload(&tree, n);
    let cfg = ServeConfig {
        workers: cores,
        queue_cap: n + LATENCY_SAMPLE,
        default_deadline: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let t0 = Instant::now();
    let svc = Service::start(tree, ParamMode::Auto, cfg);
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Latency sample: blocking queries, one at a time.
    let mut lat_us: Vec<f64> = Vec::with_capacity(LATENCY_SAMPLE);
    for &(leaf, y) in queries.iter().take(LATENCY_SAMPLE) {
        let t = Instant::now();
        let _ = svc.query_blocking(leaf, y, None);
        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    lat_us.sort_by(f64::total_cmp);

    // Throughput: submit everything, then drain every response channel.
    let t1 = Instant::now();
    let mut pending = Vec::with_capacity(n);
    let mut shed = 0usize;
    for &(leaf, y) in &queries {
        match svc.submit(leaf, y, None) {
            Ok(rx) => pending.push(rx),
            Err(_) => shed += 1,
        }
    }
    let mut failed = 0usize;
    for rx in pending {
        match rx.recv() {
            Ok(Ok(_)) => {}
            _ => failed += 1,
        }
    }
    let secs = t1.elapsed().as_secs_f64();
    svc.shutdown();
    Snapshot {
        name: "serve".into(),
        cores,
        build_ms,
        queries: n,
        throughput_qps: n as f64 / secs.max(1e-9),
        p50_us: percentile(&lat_us, 0.50),
        p99_us: percentile(&lat_us, 0.99),
        shed_rate: (shed + failed) as f64 / n as f64,
    }
}

/// Snapshot the sharded cluster's batched scatter/gather path: the same
/// workload goes through [`ShardCluster::query_batch`] in batches sized to
/// keep every batch thread busy.
pub fn measure_shard(n: usize) -> Snapshot {
    let cores = cores();
    let tree = bench_tree();
    let queries = workload(&tree, n);
    let cfg = ShardConfig {
        shards: 4,
        replicas: 2,
        serve: ServeConfig {
            workers: 1,
            queue_cap: n + LATENCY_SAMPLE,
            default_deadline: Duration::from_secs(30),
            ..ServeConfig::default()
        },
        batch_threads: cores,
        default_deadline: Duration::from_secs(60),
    };
    let t0 = Instant::now();
    let cluster = ShardCluster::start(&tree, ParamMode::Auto, cfg);
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut lat_us: Vec<f64> = Vec::with_capacity(LATENCY_SAMPLE);
    for &(leaf, y) in queries.iter().take(LATENCY_SAMPLE) {
        let t = Instant::now();
        let _ = cluster.query_blocking(leaf, y, None);
        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    lat_us.sort_by(f64::total_cmp);

    let batch = (n / cores.max(1)).clamp(1024, 16_384);
    let t1 = Instant::now();
    let mut failed = 0usize;
    for chunk in queries.chunks(batch) {
        for res in cluster.query_batch(chunk, None) {
            if res.is_err() {
                failed += 1;
            }
        }
    }
    let secs = t1.elapsed().as_secs_f64();
    cluster.shutdown();
    Snapshot {
        name: "shard".into(),
        cores,
        build_ms,
        queries: n,
        throughput_qps: n as f64 / secs.max(1e-9),
        p50_us: percentile(&lat_us, 0.50),
        p99_us: percentile(&lat_us, 0.99),
        shed_rate: failed as f64 / n as f64,
    }
}

/// One snapshot of the `fc-catalog` core's wall-clock behaviour: build
/// times for the three construction schedules and the single-thread
/// descent cost through the flat arena (`BENCH_core.json`).
#[derive(Debug, Clone)]
pub struct CoreSnapshot {
    /// Always `"core"`.
    pub name: String,
    /// Cores visible to the process.
    pub cores: usize,
    /// Keys in the benchmark tree.
    pub tree_keys: usize,
    /// Queries in the descent workload.
    pub queries: usize,
    /// Wall-clock ms for the level-synchronous build.
    pub build_level_ms: f64,
    /// Wall-clock ms for the bidirectional (Lemma 1) build.
    pub build_bidir_ms: f64,
    /// Wall-clock ms for the pipelined (ACG) build.
    pub build_pipelined_ms: f64,
    /// Single-thread descent cost, nanoseconds per full root-to-leaf
    /// query (per-query timer: the latency view).
    pub descent_ns: f64,
    /// Batched single-thread throughput, queries/second (one timer
    /// around the whole workload: the pipeline view).
    pub search_qps: f64,
}

impl CoreSnapshot {
    /// Serialize as a flat JSON object (stable field order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"name\": \"{}\",\n  \"cores\": {},\n  \"tree_keys\": {},\n  \
             \"queries\": {},\n  \"build_level_ms\": {:.3},\n  \"build_bidir_ms\": {:.3},\n  \
             \"build_pipelined_ms\": {:.3},\n  \"descent_ns\": {:.1},\n  \
             \"search_qps\": {:.1}\n}}\n",
            self.name,
            self.cores,
            self.tree_keys,
            self.queries,
            self.build_level_ms,
            self.build_bidir_ms,
            self.build_pipelined_ms,
            self.descent_ns,
            self.search_qps
        )
    }
}

/// Microbench the catalog core itself, below the serving stack: the three
/// build schedules on the benchmark tree, then `n` single-thread
/// root-to-leaf descents through `search_path_fc`.
pub fn measure_core(n: usize) -> CoreSnapshot {
    use fc_catalog::search::{search_path_fc, search_path_fc_into};
    use fc_catalog::CascadedTree;

    let cores = cores();
    let tree = bench_tree();

    let t = Instant::now();
    let level = CascadedTree::build(bench_tree(), 4);
    let build_level_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(level);

    let t = Instant::now();
    let fc = CascadedTree::build_bidir(bench_tree(), 4);
    let build_bidir_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let (piped, _) = fc_catalog::pipeline::build_pipelined(bench_tree(), 4, None);
    let build_pipelined_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(piped);

    // Pre-resolve the query paths so the descent loop measures the
    // cascade walk, not path reconstruction.
    let queries = workload(&tree, n);
    let paths: Vec<Vec<NodeId>> = tree
        .leaves()
        .iter()
        .map(|&l| tree.path_from_root(l))
        .collect();
    let leaf_slot: std::collections::HashMap<NodeId, usize> = tree
        .leaves()
        .iter()
        .enumerate()
        .map(|(i, &l)| (l, i))
        .collect();

    // Latency view: per-query timer over a sample.
    let mut lat_ns = 0.0f64;
    let sample = LATENCY_SAMPLE.min(n);
    for &(leaf, y) in queries.iter().take(sample) {
        let path = &paths[leaf_slot[&leaf]];
        let t = Instant::now();
        let out = search_path_fc(&fc, path, y, None);
        lat_ns += t.elapsed().as_secs_f64() * 1e9;
        std::hint::black_box(out);
    }

    // Pipeline view: one timer around the whole workload, reusing a
    // single result buffer so the loop is allocation-free.
    let mut results = Vec::new();
    let t = Instant::now();
    for &(leaf, y) in &queries {
        let path = &paths[leaf_slot[&leaf]];
        search_path_fc_into(&fc, path, y, None, &mut results);
        std::hint::black_box(&results);
    }
    let secs = t.elapsed().as_secs_f64();

    CoreSnapshot {
        name: "core".into(),
        cores,
        tree_keys: TREE_KEYS,
        queries: n,
        build_level_ms,
        build_bidir_ms,
        build_pipelined_ms,
        descent_ns: lat_ns / sample.max(1) as f64,
        search_qps: n as f64 / secs.max(1e-9),
    }
}

/// One snapshot of the durability layer's wall-clock behaviour.
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    /// Always `"store"`.
    pub name: String,
    /// Cores visible to the process.
    pub cores: usize,
    /// Keys in the benchmark tree the snapshot serializes.
    pub tree_keys: usize,
    /// Ops appended through the WAL (and replayed by recovery).
    pub wal_ops: usize,
    /// Wall-clock milliseconds to persist one snapshot (encode + write +
    /// atomic rename; fsync off for determinism across CI disks).
    pub snapshot_ms: f64,
    /// Sustained WAL append throughput, ops/second (batches of 64).
    pub wal_ops_per_s: f64,
    /// Wall-clock milliseconds for full crash recovery: newest snapshot +
    /// replay of every logged op + one `apply_batch`.
    pub recover_ms: f64,
    /// Records the recovery replayed (sanity: must equal the batches).
    pub replayed_records: u64,
}

impl StoreSnapshot {
    /// Serialize as a flat JSON object (stable field order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"name\": \"{}\",\n  \"cores\": {},\n  \"tree_keys\": {},\n  \
             \"wal_ops\": {},\n  \"snapshot_ms\": {:.3},\n  \"wal_ops_per_s\": {:.1},\n  \
             \"recover_ms\": {:.3},\n  \"replayed_records\": {}\n}}\n",
            self.name,
            self.cores,
            self.tree_keys,
            self.wal_ops,
            self.snapshot_ms,
            self.wal_ops_per_s,
            self.recover_ms,
            self.replayed_records
        )
    }
}

/// Snapshot the durability layer: persist the benchmark tree, stream `n`
/// update ops through the WAL, then time a full recovery of the lot.
pub fn measure_store(n: usize) -> StoreSnapshot {
    use fc_coop::dynamic::UpdateOp;
    use fc_store::{Store, StoreConfig};

    let cores = cores();
    let tree = bench_tree();
    let dir = std::env::temp_dir().join(format!("fc-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StoreConfig {
        fsync: false, // measure the write path, not the CI runner's disk
        ..StoreConfig::default()
    };
    let store = Store::<i64>::open(&dir, cfg).expect("open store");

    let t0 = Instant::now();
    store.persist_snapshot(&tree, 0).expect("persist snapshot");
    let snapshot_ms = t0.elapsed().as_secs_f64() * 1e3;

    // WAL throughput: n ops in batches of 64, mixed insert/remove over
    // the same key universe the serving workload uses.
    let nodes = tree.len() as u32;
    let mut rng = SmallRng::seed_from_u64(0x57_04E);
    let ops: Vec<UpdateOp<i64>> = (0..n)
        .map(|_| {
            let node = NodeId(rng.gen_range(0..nodes));
            let key = rng.gen_range(0..KEY_SPAN);
            if rng.gen_bool(0.8) {
                UpdateOp::Insert(node, key)
            } else {
                UpdateOp::Remove(node, key)
            }
        })
        .collect();
    let t1 = Instant::now();
    let mut batches = 0u64;
    for chunk in ops.chunks(64) {
        store.append_batch(chunk).expect("append batch");
        batches += 1;
    }
    let wal_secs = t1.elapsed().as_secs_f64();
    drop(store);

    let t2 = Instant::now();
    let rec = fc_store::recover::<i64>(&dir).expect("recover");
    let recover_ms = t2.elapsed().as_secs_f64() * 1e3;
    assert_eq!(rec.replayed_records, batches, "recovery replayed the log");
    let _ = std::fs::remove_dir_all(&dir);

    StoreSnapshot {
        name: "store".into(),
        cores,
        tree_keys: TREE_KEYS,
        wal_ops: n,
        snapshot_ms,
        wal_ops_per_s: n as f64 / wal_secs.max(1e-9),
        recover_ms,
        replayed_records: rec.replayed_records,
    }
}

/// Performance snapshot of the dynamic-maintenance layer (fc-dyn): the
/// incremental per-key write path against the clone-and-rebuild
/// baseline, on the same tree and update stream.
#[derive(Debug, Clone)]
pub struct DynSnapshot {
    /// Always `"dyn"`.
    pub name: String,
    /// Cores visible to the process.
    pub cores: usize,
    /// Keys in the benchmark tree.
    pub tree_keys: usize,
    /// Updates pushed through the incremental path.
    pub updates: usize,
    /// Sustained incremental update throughput, ops/second.
    pub update_ops_per_s: f64,
    /// Clone-and-rebuild baseline throughput, ops/second (the buffered
    /// mode force-rebuilt every 64-op batch — "rebuild the world").
    pub baseline_ops_per_s: f64,
    /// `update_ops_per_s / baseline_ops_per_s`.
    pub speedup: f64,
    /// Mixed 1:1 read/write throughput on the incremental structure,
    /// ops/second (each op is one update or one path search).
    pub mixed_ops_per_s: f64,
    /// Incremental per-update latency, microseconds.
    pub p50_us: f64,
    /// Incremental per-update tail latency, microseconds.
    pub p99_us: f64,
    /// Fallback rebuilds per incremental update (density/corruption
    /// compactions; ~0 on a clean uniform workload).
    pub fallback_rate: f64,
}

impl DynSnapshot {
    /// Serialize as a flat JSON object (stable field order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"name\": \"{}\",\n  \"cores\": {},\n  \"tree_keys\": {},\n  \
             \"updates\": {},\n  \"update_ops_per_s\": {:.1},\n  \
             \"baseline_ops_per_s\": {:.1},\n  \"speedup\": {:.2},\n  \
             \"mixed_ops_per_s\": {:.1},\n  \"p50_us\": {:.2},\n  \"p99_us\": {:.2},\n  \
             \"fallback_rate\": {:.6}\n}}\n",
            self.name,
            self.cores,
            self.tree_keys,
            self.updates,
            self.update_ops_per_s,
            self.baseline_ops_per_s,
            self.speedup,
            self.mixed_ops_per_s,
            self.p50_us,
            self.p99_us,
            self.fallback_rate
        )
    }
}

/// The mixed update stream both dynamic modes consume: per-key inserts
/// and deletes, uniform over nodes and the serving key universe.
fn dyn_ops(tree: &CatalogTree<i64>, n: usize) -> Vec<fc_coop::dynamic::UpdateOp<i64>> {
    use fc_coop::dynamic::UpdateOp;
    let nodes = tree.len() as u32;
    let mut rng = SmallRng::seed_from_u64(0xD1_0B5);
    (0..n)
        .map(|_| {
            let node = NodeId(rng.gen_range(0..nodes));
            let key = rng.gen_range(0..KEY_SPAN);
            if rng.gen_bool(0.7) {
                UpdateOp::Insert(node, key)
            } else {
                UpdateOp::Remove(node, key)
            }
        })
        .collect()
}

/// Snapshot the dynamic layer: `n` per-key updates through the fc-dyn
/// incremental path (timed individually for the latency percentiles),
/// the same stream through the clone-and-rebuild baseline (buffered mode
/// force-rebuilt every 64-op batch; capped at 2048 ops — each batch pays
/// a full O(n) rebuild, and throughput per op is flat in the stream
/// length), and a 1:1 mixed read/write interleaving.
pub fn measure_dyn(n: usize) -> DynSnapshot {
    use fc_coop::dynamic::{DynamicCoop, UpdateOp};
    use fc_pram::{Model, Pram};

    let cores = cores();
    let tree = bench_tree();
    let ops = dyn_ops(&tree, n);
    let mut pram = Pram::new(1 << 16, Model::Crew);

    // Incremental path: every op patches bridges/samples along one
    // node-to-root path; per-op wall clock feeds the percentiles.
    let mut dy = DynamicCoop::new_incremental(tree.clone(), ParamMode::Auto, 0.25);
    let mut lat_us: Vec<f64> = Vec::with_capacity(n);
    let t0 = Instant::now();
    for op in &ops {
        let t = Instant::now();
        match *op {
            UpdateOp::Insert(node, key) => dy.insert(node, key, &mut pram),
            UpdateOp::Remove(node, key) => dy.remove(node, key, &mut pram),
        }
        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let incr_secs = t0.elapsed().as_secs_f64();
    let gs = dy.gen_stats();
    assert_eq!(gs.audit_failures, 0, "bench updates must audit clean");
    lat_us.sort_by(|a, b| a.total_cmp(b));

    // Clone-and-rebuild baseline: same stream, buffered mode, a forced
    // full rebuild after every 64-op batch.
    let base_n = n.min(2_048);
    let mut base = DynamicCoop::new(tree.clone(), ParamMode::Auto, f64::INFINITY);
    let t1 = Instant::now();
    for chunk in ops[..base_n].chunks(64) {
        base.apply_batch(chunk, &mut pram);
        base.force_rebuild(&mut pram);
    }
    let base_secs = t1.elapsed().as_secs_f64();

    // Mixed 1:1 read/write on the incremental structure.
    let reads = workload(&tree, n.min(ops.len()));
    let t2 = Instant::now();
    let mut mixed = 0usize;
    for (op, &(leaf, y)) in ops.iter().zip(&reads) {
        match *op {
            UpdateOp::Insert(node, key) => dy.insert(node, key, &mut pram),
            UpdateOp::Remove(node, key) => dy.remove(node, key, &mut pram),
        }
        let path = dy.structure().tree().path_from_root(leaf);
        let _ = dy.search(&path, y, &mut pram);
        mixed += 2;
    }
    let mixed_secs = t2.elapsed().as_secs_f64();

    let update_ops_per_s = n as f64 / incr_secs.max(1e-9);
    let baseline_ops_per_s = base_n as f64 / base_secs.max(1e-9);
    let snap = DynSnapshot {
        name: "dyn".into(),
        cores,
        tree_keys: TREE_KEYS,
        updates: n,
        update_ops_per_s,
        baseline_ops_per_s,
        speedup: update_ops_per_s / baseline_ops_per_s.max(1e-9),
        mixed_ops_per_s: mixed as f64 / mixed_secs.max(1e-9),
        p50_us: percentile(&lat_us, 0.50),
        p99_us: percentile(&lat_us, 0.99),
        fallback_rate: gs.fallback_rebuilds as f64 / (n as f64).max(1.0),
    };
    let assert_on = std::env::var("FC_BENCH_ASSERT").is_ok_and(|v| v == "1");
    if assert_on {
        assert!(
            snap.speedup >= 10.0,
            "acceptance: incremental updates must sustain >= 10x the \
             clone-and-rebuild baseline ({:.0} vs {:.0} ops/s, {:.1}x)",
            snap.update_ops_per_s,
            snap.baseline_ops_per_s,
            snap.speedup
        );
    }
    snap
}

/// Snapshot the network ingress: the same workload pushed through a live
/// `fc_net::NetServer` over loopback TCP by a small pool of wire clients
/// (one socket each, strict request/reply — the protocol's concurrency
/// unit is the connection). Latency percentiles come from a
/// single-connection blocking sample, so they price one full wire round
/// trip: encode, write, server decode, cluster query, reply, decode.
pub fn measure_net(n: usize) -> Snapshot {
    use fc_net::{ClientConfig, NetClient, NetConfig, NetServer};
    use std::sync::Arc;

    let cores = cores();
    let tree = bench_tree();
    let queries = workload(&tree, n);
    let cfg = ShardConfig {
        shards: 4,
        replicas: 2,
        serve: ServeConfig {
            workers: 1,
            queue_cap: n + LATENCY_SAMPLE,
            default_deadline: Duration::from_secs(30),
            ..ServeConfig::default()
        },
        batch_threads: cores,
        default_deadline: Duration::from_secs(60),
    };
    let t0 = Instant::now();
    let cluster = Arc::new(ShardCluster::start(&tree, ParamMode::Auto, cfg));
    let server = NetServer::start(
        Arc::clone(&cluster),
        "127.0.0.1:0",
        NetConfig {
            max_conns: 2 * cores + 8,
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let addr = server.local_addr();
    let ccfg = ClientConfig {
        read_timeout: Duration::from_secs(30),
        ..ClientConfig::default()
    };

    // Latency sample: one connection, strictly blocking round trips.
    let mut client = NetClient::connect(addr, ccfg.clone()).expect("connect");
    let mut lat_us: Vec<f64> = Vec::with_capacity(LATENCY_SAMPLE);
    for &(leaf, y) in queries.iter().take(LATENCY_SAMPLE) {
        let t = Instant::now();
        let _ = client.query(leaf.0, y, None);
        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    lat_us.sort_by(f64::total_cmp);
    drop(client);

    // Throughput: the workload split across a pool of wire clients.
    let pool = cores.clamp(2, 8);
    let chunk = n.div_ceil(pool);
    let t1 = Instant::now();
    let errs: usize = std::thread::scope(|s| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|slice| {
                let ccfg = ccfg.clone();
                s.spawn(move || {
                    let mut errs = 0usize;
                    let mut c = match NetClient::connect(addr, ccfg) {
                        Ok(c) => c,
                        Err(_) => return slice.len(),
                    };
                    for &(leaf, y) in slice {
                        if c.query(leaf.0, y, None).is_err() {
                            errs += 1;
                        }
                    }
                    errs
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or(0)).sum()
    });
    let secs = t1.elapsed().as_secs_f64();
    let report = server.drain();
    assert_eq!(report.forced, 0, "bench drain must be clean: {report:?}");
    // The drain joined the accept loop and every handler, so this is the
    // last Arc; fall back to drop if a straggler still holds one.
    if let Ok(cluster) = Arc::try_unwrap(cluster) {
        cluster.shutdown();
    }
    Snapshot {
        name: "net".into(),
        cores,
        build_ms,
        queries: n,
        throughput_qps: n as f64 / secs.max(1e-9),
        p50_us: percentile(&lat_us, 0.50),
        p99_us: percentile(&lat_us, 0.99),
        shed_rate: errs as f64 / n as f64,
    }
}

/// Run all five snapshots, write `BENCH_core.json`, `BENCH_serve.json`,
/// `BENCH_shard.json`, `BENCH_net.json`, and `BENCH_store.json` into
/// `dir`, and (when `FC_BENCH_ASSERT=1` on a ≥ 4-core machine) enforce
/// the acceptance bound. Returns the serving-stack snapshots
/// (serve, shard, net, store).
pub fn write_snapshots(
    dir: &std::path::Path,
) -> std::io::Result<(Snapshot, Snapshot, Snapshot, StoreSnapshot, DynSnapshot)> {
    let n = workload_size();
    std::fs::create_dir_all(dir)?;
    let core = measure_core(n);
    std::fs::write(dir.join("BENCH_core.json"), core.to_json())?;
    let serve = measure_serve(n);
    std::fs::write(dir.join("BENCH_serve.json"), serve.to_json())?;
    let shard = measure_shard(n);
    std::fs::write(dir.join("BENCH_shard.json"), shard.to_json())?;
    let net = measure_net(n);
    std::fs::write(dir.join("BENCH_net.json"), net.to_json())?;
    let store = measure_store(n);
    std::fs::write(dir.join("BENCH_store.json"), store.to_json())?;
    let dyn_snap = measure_dyn(n);
    std::fs::write(dir.join("BENCH_dyn.json"), dyn_snap.to_json())?;
    println!(
        "core   level {:>7.1} ms | bidir {:>7.1} ms | piped {:>7.1} ms | \
         descent {:>7.0} ns | {:>10.0} q/s",
        core.build_level_ms,
        core.build_bidir_ms,
        core.build_pipelined_ms,
        core.descent_ns,
        core.search_qps
    );
    let assert_on = std::env::var("FC_BENCH_ASSERT").is_ok_and(|v| v == "1");
    if assert_on && serve.cores >= 4 {
        assert!(
            shard.throughput_qps >= serve.throughput_qps,
            "acceptance: batched cluster throughput ({:.0} q/s) must be >= \
             single-service throughput ({:.0} q/s) on {} cores",
            shard.throughput_qps,
            serve.throughput_qps,
            serve.cores
        );
    }
    Ok((serve, shard, net, store, dyn_snap))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_measure_and_serialize() {
        // Tiny workload: this is a plumbing test, not a benchmark.
        let serve = measure_serve(LATENCY_SAMPLE);
        let shard = measure_shard(LATENCY_SAMPLE);
        for s in [&serve, &shard] {
            assert!(s.throughput_qps > 0.0, "{s:?}");
            assert!(s.p99_us >= s.p50_us, "{s:?}");
            assert!(s.shed_rate < 0.5, "{s:?}");
            let json = s.to_json();
            assert!(json.contains(&format!("\"name\": \"{}\"", s.name)));
            assert!(json.contains("\"throughput_qps\""));
        }
        let net = measure_net(LATENCY_SAMPLE);
        assert!(net.throughput_qps > 0.0, "{net:?}");
        assert!(net.p99_us >= net.p50_us, "{net:?}");
        assert_eq!(net.shed_rate, 0.0, "wire bench shed on loopback: {net:?}");
        assert!(net.to_json().contains("\"name\": \"net\""));
        let store = measure_store(LATENCY_SAMPLE);
        assert!(store.wal_ops_per_s > 0.0, "{store:?}");
        assert!(store.recover_ms > 0.0, "{store:?}");
        assert_eq!(store.replayed_records, (LATENCY_SAMPLE as u64).div_ceil(64));
        let json = store.to_json();
        assert!(json.contains("\"wal_ops_per_s\""));
        assert!(json.contains("\"recover_ms\""));
    }

    #[test]
    fn dyn_snapshot_measures_and_serializes() {
        let dy = measure_dyn(LATENCY_SAMPLE);
        assert!(dy.update_ops_per_s > 0.0, "{dy:?}");
        assert!(dy.baseline_ops_per_s > 0.0, "{dy:?}");
        assert!(dy.mixed_ops_per_s > 0.0, "{dy:?}");
        assert!(dy.p99_us >= dy.p50_us, "{dy:?}");
        assert!(dy.fallback_rate >= 0.0, "{dy:?}");
        let json = dy.to_json();
        assert!(json.contains("\"name\": \"dyn\""));
        assert!(json.contains("\"update_ops_per_s\""));
        assert!(json.contains("\"speedup\""));
    }

    #[test]
    fn core_snapshot_measures_and_serializes() {
        let core = measure_core(LATENCY_SAMPLE);
        assert!(core.search_qps > 0.0, "{core:?}");
        assert!(core.descent_ns > 0.0, "{core:?}");
        assert!(core.build_level_ms > 0.0, "{core:?}");
        assert!(core.build_bidir_ms > 0.0, "{core:?}");
        assert!(core.build_pipelined_ms > 0.0, "{core:?}");
        let json = core.to_json();
        assert!(json.contains("\"name\": \"core\""));
        assert!(json.contains("\"search_qps\""));
        assert!(json.contains("\"descent_ns\""));
    }

    #[test]
    fn percentiles_pick_the_right_ranks() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert!((percentile(&v, 0.5) - 50.0).abs() <= 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
