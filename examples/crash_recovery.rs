//! `kill -9` durability demo: build a durable sharded cluster, apply
//! acknowledged updates from a child process that dies by `abort()`
//! mid-stream (no destructors, no flush — the moral equivalent of
//! `kill -9`), then cold-start from disk in the parent and prove every
//! acknowledged update survived.
//!
//! ```text
//! cargo run --release -p fc-shard --example crash_recovery
//! ```
//!
//! The parent re-executes this same binary with `FC_CRASH_DEMO_DIR` set;
//! the child creates the cluster, splits a shard (routing-table version
//! 2), prints one `ACKED node key` line per durably acknowledged insert,
//! and aborts partway. The parent then recovers: manifest → routing
//! table at its persisted version, per-shard snapshot + WAL replay +
//! blame audit, and checks sample queries against an oracle built from
//! the original tree plus exactly the acknowledged inserts.

use fc_catalog::gen::{self, SizeDist};
use fc_catalog::{CatalogTree, NodeId};
use fc_coop::dynamic::UpdateOp;
use fc_coop::ParamMode;
use fc_serve::ServeConfig;
use fc_shard::{DurableCluster, ShardConfig, StoreConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;

const ENV_DIR: &str = "FC_CRASH_DEMO_DIR";
const TOTAL_OPS: usize = 300;
const ABORT_AT: usize = 240;

fn demo_tree() -> CatalogTree<i64> {
    let mut rng = SmallRng::seed_from_u64(0xDE_A0);
    gen::balanced_binary(5, 1500, SizeDist::Uniform, &mut rng)
}

fn demo_cfg() -> ShardConfig {
    ShardConfig {
        shards: 3,
        replicas: 2,
        serve: ServeConfig {
            workers: 1,
            audit_interval: Duration::from_secs(3600),
            default_deadline: Duration::from_secs(5),
            ..ServeConfig::default()
        },
        batch_threads: 2,
        default_deadline: Duration::from_secs(10),
    }
}

/// The i-th acknowledged insert: (path node, key). The stride is coprime
/// with the modulus, so the keys sweep the whole key space (all shards).
fn demo_op(tree: &CatalogTree<i64>, leaf: NodeId, i: usize) -> (NodeId, i64) {
    let path = tree.path_from_root(leaf);
    let node = path[i % path.len()];
    let key = 100 + ((i * 379) % 23_000) as i64;
    (node, key)
}

/// Child: create the durable cluster, split (version 2), ack inserts to
/// stdout, die by abort() before finishing.
fn run_child(dir: PathBuf) -> ! {
    let tree = demo_tree();
    let dc = DurableCluster::create(
        &dir,
        &tree,
        ParamMode::Auto,
        demo_cfg(),
        StoreConfig::default(), // fsync on: acks must mean durable
    )
    .expect("create durable cluster");
    let leaf = dc.cluster().leaves()[0];
    let v = dc.split_durable(1).expect("split").expect("splittable");
    println!("TABLE_VERSION {v}");
    for i in 0..TOTAL_OPS {
        if i == ABORT_AT {
            // No shutdown, no checkpoint, no Drop: the process vanishes
            // exactly like `kill -9` between two acknowledged batches.
            std::process::abort();
        }
        let (node, key) = demo_op(&tree, leaf, i);
        dc.update_batch(&[UpdateOp::Insert(node, key)])
            .expect("durable append");
        println!("ACKED {} {}", node.0, key);
    }
    unreachable!("child must abort before draining all ops");
}

fn main() {
    if let Some(dir) = std::env::var_os(ENV_DIR) {
        run_child(PathBuf::from(dir));
    }

    let dir = std::env::temp_dir().join(format!("fc-crash-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    println!("[demo] spawning child cluster in {} ...", dir.display());
    let exe = std::env::current_exe().expect("current_exe");
    let out = std::process::Command::new(exe)
        .env(ENV_DIR, &dir)
        .output()
        .expect("spawn child");
    assert!(
        !out.status.success(),
        "child was supposed to die by abort()"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut table_version = None;
    let mut acked: Vec<(u32, i64)> = Vec::new();
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("TABLE_VERSION ") {
            table_version = rest.trim().parse::<u64>().ok();
        } else if let Some(rest) = line.strip_prefix("ACKED ") {
            let mut it = rest.split_whitespace();
            let node = it.next().and_then(|s| s.parse::<u32>().ok());
            let key = it.next().and_then(|s| s.parse::<i64>().ok());
            if let (Some(n), Some(k)) = (node, key) {
                acked.push((n, k));
            }
        }
    }
    let table_version = table_version.expect("child printed TABLE_VERSION");
    println!(
        "[demo] child aborted after acknowledging {} inserts (table v{})",
        acked.len(),
        table_version
    );
    assert_eq!(acked.len(), ABORT_AT, "one ack per op before the abort");

    println!("[demo] cold-starting from disk ...");
    let (dc, report) = DurableCluster::<i64>::cold_start(
        &dir,
        ParamMode::Auto,
        demo_cfg(),
        StoreConfig::default(),
    )
    .expect("cold start");
    println!("[demo] recovery report: {report:?}");
    assert_eq!(
        report.table_version, table_version,
        "routing version restored"
    );
    assert!(
        report.replayed_records > 0,
        "the unsnapshotted tail replays"
    );

    // Recovered GenStats, one line per shard's replica 0.
    let state = dc.cluster().state();
    for (shard, group) in state.groups.iter().enumerate() {
        let svc = group.replica(0).expect("replica 0");
        println!("[demo] shard {shard} gen_stats: {:?}", svc.gen_stats());
    }
    drop(state);

    // Oracle: the original tree plus exactly the acknowledged inserts.
    let tree = demo_tree();
    let leaf = dc.cluster().leaves()[0];
    let mut extra: HashMap<u32, Vec<i64>> = HashMap::new();
    for &(n, k) in &acked {
        extra.entry(n).or_default().push(k);
    }
    let oracle = |leaf: NodeId, y: i64| -> Vec<Option<i64>> {
        tree.path_from_root(leaf)
            .iter()
            .map(|&n| {
                let cat = tree.catalog(n);
                let base = cat.get(cat.partition_point(|k| *k < y)).copied();
                let tail = extra
                    .get(&n.0)
                    .and_then(|ks| ks.iter().copied().filter(|k| *k >= y).min());
                match (base, tail) {
                    (Some(b), Some(t)) => Some(b.min(t)),
                    (b, t) => b.or(t),
                }
            })
            .collect()
    };
    let mut checked = 0usize;
    for y in (-50..24_000i64).step_by(311) {
        let ok = dc
            .cluster()
            .query_blocking(leaf, y, None)
            .expect("recovered query");
        assert_eq!(ok.answers, oracle(leaf, y), "divergence at y={y}");
        checked += 1;
    }
    // Every acknowledged key is individually findable at its node.
    for &(n, k) in &acked {
        let ok = dc.cluster().query_blocking(leaf, k, None).expect("query");
        let hit = ok
            .path
            .iter()
            .zip(&ok.answers)
            .any(|(pn, a)| pn.0 == n && *a == Some(k));
        assert!(hit, "acked key {k} at node {n} lost");
    }
    println!(
        "[demo] {} oracle probes + {} acked-key lookups all equal after kill -9 recovery",
        checked,
        acked.len()
    );
    dc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
