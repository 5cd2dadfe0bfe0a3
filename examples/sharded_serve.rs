//! Quickstart for the sharded cluster (`fc-shard`): build a 4-shard ×
//! 2-replica cluster, run single and batched queries, route updates,
//! corrupt a replica and audit it clean, and split a hot shard — printing
//! the routing-table versions and cluster counters along the way.
//!
//! ```sh
//! cargo run --release -p fc-shard --example sharded_serve
//! ```

use fc_catalog::gen::{self, SizeDist};
use fc_catalog::NodeId;
use fc_coop::dynamic::UpdateOp;
use fc_coop::ParamMode;
use fc_resilience::FaultSpec;
use fc_serve::ServeConfig;
use fc_shard::{ShardCluster, ShardConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

fn main() {
    let mut rng = SmallRng::seed_from_u64(2026);
    let tree = gen::balanced_binary(6, 4000, SizeDist::Uniform, &mut rng);
    let cfg = ShardConfig {
        shards: 4,
        replicas: 2,
        serve: ServeConfig {
            workers: 2,
            audit_interval: Duration::from_millis(50),
            default_deadline: Duration::from_secs(5),
            ..ServeConfig::default()
        },
        batch_threads: 4,
        default_deadline: Duration::from_secs(10),
    };
    let t0 = Instant::now();
    let cluster = ShardCluster::start(&tree, ParamMode::Auto, cfg);
    println!(
        "cluster up: {} shards x 2 replicas, table v{}, build {:?}",
        cluster.shards(),
        cluster.table_version(),
        t0.elapsed()
    );

    // --- single queries -------------------------------------------------
    let leaves = cluster.leaves();
    for _ in 0..5 {
        let leaf = leaves[rng.gen_range(0..leaves.len())];
        let y = rng.gen_range(0..70_000i64);
        let ok = cluster.query_blocking(leaf, y, None).expect("query");
        println!(
            "  y={y:>6} -> {} legs, leaf answer {:?} (gen {})",
            ok.legs.len(),
            ok.answers.last().copied().flatten(),
            ok.legs.first().map(|l| l.gen.id).unwrap_or(0),
        );
    }

    // --- batched scatter/gather ----------------------------------------
    let queries: Vec<(NodeId, i64)> = (0..256)
        .map(|_| {
            (
                leaves[rng.gen_range(0..leaves.len())],
                rng.gen_range(0..70_000i64),
            )
        })
        .collect();
    let t1 = Instant::now();
    let results = cluster.query_batch(&queries, None);
    let ok = results.iter().filter(|r| r.is_ok()).count();
    println!(
        "batch: {}/{} ok in {:?} ({:.0} q/s)",
        ok,
        results.len(),
        t1.elapsed(),
        results.len() as f64 / t1.elapsed().as_secs_f64()
    );

    // --- updates route to their owner shard -----------------------------
    let root = *tree.path_from_root(leaves[0]).first().expect("path");
    let ops: Vec<UpdateOp<i64>> = (0..64)
        .map(|i| UpdateOp::Insert(root, 100_000 + i))
        .collect();
    cluster.update_batch(&ops);
    println!("routed {} updates", ops.len());

    // --- chaos: corrupt a replica, then audit and repair -----------------
    let plan = cluster
        .inject(1, 0, &FaultSpec::one_of_each(), 7)
        .expect("inject");
    println!(
        "injected {} faults into shard 1 replica 0",
        plan.structural_len() + plan.dynamic_len()
    );
    for _ in 0..20 {
        let leaf = leaves[rng.gen_range(0..leaves.len())];
        let y = rng.gen_range(0..70_000i64);
        let _ = cluster.query_blocking(leaf, y, None);
    }
    while cluster.audit_blocking_all() > 0 {}
    println!("audits clean; health:");
    for (s, replicas) in cluster.health().iter().enumerate() {
        for (r, h) in replicas.iter().enumerate() {
            println!(
                "  shard {s} replica {r}: queue {}/{}, epoch {}",
                h.queue_len, h.queue_cap, h.epoch
            );
        }
    }

    // --- rebalance: split the hottest (or first) shard -------------------
    let hot = cluster.hottest_shard().map(|(s, _)| s).unwrap_or(0);
    match cluster.split_shard(hot) {
        Some(v) => println!(
            "split shard {hot}: table now v{v}, {} shards",
            cluster.shards()
        ),
        None => println!("shard {hot} not splittable"),
    }
    let probe = cluster
        .query_blocking(leaves[0], 35_000, None)
        .expect("post-split");
    println!(
        "post-split probe ok on table v{} ({} legs)",
        probe.table_version,
        probe.legs.len()
    );

    let stats = cluster.shutdown();
    println!("final: {stats:#?}");
}
