//! Cluster chaos test (the fc-shard acceptance gate): S=4 shards × R=2
//! replicas under injected corruption and a routing-table split
//! mid-storm. Invariants asserted throughout:
//!
//! 1. **Zero silently-wrong answers**: every `Ok` leg equals the
//!    sequential oracle *on the generation that served it*, and the merged
//!    answer is the first-`Some` over the legs in ascending shard order.
//! 2. **Every key range stays answerable**: `ShardError`s are allowed
//!    mid-storm, wrongness never is — and once the storm settles and
//!    audits repair, probes of every shard range must answer `Ok`.
//! 3. **Routing hot-swap**: the split publishes `version + 1` and queries
//!    keep answering across it.
//!
//! Beside the storm: the replicas of a shard start on one shared
//! structure (at start, after a split, after a cold start),
//! and a fault injected into one replica never reaches its peer.

use fc_catalog::{CatalogKey, NodeId, UpdateOp};
use fc_coop::{CoopStructure, ParamMode};
use fc_resilience::{audit, FaultSpec};
use fc_serve::ServeConfig;
use fc_shard::{DurableCluster, ShardCluster, ShardConfig, ShardedOk, StoreConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

fn oracle<K: CatalogKey>(st: &CoopStructure<K>, path: &[NodeId], y: K) -> Vec<Option<K>> {
    path.iter()
        .map(|&node| {
            let cat = st.tree().catalog(node);
            cat.get(cat.partition_point(|k| *k < y)).copied()
        })
        .collect()
}

/// Assert invariant 1 on one successful cluster answer.
fn check_ok(ok: &ShardedOk<i64>, y: i64) {
    let mut prev_shard = None;
    let mut merged = vec![None; ok.answers.len()];
    for leg in &ok.legs {
        if let Some(p) = prev_shard {
            assert!(leg.shard > p, "legs must ascend: {:?}", ok.legs);
        }
        prev_shard = Some(leg.shard);
        assert_eq!(
            leg.answers,
            oracle(&leg.gen.st, &leg.path, y),
            "leg on shard {} replica {} (gen {}) diverges from its own \
             generation's oracle — a silently wrong answer",
            leg.shard,
            leg.replica,
            leg.gen.id
        );
        for (slot, ans) in merged.iter_mut().zip(leg.answers.iter()) {
            if slot.is_none() {
                *slot = *ans;
            }
        }
    }
    assert_eq!(
        ok.answers, merged,
        "merged answer must be the first-Some over ascending legs"
    );
}

fn chaos_cfg() -> ShardConfig {
    ShardConfig {
        shards: 4,
        replicas: 2,
        serve: ServeConfig {
            workers: 2,
            queue_cap: 256,
            default_deadline: Duration::from_secs(10),
            ..ServeConfig::default()
        },
        batch_threads: 2,
        default_deadline: Duration::from_secs(20),
    }
}

/// One key strictly inside each shard's range, to probe answerability.
fn shard_probes(cluster: &ShardCluster<i64>) -> Vec<i64> {
    let state = cluster.state();
    (0..state.table.shards())
        .map(|s| {
            let (lo, hi) = state.table.range_of(s);
            match (lo, hi) {
                (Some(&l), Some(&h)) => (l + h) / 2,
                (None, Some(&h)) => h - 1,
                (Some(&l), None) => l + 1,
                (None, None) => 0,
            }
        })
        .collect()
}

#[test]
fn chaos_storm_no_silent_wrongness_and_full_answerability() {
    let mut rng = SmallRng::seed_from_u64(0x000C_1A05);
    let tree =
        fc_catalog::gen::balanced_binary(6, 3000, fc_catalog::gen::SizeDist::Uniform, &mut rng);
    let cluster = ShardCluster::start(&tree, fc_coop::ParamMode::Auto, chaos_cfg());
    assert!(cluster.shards() >= 4, "acceptance: S >= 4");
    let leaves = cluster.leaves();
    let v0 = cluster.table_version();

    let mut ok_count = 0u64;
    let mut err_count = 0u64;
    let mut injected = 0u64;
    let total_ops = 320;
    for op in 0..total_ops {
        // Storm event at a fixed point.
        if op == 160 {
            let v1 = cluster.split_shard(1).expect("mid-storm split");
            assert_eq!(v1, v0 + 1, "split publishes version + 1");
            assert_eq!(cluster.shards(), 5);
        }
        match rng.gen_range(0..100) {
            // Single queries: the bread and butter.
            0..=44 => {
                let leaf = leaves[rng.gen_range(0..leaves.len())];
                let y = rng.gen_range(-500..60_000i64);
                match cluster.query_blocking(leaf, y, None) {
                    Ok(ok) => {
                        check_ok(&ok, y);
                        ok_count += 1;
                    }
                    Err(_typed) => err_count += 1,
                }
            }
            // Batched scatter/gather.
            45..=64 => {
                let queries: Vec<(NodeId, i64)> = (0..16)
                    .map(|_| {
                        (
                            leaves[rng.gen_range(0..leaves.len())],
                            rng.gen_range(-500..60_000i64),
                        )
                    })
                    .collect();
                for ((_, y), res) in queries.iter().zip(cluster.query_batch(&queries, None)) {
                    match res {
                        Ok(ok) => {
                            check_ok(&ok, *y);
                            ok_count += 1;
                        }
                        Err(_typed) => err_count += 1,
                    }
                }
            }
            // Update batches, routed by key.
            65..=79 => {
                let leaf = leaves[rng.gen_range(0..leaves.len())];
                let node = *tree.path_from_root(leaf).first().unwrap();
                let ops: Vec<UpdateOp<i64>> = (0..6)
                    .map(|_| {
                        let k = rng.gen_range(0..60_000i64);
                        if rng.gen_bool(0.7) {
                            UpdateOp::Insert(node, k)
                        } else {
                            UpdateOp::Remove(node, k)
                        }
                    })
                    .collect();
                cluster.update_batch(&ops);
            }
            // Fault injection into a random replica.
            80..=92 => {
                let state = cluster.state();
                let shard = rng.gen_range(0..state.table.shards());
                let replica = rng.gen_range(0..2);
                let seed = rng.gen();
                if cluster
                    .inject(shard, replica, &FaultSpec::one_of_each(), seed)
                    .is_some()
                {
                    injected += 1;
                }
            }
            // Audit (and repair) every replica.
            _ => {
                cluster.audit_blocking_all();
            }
        }
    }
    assert!(injected > 0, "the storm must actually inject faults");
    assert!(ok_count > 0, "the storm must actually answer queries");

    // Settle: repair everything, then every shard range must answer.
    while cluster.audit_blocking_all() > 0 {}
    let leaf = leaves[0];
    for (s, probe) in shard_probes(&cluster).iter().enumerate() {
        let ok = cluster
            .query_blocking(leaf, *probe, None)
            .unwrap_or_else(|e| panic!("shard {s} range unanswerable after repair: {e}"));
        check_ok(&ok, *probe);
    }

    let stats = cluster.shutdown();
    assert_eq!(stats.splits, 1);
    assert!(
        err_count < ok_count,
        "storm errors ({err_count}) should stay below successes ({ok_count})"
    );
}

#[test]
fn concurrent_clients_survive_split_and_quarantine() {
    let mut rng = SmallRng::seed_from_u64(0x000C_1A07);
    let tree =
        fc_catalog::gen::balanced_binary(5, 1500, fc_catalog::gen::SizeDist::LeafHeavy, &mut rng);
    let cluster = ShardCluster::start(&tree, fc_coop::ParamMode::Auto, chaos_cfg());
    let leaves = cluster.leaves();

    std::thread::scope(|scope| {
        for t in 0..3u64 {
            let cluster = &cluster;
            let leaves = &leaves;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xBEEF + t);
                for _ in 0..40 {
                    let leaf = leaves[rng.gen_range(0..leaves.len())];
                    let y = rng.gen_range(-100..30_000i64);
                    if let Ok(ok) = cluster.query_blocking(leaf, y, None) {
                        check_ok(&ok, y);
                    }
                }
            });
        }
        // Main thread is the chaos monkey: corrupt, split.
        cluster.inject(0, 1, &FaultSpec::one_of_each(), 99);
        let v = cluster.split_shard(0);
        assert!(v.is_some(), "split under concurrent load");
    });

    while cluster.audit_blocking_all() > 0 {}
    let leaf = leaves[0];
    for probe in shard_probes(&cluster) {
        let ok = cluster.query_blocking(leaf, probe, None).expect("probe");
        check_ok(&ok, probe);
    }
    let stats = cluster.shutdown();
    assert_eq!(stats.splits, 1);
}

/// A quiet cluster shape for the sharing tests: background audits off,
/// one worker per replica.
fn quiet_cfg(shards: usize) -> ShardConfig {
    ShardConfig {
        shards,
        replicas: 2,
        serve: ServeConfig {
            workers: 1,
            default_deadline: Duration::from_secs(5),
            ..ServeConfig::default()
        },
        batch_threads: 2,
        default_deadline: Duration::from_secs(10),
    }
}

/// Every shard's replicas publish generation 0 on one shared structure.
fn assert_replicas_share_one_structure(cluster: &ShardCluster<i64>, when: &str) {
    let state = cluster.state();
    for (shard, group) in state.groups.iter().enumerate() {
        assert_eq!(group.len(), 2, "{when}: shard {shard} replica count");
        let first = group.replica(0).expect("replica 0").snapshot();
        let second = group.replica(1).expect("replica 1").snapshot();
        assert_eq!((first.id, second.id), (0, 0), "{when}: shard {shard}");
        assert!(
            Arc::ptr_eq(&first.st, &second.st),
            "{when}: shard {shard}'s replicas preprocessed separate structures"
        );
    }
}

#[test]
fn replicas_share_one_structure_at_start_split_and_cold_start() {
    let mut rng = SmallRng::seed_from_u64(0x000C_1A09);
    let tree =
        fc_catalog::gen::balanced_binary(5, 1500, fc_catalog::gen::SizeDist::Uniform, &mut rng);
    let cluster = ShardCluster::start(&tree, ParamMode::Auto, quiet_cfg(3));
    assert_replicas_share_one_structure(&cluster, "start");
    assert_eq!(cluster.split_shard(1), Some(2), "split publishes version 2");
    assert_replicas_share_one_structure(&cluster, "split");
    cluster.shutdown();

    let dir = std::env::temp_dir().join(format!("fc-shard-share-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let no_fsync = StoreConfig {
        fsync: false,
        ..StoreConfig::default()
    };
    let dc = DurableCluster::create(&dir, &tree, ParamMode::Auto, quiet_cfg(3), no_fsync)
        .expect("create");
    let leaf = dc.cluster().leaves()[0];
    let node = tree.path_from_root(leaf)[1];
    // An unsnapshotted tail, so recovery replays and rebuilds.
    for k in 0..10 {
        dc.update_batch(&[UpdateOp::Insert(node, 40_000_000 + k)])
            .expect("durable update");
    }
    drop(dc);
    let (dc, rep) =
        DurableCluster::<i64>::cold_start(&dir, ParamMode::Auto, quiet_cfg(3), no_fsync)
            .expect("cold start");
    assert_eq!(rep.replayed_records, 10);
    assert_replicas_share_one_structure(dc.cluster(), "cold start");
    dc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Copy on write: a fault injected into (and then repaired on) one
/// replica never reaches its peer, nor any generation already published.
#[test]
fn fault_on_one_replica_never_reaches_its_peer() {
    let mut rng = SmallRng::seed_from_u64(0x000C_1A0B);
    let tree =
        fc_catalog::gen::balanced_binary(6, 3000, fc_catalog::gen::SizeDist::Uniform, &mut rng);
    let cluster = ShardCluster::start(&tree, ParamMode::Auto, quiet_cfg(3));
    let shard = 1;
    let state = cluster.state();
    let group = Arc::clone(&state.groups[shard]);
    let (lo, hi) = state.table.range_of(shard);
    let (lo, hi) = (lo.copied(), hi.copied());
    drop(state);
    let peer = group.replica(1).expect("replica 1");
    let shared = peer.snapshot();
    assert!(audit(&shared.st).is_clean());

    let plan = cluster
        .inject(shard, 0, &FaultSpec::one_of_each(), 0x5EED)
        .expect("valid address");
    assert!(plan.structural_len() > 0);
    let corrupted = group.replica(0).expect("replica 0").snapshot();
    assert!(corrupted.id > 0, "the fault was published on replica 0");
    assert!(!audit(&corrupted.st).is_clean(), "replica 0 audits dirty");
    let served = peer.snapshot();
    assert!(
        Arc::ptr_eq(&served.st, &shared.st),
        "the peer still serves its original structure"
    );
    assert!(audit(&served.st).is_clean(), "the fault reached the peer");

    // The peer answers exactly the shard-filtered oracle.
    let in_shard = |k: &i64| lo.is_none_or(|l| l <= *k) && hi.is_none_or(|h| *k < h);
    let leaves = tree.leaves();
    for _ in 0..200 {
        let leaf = leaves[rng.gen_range(0..leaves.len())];
        let y = rng.gen_range(-100..30_000i64);
        let ok = peer.query_blocking(leaf, y, None).expect("peer answers");
        let want: Vec<Option<i64>> = tree
            .path_from_root(leaf)
            .iter()
            .map(|&n| {
                tree.catalog(n)
                    .iter()
                    .copied()
                    .find(|k| *k >= y && in_shard(k))
            })
            .collect();
        assert_eq!(ok.answers, want, "peer answer at y={y}");
    }

    // Repairing replica 0 copies too: the corrupted generation it had
    // published stays as it was for readers still pinning it.
    assert!(group.replica(0).expect("replica 0").audit_blocking());
    let repaired = group.replica(0).expect("replica 0").snapshot();
    assert!(audit(&repaired.st).is_clean(), "repair republished clean");
    assert!(
        !audit(&corrupted.st).is_clean(),
        "repair wrote into a published generation"
    );
    assert!(Arc::ptr_eq(&peer.snapshot().st, &shared.st));
    drop(group);
    cluster.shutdown();
}
