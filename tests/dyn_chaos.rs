//! Chaos gate for the **served write path** under the full stack
//! (registered under fc-shard in `crates/shard/Cargo.toml`): a sharded,
//! replicated cluster whose replicas publish a generation per acked
//! update batch, driven by a mixed read/write storm with injected
//! corruption and — the centerpiece — a kill -9 mid-write-storm.
//!
//! Two gates:
//!
//! * [`incremental_storm_no_silent_wrongness_then_heals`]: mixed queries,
//!   update batches, fault injections, and audits. Invariants: every `Ok`
//!   answer equals the sequential oracle *on the generation that served
//!   it* (wrongness never), every read that starts after a batch's ack
//!   sees the batch — its inserts at their nodes, its removes gone — so
//!   merged answers equal the oracle on the acked catalogs (staleness
//!   never), errors are typed, and after the storm settles every shard
//!   range answers again.
//! * [`kill9_incremental_crash_recovery_gate`]: the parent re-execs this
//!   test binary as a child cluster process (filtered to
//!   [`dyn_crash_child_driver`]); the child streams durable per-key
//!   updates — acking each on stdout only *after* its WAL append
//!   returned — and dies by `std::process::abort()` mid-storm. The parent
//!   cold-starts the directory and proves every acked update survived,
//!   answers are oracle-equal, and writes after the cold start are
//!   visible to the next read.

use fc_catalog::gen::{self, SizeDist};
use fc_catalog::{CatalogKey, CatalogTree, NodeId};
use fc_coop::dynamic::UpdateOp;
use fc_coop::{CoopStructure, ParamMode};
use fc_resilience::FaultSpec;
use fc_serve::ServeConfig;
use fc_shard::{DurableCluster, ShardCluster, ShardConfig, ShardedOk};
use fc_store::StoreConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::fs;
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

fn gen_oracle<K: CatalogKey>(st: &CoopStructure<K>, path: &[NodeId], y: K) -> Vec<Option<K>> {
    path.iter()
        .map(|&node| {
            let cat = st.tree().catalog(node);
            cat.get(cat.partition_point(|k| *k < y)).copied()
        })
        .collect()
}

/// Zero-silent-wrongness: every leg equals the oracle on the generation
/// that served it, and the merged answer is first-`Some` in shard order.
fn check_ok(ok: &ShardedOk<i64>, y: i64) {
    let mut merged = vec![None; ok.answers.len()];
    for leg in &ok.legs {
        assert_eq!(
            leg.answers,
            gen_oracle(&leg.gen.st, &leg.path, y),
            "leg on shard {} replica {} (gen {}) diverges from its own \
             generation — a silently wrong answer",
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
    assert_eq!(ok.answers, merged, "merged answer must be first-Some");
}

/// The storm cluster: 4×2, every answer checked against its generation's
/// oracle and against the acked catalogs.
fn chaos_cfg() -> ShardConfig {
    ShardConfig {
        shards: 4,
        replicas: 2,
        serve: ServeConfig {
            workers: 2,
            queue_cap: 256,
            default_deadline: Duration::from_secs(10),
            audit_interval: Duration::from_millis(40),
            ..ServeConfig::default()
        },
        batch_threads: 2,
        default_deadline: Duration::from_secs(20),
    }
}

/// One key strictly inside each shard's range.
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

/// The acked catalogs: the unsharded tree's catalogs plus every acked
/// op, in ack order.
struct Model(Vec<BTreeSet<i64>>);

impl Model {
    fn new(tree: &CatalogTree<i64>) -> Self {
        Model(
            tree.ids()
                .map(|id| tree.catalog(id).iter().copied().collect())
                .collect(),
        )
    }

    fn apply(&mut self, ops: &[UpdateOp<i64>]) {
        for op in ops {
            match *op {
                UpdateOp::Insert(node, key) => self.0[node.idx()].insert(key),
                UpdateOp::Remove(node, key) => self.0[node.idx()].remove(&key),
            };
        }
    }

    fn oracle(&self, path: &[NodeId], y: i64) -> Vec<Option<i64>> {
        path.iter()
            .map(|n| self.0[n.idx()].range(y..).next().copied())
            .collect()
    }
}

#[test]
fn incremental_storm_no_silent_wrongness_then_heals() {
    let mut rng = SmallRng::seed_from_u64(0xD1_C4A0);
    let tree = gen::balanced_binary(6, 3_000, SizeDist::Uniform, &mut rng);
    let cluster = ShardCluster::start(&tree, ParamMode::Auto, chaos_cfg());
    let leaves = cluster.leaves();
    let mut model = Model::new(&tree);

    let mut ok_count = 0u64;
    let mut err_count = 0u64;
    let mut injected = 0u64;
    let mut writes = 0u64;
    let mut probes = 0u64;
    for _ in 0..260 {
        match rng.gen_range(0..100) {
            0..=49 => {
                let leaf = leaves[rng.gen_range(0..leaves.len())];
                let y = rng.gen_range(-500..60_000i64);
                match cluster.query_blocking(leaf, y, None) {
                    Ok(ok) => {
                        check_ok(&ok, y);
                        assert_eq!(
                            ok.answers,
                            model.oracle(&ok.path, y),
                            "y={y}: an acked write is not visible"
                        );
                        ok_count += 1;
                    }
                    Err(_typed) => err_count += 1,
                }
            }
            // Update batches along one root-to-leaf path, then a read of
            // every written key: each starts after the batch's ack.
            50..=79 => {
                let leaf = leaves[rng.gen_range(0..leaves.len())];
                let path = tree.path_from_root(leaf);
                let ops: Vec<UpdateOp<i64>> = (0..6)
                    .map(|_| {
                        let node = path[rng.gen_range(0..path.len())];
                        let k = rng.gen_range(0..60_000i64);
                        if rng.gen_bool(0.7) {
                            UpdateOp::Insert(node, k)
                        } else {
                            UpdateOp::Remove(node, k)
                        }
                    })
                    .collect();
                cluster.update_batch(&ops);
                model.apply(&ops);
                writes += ops.len() as u64;
                for op in &ops {
                    let (UpdateOp::Insert(node, k) | UpdateOp::Remove(node, k)) = *op;
                    let Ok(ok) = cluster.query_blocking(leaf, k, None) else {
                        err_count += 1;
                        continue;
                    };
                    check_ok(&ok, k);
                    let at = ok.path.iter().position(|n| *n == node).expect("on path");
                    let present = model.0[node.idx()].contains(&k);
                    assert_eq!(
                        ok.answers[at] == Some(k),
                        present,
                        "{op:?}: the read after its ack disagrees with the acked catalogs"
                    );
                    probes += 1;
                }
            }
            80..=91 => {
                let state = cluster.state();
                let shard = rng.gen_range(0..state.table.shards());
                let replica = rng.gen_range(0..2);
                let seed = rng.gen();
                drop(state);
                if cluster
                    .inject(shard, replica, &FaultSpec::one_of_each(), seed)
                    .is_some()
                {
                    injected += 1;
                }
            }
            _ => cluster.trigger_audit_all(),
        }
    }
    assert!(injected > 0, "the storm must actually inject faults");
    assert!(ok_count > 0, "the storm must actually answer queries");
    assert!(writes > 0, "the storm must actually write");
    assert!(probes > 0, "the storm must read its own writes");

    // Settle: audits repair, then every shard range must answer.
    while cluster.audit_blocking_all() > 0 {}
    let leaf = leaves[0];
    for (s, probe) in shard_probes(&cluster).iter().enumerate() {
        let ok = cluster
            .query_blocking(leaf, *probe, None)
            .unwrap_or_else(|e| panic!("shard {s} unanswerable after repair: {e}"));
        check_ok(&ok, *probe);
        assert_eq!(ok.answers, model.oracle(&ok.path, *probe));
    }
    let _ = err_count;
    cluster.shutdown();
}

// ---------------------------------------------------------------- kill -9

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fc-dyn-chaos-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Durable config for the crash pair: no background audits
/// (determinism), modest worker counts.
fn crash_cfg() -> ShardConfig {
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

fn no_fsync() -> StoreConfig {
    StoreConfig {
        fsync: false,
        ..StoreConfig::default()
    }
}

/// The deterministic tree both sides of the gate construct.
fn crash_tree() -> CatalogTree<i64> {
    let mut rng = SmallRng::seed_from_u64(0xD1_C4A5);
    gen::balanced_binary(5, 1_500, SizeDist::Uniform, &mut rng)
}

/// The deterministic per-key update stream: mixed inserts and deletes
/// along one root-to-leaf path, keys striding the whole shard axis.
fn crash_ops(tree: &CatalogTree<i64>, leaf: NodeId) -> Vec<UpdateOp<i64>> {
    let path = tree.path_from_root(leaf);
    (0..300i64)
        .map(|i| {
            let node = path[(i as usize) % path.len()];
            let key = 100 + (i * 379) % 23_000;
            // Every 5th op deletes the key inserted 5 ops earlier, so the
            // WAL carries both op kinds and tombstoning is replayed too.
            if i % 5 == 4 {
                UpdateOp::Remove(node, 100 + ((i - 5) * 379) % 23_000)
            } else {
                UpdateOp::Insert(node, key)
            }
        })
        .collect()
}

/// CHILD SIDE. A no-op unless `FC_DYN_CRASH_DIR` is set (the parent sets
/// it when re-exec'ing this binary). Never returns normally when driven.
#[test]
fn dyn_crash_child_driver() {
    let Some(dir) = std::env::var_os("FC_DYN_CRASH_DIR") else {
        return;
    };
    let dir = PathBuf::from(dir);
    let tree = crash_tree();
    // fsync on: an ack must mean "on disk" — the exact claim the parent
    // verifies after the abort.
    let dc = DurableCluster::create(
        &dir,
        &tree,
        ParamMode::Auto,
        crash_cfg(),
        StoreConfig::default(),
    )
    .expect("child: create");
    let v = dc
        .split_durable(1)
        .expect("child: split io")
        .expect("child: split refused");
    println!("TABLE_VERSION {v}");
    // Chaos: an injected corruption, while the update stream keeps
    // appending.
    let _ = dc.cluster().inject(1, 0, &FaultSpec::one_of_each(), 7);
    let leaves = dc.cluster().leaves();
    let leaf = leaves[0];
    for (i, op) in crash_ops(&tree, leaf).iter().enumerate() {
        dc.update_batch(std::slice::from_ref(op))
            .expect("child: durable append");
        // Acked only after the WAL append (and its fsync) returned.
        match op {
            UpdateOp::Insert(node, key) => println!("ACKED I {} {}", node.0, key),
            UpdateOp::Remove(node, key) => println!("ACKED R {} {}", node.0, key),
        }
        if i % 17 == 0 {
            // Interleaved reads: the storm is not write-only.
            let _ = dc.cluster().query_blocking(leaf, 12_345, None);
        }
        if i == 211 {
            // kill -9 equivalent: no destructors, no checkpoint.
            // Everything after the last ack is torn.
            std::process::abort();
        }
    }
    unreachable!("child must abort before draining the stream");
}

/// PARENT SIDE: re-exec this binary as the child cluster, let
/// it die by SIGABRT mid-write-storm, cold-start the directory, and prove
/// the recovery contract (see module docs).
#[test]
fn kill9_incremental_crash_recovery_gate() {
    let dir = tmp("kill9");
    let exe = std::env::current_exe().expect("current_exe");
    let out = Command::new(exe)
        .args([
            "dyn_crash_child_driver",
            "--exact",
            "--nocapture",
            "--test-threads=1",
        ])
        .env("FC_DYN_CRASH_DIR", &dir)
        .output()
        .expect("spawn child");
    assert!(
        !out.status.success(),
        "child must die by abort, not exit cleanly"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut table_version = None;
    let mut acked: Vec<UpdateOp<i64>> = Vec::new();
    for line in stdout.lines() {
        if let Some(at) = line.find("TABLE_VERSION ") {
            table_version = line[at + "TABLE_VERSION ".len()..]
                .trim()
                .parse::<u64>()
                .ok();
        } else if let Some(rest) = line.strip_prefix("ACKED ") {
            let mut it = rest.split_whitespace();
            let kind = it.next();
            let node = it.next().and_then(|s| s.parse::<u32>().ok());
            let key = it.next().and_then(|s| s.parse::<i64>().ok());
            match (kind, node, key) {
                (Some("I"), Some(n), Some(k)) => acked.push(UpdateOp::Insert(NodeId(n), k)),
                (Some("R"), Some(n), Some(k)) => acked.push(UpdateOp::Remove(NodeId(n), k)),
                _ => {}
            }
        }
    }
    let table_version = table_version.unwrap_or_else(|| {
        panic!(
            "child printed no table version.\nstdout:\n{stdout}\nstderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    assert_eq!(acked.len(), 212, "child acked exactly 212 ops then died");

    let (dc, rep) =
        DurableCluster::<i64>::cold_start(&dir, ParamMode::Auto, crash_cfg(), no_fsync())
            .unwrap_or_else(|e| panic!("cold start after kill -9: {e}"));
    assert_eq!(rep.table_version, table_version);
    assert!(
        rep.replayed_records > 0,
        "the acked tail lived only in the WALs"
    );
    // The child never checkpointed, so no rebuild markers were cut.
    assert_eq!(rep.rebuild_markers, 0);

    // Oracle: the deterministic tree plus the acked ops, in ack order.
    let tree = crash_tree();
    let mut cats: HashMap<u32, Vec<i64>> = tree
        .ids()
        .map(|id| (id.0, tree.catalog(id).to_vec()))
        .collect();
    for op in &acked {
        match *op {
            UpdateOp::Insert(node, key) => {
                let cat = cats.entry(node.0).or_default();
                if let Err(pos) = cat.binary_search(&key) {
                    cat.insert(pos, key);
                }
            }
            UpdateOp::Remove(node, key) => {
                let cat = cats.entry(node.0).or_default();
                if let Ok(pos) = cat.binary_search(&key) {
                    cat.remove(pos);
                }
            }
        }
    }
    let leaf = dc.cluster().leaves()[0];
    let path = tree.path_from_root(leaf);
    let oracle = |y: i64| -> Vec<Option<i64>> {
        path.iter()
            .map(|n| {
                let cat = &cats[&n.0];
                cat.get(cat.partition_point(|k| *k < y)).copied()
            })
            .collect()
    };
    let check = |y: i64| {
        let ok = dc
            .cluster()
            .query_blocking(leaf, y, None)
            .unwrap_or_else(|e| panic!("recovered query y={y}: {e}"));
        assert_eq!(ok.answers, oracle(y), "y={y}");
    };
    // (a) Every acked insert that was not later deleted is durable, and
    // every acked delete stayed deleted: successor probes around each
    // acked key must match the sequential oracle exactly.
    for op in &acked {
        let key = match *op {
            UpdateOp::Insert(_, k) | UpdateOp::Remove(_, k) => k,
        };
        check(key);
        check(key + 1);
    }
    // (b) Oracle equality inside every recovered shard range.
    let state = dc.cluster().state();
    for shard in 0..state.table.shards() {
        let (lo, hi) = state.table.range_of(shard);
        let lo = lo.copied().unwrap_or(-100);
        let hi = hi.copied().unwrap_or(50_000);
        check(lo);
        check((lo + hi) / 2);
        check(hi - 1);
    }
    drop(state);

    // (c) Writes to the recovered cluster are visible to the next read.
    let fresh: Vec<UpdateOp<i64>> = (0..40)
        .map(|k| UpdateOp::Insert(leaf, 90_000 + k))
        .collect();
    dc.update_batch(&fresh).expect("post-recovery writes");
    for k in 0..40 {
        let ok = dc
            .cluster()
            .query_blocking(leaf, 90_000 + k, None)
            .expect("post-recovery read");
        assert_eq!(
            ok.answers.last().copied().flatten(),
            Some(90_000 + k),
            "a write acked after the cold start is not visible"
        );
    }
    dc.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
