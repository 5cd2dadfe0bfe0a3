//! Crash-recovery gate for the durable cluster (registered under
//! fc-shard in `crates/shard/Cargo.toml`).
//!
//! The centerpiece is the **kill -9 gate**: the parent test re-execs this
//! very test binary as a child cluster process (filtered to
//! [`crash_child_driver`]), which builds a durable cluster, splits a
//! shard, streams durable update batches — acking
//! each on stdout *after* its WAL append returns — and then dies by
//! `std::process::abort()` (SIGABRT: no destructors, no flushes, the
//! process-level equivalent of `kill -9`) mid-storm. The parent
//! cold-starts the same directory and proves:
//!
//! * the routing-table version the child last committed is restored;
//! * every acked update is present — durability of acknowledged writes;
//! * answers equal the sequential oracle (original tree + acked ops) on
//!   probes inside **every** recovered shard range.
//!
//! A second kill -9 pair checks the visibility contract through the same
//! path: a `DurableCluster` writer beside a concurrent `query_blocking`
//! reader, where every read that starts after an insert's ack must return
//! the key at its node and no read that starts after a remove's ack may
//! return the removed key — before the crash, after the cold start, and
//! in a fresh concurrent round on the recovered cluster.
//!
//! Around the gates sit regression tests for the uglier corners: a WAL
//! caught mid-rotation (duplicated final record in a fresh segment)
//! written by a two-replica shard must recover cleanly through idempotent
//! sequence-number replay; fully corrupt snapshots and a missing middle
//! WAL segment must refuse with *typed* errors — never a panic, never a
//! silently smaller cluster.

use fc_catalog::gen::{self, SizeDist};
use fc_catalog::{CatalogTree, NodeId, UpdateOp};
use fc_coop::ParamMode;
use fc_serve::ServeConfig;
use fc_shard::{DurableCluster, ShardConfig};
use fc_store::manifest::{epoch_dir, shard_dir};
use fc_store::{fault, load_newest_valid, StoreConfig, StoreError};
use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::thread;
use std::time::Duration;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fc-store-rec-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn cfg(shards: usize, replicas: usize) -> ShardConfig {
    ShardConfig {
        shards,
        replicas,
        serve: ServeConfig {
            workers: 1,
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

/// The deterministic tree both sides of the kill -9 gate construct.
fn crash_tree() -> CatalogTree<i64> {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(0xC0A5_7A57);
    gen::balanced_binary(5, 1500, SizeDist::Uniform, &mut rng)
}

/// The deterministic update stream the child acks from.
fn crash_ops(tree: &CatalogTree<i64>, leaf: NodeId) -> Vec<(NodeId, i64)> {
    let path = tree.path_from_root(leaf);
    (0..400i64)
        .map(|i| {
            let node = path[(i as usize) % path.len()];
            // A full-period stride over the key axis so every shard's
            // WAL sees traffic (the child splits, so shard count is 4).
            let key = 100 + (i * 379) % 23_000;
            (node, key)
        })
        .collect()
}

/// CHILD SIDE of the kill -9 gate. A no-op unless `FC_STORE_CRASH_DIR`
/// is set (the parent sets it when re-exec'ing this binary). Never
/// returns normally when driven: it aborts mid-storm.
#[test]
fn crash_child_driver() {
    let Some(dir) = std::env::var_os("FC_STORE_CRASH_DIR") else {
        return;
    };
    let dir = PathBuf::from(dir);
    let tree = crash_tree();
    // fsync on: the child's acks must mean "on disk", exactly the claim
    // the parent verifies.
    let dc = DurableCluster::create(
        &dir,
        &tree,
        ParamMode::Auto,
        cfg(3, 2),
        StoreConfig::default(),
    )
    .expect("child: create");
    let v = dc
        .split_durable(1)
        .expect("child: split io")
        .expect("child: split refused");
    println!("TABLE_VERSION {v}");
    let leaves = dc.cluster().leaves();
    let leaf = leaves[0];
    for (i, (node, key)) in crash_ops(&tree, leaf).iter().enumerate() {
        dc.update_batch(&[UpdateOp::Insert(*node, *key)])
            .expect("child: durable append");
        // Acked only after the WAL append (and its fsync) returned.
        println!("ACKED {} {}", node.0, key);
        if i % 23 == 0 {
            // Interleave reads so the storm is not write-only.
            let _ = dc.cluster().query_blocking(leaf, *key, None);
        }
        if i == 317 {
            // kill -9 equivalent: no destructors, no shutdown, no
            // checkpoint. Everything after the last ack is torn.
            std::process::abort();
        }
    }
    unreachable!("child must abort before draining the stream");
}

/// PARENT SIDE: re-exec this test binary as the child cluster process,
/// let it die by SIGABRT mid-storm, cold-start the directory it left
/// behind, and prove the recovery contract (see module docs).
#[test]
fn kill9_crash_recovery_gate() {
    let dir = tmp("kill9");
    let exe = std::env::current_exe().expect("current_exe");
    let out = Command::new(exe)
        .args([
            "crash_child_driver",
            "--exact",
            "--nocapture",
            "--test-threads=1",
        ])
        .env("FC_STORE_CRASH_DIR", &dir)
        .output()
        .expect("spawn child");
    assert!(
        !out.status.success(),
        "child must die by abort, not exit cleanly"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut table_version = None;
    let mut acked: Vec<(u32, i64)> = Vec::new();
    // The libtest harness prints "test crash_child_driver ... " with no
    // newline before the test's own output, so match by substring.
    for line in stdout.lines() {
        if let Some(at) = line.find("TABLE_VERSION ") {
            table_version = line[at + "TABLE_VERSION ".len()..]
                .trim()
                .parse::<u64>()
                .ok();
        } else if let Some(rest) = line.strip_prefix("ACKED ") {
            let mut it = rest.split_whitespace();
            let node = it.next().and_then(|s| s.parse::<u32>().ok());
            let key = it.next().and_then(|s| s.parse::<i64>().ok());
            if let (Some(n), Some(k)) = (node, key) {
                acked.push((n, k));
            }
        }
    }
    let table_version = table_version.unwrap_or_else(|| {
        panic!(
            "child printed no table version.\nstdout:\n{stdout}\nstderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    assert_eq!(acked.len(), 318, "child acked exactly 318 ops then died");

    let (dc, rep) = DurableCluster::<i64>::cold_start(&dir, ParamMode::Auto, cfg(3, 2), no_fsync())
        .unwrap_or_else(|e| panic!("cold start after kill -9: {e}"));
    assert_eq!(
        rep.table_version, table_version,
        "routing-table version must survive the crash"
    );
    assert_eq!(dc.cluster().table_version(), table_version);
    assert!(
        rep.replayed_records > 0,
        "the acked tail lived only in the WALs"
    );

    // Oracle: the deterministic tree plus every acked insert.
    let tree = crash_tree();
    let mut cats: HashMap<u32, Vec<i64>> = tree
        .ids()
        .map(|id| (id.0, tree.catalog(id).to_vec()))
        .collect();
    for &(node, key) in &acked {
        cats.entry(node).or_default().push(key);
    }
    for keys in cats.values_mut() {
        keys.sort_unstable();
        keys.dedup();
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
    // (a) Every acked key is durable: its own successor query returns it.
    for &(node, key) in &acked {
        let ok = dc.cluster().query_blocking(leaf, key, None).unwrap();
        let hit = ok
            .path
            .iter()
            .zip(&ok.answers)
            .any(|(n, a)| n.0 == node && *a == Some(key));
        assert!(hit, "acked key {key} at node {node} lost by the crash");
    }
    // (b) Oracle equality on probes inside *every* recovered shard
    // range, plus the boundaries around each acked key.
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
    for &(_, key) in acked.iter().step_by(13) {
        check(key - 1);
        check(key + 1);
    }
    dc.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Op `i` of the visibility stream, for a root-to-leaf `path`: ops
/// `i ≡ 0, 1 (mod 3)` insert a key no other op of the stream names (the
/// stride is coprime to the modulus), spread over every shard's range;
/// op `i ≡ 2` removes the key op `i - 2` inserted.
fn visibility_op(path: &[NodeId], i: usize) -> UpdateOp<i64> {
    let insert = |i: usize| (path[i % path.len()], 1 + (i as i64 * 97) % 23_993);
    if i % 3 == 2 {
        let (node, key) = insert(i - 2);
        UpdateOp::Remove(node, key)
    } else {
        let (node, key) = insert(i);
        UpdateOp::Insert(node, key)
    }
}

/// Whether a read of `op`'s key at `op`'s node, on `leaf`, returns it.
fn reads_key(dc: &DurableCluster<i64>, leaf: NodeId, op: &UpdateOp<i64>) -> bool {
    let (UpdateOp::Insert(node, key) | UpdateOp::Remove(node, key)) = *op;
    let ok = dc
        .cluster()
        .query_blocking(leaf, key, None)
        .unwrap_or_else(|e| panic!("read of {op:?}: {e}"));
    ok.path
        .iter()
        .zip(&ok.answers)
        .any(|(n, a)| *n == node && *a == Some(key))
}

/// Acks between the writer's waits for a fresh checked read.
const VIS_HANDSHAKE: usize = 10;

/// Stream ops `range` of the visibility stream through `dc` while a
/// concurrent reader checks each read against the acks that preceded its
/// start: an acked insert whose remove is not yet acked must be visible,
/// an acked remove must not be. Every [`VIS_HANDSHAKE`] acks the writer
/// waits until the reader has checked one more read, so reads interleave
/// with the writes however the threads are scheduled. `ack` runs after
/// each acked op. Returns how many reads were checked.
fn visibility_round(
    dc: &DurableCluster<i64>,
    leaf: NodeId,
    path: &[NodeId],
    range: std::ops::Range<usize>,
    ack: impl Fn(&UpdateOp<i64>) + Sync,
) -> usize {
    assert_eq!(range.start % 3, 0, "a round starts on an insert");
    let ops: Vec<UpdateOp<i64>> = range.clone().map(|i| visibility_op(path, i)).collect();
    let acked = AtomicUsize::new(0);
    let checked = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut turn = 0usize;
            while !done.load(SeqCst) {
                // Every op below `n` was acked before this read starts.
                let n = acked.load(SeqCst);
                if n == 0 {
                    thread::yield_now();
                    continue;
                }
                turn += 1;
                // Alternate the newest ack with a scattered older one.
                let j = if turn.is_multiple_of(2) {
                    n - 1
                } else {
                    (turn * 7919) % n
                };
                let want = match (range.start + j) % 3 {
                    1 => true,
                    0 if j + 2 < n => false,
                    0 => continue, // its remove may be in flight
                    _ => false,
                };
                assert_eq!(
                    reads_key(dc, leaf, &ops[j]),
                    want,
                    "a read started after {n} acks disagrees with acked op {j}: {:?}",
                    ops[j]
                );
                checked.fetch_add(1, SeqCst);
            }
        });
        for (i, op) in ops.iter().enumerate() {
            dc.update_batch(std::slice::from_ref(op))
                .expect("durable update");
            ack(op);
            acked.store(i + 1, SeqCst);
            if (i + 1) % VIS_HANDSHAKE == 0 {
                let seen = checked.load(SeqCst);
                while checked.load(SeqCst) == seen && !reader.is_finished() {
                    thread::yield_now();
                }
            }
        }
        done.store(true, SeqCst);
        reader.join().expect("visibility reader panicked");
    });
    checked.into_inner()
}

/// Ops of the visibility stream before the child's crash: a concurrent
/// round, then a sequential tail cut by the abort.
const VIS_ROUND: usize = 150;
const VIS_TAIL_ABORT: usize = 61;

/// CHILD SIDE of the visibility gate. A no-op unless `FC_VIS_CRASH_DIR` is
/// set. Never returns normally when driven: it aborts mid-tail.
#[test]
fn visibility_child_driver() {
    let Some(dir) = std::env::var_os("FC_VIS_CRASH_DIR") else {
        return;
    };
    let dir = PathBuf::from(dir);
    let tree = crash_tree();
    let dc = DurableCluster::create(
        &dir,
        &tree,
        ParamMode::Auto,
        cfg(3, 2),
        StoreConfig::default(),
    )
    .expect("child: create");
    let leaf = dc.cluster().leaves()[0];
    let path = tree.path_from_root(leaf);
    let print = |op: &UpdateOp<i64>| match *op {
        UpdateOp::Insert(node, key) => println!("ACKED I {} {}", node.0, key),
        UpdateOp::Remove(node, key) => println!("ACKED R {} {}", node.0, key),
    };
    let checked = visibility_round(&dc, leaf, &path, 0..VIS_ROUND, print);
    println!("ROUND_OK {checked}");
    for i in VIS_ROUND..2 * VIS_ROUND {
        let op = visibility_op(&path, i);
        dc.update_batch(&[op]).expect("child: durable append");
        print(&op);
        if i == VIS_ROUND + VIS_TAIL_ABORT - 1 {
            std::process::abort();
        }
    }
    unreachable!("child must abort before finishing its tail");
}

/// PARENT SIDE of the visibility gate: the child's concurrent round must
/// pass, every op it acked before its SIGABRT must read back as acked
/// after the cold start, and a fresh concurrent round on the recovered
/// cluster must pass too.
#[test]
fn acked_writes_visible_to_concurrent_reads_across_kill9() {
    let dir = tmp("visibility");
    let exe = std::env::current_exe().expect("current_exe");
    let out = Command::new(exe)
        .args([
            "visibility_child_driver",
            "--exact",
            "--nocapture",
            "--test-threads=1",
        ])
        .env("FC_VIS_CRASH_DIR", &dir)
        .output()
        .expect("spawn child");
    assert!(!out.status.success(), "child must die by abort");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let round_ok = stdout
        .lines()
        .find_map(|l| l.find("ROUND_OK ").map(|at| l[at + 9..].trim().to_owned()))
        .unwrap_or_else(|| {
            panic!(
                "the child's concurrent round failed.\nstdout:\n{stdout}\nstderr:\n{}",
                String::from_utf8_lossy(&out.stderr)
            )
        });
    assert_ne!(round_ok, "0", "the child's reader checked no read");
    let mut acked: Vec<UpdateOp<i64>> = Vec::new();
    for line in stdout.lines() {
        let Some(at) = line.find("ACKED ") else {
            continue;
        };
        let mut it = line[at + 6..].split_whitespace();
        let kind = it.next();
        let node = it.next().and_then(|s| s.parse::<u32>().ok());
        let key = it.next().and_then(|s| s.parse::<i64>().ok());
        match (kind, node, key) {
            (Some("I"), Some(n), Some(k)) => acked.push(UpdateOp::Insert(NodeId(n), k)),
            (Some("R"), Some(n), Some(k)) => acked.push(UpdateOp::Remove(NodeId(n), k)),
            _ => {}
        }
    }
    assert_eq!(acked.len(), VIS_ROUND + VIS_TAIL_ABORT);

    let (dc, rep) = DurableCluster::<i64>::cold_start(&dir, ParamMode::Auto, cfg(3, 2), no_fsync())
        .unwrap_or_else(|e| panic!("cold start after kill -9: {e}"));
    assert!(
        rep.replayed_records > 0,
        "the acked tail lived only in the WALs"
    );
    let leaf = dc.cluster().leaves()[0];
    let path = crash_tree().path_from_root(leaf);
    // Every read now starts after every ack: the last acked op on each
    // (node, key) decides whether the read returns the key.
    let mut last: HashMap<(u32, i64), bool> = HashMap::new();
    for op in &acked {
        match *op {
            UpdateOp::Insert(n, k) => last.insert((n.0, k), true),
            UpdateOp::Remove(n, k) => last.insert((n.0, k), false),
        };
    }
    for op in &acked {
        let (UpdateOp::Insert(n, k) | UpdateOp::Remove(n, k)) = *op;
        assert_eq!(
            reads_key(&dc, leaf, op),
            last[&(n.0, k)],
            "{op:?} after the cold start"
        );
    }
    let checked = visibility_round(&dc, leaf, &path, 2 * VIS_ROUND..3 * VIS_ROUND, |_| {});
    assert!(
        checked > 0,
        "the recovered cluster's reader checked no read"
    );
    dc.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Regression: a shard whose WAL sits mid-rotation (final record
/// duplicated into a fresh segment — exactly what a crash between "write
/// new segment" and "advance" leaves) must cold-start cleanly, with the
/// duplicate skipped by sequence-number idempotency, not applied twice.
#[test]
fn quarantined_replica_and_half_rotated_wal_recover() {
    let dir = tmp("halfrot");
    let tree = crash_tree();
    let dc = DurableCluster::create(&dir, &tree, ParamMode::Auto, cfg(2, 2), no_fsync()).unwrap();
    let leaf = dc.cluster().leaves()[0];
    let node = tree.path_from_root(leaf)[1];
    let keys: Vec<i64> = (0..30).map(|i| 60_000_000 + i * 11).collect();
    for &k in &keys {
        dc.update_batch(&[UpdateOp::Insert(node, k)]).unwrap();
    }
    let extra: Vec<i64> = (0..10).map(|i| 61_000_000 + i * 11).collect();
    for &k in &extra {
        dc.update_batch(&[UpdateOp::Insert(node, k)]).unwrap();
    }
    drop(dc); // unclean stop: tail lives only in the WALs

    // All high keys route to the last shard: half-rotate its WAL.
    let state_dir = shard_dir(&epoch_dir(&dir, 1), 1);
    let rotated = fault::half_rotate_last_segment(&state_dir)
        .expect("io")
        .expect("a record to duplicate");
    assert!(rotated.exists());

    let (dc2, rep) =
        DurableCluster::<i64>::cold_start(&dir, ParamMode::Auto, cfg(2, 2), no_fsync()).unwrap();
    assert!(
        rep.skipped_records >= 1,
        "duplicated record must be skipped by seq idempotency, got {rep:?}"
    );
    for &k in keys.iter().chain(&extra) {
        let ok = dc2.cluster().query_blocking(leaf, k, None).unwrap();
        let hit = ok
            .path
            .iter()
            .zip(&ok.answers)
            .any(|(n, a)| *n == node && *a == Some(k));
        assert!(hit, "key {k} lost across quarantine + half rotation");
    }
    dc2.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Every snapshot of one shard corrupted: cold start must refuse with a
/// typed error — never serve a cluster missing a shard's data.
#[test]
fn all_snapshots_corrupt_is_a_typed_refusal() {
    let dir = tmp("allcorrupt");
    let tree = crash_tree();
    let dc = DurableCluster::create(&dir, &tree, ParamMode::Auto, cfg(2, 1), no_fsync()).unwrap();
    dc.checkpoint().unwrap();
    drop(dc);
    let sdir = shard_dir(&epoch_dir(&dir, 1), 0);
    let snaps = fault::snapshot_files(&sdir).unwrap();
    assert!(!snaps.is_empty());
    for snap in snaps {
        fault::flip_byte(&snap, 40, 0xFF).unwrap();
    }
    let res = DurableCluster::<i64>::cold_start(&dir, ParamMode::Auto, cfg(2, 1), no_fsync());
    // With every candidate corrupt, the newest snapshot's typed error
    // propagates (checksum here; the flip is inside the CRC'd header).
    match res {
        Err(StoreError::ChecksumMismatch { .. }) => {}
        Err(e) => panic!("wrong error class for corrupt snapshots: {e}"),
        Ok(_) => panic!("corrupt snapshots must be a typed refusal, not a served cluster"),
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A WAL segment deleted from the middle of a shard's log: replay must
/// refuse with `MissingSegment` — applying around a hole would serve a
/// silently wrong history.
#[test]
fn missing_middle_segment_is_typed() {
    let dir = tmp("gap");
    let tree = crash_tree();
    // Tiny segments force many rotations.
    let store_cfg = StoreConfig {
        segment_bytes: 128,
        fsync: false,
        keep_snapshots: 2,
    };
    let dc = DurableCluster::create(&dir, &tree, ParamMode::Auto, cfg(2, 1), store_cfg).unwrap();
    let leaf = dc.cluster().leaves()[0];
    let node = tree.path_from_root(leaf)[1];
    for i in 0..40i64 {
        dc.update_batch(&[UpdateOp::Insert(node, 70_000_000 + i)])
            .unwrap();
    }
    drop(dc);
    let sdir = shard_dir(&epoch_dir(&dir, 1), 1);
    let segs = fault::wal_segments(&sdir).unwrap();
    assert!(segs.len() >= 3, "need a middle segment, got {}", segs.len());
    fs::remove_file(&segs[1]).unwrap();
    let res = DurableCluster::<i64>::cold_start(&dir, ParamMode::Auto, cfg(2, 1), store_cfg);
    assert!(
        matches!(res, Err(StoreError::MissingSegment { .. })),
        "a WAL hole must be a typed refusal"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Each shard's newest valid snapshot's logical generation, in shard order.
fn newest_generations(dir: &std::path::Path, epoch: u64, shards: usize) -> Vec<u64> {
    (0..shards)
        .map(|shard| {
            let (_, data, _) = load_newest_valid::<i64>(&shard_dir(&epoch_dir(dir, epoch), shard))
                .expect("a valid snapshot");
            data.logical_gen
        })
        .collect()
}

/// One acked insert of a fresh key into each shard of a 2-shard cluster,
/// so each shard publishes one new generation.
fn insert_into_both_shards(dc: &DurableCluster<i64>, node: NodeId, round: i64) {
    let keys = [-1 - round, 90_000_000 + round];
    let state = dc.cluster().state();
    let owners: Vec<usize> = keys.iter().map(|k| state.table.shard_of(k)).collect();
    assert_eq!(owners, vec![0, 1], "one key per shard");
    for k in keys {
        dc.update_batch(&[UpdateOp::Insert(node, k)]).unwrap();
    }
}

/// The logical generation a shard persists only moves forward, across a
/// cold start too: recovery resumes from the snapshot's generation, and
/// the restarted replicas count on from the recovered one.
#[test]
fn logical_generation_increases_across_cold_start() {
    let dir = tmp("generation");
    let tree = crash_tree();
    let node = tree.root();
    let dc = DurableCluster::create(&dir, &tree, ParamMode::Auto, cfg(2, 2), no_fsync()).unwrap();
    for round in 0..3 {
        insert_into_both_shards(&dc, node, round);
        dc.checkpoint().unwrap();
    }
    let before = newest_generations(&dir, 1, 2);
    assert_eq!(
        before,
        vec![3, 3],
        "three acked batches per shard, one generation each"
    );
    dc.shutdown();

    let (dc, _) =
        DurableCluster::<i64>::cold_start(&dir, ParamMode::Auto, cfg(2, 2), no_fsync()).unwrap();
    let recovered = newest_generations(&dir, 1, 2);
    insert_into_both_shards(&dc, node, 3);
    dc.checkpoint().unwrap();
    let after = newest_generations(&dir, 1, 2);
    for shard in 0..2 {
        assert!(
            before[shard] < recovered[shard] && recovered[shard] < after[shard],
            "shard {shard}: logical generation went {} -> {} -> {}",
            before[shard],
            recovered[shard],
            after[shard]
        );
    }
    dc.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// A checkpoint's snapshots watermark the whole log, its rebuild markers
/// included: a cold start right after it replays nothing.
#[test]
fn cold_start_after_checkpoint_replays_nothing() {
    let dir = tmp("checkpointed");
    let tree = crash_tree();
    let dc = DurableCluster::create(&dir, &tree, ParamMode::Auto, cfg(2, 1), no_fsync()).unwrap();
    let leaf = dc.cluster().leaves()[0];
    let node = tree.path_from_root(leaf)[1];
    for k in 0..20 {
        dc.update_batch(&[UpdateOp::Insert(node, 50_000_000 + k)])
            .unwrap();
    }
    dc.checkpoint().unwrap();
    dc.shutdown();
    let (dc, rep) =
        DurableCluster::<i64>::cold_start(&dir, ParamMode::Auto, cfg(2, 1), no_fsync()).unwrap();
    assert_eq!(
        rep.replayed_records, 0,
        "the checkpoint covered every record"
    );
    assert_eq!(rep.rebuild_markers, 0, "and every rebuild marker");
    for k in 0..20 {
        let ok = dc
            .cluster()
            .query_blocking(leaf, 50_000_000 + k, None)
            .unwrap();
        assert_eq!(ok.answers[1], Some(50_000_000 + k), "checkpointed key {k}");
    }
    dc.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// A rebuild marker logged after the newest snapshot, as logs written
/// before checkpoints stopped logging markers may hold, replays as
/// provenance, not as an error.
#[test]
fn uncovered_rebuild_marker_replays_as_provenance() {
    let dir = tmp("marker");
    let tree = crash_tree();
    let dc = DurableCluster::create(&dir, &tree, ParamMode::Auto, cfg(2, 1), no_fsync()).unwrap();
    dc.checkpoint().unwrap();
    dc.shutdown();
    fault::append_legacy_marker::<i64>(&shard_dir(&epoch_dir(&dir, 1), 0), 99).unwrap();
    let (dc, rep) = DurableCluster::<i64>::cold_start(&dir, ParamMode::Auto, cfg(2, 1), no_fsync())
        .unwrap_or_else(|e| panic!("an uncovered marker must not refuse the cold start: {e}"));
    assert_eq!(rep.rebuild_markers, 1);
    assert_eq!(rep.replayed_ops, 0, "a marker carries no ops");
    dc.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
