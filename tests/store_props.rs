//! Property tests for the fc-store on-disk formats (registered under
//! fc-store in `crates/store/Cargo.toml`).
//!
//! Two families, per the durability contract:
//!
//! * **Snapshot round trip** — across arbitrary tree shapes and catalog
//!   sizes, write → read must reproduce a bit-identical re-encoding and a
//!   generation the `fc-resilience` blame audit calls clean.
//! * **WAL torn tail** — truncating the log at *every byte offset* of the
//!   final record must recover exactly the previous records, typed stats
//!   reporting the truncation; no offset may panic or mis-apply.
//!
//! A third property pins the writer a cold start resumes:
//! `Store::recover` must position it exactly as `Store::open`'s rescan
//! does, across every store shape recovery accepts.

use fc_catalog::gen::{self, SizeDist};
use fc_catalog::{CatalogTree, NodeId, UpdateOp};
use fc_coop::{CoopStructure, ParamMode};
use fc_store::{fault, snapshot, wal, Recovered, Store, StoreConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fc-store-props-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn trees_equal(a: &CatalogTree<i64>, b: &CatalogTree<i64>) -> bool {
    a.len() == b.len()
        && a.ids()
            .all(|id| a.parent(id) == b.parent(id) && a.catalog(id) == b.catalog(id))
}

/// Snapshot round trip over a grid of shapes × sizes: decoded tree equals
/// the original, the re-encoding is bit-identical, and the preprocessed
/// structure audits clean.
#[test]
fn snapshot_round_trip_arbitrary_shapes() {
    let dir = tmp("shapes");
    let mut rng = SmallRng::seed_from_u64(0x5AFE_57A7E);
    let mut id = 0u64;
    for total in [1usize, 17, 300, 2_000] {
        let shapes: Vec<(&str, CatalogTree<i64>)> = vec![
            (
                "balanced",
                gen::balanced_binary(4, total, SizeDist::Uniform, &mut rng),
            ),
            (
                "heavy",
                gen::balanced_binary(3, total, SizeDist::SingleHeavy(0.7), &mut rng),
            ),
            ("path", gen::path(9, total, SizeDist::Uniform, &mut rng)),
            ("caterpillar", gen::caterpillar(7, total, &mut rng)),
            ("complete", gen::dary(2, 4, total, &mut rng)),
        ];
        for (shape, t) in shapes {
            id += 1;
            let path = snapshot::write_snapshot_file(&dir, id, &t, id, id * 10, false)
                .unwrap_or_else(|e| panic!("{shape}/{total}: write failed: {e}"));
            let bytes = fs::read(&path).unwrap();
            let data = snapshot::read_snapshot_file::<i64>(&path)
                .unwrap_or_else(|e| panic!("{shape}/{total}: read failed: {e}"));
            assert!(
                trees_equal(&t, &data.tree),
                "{shape}/{total}: decoded tree differs"
            );
            assert_eq!(
                bytes,
                snapshot::encode_snapshot(&data.tree, id, id * 10),
                "{shape}/{total}: re-encoding not bit-identical"
            );
            assert_eq!((data.logical_gen, data.wal_watermark), (id, id * 10));
            // The recovered tree must be servable: preprocess + blame audit.
            let st = CoopStructure::preprocess(data.tree, ParamMode::Auto);
            let report = fc_resilience::audit(&st);
            assert!(
                report.is_clean(),
                "{shape}/{total}: recovered tree audits dirty: {:?}",
                report.findings
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Truncate the WAL at every byte offset inside the final record's frame;
/// every offset must yield exactly the first k−1 records, report the torn
/// bytes, and never error or panic.
#[test]
fn wal_torn_tail_truncates_at_every_offset() {
    let master = tmp("torn-master");
    {
        let store = fc_store::Store::<i64>::open(
            &master,
            fc_store::StoreConfig {
                fsync: false,
                ..fc_store::StoreConfig::default()
            },
        )
        .unwrap();
        for i in 0..4i64 {
            store
                .append_batch(&[
                    UpdateOp::Insert(NodeId(0), 10 * i),
                    UpdateOp::Remove(NodeId(0), 10 * i + 1),
                ])
                .unwrap();
        }
    }
    let seg_name = fault::wal_segments(&master)
        .unwrap()
        .pop()
        .unwrap()
        .file_name()
        .unwrap()
        .to_owned();
    let full = fs::read(master.join(&seg_name)).unwrap();
    // Walk the length-prefixed frames (past the 28-byte segment header) to
    // find where the final record's frame starts.
    let mut pos = 28usize;
    let mut frame_start = pos;
    while pos < full.len() {
        frame_start = pos;
        let len = u32::from_le_bytes(full[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4 + len + 4;
    }
    assert_eq!(pos, full.len(), "clean segment parses exactly");
    assert!(frame_start > 28, "more than one frame in the segment");
    // Now the property: every truncation offset within the final frame
    // recovers exactly records 1..=3 and reports the torn bytes.
    for cut in frame_start..full.len() {
        let dir = tmp("torn-cut");
        fs::write(dir.join(&seg_name), &full[..cut]).unwrap();
        let mut seqs = Vec::new();
        let stats = wal::replay::<i64, _>(&dir, 0, |seq, _| {
            seqs.push(seq);
            Ok(())
        })
        .unwrap_or_else(|e| panic!("cut at {cut}: replay errored: {e}"));
        assert_eq!(seqs, vec![1, 2, 3], "cut at {cut}");
        assert_eq!(
            stats.truncated_bytes,
            (cut - frame_start) as u64,
            "cut at {cut}: truncation accounting"
        );
        assert_eq!(stats.last_seq, 3, "cut at {cut}");
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&master);
}

/// Random op batches persisted through the WAL replay to the same state as
/// applying them directly, for a spread of batch shapes and seeds.
#[test]
fn wal_replay_matches_direct_application() {
    for seed in 0..5u64 {
        let dir = tmp(&format!("replay-{seed}"));
        let mut rng = SmallRng::seed_from_u64(seed);
        let store = fc_store::Store::<i64>::open(
            &dir,
            fc_store::StoreConfig {
                segment_bytes: 128, // force rotations mid-stream
                fsync: false,
                keep_snapshots: 2,
            },
        )
        .unwrap();
        let mut direct: Vec<(u64, Vec<UpdateOp<i64>>)> = Vec::new();
        for seq in 1..=40u64 {
            let n = rng.gen_range(1..5);
            let ops: Vec<UpdateOp<i64>> = (0..n)
                .map(|_| {
                    let node = NodeId(rng.gen_range(0..8));
                    let key = rng.gen_range(-1000..1000);
                    if rng.gen_bool(0.5) {
                        UpdateOp::Insert(node, key)
                    } else {
                        UpdateOp::Remove(node, key)
                    }
                })
                .collect();
            assert_eq!(store.append_batch(&ops).unwrap(), seq);
            direct.push((seq, ops));
        }
        drop(store);
        let mut replayed: Vec<(u64, Vec<UpdateOp<i64>>)> = Vec::new();
        let stats = wal::replay::<i64, _>(&dir, 0, |seq, entry| {
            if let wal::WalEntry::Ops(ops) = entry {
                replayed.push((seq, ops.clone()));
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(replayed, direct, "seed {seed}");
        assert!(stats.segments > 1, "seed {seed}: rotation exercised");
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Copy every file of `from` into a fresh directory `to`.
fn copy_store(from: &Path, to: &Path) {
    let _ = fs::remove_dir_all(to);
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// `Store::recover` positions the writer exactly as `Store::open` does:
/// for each store shape recovery accepts, two copies of one directory,
/// one opened each way, agree on the last sequence number, on what
/// `prune` deletes (the snapshot watermark), on the next append's
/// sequence number and on the next snapshot's id.
#[test]
fn store_recover_positions_the_writer_like_open() {
    let cfg = StoreConfig {
        segment_bytes: 96, // rotate every record or two
        fsync: false,
        keep_snapshots: 2,
    };
    let mut rng = SmallRng::seed_from_u64(0x0C01D);
    let tree = gen::balanced_binary(4, 300, SizeDist::Uniform, &mut rng);
    let op = |i: i64| [UpdateOp::Insert(NodeId((i % 15) as u32), 1_000_000 + i)];
    let write = |dir: &Path, n: i64, snapshot_at: Option<i64>| {
        let store = Store::<i64>::open(dir, cfg).unwrap();
        store.persist_snapshot(&tree, 0).unwrap();
        for i in 0..n {
            if snapshot_at == Some(i) {
                store.persist_snapshot(&tree, 1).unwrap();
            }
            store.append_batch(&op(i)).unwrap();
        }
        store
    };
    // (name, build the directory, what recovery must report for it)
    type Shape<'a> = (
        &'static str,
        Box<dyn Fn(&Path) + 'a>,
        fn(&Recovered<i64>) -> bool,
    );
    let shapes: Vec<Shape<'_>> = vec![
        (
            "clean stop",
            Box::new(|dir| {
                write(dir, 6, None);
            }),
            |r| r.last_seq == 6 && r.truncated_bytes == 0,
        ),
        (
            "torn tail",
            Box::new(|dir| {
                write(dir, 5, None);
                let last = fault::wal_segments(dir).unwrap().pop().unwrap();
                fault::truncate_tail(&last, 3).unwrap();
            }),
            |r| r.last_seq == 4 && r.truncated_bytes > 0,
        ),
        (
            "header-only last segment",
            Box::new(|dir| {
                write(dir, 5, None);
                let last = fault::wal_segments(dir).unwrap().pop().unwrap();
                let len = fs::metadata(&last).unwrap().len();
                fault::truncate_tail(&last, len - 28).unwrap();
            }),
            |r| r.last_seq == 3 && r.truncated_bytes == 0,
        ),
        (
            "corrupt newest snapshot",
            Box::new(|dir| {
                write(dir, 6, Some(3));
                let newest = fault::snapshot_files(dir).unwrap().remove(0);
                fault::flip_byte(&newest, 60, 0x40).unwrap();
            }),
            |r| r.snapshots_skipped == 1 && r.snapshot_id == 1 && r.last_seq == 6,
        ),
        (
            "rotated and pruned segments",
            Box::new(|dir| {
                let store = write(dir, 8, Some(5));
                let (_, segments) = store.prune().unwrap();
                assert!(segments > 0, "the shape prunes a segment");
                // Segments the newest snapshot covers, left for the
                // reopened store's prune.
                for i in 8..13 {
                    if i == 11 {
                        store.persist_snapshot(&tree, 2).unwrap();
                    }
                    store.append_batch(&op(i)).unwrap();
                }
            }),
            |r| r.wal_watermark == 11 && r.last_seq == 13,
        ),
        (
            "legacy marker above the watermark",
            Box::new(|dir| {
                write(dir, 4, None);
                assert_eq!(fault::append_legacy_marker::<i64>(dir, 7).unwrap(), 5);
            }),
            |r| r.rebuild_markers == 1 && r.last_seq == 5,
        ),
    ];
    for (shape, build, signature) in &shapes {
        let master = tmp("positions-master");
        build(&master);
        let (opened_dir, recovered_dir) = (tmp("positions-open"), tmp("positions-recover"));
        copy_store(&master, &opened_dir);
        copy_store(&master, &recovered_dir);
        let opened = Store::<i64>::open(&opened_dir, cfg).unwrap();
        let (recovered, rec) = Store::<i64>::recover(&recovered_dir, cfg)
            .unwrap_or_else(|e| panic!("{shape}: recovery refused: {e}"));
        assert!(signature(&rec), "{shape}: not the intended shape: {rec:?}");
        assert_eq!(recovered.last_seq(), rec.last_seq, "{shape}");
        assert_eq!(opened.last_seq(), recovered.last_seq(), "{shape}: last_seq");
        assert_eq!(
            opened.prune().unwrap(),
            recovered.prune().unwrap(),
            "{shape}: prune watermark"
        );
        assert_eq!(
            fault::wal_segments(&opened_dir).unwrap().len(),
            fault::wal_segments(&recovered_dir).unwrap().len(),
            "{shape}: segments kept"
        );
        let next = op(100);
        assert_eq!(
            opened.append_batch(&next).unwrap(),
            recovered.append_batch(&next).unwrap(),
            "{shape}: next append"
        );
        assert_eq!(
            opened.persist_snapshot(&rec.tree, 9).unwrap(),
            recovered.persist_snapshot(&rec.tree, 9).unwrap(),
            "{shape}: next snapshot id"
        );
        for dir in [&master, &opened_dir, &recovered_dir] {
            let _ = fs::remove_dir_all(dir);
        }
    }
}
