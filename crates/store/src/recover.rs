//! Crash recovery: newest valid snapshot + WAL replay through the
//! writer's own `apply_batch`, or a typed refusal.
//!
//! The recovery state machine (documented in DESIGN.md §12):
//!
//! 1. **Load** the newest snapshot that validates end to end
//!    ([`crate::snapshot::load_newest_valid`]); corrupt newer candidates
//!    are skipped and counted.
//! 2. **Replay** every WAL record above the snapshot's watermark, in
//!    sequence order, with torn-tail truncation and duplicate skipping
//!    ([`crate::wal::replay`]). Each op is validated against the
//!    snapshot's tree — [`CatalogTree::apply_batch`] panics on a node
//!    outside the tree and debug-asserts keys below the supremum — so an
//!    inapplicable op is a typed [`StoreError::InvalidOp`], not a panic.
//! 3. **Apply** every replayed op with one [`CatalogTree::apply_batch`],
//!    the function that published those writes live. It keeps the last op
//!    on each (node, key), so one call over the concatenated records
//!    equals applying them one by one, and copies the catalogs once
//!    instead of once per record.
//!
//! Nothing is left to audit: the snapshot decoder validates the tree with
//! typed errors, every WAL record is CRC-checked, and every op is
//! validated before it is applied.
//!
//! This file is in the `cargo xtask lint` panic-free/index-free scope up
//! to its tests.

use crate::codec::KeyCodec;
use crate::error::StoreError;
use crate::snapshot;
use crate::wal::{self, WalEntry};
use fc_catalog::{CatalogKey, CatalogTree, UpdateOp};
use std::path::Path;

/// A successful recovery: the recovered catalogs plus provenance counters
/// for observability (and the recovery-time benchmark).
#[derive(Debug, Clone)]
pub struct Recovered<K: CatalogKey> {
    /// The recovered catalog tree: the snapshot's with every replayed op
    /// applied.
    pub tree: CatalogTree<K>,
    /// Logical generation of [`Recovered::tree`]: the snapshot's
    /// generation plus one, the generation recovery publishes.
    pub generation: u64,
    /// Id of the snapshot recovery started from.
    pub snapshot_id: u64,
    /// That snapshot's WAL watermark.
    pub wal_watermark: u64,
    /// Highest WAL sequence number reflected in [`Recovered::tree`].
    pub last_seq: u64,
    /// WAL records replayed.
    pub replayed_records: u64,
    /// Ops inside those records.
    pub replayed_ops: u64,
    /// Records skipped as already applied (watermark or duplicates).
    pub skipped_records: u64,
    /// Torn-tail bytes truncated during replay.
    pub truncated_bytes: u64,
    /// Corrupt newer snapshots that were skipped to find a valid one.
    pub snapshots_skipped: usize,
    /// Rebuild (epoch-cut) markers replayed above the watermark. Logs
    /// written before checkpoints stopped logging them may still hold
    /// some; they carry no ops, so recovery only counts them.
    pub rebuild_markers: u64,
}

/// Recover the store in `dir`, or refuse with a typed error (see the
/// module docs for the state machine).
pub fn recover<K: CatalogKey + KeyCodec>(dir: &Path) -> Result<Recovered<K>, StoreError> {
    let (snapshot_id, data, snapshots_skipped) = snapshot::load_newest_valid::<K>(dir)?;
    let node_count = data.tree.len();
    let mut ops: Vec<UpdateOp<K>> = Vec::new();
    let stats = wal::replay::<K, _>(dir, data.wal_watermark, |seq, entry| {
        let WalEntry::Ops(record) = entry else {
            // A legacy rebuild marker: provenance only, nothing to apply.
            return Ok(());
        };
        for op in record {
            let (UpdateOp::Insert(node, key) | UpdateOp::Remove(node, key)) = op;
            if node.idx() >= node_count {
                return Err(StoreError::InvalidOp {
                    seq,
                    reason: "op names a node outside the recovered tree",
                });
            }
            if *key >= K::SUPREMUM {
                return Err(StoreError::InvalidOp {
                    seq,
                    reason: "op stores the supremum key",
                });
            }
        }
        ops.extend_from_slice(record);
        Ok(())
    })?;
    let tree = if ops.is_empty() {
        data.tree
    } else {
        data.tree.apply_batch(&ops).0
    };
    Ok(Recovered {
        tree,
        generation: data.logical_gen.saturating_add(1),
        snapshot_id,
        wal_watermark: data.wal_watermark,
        last_seq: stats.last_seq,
        replayed_records: stats.records_applied,
        replayed_ops: stats.ops_applied,
        skipped_records: stats.records_skipped,
        truncated_bytes: stats.truncated_bytes,
        snapshots_skipped,
        rebuild_markers: stats.markers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Store, StoreConfig};
    use fc_catalog::gen::{self, SizeDist};
    use fc_catalog::NodeId;
    use fc_coop::dynamic::DynamicCoop;
    use fc_coop::ParamMode;
    use fc_pram::{Model, Pram};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::fs;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fc-store-rec-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tree(seed: u64) -> CatalogTree<i64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        gen::balanced_binary(4, 400, SizeDist::Uniform, &mut rng)
    }

    fn no_fsync() -> StoreConfig {
        StoreConfig {
            fsync: false,
            ..StoreConfig::default()
        }
    }

    /// Oracle: the same ops applied in-memory by the buffered
    /// `DynamicCoop` and a forced rebuild, no disk in the loop.
    fn oracle(t: &CatalogTree<i64>, batches: &[Vec<UpdateOp<i64>>]) -> CatalogTree<i64> {
        let mut dy = DynamicCoop::new(t.clone(), ParamMode::Auto, f64::INFINITY);
        let mut pram = Pram::new(64, Model::Crew);
        for b in batches {
            dy.apply_batch(b, &mut pram);
        }
        dy.force_rebuild(&mut pram);
        dy.structure().tree().clone()
    }

    /// The live writer's order: one `apply_batch` per record.
    fn per_record(t: &CatalogTree<i64>, batches: &[Vec<UpdateOp<i64>>]) -> CatalogTree<i64> {
        batches
            .iter()
            .fold(t.clone(), |tree, b| tree.apply_batch(b).0)
    }

    fn batches(t: &CatalogTree<i64>, n: usize) -> Vec<Vec<UpdateOp<i64>>> {
        let nodes = t.len() as u32;
        (0..n)
            .map(|i| {
                let node = NodeId((i as u32 * 7) % nodes);
                vec![
                    UpdateOp::Insert(node, 1_000_000 + i as i64 * 3),
                    UpdateOp::Insert(node, 1_000_001 + i as i64 * 3),
                    UpdateOp::Remove(node, 1_000_000 + i as i64 * 3),
                ]
            })
            .collect()
    }

    fn trees_equal(a: &CatalogTree<i64>, b: &CatalogTree<i64>) -> bool {
        a.len() == b.len()
            && a.ids()
                .all(|id| a.parent(id) == b.parent(id) && a.catalog(id) == b.catalog(id))
    }

    #[test]
    fn snapshot_plus_wal_replay_matches_oracle() {
        let dir = tmp("oracle");
        let t = tree(21);
        let bs = batches(&t, 12);
        let store = Store::<i64>::open(&dir, no_fsync()).unwrap();
        store.persist_snapshot(&t, 0).unwrap();
        for b in &bs {
            store.append_batch(b).unwrap();
        }
        drop(store);
        let rec = recover::<i64>(&dir).unwrap();
        assert_eq!(rec.replayed_records, 12);
        assert_eq!(rec.replayed_ops, 36);
        assert_eq!(rec.last_seq, 12);
        assert!(trees_equal(&rec.tree, &oracle(&t, &bs)), "replay == oracle");
        assert!(trees_equal(&rec.tree, &per_record(&t, &bs)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn watermarked_snapshot_halves_the_replay() {
        let dir = tmp("watermark");
        let t = tree(23);
        let bs = batches(&t, 10);
        let store = Store::<i64>::open(&dir, no_fsync()).unwrap();
        store.persist_snapshot(&t, 0).unwrap();
        for b in &bs[..5] {
            store.append_batch(b).unwrap();
        }
        // Mid-stream snapshot of the oracle state at batch 5.
        let mid = oracle(&t, &bs[..5]);
        store.persist_snapshot(&mid, 1).unwrap();
        for b in &bs[5..] {
            store.append_batch(b).unwrap();
        }
        drop(store);
        let rec = recover::<i64>(&dir).unwrap();
        assert_eq!(rec.wal_watermark, 5);
        assert_eq!(rec.replayed_records, 5, "only post-watermark records");
        assert_eq!(rec.generation, 2, "snapshot generation 1 plus one publish");
        assert!(trees_equal(&rec.tree, &oracle(&t, &bs)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_range_node_is_invalid_op_not_panic() {
        let dir = tmp("badnode");
        let t = tree(25);
        let store = Store::<i64>::open(&dir, no_fsync()).unwrap();
        store.persist_snapshot(&t, 0).unwrap();
        // A record that decodes fine but names a node the tree lacks.
        store
            .append_batch(&[UpdateOp::Insert(NodeId(t.len() as u32 + 50), 7)])
            .unwrap();
        drop(store);
        let err = recover::<i64>(&dir).unwrap_err();
        assert!(matches!(err, StoreError::InvalidOp { seq: 1, .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);

        // A valid record, then one that stores the supremum sentinel.
        let dir = tmp("supremum");
        let store = Store::<i64>::open(&dir, no_fsync()).unwrap();
        store.persist_snapshot(&t, 0).unwrap();
        store
            .append_batch(&[UpdateOp::Insert(NodeId(0), 7)])
            .unwrap();
        store
            .append_batch(&[UpdateOp::Insert(NodeId(1), i64::SUPREMUM)])
            .unwrap();
        drop(store);
        let err = recover::<i64>(&dir).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::InvalidOp {
                    seq: 2,
                    reason: "op stores the supremum key"
                }
            ),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Keys touched in several records: recovery's one apply keeps the
    /// log's order. After a mid-stream snapshot, `fresh` is inserted,
    /// removed and re-inserted and `brief` inserted and removed; `old`, a
    /// key of the tree, is removed before the snapshot and re-inserted
    /// after it, and `gone` the other way round.
    #[test]
    fn one_apply_keeps_the_log_order() {
        let dir = tmp("order");
        let t = tree(27);
        let node = NodeId(3);
        let old = t.catalog(node)[0];
        let (fresh, brief, gone) = (2_000_000, 2_000_001, 2_000_002);
        let ins = |k| vec![UpdateOp::Insert(node, k)];
        let rem = |k| vec![UpdateOp::Remove(node, k)];
        let before = vec![rem(old), ins(gone)];
        let after = vec![
            ins(fresh),
            ins(old),
            ins(brief),
            rem(fresh),
            rem(gone),
            ins(fresh),
            rem(brief),
        ];
        let store = Store::<i64>::open(&dir, no_fsync()).unwrap();
        store.persist_snapshot(&t, 0).unwrap();
        for b in &before {
            store.append_batch(b).unwrap();
        }
        store.persist_snapshot(&per_record(&t, &before), 2).unwrap();
        for b in &after {
            store.append_batch(b).unwrap();
        }
        drop(store);
        let rec = recover::<i64>(&dir).unwrap();
        assert_eq!(rec.wal_watermark, 2);
        assert_eq!(rec.replayed_records, 7, "only post-watermark records");
        let all: Vec<_> = before.iter().chain(&after).cloned().collect();
        assert!(trees_equal(&rec.tree, &oracle(&t, &all)), "== DynamicCoop");
        assert!(
            trees_equal(&rec.tree, &per_record(&t, &all)),
            "== per record"
        );
        let cat = rec.tree.catalog(node);
        assert!(cat.contains(&old) && cat.contains(&fresh));
        assert!(!cat.contains(&brief) && !cat.contains(&gone));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_snapshot_is_typed() {
        let dir = tmp("nosnap");
        assert!(matches!(
            recover::<i64>(&dir).unwrap_err(),
            StoreError::NoSnapshot { .. }
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
