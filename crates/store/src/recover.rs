//! Crash recovery: newest valid snapshot + WAL replay + audit, or a typed
//! refusal.
//!
//! The recovery state machine (documented in DESIGN.md §12):
//!
//! 1. **Load** the newest snapshot that validates end to end
//!    ([`crate::snapshot::load_newest_valid`]); corrupt newer candidates
//!    are skipped and counted.
//! 2. **Replay** every WAL record above the snapshot's watermark into a
//!    fresh [`DynamicCoop`], in sequence order, with torn-tail truncation
//!    and duplicate skipping ([`crate::wal::replay`]). Each op is
//!    pre-validated against the recovered tree — `DynamicCoop`'s buffer
//!    paths index by node id and debug-assert keys below the supremum, so
//!    an out-of-range op surfaces as [`StoreError::InvalidOp`] instead of
//!    a panic.
//! 3. **Rebuild + audit**: drain the buffers with a forced global rebuild
//!    — the one preprocessing of recovery, since the snapshot's tree is
//!    loaded as a deferred structure whose derived data replay never
//!    needs — then run the buffer audit and the structural blame audit
//!    from `fc-resilience`. Any dirt is a typed
//!    [`StoreError::RecoveryAudit`] — the store never serves a structure
//!    it cannot prove clean. A clean result hands back the audited
//!    structure itself ([`Recovered::structure`]), so a caller serves
//!    exactly what was audited instead of preprocessing its own copy.
//!
//! This file is in the `cargo xtask lint` panic-free/index-free scope up
//! to its tests.

use crate::codec::KeyCodec;
use crate::error::StoreError;
use crate::snapshot;
use crate::wal;
use fc_catalog::CatalogKey;
use fc_coop::dynamic::{DynamicCoop, UpdateOp};
use fc_coop::{CoopStructure, ParamMode};
use fc_pram::{Model, Pram};
use std::path::Path;
use std::sync::Arc;

/// Processor count for the replay-time rebuild PRAM; recovery is offline,
/// so this only shapes the simulated schedule, not wall-clock work.
const REPLAY_PROCS: usize = 1 << 10;

/// A successful recovery: the audited-clean structure plus provenance
/// counters for observability (and the recovery-time benchmark).
#[derive(Debug, Clone)]
pub struct Recovered<K: CatalogKey> {
    /// The recovered structure (preprocessed with [`ParamMode::Auto`]),
    /// drained and audit-clean; its `tree()` is the recovered catalog
    /// tree.
    pub structure: Arc<CoopStructure<K>>,
    /// Logical generation of [`Recovered::structure`]: the snapshot's
    /// generation plus one per rebuild recovery ran.
    pub generation: u64,
    /// Id of the snapshot recovery started from.
    pub snapshot_id: u64,
    /// That snapshot's WAL watermark.
    pub wal_watermark: u64,
    /// Highest WAL sequence number reflected in [`Recovered::structure`].
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
    /// Rebuild (epoch-cut) markers replayed above the watermark. Markers
    /// are advisory provenance — the final forced rebuild subsumes them —
    /// but a nonzero count means the producer died between cutting an
    /// epoch and persisting its snapshot.
    pub rebuild_markers: u64,
}

/// Recover the store in `dir` to an audited-clean structure, or refuse
/// with a typed error (see the module docs for the state machine).
pub fn recover<K: CatalogKey + KeyCodec>(dir: &Path) -> Result<Recovered<K>, StoreError> {
    let (snapshot_id, data, snapshots_skipped) = snapshot::load_newest_valid::<K>(dir)?;
    let wal_watermark = data.wal_watermark;
    let node_count = data.tree.len() as u32;
    // An infinite rebuild fraction defers every rebuild to the explicit
    // force_rebuild below, so replay cost is one rebuild, not one per
    // buffered fraction — the WAL-vs-rebuild trade DESIGN.md §12 discusses.
    // Replay reads only the native catalogs, so the snapshot's structure
    // stays deferred and recovery preprocesses once.
    let st = Arc::new(CoopStructure::deferred(data.tree, ParamMode::Auto));
    let mut dy = DynamicCoop::wrap(st, data.logical_gen, ParamMode::Auto, f64::INFINITY);
    let mut pram = Pram::new(REPLAY_PROCS, Model::Crew);
    let stats = wal::replay::<K, _>(dir, wal_watermark, |seq, entry| {
        let ops = match entry {
            wal::WalEntry::Ops(ops) => ops,
            // Advisory epoch-cut provenance: nothing to apply (the final
            // forced rebuild below subsumes any mid-log compaction).
            wal::WalEntry::RebuildMarker { .. } => return Ok(()),
        };
        for op in ops {
            let (node, key) = match op {
                UpdateOp::Insert(n, k) => (n, k),
                UpdateOp::Remove(n, k) => (n, k),
            };
            if node.0 >= node_count {
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
        dy.apply_batch(ops, &mut pram);
        Ok(())
    })?;

    let buffer_blames = match dy.audit_buffers() {
        Ok(()) => 0,
        Err(blames) => blames.len(),
    };
    dy.force_rebuild(&mut pram);
    let gen_stats = dy.gen_stats();
    let report = fc_resilience::audit(dy.structure());
    let findings = report.findings.len();
    if findings > 0 || buffer_blames > 0 || gen_stats.audit_failures > 0 {
        return Err(StoreError::RecoveryAudit {
            findings,
            buffer_blames,
            rebuild_failures: gen_stats.audit_failures,
        });
    }
    Ok(Recovered {
        structure: Arc::clone(dy.structure()),
        generation: gen_stats.generation,
        snapshot_id,
        wal_watermark,
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
    use fc_catalog::{CatalogTree, NodeId};
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

    /// Oracle: the same ops applied in-memory, no disk in the loop.
    fn oracle(t: &CatalogTree<i64>, batches: &[Vec<UpdateOp<i64>>]) -> CatalogTree<i64> {
        let mut dy = DynamicCoop::new(t.clone(), ParamMode::Auto, f64::INFINITY);
        let mut pram = Pram::new(64, Model::Crew);
        for b in batches {
            dy.apply_batch(b, &mut pram);
        }
        dy.force_rebuild(&mut pram);
        dy.structure().tree().clone()
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
        assert!(
            trees_equal(rec.structure.tree(), &oracle(&t, &bs)),
            "replay == oracle"
        );
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
        assert_eq!(rec.generation, 2, "snapshot generation 1 plus one rebuild");
        assert!(trees_equal(rec.structure.tree(), &oracle(&t, &bs)));
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
