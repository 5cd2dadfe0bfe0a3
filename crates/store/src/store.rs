//! The [`Store`]: one directory holding snapshots + WAL for one catalog
//! tree, with an append/persist/prune API the serving layers wrap.
//!
//! A store directory contains `snap-<id>.fcs` files (newest-id wins) and
//! `wal-<start_seq>.fcw` segments. The writer needs three positions: the
//! next snapshot id, the next WAL sequence number and the newest
//! snapshot's watermark. [`Store::open`] learns them by scanning both
//! file kinds — replaying the log headers/frames without applying
//! anything, truncating any torn tail it finds so the writer never
//! appends onto a damaged segment. [`Store::recover`] takes them from
//! [`crate::recover()`] instead, which reads and truncates the same files
//! while it rebuilds the catalogs, so a cold start reads each store once.

use crate::codec::KeyCodec;
use crate::error::StoreError;
use crate::recover::Recovered;
use crate::snapshot;
use crate::wal::{self, WalWriter};
use fc_catalog::{CatalogKey, CatalogTree, UpdateOp};
use std::fs;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Durability knobs.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Rotate the active WAL segment once it reaches this many bytes.
    pub segment_bytes: u64,
    /// Fsync every WAL append and snapshot write. Turning this off trades
    /// crash durability for speed (tests and benchmarks only).
    pub fsync: bool,
    /// How many snapshots [`Store::prune`] keeps (at least 1).
    pub keep_snapshots: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            segment_bytes: 1 << 20,
            fsync: true,
            keep_snapshots: 2,
        }
    }
}

struct Inner {
    wal: WalWriter,
    next_snap_id: u64,
    /// Watermark of the newest snapshot persisted (or loaded at open);
    /// prune may delete WAL segments entirely at or below it.
    last_watermark: u64,
}

/// Snapshot + WAL files for one catalog tree, in one directory.
pub struct Store<K: CatalogKey + KeyCodec> {
    dir: PathBuf,
    cfg: StoreConfig,
    inner: Mutex<Inner>,
    _key: PhantomData<K>,
}

impl<K: CatalogKey + KeyCodec> Store<K> {
    /// Open (creating the directory if needed) and scan the store.
    ///
    /// The scan truncates torn WAL tails and positions the writer after
    /// the highest durable sequence number; it does **not** validate that
    /// the snapshot + log form a recoverable whole — that is
    /// [`crate::recover`]'s job.
    pub fn open(dir: &Path, cfg: StoreConfig) -> Result<Self, StoreError> {
        fs::create_dir_all(dir).map_err(|e| StoreError::io("create_dir", dir, e))?;
        let (watermark, next_snap_id) = match snapshot::load_newest_valid::<K>(dir) {
            Ok((id, data, _)) => (data.wal_watermark, id + 1),
            Err(_) => {
                // No usable snapshot: still derive the next id from the
                // files present so ids stay store-monotone.
                let next = snapshot::list_snapshot_files(dir)?
                    .first()
                    .map_or(1, |(id, _)| id + 1);
                (0, next)
            }
        };
        // Baseline the scan at whatever the oldest remaining segment can
        // cover: after pruning, segments below the snapshot watermark are
        // legitimately gone and must not read as a missing-segment gap.
        let baseline = wal::list_segments(dir)?
            .first()
            .map_or(watermark, |s| watermark.max(s.start_seq.saturating_sub(1)));
        let scan = wal::replay::<K, _>(dir, baseline, |_, _| Ok(()))?;
        let next_seq = scan.last_seq.max(watermark) + 1;
        Ok(Store::positioned(
            dir,
            cfg,
            next_seq,
            next_snap_id,
            watermark,
        ))
    }

    /// Recover the store in `dir` ([`crate::recover()`]) and open its
    /// writer where recovery left the files: the next append follows the
    /// last replayed record, the next snapshot id follows the one
    /// recovery started from, and prune's watermark is that snapshot's.
    /// These are the positions [`Store::open`]'s scan derives after a
    /// successful recovery, without reading the directory a second time.
    pub fn recover(dir: &Path, cfg: StoreConfig) -> Result<(Self, Recovered<K>), StoreError> {
        let rec = crate::recover::<K>(dir)?;
        let store = Store::positioned(
            dir,
            cfg,
            rec.last_seq + 1,
            rec.snapshot_id + 1,
            rec.wal_watermark,
        );
        Ok((store, rec))
    }

    fn positioned(
        dir: &Path,
        cfg: StoreConfig,
        next_seq: u64,
        next_snap_id: u64,
        last_watermark: u64,
    ) -> Self {
        Store {
            dir: dir.to_path_buf(),
            cfg,
            inner: Mutex::new(Inner {
                wal: WalWriter::new(dir, K::WIDTH, cfg.fsync, cfg.segment_bytes, next_seq),
                next_snap_id,
                last_watermark,
            }),
            _key: PhantomData,
        }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The active configuration.
    pub fn config(&self) -> StoreConfig {
        self.cfg
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Sequence number of the most recently appended record (0 if none).
    pub fn last_seq(&self) -> u64 {
        self.lock().wal.next_seq().saturating_sub(1)
    }

    /// Append one durable record for `ops`; returns its sequence number.
    /// With fsync enabled the record is on disk when this returns — the
    /// caller may only then apply the ops to the in-memory structure.
    pub fn append_batch(&self, ops: &[UpdateOp<K>]) -> Result<u64, StoreError> {
        // fc-lint: allow(lock-discipline) -- intentional: the WAL mutex must cover the fsynced append so records hit the log in sequence order
        self.lock().wal.append(ops)
    }

    /// Atomically persist `tree` as the next snapshot, watermarked at the
    /// last appended sequence number. Returns the snapshot id.
    pub fn persist_snapshot(
        &self,
        tree: &CatalogTree<K>,
        logical_gen: u64,
    ) -> Result<u64, StoreError> {
        let mut inner = self.lock();
        let watermark = inner.wal.next_seq().saturating_sub(1);
        let id = inner.next_snap_id;
        // fc-lint: allow(lock-discipline) -- intentional: the watermark read and the snapshot write must be atomic w.r.t. concurrent appends
        snapshot::write_snapshot_file(&self.dir, id, tree, logical_gen, watermark, self.cfg.fsync)?;
        inner.next_snap_id = id + 1;
        inner.last_watermark = watermark;
        Ok(id)
    }

    /// Delete snapshots beyond the configured retention and WAL segments
    /// wholly covered by the newest snapshot's watermark. The active (last)
    /// segment is never deleted. Returns `(snapshots, segments)` removed.
    pub fn prune(&self) -> Result<(usize, usize), StoreError> {
        let inner = self.lock();
        let keep = self.cfg.keep_snapshots.max(1);
        let snaps = snapshot::list_snapshot_files(&self.dir)?;
        let mut removed_snaps = 0;
        for (_, path) in snaps.iter().skip(keep) {
            fs::remove_file(path).map_err(|e| StoreError::io("remove", path, e))?;
            removed_snaps += 1;
        }
        let segs = wal::list_segments(&self.dir)?;
        let mut removed_segs = 0;
        // Segment i spans [segs[i].start_seq, segs[i+1].start_seq); it is
        // dead once that whole range is at or below the watermark.
        for pair in segs.windows(2) {
            if let [seg, next] = pair {
                if next.start_seq <= inner.last_watermark + 1 {
                    fs::remove_file(&seg.path)
                        .map_err(|e| StoreError::io("remove", &seg.path, e))?;
                    removed_segs += 1;
                }
            }
        }
        Ok((removed_snaps, removed_segs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_catalog::gen::{self, SizeDist};
    use fc_catalog::NodeId;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fc-store-store-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tree(seed: u64) -> CatalogTree<i64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        gen::balanced_binary(4, 300, SizeDist::Uniform, &mut rng)
    }

    fn ops(base: i64) -> Vec<UpdateOp<i64>> {
        vec![
            UpdateOp::Insert(NodeId(0), base),
            UpdateOp::Remove(NodeId(1), base),
        ]
    }

    #[test]
    fn sequence_numbers_survive_reopen() {
        let dir = tmp("reopen");
        let cfg = StoreConfig {
            fsync: false,
            ..StoreConfig::default()
        };
        {
            let store = Store::<i64>::open(&dir, cfg).unwrap();
            assert_eq!(store.append_batch(&ops(1)).unwrap(), 1);
            assert_eq!(store.append_batch(&ops(2)).unwrap(), 2);
            assert_eq!(store.last_seq(), 2);
        }
        let store = Store::<i64>::open(&dir, cfg).unwrap();
        assert_eq!(store.last_seq(), 2, "scan finds the durable tail");
        assert_eq!(store.append_batch(&ops(3)).unwrap(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_ids_stay_monotone_across_reopen() {
        let dir = tmp("monotone");
        let cfg = StoreConfig {
            fsync: false,
            ..StoreConfig::default()
        };
        let t = tree(3);
        {
            let store = Store::<i64>::open(&dir, cfg).unwrap();
            assert_eq!(store.persist_snapshot(&t, 0).unwrap(), 1);
            assert_eq!(store.persist_snapshot(&t, 1).unwrap(), 2);
        }
        let store = Store::<i64>::open(&dir, cfg).unwrap();
        assert_eq!(store.persist_snapshot(&t, 2).unwrap(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_keeps_retention_and_live_segments() {
        let dir = tmp("prune");
        let cfg = StoreConfig {
            segment_bytes: 64, // rotate roughly every record
            fsync: false,
            keep_snapshots: 2,
        };
        let store = Store::<i64>::open(&dir, cfg).unwrap();
        let t = tree(5);
        for i in 0..6 {
            store.append_batch(&ops(i)).unwrap();
            store.persist_snapshot(&t, i as u64).unwrap();
        }
        let (rs, rg) = store.prune().unwrap();
        assert_eq!(rs, 4, "6 snapshots, keep 2");
        assert!(rg >= 4, "covered segments pruned, got {rg}");
        let segs = wal::list_segments(&dir).unwrap();
        assert!(!segs.is_empty(), "active segment survives");
        // Store still opens and appends cleanly after pruning.
        drop(store);
        let store = Store::<i64>::open(&dir, cfg).unwrap();
        assert_eq!(store.append_batch(&ops(9)).unwrap(), 7);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_truncates_torn_tail_before_writing() {
        let dir = tmp("torn-open");
        let cfg = StoreConfig {
            fsync: false,
            ..StoreConfig::default()
        };
        {
            let store = Store::<i64>::open(&dir, cfg).unwrap();
            for i in 0..3 {
                store.append_batch(&ops(i)).unwrap();
            }
        }
        let seg = wal::list_segments(&dir).unwrap().pop().unwrap().path;
        let full = fs::read(&seg).unwrap();
        fs::write(&seg, &full[..full.len() - 2]).unwrap();
        let store = Store::<i64>::open(&dir, cfg).unwrap();
        assert_eq!(store.last_seq(), 2, "torn record 3 discarded");
        assert_eq!(store.append_batch(&ops(9)).unwrap(), 3);
        let _ = fs::remove_dir_all(&dir);
    }
}
