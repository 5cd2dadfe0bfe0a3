//! [`DurableCluster`]: a [`ShardCluster`] that survives `kill -9` and
//! cold-starts from disk with its routing table restored.
//!
//! ## On-disk layout
//!
//! ```text
//! cluster-dir/
//!   MANIFEST.fcm          epoch + routing-table version + cut keys
//!   epoch-<e>/
//!     shard-0/            one fc_store::Store per shard:
//!       snap-*.fcs        snapshots of the shard's *filtered* tree
//!       wal-*.fcw         the shard's share of every update batch
//!     shard-1/ …
//! ```
//!
//! The manifest's atomic rename is the **commit point** for cluster
//! shape: [`DurableCluster::split_durable`] checkpoints every shard into
//! a fresh `epoch-<e+1>/` directory *before* committing the manifest, so
//! a crash mid-split recovers the old epoch with the old table — never a
//! half-split cluster. Update durability follows a write-ahead
//! contract: each batch is routed per shard, appended (fsynced) to the
//! owning shard's WAL, and only then applied to the in-memory replicas,
//! each of which publishes it before the call returns — an acknowledged
//! [`DurableCluster::update_batch`] is durable and visible to every query
//! that starts after it returns.
//!
//! Cold start ([`DurableCluster::cold_start`]) reads the manifest,
//! restores the [`RoutingTable`] at its persisted version (staleness
//! detection survives restarts), runs `fc_store::recover` per shard —
//! snapshot + WAL replay + blame audit, refusing with a typed
//! [`StoreError`] if any shard cannot be proven clean — and starts every
//! shard's replicas on the very structure recovery audited, counting
//! generations on from the recovered one.
//!
//! Durability covers updates and splits routed through this wrapper;
//! calling [`ShardCluster::update_batch`] or
//! [`ShardCluster::split_shard`] directly on the inner cluster bypasses
//! the log and the manifest by construction.

use crate::partition::RoutingTable;
use crate::router::{ShardCluster, ShardConfig, ShardStats};
use fc_catalog::{CatalogKey, CatalogTree};
use fc_coop::dynamic::UpdateOp;
use fc_coop::{CoopStructure, ParamMode};
use fc_store::manifest::{epoch_dir, shard_dir};
use fc_store::{read_manifest, write_manifest, KeyCodec, Manifest, Store, StoreConfig, StoreError};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// What a cold start recovered, summed over the shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColdStartReport {
    /// Checkpoint epoch the manifest committed.
    pub epoch: u64,
    /// Restored routing-table version (equals the pre-crash version).
    pub table_version: u64,
    /// Shards rehydrated.
    pub shards: usize,
    /// WAL records replayed across all shards.
    pub replayed_records: u64,
    /// Individual ops replayed across all shards.
    pub replayed_ops: u64,
    /// Already-snapshotted records skipped (idempotent replay).
    pub skipped_records: u64,
    /// Torn tail bytes truncated across all shard logs.
    pub truncated_bytes: u64,
    /// Corrupt snapshots skipped in favour of older valid ones.
    pub snapshots_skipped: usize,
    /// Rebuild (epoch-cut) markers replayed above the watermarks — a
    /// nonzero count means some shard died between cutting an epoch and
    /// persisting its snapshot.
    pub rebuild_markers: u64,
}

struct DurState<K: CatalogKey + KeyCodec> {
    epoch: u64,
    /// One store per shard, indexed like the cluster's groups.
    stores: Vec<Store<K>>,
}

/// A [`ShardCluster`] with per-shard snapshot + WAL durability and a
/// manifest-committed routing table. See the module docs for the layout
/// and the write-ahead contract.
pub struct DurableCluster<K: CatalogKey + KeyCodec> {
    cluster: ShardCluster<K>,
    dir: PathBuf,
    store_cfg: StoreConfig,
    /// Serializes durable mutators (updates, checkpoints, splits) so WAL
    /// order equals apply order and the store vector tracks the table.
    state: Mutex<DurState<K>>,
}

fn invalid(reason: impl Into<String>) -> StoreError {
    StoreError::ManifestInvalid {
        reason: reason.into(),
    }
}

/// Snapshot every shard's published replica-0 generation into per-shard
/// stores under `epoch-<epoch>/`, creating the stores. Every acked update
/// is already published, so the snapshots hold all of them.
fn persist_epoch<K: CatalogKey + KeyCodec>(
    cluster: &ShardCluster<K>,
    dir: &Path,
    epoch: u64,
    store_cfg: &StoreConfig,
) -> Result<Vec<Store<K>>, StoreError> {
    let edir = epoch_dir(dir, epoch);
    let state = cluster.state();
    let mut stores = Vec::with_capacity(state.groups.len());
    for (shard, group) in state.groups.iter().enumerate() {
        let svc = group
            .replica(0)
            .ok_or_else(|| invalid(format!("shard {shard} has no replica to snapshot")))?;
        let generation = svc.gen_stats().generation;
        let snapshot = svc.snapshot();
        let store = Store::open(&shard_dir(&edir, shard), *store_cfg)?;
        store.persist_snapshot(snapshot.st.tree(), generation)?;
        stores.push(store);
    }
    Ok(stores)
}

impl<K: CatalogKey + KeyCodec> DurableCluster<K> {
    /// Start a fresh durable cluster over `tree`, committing epoch 1
    /// (per-shard generation-0 snapshots + the version-1 routing table)
    /// to `dir` before returning.
    pub fn create(
        dir: &Path,
        tree: &CatalogTree<K>,
        mode: ParamMode,
        cfg: ShardConfig,
        store_cfg: StoreConfig,
    ) -> Result<Self, StoreError> {
        fs::create_dir_all(dir).map_err(|e| StoreError::io("create_dir_all", dir, e))?;
        let cluster = ShardCluster::start(tree, mode, cfg);
        let epoch = 1u64;
        let stores = persist_epoch(&cluster, dir, epoch, &store_cfg)?;
        let state = cluster.state();
        write_manifest::<K>(
            dir,
            &Manifest {
                epoch,
                table_version: state.table.version(),
                cuts: state.table.cuts().to_vec(),
            },
            store_cfg.fsync,
        )?;
        drop(state);
        Ok(DurableCluster {
            cluster,
            dir: dir.to_path_buf(),
            store_cfg,
            state: Mutex::new(DurState { epoch, stores }),
        })
    }

    /// Cold-start from `dir`: read the manifest, restore the routing
    /// table at its persisted version, recover every shard store
    /// (snapshot + WAL replay + blame audit — any shard that cannot be
    /// proven clean refuses the whole cold start with a typed error),
    /// and start each shard's replicas on its recovered, audited
    /// structure. Recovery preprocesses with [`ParamMode::Auto`]; `mode`
    /// governs the structures the replicas' later writes publish.
    pub fn cold_start(
        dir: &Path,
        mode: ParamMode,
        cfg: ShardConfig,
        store_cfg: StoreConfig,
    ) -> Result<(Self, ColdStartReport), StoreError> {
        let m = read_manifest::<K>(dir)?;
        let table = RoutingTable::restore(m.cuts.clone(), m.table_version)
            .ok_or_else(|| invalid("manifest cuts/version do not form a valid routing table"))?;
        let edir = epoch_dir(dir, m.epoch);
        let mut report = ColdStartReport {
            epoch: m.epoch,
            table_version: m.table_version,
            shards: m.shards(),
            ..ColdStartReport::default()
        };
        let mut shards: Vec<(Arc<CoopStructure<K>>, u64)> = Vec::with_capacity(m.shards());
        for shard in 0..m.shards() {
            let rec = fc_store::recover::<K>(&shard_dir(&edir, shard))?;
            report.replayed_records += rec.replayed_records;
            report.replayed_ops += rec.replayed_ops;
            report.skipped_records += rec.skipped_records;
            report.truncated_bytes += rec.truncated_bytes;
            report.snapshots_skipped += rec.snapshots_skipped;
            report.rebuild_markers += rec.rebuild_markers;
            shards.push((rec.structure, rec.generation));
        }
        let cluster = ShardCluster::start_with_table(table, &shards, mode, cfg)
            .ok_or_else(|| invalid("recovered shard count does not match the routing table"))?;
        // Re-persist each recovered shard so the next recovery starts
        // from one snapshot instead of snapshot + long log, then drop
        // what those snapshots cover.
        let mut stores = Vec::with_capacity(shards.len());
        for (shard, (st, generation)) in shards.iter().enumerate() {
            let store = Store::open(&shard_dir(&edir, shard), store_cfg)?;
            store.persist_snapshot(st.tree(), *generation)?;
            store.prune()?;
            stores.push(store);
        }
        Ok((
            DurableCluster {
                cluster,
                dir: dir.to_path_buf(),
                store_cfg,
                state: Mutex::new(DurState {
                    epoch: m.epoch,
                    stores,
                }),
            },
            report,
        ))
    }

    /// Apply one update batch durably: route each op to its owner shard,
    /// append (fsynced) to that shard's WAL, then apply to every replica
    /// in memory. The batch is durable, and visible to every query that
    /// starts after this returns.
    pub fn update_batch(&self, ops: &[UpdateOp<K>]) -> Result<(), StoreError> {
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let cstate = self.cluster.state();
        let shards = cstate.table.shards();
        if st.stores.len() != shards {
            // Only possible if the inner cluster was split behind our
            // back; refuse rather than log to the wrong shard.
            return Err(invalid(
                "routing table changed outside split_durable; stores out of step",
            ));
        }
        let mut grouped: Vec<Vec<UpdateOp<K>>> = (0..shards).map(|_| Vec::new()).collect();
        for op in ops {
            let key = match op {
                UpdateOp::Insert(_, k) | UpdateOp::Remove(_, k) => k,
            };
            let shard = cstate.table.shard_of(key);
            if let Some(g) = grouped.get_mut(shard) {
                g.push(*op);
            }
        }
        drop(cstate);
        for (store, shard_ops) in st.stores.iter().zip(&grouped) {
            if !shard_ops.is_empty() {
                // fc-lint: allow(lock-discipline) -- intentional: per-shard WAL append order must equal apply order, so writers serialize across the fsync
                store.append_batch(shard_ops)?;
            }
        }
        // fc-lint: allow(lock-discipline) -- intentional: the in-memory apply stays under the state lock so no writer can interleave between log and apply
        self.cluster.update_batch(ops);
        Ok(())
    }

    /// Snapshot every shard's published generation in place (same epoch,
    /// same manifest). No replica is rebuilt: every acked update batch is
    /// already published, so the published generation holds the shard's
    /// logical catalogs. Returns the epoch the checkpoint landed in.
    pub fn checkpoint(&self) -> Result<u64, StoreError> {
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let cstate = self.cluster.state();
        if st.stores.len() != cstate.table.shards() {
            return Err(invalid(
                "routing table changed outside split_durable; stores out of step",
            ));
        }
        for (group, store) in cstate.groups.iter().zip(&st.stores) {
            let svc = group
                .replica(0)
                .ok_or_else(|| invalid("shard has no replica to snapshot"))?;
            let generation = svc.gen_stats().generation;
            let snapshot = svc.snapshot();
            // Marker first, snapshot second: the snapshot watermark then
            // covers the marker, and a crash in between replays it as
            // provenance instead of losing the epoch cut.
            // fc-lint: allow(lock-discipline) -- intentional: the marker must land in the same writer-held window as the snapshot it covers
            store.append_rebuild_marker(generation)?;
            // fc-lint: allow(lock-discipline) -- intentional: snapshot the published generation before any writer can move it
            store.persist_snapshot(snapshot.st.tree(), generation)?;
            store.prune()?;
        }
        Ok(st.epoch)
    }

    /// Split `shard` (see [`ShardCluster::split_shard`]) and commit the
    /// new shape durably: checkpoint every shard of the *new* table into
    /// a fresh `epoch-<e+1>/` directory, commit the manifest (the atomic
    /// rename is the commit point), then delete the old epoch directory.
    /// A crash anywhere before the manifest commit cold-starts the old
    /// epoch with the old table. Returns the new table version, or
    /// `Ok(None)` when the shard cannot split.
    pub fn split_durable(&self, shard: usize) -> Result<Option<u64>, StoreError> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        // fc-lint: allow(lock-discipline) -- intentional: the whole split (resplit, persist, manifest commit) is one critical section; a concurrent writer would log to the wrong shard's WAL
        let Some(version) = self.cluster.split_shard(shard) else {
            return Ok(None);
        };
        // Every acked update is published, so the new epoch's snapshots
        // are complete and its WALs start empty.
        let new_epoch = st.epoch + 1;
        // fc-lint: allow(lock-discipline) -- intentional: see the critical-section note at the top of split_durable
        let stores = persist_epoch(&self.cluster, &self.dir, new_epoch, &self.store_cfg)?;
        let cstate = self.cluster.state();
        // fc-lint: allow(lock-discipline) -- intentional: see the critical-section note at the top of split_durable
        write_manifest::<K>(
            &self.dir,
            &Manifest {
                epoch: new_epoch,
                table_version: cstate.table.version(),
                cuts: cstate.table.cuts().to_vec(),
            },
            self.store_cfg.fsync,
        )?;
        drop(cstate);
        // Committed: the old epoch is garbage now (best-effort removal).
        let old = epoch_dir(&self.dir, st.epoch);
        let _ = fs::remove_dir_all(old);
        st.epoch = new_epoch;
        st.stores = stores;
        Ok(Some(version))
    }

    /// The inner cluster (queries, audits, health, chaos hooks —
    /// everything except updates and splits, which must go through
    /// [`DurableCluster::update_batch`] / [`DurableCluster::split_durable`]
    /// to stay durable).
    pub fn cluster(&self) -> &ShardCluster<K> {
        &self.cluster
    }

    /// The current checkpoint epoch.
    pub fn epoch(&self) -> u64 {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).epoch
    }

    /// The cluster directory this instance persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Stop the cluster and return its counters. The store files remain
    /// on disk for the next [`DurableCluster::cold_start`].
    pub fn shutdown(self) -> ShardStats {
        self.cluster.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_catalog::gen::{self, SizeDist};
    use fc_catalog::NodeId;
    use fc_serve::ServeConfig;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::time::Duration;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fc-durable-cluster-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn cfg(shards: usize, replicas: usize) -> ShardConfig {
        ShardConfig {
            shards,
            replicas,
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

    fn full_tree(seed: u64) -> CatalogTree<i64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        gen::balanced_binary(5, 1200, SizeDist::Uniform, &mut rng)
    }

    fn full_oracle(tree: &CatalogTree<i64>, leaf: NodeId, y: i64) -> Vec<Option<i64>> {
        tree.path_from_root(leaf)
            .iter()
            .map(|&node| {
                let cat = tree.catalog(node);
                cat.get(cat.partition_point(|k| *k < y)).copied()
            })
            .collect()
    }

    #[test]
    fn cold_start_restores_table_version_and_answers() {
        let dir = tmp("coldstart");
        let tree = full_tree(71);
        let dc =
            DurableCluster::create(&dir, &tree, ParamMode::Auto, cfg(3, 1), no_fsync()).unwrap();
        let leaves = dc.cluster().leaves();
        let leaf = leaves[0];
        // Split once so the restored version must be > 1.
        let v = dc.split_durable(1).unwrap().expect("split");
        assert_eq!(v, 2);
        assert_eq!(dc.epoch(), 2);
        assert!(!epoch_dir(&dir, 1).exists(), "old epoch removed");
        // Unsnapshotted tail: these must come back from the WAL alone.
        let node = tree.path_from_root(leaf)[1];
        let keys: Vec<i64> = (0..10).map(|i| 30_000_000 + i).collect();
        for &k in &keys {
            dc.update_batch(&[UpdateOp::Insert(node, k)]).unwrap();
        }
        drop(dc); // unclean stop: no checkpoint, no shutdown

        let (dc2, rep) =
            DurableCluster::<i64>::cold_start(&dir, ParamMode::Auto, cfg(3, 2), no_fsync())
                .unwrap();
        assert_eq!(rep.table_version, 2, "routing version survives restart");
        assert_eq!(dc2.cluster().table_version(), 2);
        assert_eq!(rep.shards, 4);
        assert_eq!(rep.replayed_records, 10, "tail replayed from the WAL");
        // Recovered answers equal the oracle on the original tree plus
        // the WAL-replayed tail inserts at `node`.
        let oracle_with_tail = |leaf: NodeId, y: i64| -> Vec<Option<i64>> {
            tree.path_from_root(leaf)
                .iter()
                .map(|&n| {
                    let cat = tree.catalog(n);
                    let base = cat.get(cat.partition_point(|k| *k < y)).copied();
                    if n != node {
                        return base;
                    }
                    let tail = keys.iter().copied().filter(|k| *k >= y).min();
                    match (base, tail) {
                        (Some(b), Some(t)) => Some(b.min(t)),
                        (b, t) => b.or(t),
                    }
                })
                .collect()
        };
        let mut rng = SmallRng::seed_from_u64(72);
        for _ in 0..40 {
            let y = rng.gen_range(-100..25_000i64);
            let ok = dc2.cluster().query_blocking(leaf, y, None).unwrap();
            assert_eq!(ok.answers, oracle_with_tail(leaf, y), "y={y}");
        }
        // The tail keys themselves are findable.
        for &k in &keys {
            let ok = dc2.cluster().query_blocking(leaf, k, None).unwrap();
            let hit = ok
                .path
                .iter()
                .zip(&ok.answers)
                .any(|(n, a)| *n == node && *a == Some(k));
            assert!(hit, "WAL-recovered key {k} not visible");
        }
        // Durable updates continue seamlessly after cold start.
        dc2.update_batch(&[UpdateOp::Insert(node, 31_000_000)])
            .unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_before_manifest_commit_recovers_old_epoch() {
        let dir = tmp("midsplit");
        let tree = full_tree(73);
        let dc =
            DurableCluster::create(&dir, &tree, ParamMode::Auto, cfg(2, 1), no_fsync()).unwrap();
        dc.checkpoint().unwrap();
        drop(dc);
        // Simulate a crash mid-split *after* the new epoch dir was
        // written but *before* the manifest rename: a stray epoch-2 dir
        // must be ignored because the manifest still points at epoch 1.
        fs::create_dir_all(shard_dir(&epoch_dir(&dir, 2), 0)).unwrap();
        let (dc2, rep) =
            DurableCluster::<i64>::cold_start(&dir, ParamMode::Auto, cfg(2, 1), no_fsync())
                .unwrap();
        assert_eq!(rep.epoch, 1, "uncommitted epoch ignored");
        assert_eq!(rep.table_version, 1);
        let leaf = dc2.cluster().leaves()[0];
        let ok = dc2.cluster().query_blocking(leaf, 500, None).unwrap();
        assert_eq!(ok.answers, full_oracle(&tree, leaf, 500));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A checkpoint rebuilds no replica, so the replicas of a shard keep
    /// sharing the structure they started on.
    #[test]
    fn checkpoint_with_nothing_pending_rebuilds_nothing() {
        let dir = tmp("noopcheckpoint");
        let tree = full_tree(75);
        let dc =
            DurableCluster::create(&dir, &tree, ParamMode::Auto, cfg(2, 2), no_fsync()).unwrap();
        dc.checkpoint().unwrap();
        dc.checkpoint().unwrap();
        for (shard, group) in dc.cluster().state().groups.iter().enumerate() {
            for svc in group.iter() {
                assert_eq!(svc.gen_stats().rebuilds, 0, "shard {shard} rebuilt");
            }
            let first = group.replica(0).unwrap().snapshot();
            let second = group.replica(1).unwrap().snapshot();
            assert!(
                Arc::ptr_eq(&first.st, &second.st),
                "shard {shard}'s replicas no longer share one structure"
            );
        }
        dc.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_is_a_typed_error() {
        let dir = tmp("nomanifest");
        fs::create_dir_all(&dir).unwrap();
        let res = DurableCluster::<i64>::cold_start(&dir, ParamMode::Auto, cfg(2, 1), no_fsync());
        assert!(matches!(res, Err(StoreError::Io { .. })));
        let _ = fs::remove_dir_all(&dir);
    }
}
