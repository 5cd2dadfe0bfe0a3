//! Hot-shard detection and online shard splitting.
//!
//! A shard runs hot when its replicas' admission queues saturate and shed
//! — the cluster-level analogue of the single service's load shedding. The
//! rebalancer scores each shard from its replicas' [`ReplicaHealth`]
//! (queue saturation plus lifetime shed fraction), and splits the hottest
//! shard at its median key: the split snapshots the shard's authoritative
//! catalogs, builds two new replica groups over the two half-ranges, and
//! publishes a `ClusterState` with a `version + 1` routing table through
//! the cluster's epoch pointer.
//!
//! ## Protocol (and why it is safe mid-traffic)
//!
//! 1. Take the cluster `update_lock` — updates and other splits are
//!    serialized; queries are **not** blocked (they never take this lock).
//! 2. Snapshot one replica's generation: every update batch publishes
//!    before it returns, so it holds every update routed up to the lock.
//!    Collect its keys and pick the median. Bail (return `None`) if the
//!    shard cannot split (fewer than two distinct keys, or the table
//!    refuses a degenerate cut).
//! 3. Build the two half-groups from the snapshot, splice them into a new
//!    group vector, and publish `(table.split(..), groups')` atomically.
//!
//! In-flight queries pinned the *old* state: they keep routing with the
//! old table against the old groups (kept alive by their `Arc`s), and
//! their answers remain oracle-correct on the generations that serve
//! them. New queries pin the new state. There is no window in which a key
//! range is unanswerable: both states are complete covers of the key axis.

use crate::router::{build_group, ClusterState, ShardCluster};
use fc_catalog::CatalogKey;
use fc_serve::ReplicaHealth;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;

/// Heat weight of instantaneous queue saturation (`queue_len / queue_cap`).
const QUEUE_WEIGHT: f64 = 1.0;
/// Heat weight of the lifetime shed fraction (`shed / (shed + submitted)`).
const SHED_WEIGHT: f64 = 2.0;

/// One shard's heat: the hottest of its replicas, each scored as weighted
/// queue saturation plus weighted lifetime shed fraction. The rebalancer
/// ranks shards by it and the fc-net Health frame reports it.
pub fn shard_heat(replicas: &[ReplicaHealth]) -> f64 {
    replicas
        .iter()
        .map(|h| {
            let shed_frac = h.shed as f64 / (h.shed + h.submitted).max(1) as f64;
            QUEUE_WEIGHT * h.queue_frac() + SHED_WEIGHT * shed_frac
        })
        .fold(0.0f64, f64::max)
}

impl<K: CatalogKey> ShardCluster<K> {
    /// Score every shard's [`shard_heat`] and return the hottest as
    /// `(shard, score)`. Scores are `0.0` on an idle cluster.
    pub fn hottest_shard(&self) -> Option<(usize, f64)> {
        self.health()
            .iter()
            .map(|replicas| shard_heat(replicas))
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Split `shard` at the median of its current keys and publish the new
    /// routing table (see module docs). Returns the new table version, or
    /// `None` when the shard does not exist or cannot split.
    pub fn split_shard(&self, shard: usize) -> Option<u64> {
        let _g = self.update_lock.lock().unwrap_or_else(|p| p.into_inner());
        let state = self.state();
        let group = state.groups.get(shard)?;
        let gen = group.replica(0)?.snapshot();
        let tree = gen.st.tree();
        let mut keys: Vec<K> = tree
            .ids()
            .flat_map(|id| tree.catalog(id).iter().copied())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let median = *keys.get(keys.len() / 2)?;
        let table = state.table.split(shard, median)?;
        // Build the two half-groups from the authoritative snapshot; the
        // other shards' groups are shared (Arc) with the old state.
        // fc-lint: allow(lock-discipline) -- intentional: the half-groups build from the snapshot inside the split critical section
        let left = Arc::new(build_group(tree, &table, shard, self.mode(), &self.cfg));
        // fc-lint: allow(lock-discipline) -- intentional: the half-groups build from the snapshot inside the split critical section
        let right = Arc::new(build_group(tree, &table, shard + 1, self.mode(), &self.cfg));
        let mut groups = Vec::with_capacity(state.groups.len() + 1);
        for (i, g) in state.groups.iter().enumerate() {
            if i == shard {
                groups.push(Arc::clone(&left));
                groups.push(Arc::clone(&right));
            } else {
                groups.push(Arc::clone(g));
            }
        }
        let version = table.version();
        // fc-lint: allow(lock-discipline) -- intentional: the new table publishes before update_lock releases, or a racing update_batch could route on the stale table
        self.publish_state(Arc::new(ClusterState { table, groups }));
        self.stats.splits.fetch_add(1, SeqCst);
        Some(version)
    }

    /// Split the hottest shard if its heat score exceeds `threshold`.
    /// Returns the new table version if a split was published.
    pub fn rebalance_if_hot(&self, threshold: f64) -> Option<u64> {
        let (shard, score) = self.hottest_shard()?;
        if score <= threshold {
            return None;
        }
        self.split_shard(shard)
    }
}

#[cfg(test)]
mod tests {
    use crate::router::ShardConfig;
    use fc_catalog::gen::{self, SizeDist};
    use fc_catalog::NodeId;
    use fc_coop::ParamMode;
    use fc_serve::ServeConfig;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::time::Duration;

    fn cfg() -> ShardConfig {
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

    #[test]
    fn split_bumps_the_version_and_keeps_answers_correct() {
        let mut rng = SmallRng::seed_from_u64(61);
        let tree = gen::balanced_binary(5, 1200, SizeDist::Uniform, &mut rng);
        let cluster = crate::ShardCluster::start(&tree, ParamMode::Auto, cfg());
        let v0 = cluster.table_version();
        let shards0 = cluster.shards();
        let leaves = cluster.leaves();

        let full_oracle = |leaf: NodeId, y: i64| -> Vec<Option<i64>> {
            tree.path_from_root(leaf)
                .iter()
                .map(|&n| {
                    let cat = tree.catalog(n);
                    cat.get(cat.partition_point(|k| *k < y)).copied()
                })
                .collect()
        };

        let v1 = cluster.split_shard(1).expect("split must succeed");
        assert_eq!(v1, v0 + 1);
        assert_eq!(cluster.shards(), shards0 + 1);
        assert_eq!(cluster.stats().splits, 1);

        for i in 0..40 {
            let leaf = leaves[rng.gen_range(0..leaves.len())];
            let y = rng.gen_range(-100..25_000i64);
            let ok = cluster
                .query_blocking(leaf, y, None)
                .unwrap_or_else(|e| panic!("post-split query {i}: {e}"));
            assert_eq!(ok.answers, full_oracle(leaf, y), "query {i} y={y}");
            assert_eq!(ok.table_version, v1);
        }
        cluster.shutdown();
    }

    /// With nothing written, a split republishes none of the victim's
    /// replicas: their generation counters and published ids stay put.
    #[test]
    fn split_right_after_start_leaves_the_victim_replicas_untouched() {
        let mut rng = SmallRng::seed_from_u64(67);
        let tree = gen::balanced_binary(5, 1200, SizeDist::Uniform, &mut rng);
        let cluster = crate::ShardCluster::start(&tree, ParamMode::Auto, cfg());
        let victim = std::sync::Arc::clone(&cluster.state().groups[0]);
        assert!(cluster.split_shard(0).is_some(), "split must succeed");
        for svc in victim.iter() {
            let gs = svc.gen_stats();
            assert_eq!((gs.generation, gs.rebuilds), (0, 0));
            assert_eq!(svc.snapshot().id, 0, "the split republished a replica");
        }
        drop(victim);
        cluster.shutdown();
    }

    #[test]
    fn heat_scoring_prefers_the_shedding_shard() {
        let mut rng = SmallRng::seed_from_u64(63);
        let tree = gen::balanced_binary(4, 400, SizeDist::Uniform, &mut rng);
        // Tiny queues + zero workers on purpose: submissions pile up/shed.
        let mut c = cfg();
        c.serve.workers = 0;
        c.serve.queue_cap = 2;
        let cluster = crate::ShardCluster::start(&tree, ParamMode::Auto, c);
        let idle = cluster.hottest_shard();
        assert!(matches!(idle, Some((_, s)) if s == 0.0), "{idle:?}");
        // Hammer submissions at shard 0's key range through replica 0.
        let state = cluster.state();
        let svc = state.groups[0].replica(0).unwrap();
        let leaf = cluster.leaves()[0];
        for i in 0..20 {
            let _ = svc.submit(leaf, i, None);
        }
        let (hot, score) = cluster.hottest_shard().unwrap();
        assert_eq!(hot, 0);
        assert!(score > 0.5, "expected heat from sheds+queue, got {score}");
        // The threshold gate works both ways.
        assert!(cluster.rebalance_if_hot(1e9).is_none());
        drop(state);
        cluster.shutdown();
    }

    #[test]
    fn unsplittable_shards_return_none() {
        let mut rng = SmallRng::seed_from_u64(65);
        let tree = gen::balanced_binary(3, 60, SizeDist::Uniform, &mut rng);
        let cluster = crate::ShardCluster::start(&tree, ParamMode::Auto, cfg());
        assert!(cluster.split_shard(99).is_none(), "no such shard");
        cluster.shutdown();
    }
}
