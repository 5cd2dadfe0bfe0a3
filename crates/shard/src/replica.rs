//! A replicated group of independent [`Service`] instances for one shard.
//!
//! Replication here is for *availability*, not for durability: each
//! replica runs its own worker pool, auditor, and generation chain over the
//! same logical key set. Updates are applied to every replica; faults are
//! injected (and repaired) per replica. The router sends each query to the
//! least-loaded replica and fails over to a peer when the chosen replica
//! returns a typed error (shed, timeout, shutdown) — so one saturated
//! replica costs throughput, not answerability.

use fc_catalog::CatalogKey;
use fc_serve::{ReplicaHealth, Service};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The replicas of one shard plus a round-robin cursor for tie-breaking
/// among equally healthy replicas.
pub struct ReplicaSet<K: CatalogKey> {
    replicas: Vec<Service<K>>,
    rr: AtomicUsize,
}

impl<K: CatalogKey> ReplicaSet<K> {
    /// Group the given services (at least one) into a replica set.
    pub fn new(replicas: Vec<Service<K>>) -> Self {
        ReplicaSet {
            replicas,
            rr: AtomicUsize::new(0),
        }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the set has no replicas (never true for a started cluster).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The replica at `idx`, if any.
    pub fn replica(&self, idx: usize) -> Option<&Service<K>> {
        self.replicas.get(idx)
    }

    /// Iterate over the replicas.
    pub fn iter(&self) -> impl Iterator<Item = &Service<K>> {
        self.replicas.iter()
    }

    /// Health snapshots of every replica, in index order.
    pub fn health(&self) -> Vec<ReplicaHealth> {
        self.replicas.iter().map(|r| r.health()).collect()
    }

    /// Pick the replica to try first: the less-saturated admission queue
    /// wins, and a rotating round-robin offset breaks ties so equally
    /// loaded replicas share load. Returns `(index, service)`.
    pub fn pick_healthy(&self) -> Option<(usize, &Service<K>)> {
        let n = self.replicas.len();
        if n == 0 {
            return None;
        }
        let start = self.rr.fetch_add(1, Relaxed) % n;
        let mut best: Option<(u64, usize)> = None;
        for off in 0..n {
            let idx = (start + off) % n;
            let Some(svc) = self.replicas.get(idx) else {
                continue;
            };
            // Queue saturation in 1/1024ths; round-robin order already
            // decides ties via the scan order.
            let score = (svc.health().queue_frac() * 1024.0) as u64;
            let better = best.is_none_or(|(b, _)| score < b);
            if better {
                best = Some((score, idx));
            }
        }
        best.and_then(|(_, idx)| self.replicas.get(idx).map(|svc| (idx, svc)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_catalog::gen::{self, SizeDist};
    use fc_coop::ParamMode;
    use fc_serve::ServeConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::time::Duration;

    fn mk_service(seed: u64) -> Service<i64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let tree = gen::balanced_binary(4, 300, SizeDist::Uniform, &mut rng);
        let cfg = ServeConfig {
            workers: 1,
            audit_interval: Duration::from_secs(3600),
            ..ServeConfig::default()
        };
        Service::start(tree, ParamMode::Auto, cfg)
    }

    #[test]
    fn healthy_ties_rotate_round_robin() {
        let set = ReplicaSet::new(vec![mk_service(3), mk_service(4)]);
        let picks: Vec<usize> = (0..6).map(|_| set.pick_healthy().unwrap().0).collect();
        assert!(picks.contains(&0) && picks.contains(&1), "{picks:?}");
    }
}
