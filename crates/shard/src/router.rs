//! The scatter/gather router: the cluster handle, single-query gather with
//! replica failover, and the batched descent fast path.
//!
//! ## Query anatomy
//!
//! A successor query `(leaf, y)` routes to its **owner shard**
//! `table.shard_of(y)`. The owner leg runs on one healthy replica of that
//! shard (failing over to peers on any typed error). Path nodes whose leg
//! answer is `None` — the owner shard holds no key `≥ y` there — *escalate*
//! to the next shard in ascending order; by the contiguity of the routing
//! table (see [`crate::partition`]) the first `Some` found this way is the
//! global successor, and a `None` that survives the last shard is the true
//! global `+∞`. The end-to-end deadline is split across the legs a query
//! may still need (`remaining / legs_left`), so one slow shard cannot
//! silently consume the whole budget of its successors.
//!
//! ## The batched fast path
//!
//! [`ShardCluster::query_batch`] groups a batch by owner shard and answers
//! each query of a shard's sub-batch with the serve workers' read — one
//! `partition_point` per path node on the native catalogs — directly
//! against a pinned replica generation, spreading chunks over OS threads.
//! Escalation rounds re-batch the still-incomplete queries per next shard.
//! The integrity contract is unchanged: every per-leg answer is the
//! sequential oracle on the generation that served it.
//!
//! This file is in the workspace's panic-free/index-free lint scope
//! (`cargo xtask lint`): no `unwrap`/`expect`/`panic!` and no direct
//! indexing up to the test module.

use crate::error::ShardError;
use crate::partition::RoutingTable;
use crate::replica::ReplicaSet;
use fc_catalog::{CatalogKey, CatalogTree, NodeId, UpdateOp};
use fc_coop::{CoopStructure, ParamMode};
use fc_resilience::{FaultPlan, FaultSpec};
use fc_serve::{Generation, QueryOk, ReplicaHealth, ServeConfig, ServeError, Service};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Tunables for [`ShardCluster::start`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards to cut the key universe into.
    pub shards: usize,
    /// Replicas per shard (≥ 1; 2 gives single-fault failover).
    pub replicas: usize,
    /// Per-replica service configuration.
    pub serve: ServeConfig,
    /// OS threads the batched fast path spreads chunks over.
    pub batch_threads: usize,
    /// End-to-end deadline when a query does not carry its own.
    pub default_deadline: Duration,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 4,
            replicas: 2,
            serve: ServeConfig::default(),
            batch_threads: 4,
            default_deadline: Duration::from_secs(1),
        }
    }
}

/// Maximum scatter legs (owner + escalations) per query.
const ESCALATION_LEGS: usize = 8;

/// One immutable routing state: a versioned table plus the replica groups
/// it indexes. Rebalancing publishes a *new* `ClusterState` by swapping
/// the cluster's routing cell; in-flight queries keep the state they
/// pinned (and therefore the `Arc`s of the groups they are querying)
/// alive.
pub struct ClusterState<K: CatalogKey> {
    /// The versioned key-range → shard map.
    pub table: RoutingTable<K>,
    /// One replica group per shard; `groups.len() == table.shards()`.
    pub groups: Vec<Arc<ReplicaSet<K>>>,
}

/// One completed scatter leg of a query.
pub struct ShardLeg<K: CatalogKey> {
    /// The shard this leg asked.
    pub shard: usize,
    /// The replica index (within the shard) that answered.
    pub replica: usize,
    /// The exact generation the answer was computed on.
    pub gen: Arc<Generation<K>>,
    /// The root-to-leaf path on that generation.
    pub path: Vec<NodeId>,
    /// Per-path-node successors *within this shard's key range*.
    pub answers: Vec<Option<K>>,
    /// Replicas that failed before this one answered.
    pub failovers: u32,
}

impl<K: CatalogKey> std::fmt::Debug for ShardLeg<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardLeg")
            .field("shard", &self.shard)
            .field("replica", &self.replica)
            .field("gen", &self.gen.id)
            .field("failovers", &self.failovers)
            .finish_non_exhaustive()
    }
}

/// A successful cluster query: the merged per-path-node answers plus every
/// leg that contributed, so callers (and the chaos tests) can check each
/// leg against the sequential oracle *on the generation that served it*.
#[derive(Debug)]
pub struct ShardedOk<K: CatalogKey> {
    /// Merged answers: per path node, the smallest key `≥ y` across all
    /// shards (`None` = global `+∞`).
    pub answers: Vec<Option<K>>,
    /// The root-to-leaf path (identical shape on every shard).
    pub path: Vec<NodeId>,
    /// The legs, in ascending shard order starting at the owner.
    pub legs: Vec<ShardLeg<K>>,
    /// Version of the routing table the query was routed with.
    pub table_version: u64,
}

/// Monotone cluster counters (see [`ShardStats`] for the snapshot).
#[derive(Default)]
pub(crate) struct Stats {
    pub(crate) queries: AtomicU64,
    pub(crate) batch_queries: AtomicU64,
    pub(crate) legs: AtomicU64,
    pub(crate) escalations: AtomicU64,
    pub(crate) failovers: AtomicU64,
    pub(crate) budget_exhausted: AtomicU64,
    pub(crate) shard_unavailable: AtomicU64,
    pub(crate) splits: AtomicU64,
}

/// A point-in-time snapshot of the cluster counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Single queries routed.
    pub queries: u64,
    /// Queries routed through the batched fast path.
    pub batch_queries: u64,
    /// Scatter legs executed (owner + escalation, all paths).
    pub legs: u64,
    /// Escalation legs beyond the owner shard.
    pub escalations: u64,
    /// Replica failovers (a replica erred and a peer was tried).
    pub failovers: u64,
    /// Queries abandoned because the deadline budget ran out mid-scatter.
    pub budget_exhausted: u64,
    /// Queries that found some shard's whole replica set unavailable.
    pub shard_unavailable: u64,
    /// Shard splits published by the rebalancer.
    pub splits: u64,
    /// Current routing-table version.
    pub table_version: u64,
}

/// Aggregated write-path counters, summed over one representative replica
/// (replica 0) per shard — every replica of a shard applies the same ops,
/// so one representative reflects the shard. Only `rebuilds` counts
/// anything: the fc-dyn counters are kept until the benchmark stops
/// reading them, and read 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterWriteStats {
    /// Always 0 (fc-dyn's incremental applies; no replica runs fc-dyn).
    pub incremental_applies: u64,
    /// Always 0 (fc-dyn's clone-and-rebuild fallbacks).
    pub fallback_rebuilds: u64,
    /// Update batches that changed a shard's catalogs, each published as
    /// a new tree (see `Service::gen_stats`).
    pub rebuilds: u64,
    /// Always 0 (fc-dyn's per-key-touched cost).
    pub keys_touched: u64,
    /// Always 0 (fc-dyn's live-entry gauge).
    pub live_entries: u64,
    /// Always 0 (fc-dyn's tombstone gauge).
    pub tombstones: u64,
}

impl ClusterWriteStats {
    /// Fraction of cascade slots that are tombstones, over the whole
    /// cluster (0 when empty, which it now always is).
    pub fn tombstone_ratio(&self) -> f64 {
        let total = self.live_entries + self.tombstones;
        if total == 0 {
            0.0
        } else {
            self.tombstones as f64 / total as f64
        }
    }
}

/// A sharded, replicated cooperative-search cluster (see module docs and
/// `DESIGN.md` §11). All methods are callable concurrently from any
/// thread.
pub struct ShardCluster<K: CatalogKey> {
    pub(crate) cfg: ShardConfig,
    /// The published routing state, held for reading only as long as an
    /// `Arc::clone` takes and for writing only as long as a swap takes.
    routing: RwLock<Arc<ClusterState<K>>>,
    pub(crate) update_lock: Mutex<()>,
    pub(crate) stats: Stats,
    shutdown: AtomicBool,
    mode: ParamMode,
}

/// Build the replica group for one shard: filter the tree's catalogs to
/// the shard's key range (the tree *shape* — parents, node ids, paths — is
/// identical across shards, so a leaf names the same path everywhere),
/// wrap the result as one deferred structure (its derived data is built
/// on first use), and start every replica on it.
pub(crate) fn build_group<K: CatalogKey>(
    tree: &CatalogTree<K>,
    table: &RoutingTable<K>,
    shard: usize,
    mode: ParamMode,
    cfg: &ShardConfig,
) -> ReplicaSet<K> {
    let (lo, hi) = table.range_of(shard);
    let parents: Vec<Option<u32>> = tree.ids().map(|id| tree.parent(id).map(|p| p.0)).collect();
    let catalogs: Vec<Vec<K>> = tree
        .ids()
        .map(|id| {
            tree.catalog(id)
                .iter()
                .copied()
                .filter(|k| lo.is_none_or(|l| *l <= *k) && hi.is_none_or(|h| *k < *h))
                .collect()
        })
        .collect();
    let sub = CatalogTree::from_parents(parents, catalogs);
    let st = Arc::new(CoopStructure::deferred(sub, mode));
    build_group_from_structure(&st, 0, mode, cfg)
}

/// Start the replica group for one shard on one structure of the shard's
/// filtered tree, at logical generation `generation`: every replica shares
/// `st` (one `Arc::clone` each, no copy) until its own first write, and a
/// repair or fault injection on one replica copies before it writes, so
/// it never reaches a peer. The cold-start path passes a deferred
/// structure of the recovered tree.
pub(crate) fn build_group_from_structure<K: CatalogKey>(
    st: &Arc<CoopStructure<K>>,
    generation: u64,
    mode: ParamMode,
    cfg: &ShardConfig,
) -> ReplicaSet<K> {
    let replicas = (0..cfg.replicas.max(1))
        .map(|_| Service::from_structure(Arc::clone(st), generation, mode, cfg.serve.clone()))
        .collect();
    ReplicaSet::new(replicas)
}

impl<K: CatalogKey> ShardCluster<K> {
    /// Partition `tree`'s key universe into `cfg.shards` quantile ranges
    /// and start `cfg.replicas` services per shard.
    pub fn start(tree: &CatalogTree<K>, mode: ParamMode, cfg: ShardConfig) -> Self {
        let mut keys: Vec<K> = tree
            .ids()
            .flat_map(|id| tree.catalog(id).iter().copied())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let s = cfg.shards.max(1);
        let mut cuts: Vec<K> = Vec::with_capacity(s.saturating_sub(1));
        for i in 1..s {
            let pos = i.saturating_mul(keys.len()) / s;
            if let Some(&k) = keys.get(pos) {
                if cuts.last().is_none_or(|&c| c < k) {
                    cuts.push(k);
                }
            }
        }
        let table = RoutingTable::from_cuts(cuts).unwrap_or_else(RoutingTable::single);
        let groups = (0..table.shards())
            .map(|shard| Arc::new(build_group(tree, &table, shard, mode, &cfg)))
            .collect();
        let state = Arc::new(ClusterState { table, groups });
        ShardCluster {
            routing: RwLock::new(state),
            update_lock: Mutex::new(()),
            stats: Stats::default(),
            shutdown: AtomicBool::new(false),
            mode,
            cfg,
        }
    }

    /// Start a cluster from a *restored* routing table and, per shard, one
    /// structure of its filtered tree with that structure's logical
    /// generation — the cold-start path, which wraps each tree
    /// a shard's `Store::recover` hands back as a deferred structure. Each
    /// shard's replicas serve the given structure itself and count
    /// generations on from the given one. Returns `None` when the shard count does not match the
    /// table's, which a caller must treat as a corrupt manifest, not a
    /// servable state.
    pub fn start_with_table(
        table: RoutingTable<K>,
        shards: &[(Arc<CoopStructure<K>>, u64)],
        mode: ParamMode,
        cfg: ShardConfig,
    ) -> Option<Self> {
        if shards.len() != table.shards() {
            return None;
        }
        let groups = shards
            .iter()
            .map(|(st, generation)| {
                Arc::new(build_group_from_structure(st, *generation, mode, &cfg))
            })
            .collect();
        let state = Arc::new(ClusterState { table, groups });
        Some(ShardCluster {
            routing: RwLock::new(state),
            update_lock: Mutex::new(()),
            stats: Stats::default(),
            shutdown: AtomicBool::new(false),
            mode,
            cfg,
        })
    }

    /// Pin and return the current routing state (table + groups). The
    /// returned `Arc` stays valid across concurrent rebalances.
    pub fn state(&self) -> Arc<ClusterState<K>> {
        Arc::clone(&self.routing.read().unwrap_or_else(|p| p.into_inner()))
    }

    /// Publish a new routing state (rebalancer-internal). The old state
    /// drops only after the write lock is released: dropping the last
    /// reference to a retired group shuts its replicas down.
    pub(crate) fn publish_state(&self, state: Arc<ClusterState<K>>) {
        let old = std::mem::replace(
            &mut *self.routing.write().unwrap_or_else(|p| p.into_inner()),
            state,
        );
        drop(old);
    }

    /// The parameter mode replicas are built with (rebalancer-internal).
    pub(crate) fn mode(&self) -> ParamMode {
        self.mode
    }

    /// Current routing-table version.
    pub fn table_version(&self) -> u64 {
        self.state().table.version()
    }

    /// Current shard count.
    pub fn shards(&self) -> usize {
        self.state().table.shards()
    }

    /// The leaves of the (shared) tree shape, from any live replica.
    pub fn leaves(&self) -> Vec<NodeId> {
        let state = self.state();
        let snap = state
            .groups
            .iter()
            .flat_map(|g| g.iter())
            .map(|svc| svc.snapshot())
            .next();
        match snap {
            Some(gen) => gen.st.tree().leaves(),
            None => Vec::new(),
        }
    }

    /// Answer one successor query: owner-shard leg, replica failover, and
    /// ascending escalation for path nodes the owner answered `None` on,
    /// within an end-to-end deadline (`cfg.default_deadline` when absent).
    pub fn query_blocking(
        &self,
        leaf: NodeId,
        y: K,
        deadline: Option<Duration>,
    ) -> Result<ShardedOk<K>, ShardError> {
        if self.shutdown.load(SeqCst) {
            return Err(ShardError::ShuttingDown);
        }
        self.stats.queries.fetch_add(1, SeqCst);
        let by = Instant::now() + deadline.unwrap_or(self.cfg.default_deadline);
        let state = self.state();
        let owner = state.table.shard_of(&y);
        self.gather(&state, leaf, y, owner, by)
    }

    /// The sequential gather loop of [`ShardCluster::query_blocking`].
    fn gather(
        &self,
        state: &ClusterState<K>,
        leaf: NodeId,
        y: K,
        owner: usize,
        by: Instant,
    ) -> Result<ShardedOk<K>, ShardError> {
        let shards = state.table.shards();
        let mut merged: Vec<Option<K>> = Vec::new();
        let mut path: Vec<NodeId> = Vec::new();
        let mut legs: Vec<ShardLeg<K>> = Vec::new();
        let mut shard = owner;
        loop {
            let legs_done = legs.len();
            if shard >= shards {
                break; // escalated past the last shard: merged Nones are the true +∞
            }
            if legs_done > 0 && merged.iter().all(|a| a.is_some()) {
                break; // every path node answered
            }
            if legs_done >= ESCALATION_LEGS {
                // More shards might hold the successor but the leg budget
                // is spent: a typed error, never a possibly-wrong None.
                self.stats.budget_exhausted.fetch_add(1, SeqCst);
                return Err(ShardError::BudgetExhausted { shard, legs_done });
            }
            let remaining = by.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                self.stats.budget_exhausted.fetch_add(1, SeqCst);
                return Err(ShardError::BudgetExhausted { shard, legs_done });
            }
            let legs_left = (ESCALATION_LEGS - legs_done).min(shards - shard).max(1);
            let slice = remaining / legs_left as u32;
            let Some(group) = state.groups.get(shard) else {
                break;
            };
            let leg = self.ask_shard(group, shard, leaf, y, slice)?;
            if legs_done == 0 {
                merged = leg.answers.clone();
                path = leg.path.clone();
            } else {
                self.stats.escalations.fetch_add(1, SeqCst);
                for (slot, ans) in merged.iter_mut().zip(leg.answers.iter()) {
                    if slot.is_none() {
                        *slot = *ans;
                    }
                }
            }
            legs.push(leg);
            shard += 1;
        }
        Ok(ShardedOk {
            answers: merged,
            path,
            legs,
            table_version: state.table.version(),
        })
    }

    /// One leg against one shard, with replica failover: try the
    /// least-loaded replica, and on a typed error (shed, timeout,
    /// shutdown) try every peer before declaring the shard unavailable.
    fn ask_shard(
        &self,
        group: &ReplicaSet<K>,
        shard: usize,
        leaf: NodeId,
        y: K,
        slice: Duration,
    ) -> Result<ShardLeg<K>, ShardError> {
        self.stats.legs.fetch_add(1, SeqCst);
        let Some((first_idx, first)) = group.pick_healthy() else {
            self.stats.shard_unavailable.fetch_add(1, SeqCst);
            return Err(ShardError::ShardUnavailable {
                shard,
                tried: 0,
                last: ServeError::ShuttingDown,
            });
        };
        let mut last = match first.query_blocking(leaf, y, Some(slice)) {
            Ok(ok) => return Ok(mk_leg(shard, first_idx, ok, 0)),
            Err(e) => e,
        };
        let mut tried = 1u32;
        for idx in 0..group.len() {
            if idx == first_idx {
                continue;
            }
            let Some(peer) = group.replica(idx) else {
                continue;
            };
            self.stats.failovers.fetch_add(1, SeqCst);
            tried += 1;
            match peer.query_blocking(leaf, y, Some(slice)) {
                Ok(ok) => return Ok(mk_leg(shard, idx, ok, tried - 1)),
                Err(e) => last = e,
            }
        }
        self.stats.shard_unavailable.fetch_add(1, SeqCst);
        Err(ShardError::ShardUnavailable {
            shard,
            tried: tried as usize,
            last,
        })
    }

    /// Answer a batch of successor queries through the batched fast path
    /// (see module docs). Returns one result per query, in input
    /// order; per-query failures do not fail the batch.
    pub fn query_batch(
        &self,
        queries: &[(NodeId, K)],
        deadline: Option<Duration>,
    ) -> Vec<Result<ShardedOk<K>, ShardError>> {
        let n = queries.len();
        self.stats.batch_queries.fetch_add(n as u64, SeqCst);
        if self.shutdown.load(SeqCst) {
            return (0..n).map(|_| Err(ShardError::ShuttingDown)).collect();
        }
        let by = Instant::now() + deadline.unwrap_or(self.cfg.default_deadline);
        let state = self.state();
        let shards = state.table.shards();

        let mut merged: Vec<Option<Vec<Option<K>>>> = (0..n).map(|_| None).collect();
        let mut legs_acc: Vec<Vec<ShardLeg<K>>> = (0..n).map(|_| Vec::new()).collect();
        let mut errs: Vec<Option<ShardError>> = (0..n).map(|_| None).collect();
        // Queries still needing a leg, as (query index, target shard).
        let mut active: Vec<(usize, usize)> = queries
            .iter()
            .enumerate()
            .map(|(i, (_, y))| (i, state.table.shard_of(y)))
            .collect();

        let mut round = 0usize;
        while !active.is_empty() && round < ESCALATION_LEGS {
            let remaining = by.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                for &(qi, shard) in &active {
                    self.stats.budget_exhausted.fetch_add(1, SeqCst);
                    if let Some(slot) = errs.get_mut(qi) {
                        *slot = Some(ShardError::BudgetExhausted {
                            shard,
                            legs_done: legs_acc.get(qi).map_or(0, |l| l.len()),
                        });
                    }
                }
                break;
            }
            let slice = remaining / (ESCALATION_LEGS - round).max(1) as u32;
            let results = self.run_round(&state, queries, &active, slice, round);
            let mut next_active: Vec<(usize, usize)> = Vec::new();
            for (qi, res) in results {
                match res {
                    Err(e) => {
                        if let Some(slot) = errs.get_mut(qi) {
                            *slot = Some(e);
                        }
                    }
                    Ok(leg) => {
                        let done_shard = leg.shard;
                        let complete = {
                            let Some(m) = merged.get_mut(qi) else {
                                continue;
                            };
                            match m {
                                None => *m = Some(leg.answers.clone()),
                                Some(slots) => {
                                    self.stats.escalations.fetch_add(1, SeqCst);
                                    for (slot, ans) in slots.iter_mut().zip(leg.answers.iter()) {
                                        if slot.is_none() {
                                            *slot = *ans;
                                        }
                                    }
                                }
                            }
                            m.as_ref().is_none_or(|s| s.iter().all(|a| a.is_some()))
                        };
                        if let Some(acc) = legs_acc.get_mut(qi) {
                            acc.push(leg);
                        }
                        if !complete && done_shard + 1 < shards {
                            next_active.push((qi, done_shard + 1));
                        }
                    }
                }
            }
            active = next_active;
            round += 1;
        }
        // Queries still active after the leg budget: typed error, never a
        // possibly-wrong None (an unvisited shard could hold the answer).
        for &(qi, shard) in &active {
            self.stats.budget_exhausted.fetch_add(1, SeqCst);
            if let Some(slot) = errs.get_mut(qi) {
                *slot = Some(ShardError::BudgetExhausted {
                    shard,
                    legs_done: legs_acc.get(qi).map_or(0, |l| l.len()),
                });
            }
        }

        let version = state.table.version();
        let mut out: Vec<Result<ShardedOk<K>, ShardError>> = Vec::with_capacity(n);
        let zipped = errs.into_iter().zip(merged).zip(legs_acc);
        for ((err, m), legs) in zipped {
            if let Some(e) = err {
                out.push(Err(e));
                continue;
            }
            match m {
                Some(answers) => {
                    let path = legs.first().map(|l| l.path.clone()).unwrap_or_default();
                    out.push(Ok(ShardedOk {
                        answers,
                        path,
                        legs,
                        table_version: version,
                    }));
                }
                None => out.push(Err(ShardError::ShuttingDown)),
            }
        }
        out
    }

    /// Run one scatter round: group the active queries by target shard,
    /// chunk each group, and execute the chunks on `batch_threads` OS
    /// threads. Each chunk pins one replica generation and answers each of
    /// its queries with the per-node read on it. Every active query has
    /// completed `legs_done` legs (one per earlier round).
    fn run_round(
        &self,
        state: &ClusterState<K>,
        queries: &[(NodeId, K)],
        active: &[(usize, usize)],
        slice: Duration,
        legs_done: usize,
    ) -> Vec<(usize, Result<ShardLeg<K>, ShardError>)> {
        let shards = state.table.shards();
        let mut by_shard: Vec<Vec<usize>> = (0..shards).map(|_| Vec::new()).collect();
        for &(qi, shard) in active {
            if let Some(b) = by_shard.get_mut(shard) {
                b.push(qi);
            }
        }
        let threads = self.cfg.batch_threads.max(1);
        let chunk = (active.len() / threads).max(1);
        let work: Vec<(usize, Vec<usize>)> = by_shard
            .into_iter()
            .enumerate()
            .flat_map(|(shard, qis)| {
                qis.chunks(chunk)
                    .map(|c| (shard, c.to_vec()))
                    .collect::<Vec<_>>()
            })
            .collect();
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Result<ShardLeg<K>, ShardError>)>();
        let deadline = Instant::now() + slice;
        std::thread::scope(|scope| {
            for _ in 0..threads.min(work.len()) {
                let tx = tx.clone();
                let work = &work;
                let next = &next;
                scope.spawn(move || loop {
                    let it = next.fetch_add(1, SeqCst);
                    let Some((shard, qis)) = work.get(it) else {
                        break;
                    };
                    self.run_chunk(state, queries, *shard, qis, deadline, legs_done, &tx);
                });
            }
        });
        drop(tx);
        rx.try_iter().collect()
    }

    /// Execute one (shard, chunk) work item (see [`ShardCluster::run_round`]).
    /// A query reached after the round's `deadline` is a typed
    /// [`ShardError::BudgetExhausted`], not an answer.
    #[allow(clippy::too_many_arguments)]
    fn run_chunk(
        &self,
        state: &ClusterState<K>,
        queries: &[(NodeId, K)],
        shard: usize,
        qis: &[usize],
        deadline: Instant,
        legs_done: usize,
        tx: &mpsc::Sender<(usize, Result<ShardLeg<K>, ShardError>)>,
    ) {
        let Some(group) = state.groups.get(shard) else {
            return;
        };
        let Some((ridx, svc)) = group.pick_healthy() else {
            for &qi in qis {
                self.stats.legs.fetch_add(1, SeqCst);
                self.stats.shard_unavailable.fetch_add(1, SeqCst);
                let _ = tx.send((
                    qi,
                    Err(ShardError::ShardUnavailable {
                        shard,
                        tried: 0,
                        last: ServeError::ShuttingDown,
                    }),
                ));
            }
            return;
        };
        let gen = svc.snapshot();
        let tree = gen.st.tree();
        for &qi in qis {
            let Some(&(leaf, y)) = queries.get(qi) else {
                continue;
            };
            if Instant::now() >= deadline {
                // The round's slice ran out: the same typed error the
                // batch's own deadline check gives.
                self.stats.budget_exhausted.fetch_add(1, SeqCst);
                let _ = tx.send((qi, Err(ShardError::BudgetExhausted { shard, legs_done })));
                continue;
            }
            let path = tree.path_from_root(leaf);
            let answers = path
                .iter()
                .map(|&node| {
                    let cat = tree.catalog(node);
                    cat.get(cat.partition_point(|k| *k < y)).copied()
                })
                .collect();
            self.stats.legs.fetch_add(1, SeqCst);
            let _ = tx.send((
                qi,
                Ok(ShardLeg {
                    shard,
                    replica: ridx,
                    path,
                    gen: Arc::clone(&gen),
                    answers,
                    failovers: 0,
                }),
            ));
        }
    }

    /// Route an update batch: each op goes to the shard owning its key and
    /// is applied to **every** replica of that shard, each publishing it
    /// before this returns. Serialized against rebalancing, so a split
    /// cannot miss an op.
    pub fn update_batch(&self, ops: &[UpdateOp<K>]) {
        let _g = self.update_lock.lock().unwrap_or_else(|p| p.into_inner());
        let state = self.state();
        let mut grouped: Vec<Vec<UpdateOp<K>>> =
            (0..state.table.shards()).map(|_| Vec::new()).collect();
        for op in ops {
            let key = match op {
                UpdateOp::Insert(_, k) | UpdateOp::Remove(_, k) => k,
            };
            let s = state.table.shard_of(key);
            if let Some(g) = grouped.get_mut(s) {
                g.push(*op);
            }
        }
        for (group, ops) in state.groups.iter().zip(grouped) {
            if ops.is_empty() {
                continue;
            }
            for svc in group.iter() {
                // fc-lint: allow(lock-discipline) -- intentional: update_lock serializes updates against splits so ops cannot strand on a stale routing table
                svc.update_batch(&ops);
            }
        }
    }

    /// Chaos hook: inject a resolved fault plan into one replica (see
    /// `Service::inject`). Returns the plan, or `None` for a bad address.
    pub fn inject(
        &self,
        shard: usize,
        replica: usize,
        spec: &FaultSpec,
        seed: u64,
    ) -> Option<FaultPlan> {
        let state = self.state();
        let svc = state.groups.get(shard)?.replica(replica)?;
        Some(svc.inject(spec, seed))
    }

    /// Run [`Service::audit_blocking`] on every replica; returns how many
    /// replicas had corruption (and were repaired + republished).
    pub fn audit_blocking_all(&self) -> usize {
        let state = self.state();
        let mut dirty = 0usize;
        for group in &state.groups {
            for svc in group.iter() {
                if svc.audit_blocking() {
                    dirty += 1;
                }
            }
        }
        dirty
    }

    /// Health snapshots: one vector per shard, one entry per replica.
    pub fn health(&self) -> Vec<Vec<ReplicaHealth>> {
        let state = self.state();
        state.groups.iter().map(|g| g.health()).collect()
    }

    /// Aggregated write-path counters (see [`ClusterWriteStats`]): the
    /// per-shard replica-0 [`GenStats`](fc_coop::dynamic::GenStats),
    /// summed.
    pub fn write_stats(&self) -> ClusterWriteStats {
        let state = self.state();
        let mut out = ClusterWriteStats::default();
        for group in &state.groups {
            let Some(svc) = group.replica(0) else {
                continue;
            };
            let gs = svc.gen_stats();
            out.incremental_applies += gs.incremental_applies;
            out.fallback_rebuilds += gs.fallback_rebuilds;
            out.rebuilds += gs.rebuilds;
            out.keys_touched += gs.keys_touched;
            out.live_entries += gs.live_entries;
            out.tombstones += gs.tombstones;
        }
        out
    }

    /// Snapshot of the cluster counters.
    pub fn stats(&self) -> ShardStats {
        let s = &self.stats;
        ShardStats {
            queries: s.queries.load(SeqCst),
            batch_queries: s.batch_queries.load(SeqCst),
            legs: s.legs.load(SeqCst),
            escalations: s.escalations.load(SeqCst),
            failovers: s.failovers.load(SeqCst),
            budget_exhausted: s.budget_exhausted.load(SeqCst),
            shard_unavailable: s.shard_unavailable.load(SeqCst),
            splits: s.splits.load(SeqCst),
            table_version: self.table_version(),
        }
    }

    /// Stop admitting cluster queries and return the final counters. The
    /// replica services shut down (drain + join) when the cluster drops.
    pub fn shutdown(self) -> ShardStats {
        self.shutdown.store(true, SeqCst);
        self.stats()
    }
}

/// Wrap one service answer as a scatter leg.
fn mk_leg<K: CatalogKey>(
    shard: usize,
    replica: usize,
    ok: QueryOk<K>,
    failovers: u32,
) -> ShardLeg<K> {
    ShardLeg {
        shard,
        replica,
        gen: ok.gen,
        path: ok.path,
        answers: ok.answers,
        failovers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_catalog::gen::{self, SizeDist};
    use fc_coop::CoopStructure;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn oracle<K: CatalogKey>(st: &CoopStructure<K>, path: &[NodeId], y: K) -> Vec<Option<K>> {
        path.iter()
            .map(|&node| {
                let cat = st.tree().catalog(node);
                cat.get(cat.partition_point(|k| *k < y)).copied()
            })
            .collect()
    }

    fn small_cfg(shards: usize, replicas: usize) -> ShardConfig {
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

    fn full_tree(seed: u64) -> CatalogTree<i64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        gen::balanced_binary(5, 1200, SizeDist::Uniform, &mut rng)
    }

    /// The ground truth a cluster answer must match: the oracle on the
    /// *unsharded* tree (shard legs partition each catalog, so the merged
    /// first-Some equals the plain successor in the full catalog).
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
    fn sharded_answers_equal_the_unsharded_oracle() {
        let tree = full_tree(31);
        let cluster = ShardCluster::start(&tree, ParamMode::Auto, small_cfg(4, 1));
        assert_eq!(cluster.shards(), 4);
        let leaves = cluster.leaves();
        let mut rng = SmallRng::seed_from_u64(32);
        for i in 0..60 {
            let leaf = leaves[rng.gen_range(0..leaves.len())];
            let y = rng.gen_range(-100..25_000i64);
            let ok = cluster
                .query_blocking(leaf, y, None)
                .unwrap_or_else(|e| panic!("query {i}: {e}"));
            assert_eq!(ok.answers, full_oracle(&tree, leaf, y), "query {i} y={y}");
            // Per-leg integrity: each leg matches the oracle on its own
            // serving generation.
            for leg in &ok.legs {
                assert_eq!(leg.answers, oracle(&leg.gen.st, &leg.path, y));
            }
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.queries, 60);
        assert!(stats.legs >= 60);
    }

    #[test]
    fn batch_answers_equal_the_unsharded_oracle() {
        let tree = full_tree(33);
        let cluster = ShardCluster::start(&tree, ParamMode::Auto, small_cfg(4, 2));
        let leaves = cluster.leaves();
        let mut rng = SmallRng::seed_from_u64(34);
        let queries: Vec<(NodeId, i64)> = (0..120)
            .map(|_| {
                (
                    leaves[rng.gen_range(0..leaves.len())],
                    rng.gen_range(-100..25_000i64),
                )
            })
            .collect();
        let results = cluster.query_batch(&queries, None);
        assert_eq!(results.len(), queries.len());
        for ((leaf, y), res) in queries.iter().zip(&results) {
            let ok = res.as_ref().unwrap_or_else(|e| panic!("y={y}: {e}"));
            assert_eq!(&ok.answers, &full_oracle(&tree, *leaf, *y), "y={y}");
            for leg in &ok.legs {
                assert_eq!(leg.answers, oracle(&leg.gen.st, &leg.path, *y));
            }
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.batch_queries, 120);
    }

    #[test]
    fn expired_batch_leg_is_budget_exhausted_not_a_fallback() {
        let tree = full_tree(39);
        let cluster = ShardCluster::start(&tree, ParamMode::Auto, small_cfg(2, 1));
        let state = cluster.state();
        let leaf = cluster.leaves()[0];
        let before = cluster.stats();
        let (tx, rx) = mpsc::channel();
        let expired = Instant::now();
        cluster.run_chunk(&state, &[(leaf, 7)], 0, &[0], expired, 2, &tx);
        drop(tx);
        let sent: Vec<_> = rx.try_iter().collect();
        assert_eq!(sent.len(), 1);
        assert!(
            matches!(
                sent[0].1,
                Err(ShardError::BudgetExhausted {
                    shard: 0,
                    legs_done: 2
                })
            ),
            "{:?}",
            sent[0].1.as_ref().map(|leg| &leg.answers)
        );
        let after = cluster.stats();
        assert_eq!(after.budget_exhausted, before.budget_exhausted + 1);
        drop(state);
        cluster.shutdown();
    }

    #[test]
    fn queries_above_every_key_escalate_to_global_infinity() {
        let tree = full_tree(35);
        let cluster = ShardCluster::start(&tree, ParamMode::Auto, small_cfg(4, 1));
        let leaf = cluster.leaves()[0];
        let ok = cluster.query_blocking(leaf, i64::MAX / 2, None).unwrap();
        assert!(ok.answers.iter().all(|a| a.is_none()), "{:?}", ok.answers);
        assert_eq!(ok.legs.len(), 1, "last shard answers +∞ with no escalation");
        let stats = cluster.shutdown();
        assert_eq!(stats.escalations, 0);
    }

    #[test]
    fn updates_route_to_owner_shard_and_all_replicas() {
        let tree = full_tree(37);
        let cluster = ShardCluster::start(&tree, ParamMode::Auto, small_cfg(3, 2));
        let leaves = cluster.leaves();
        let leaf = leaves[0];
        let state = cluster.state();
        let path = state.groups[0]
            .replica(0)
            .unwrap()
            .snapshot()
            .st
            .tree()
            .path_from_root(leaf);
        let node = path[1];
        // Insert one key per shard range, through the cluster.
        let probes: Vec<i64> = (0..cluster.shards())
            .map(|s| {
                let (lo, hi) = state.table.range_of(s);
                match (lo, hi) {
                    (Some(&l), Some(&h)) => (l + h) / 2,
                    (None, Some(&h)) => h - 1,
                    (Some(&l), None) => l + 1_000_000,
                    (None, None) => 0,
                }
            })
            .collect();
        let ops: Vec<UpdateOp<i64>> = probes.iter().map(|&k| UpdateOp::Insert(node, k)).collect();
        cluster.update_batch(&ops);
        // Acked means published: every probe key is findable at once.
        for &k in &probes {
            let ok = cluster.query_blocking(leaf, k, None).unwrap();
            let hit = ok
                .path
                .iter()
                .zip(&ok.answers)
                .any(|(n, a)| *n == node && *a == Some(k));
            assert!(hit, "inserted key {k} not visible: {:?}", ok.answers);
        }
        cluster.shutdown();
    }

    #[test]
    fn single_replica_corruption_fails_over_not_errors() {
        let tree = full_tree(39);
        let cluster = ShardCluster::start(&tree, ParamMode::Auto, small_cfg(4, 2));
        let plan = cluster
            .inject(1, 0, &FaultSpec::one_of_each(), 40)
            .expect("valid address");
        assert!(plan.structural_len() > 0);
        let leaves = cluster.leaves();
        let mut rng = SmallRng::seed_from_u64(40);
        for _ in 0..30 {
            let leaf = leaves[rng.gen_range(0..leaves.len())];
            let y = rng.gen_range(-100..25_000i64);
            let ok = cluster.query_blocking(leaf, y, None).expect("answer");
            assert_eq!(ok.answers, full_oracle(&tree, leaf, y));
        }
        cluster.shutdown();
    }

    #[test]
    fn zero_deadline_is_a_typed_budget_error() {
        let tree = full_tree(43);
        let cluster = ShardCluster::start(&tree, ParamMode::Auto, small_cfg(2, 1));
        let leaf = cluster.leaves()[0];
        let res = cluster.query_blocking(leaf, 5, Some(Duration::ZERO));
        assert!(
            matches!(
                res,
                Err(ShardError::BudgetExhausted { .. })
                    | Err(ShardError::ShardUnavailable {
                        last: ServeError::Timeout { .. },
                        ..
                    })
            ),
            "{res:?}"
        );
        cluster.shutdown();
    }
}
