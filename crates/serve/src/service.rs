//! The query service: workers, auditor, updates, and generation publishing.
//!
//! ## Threads and ownership
//!
//! * **Query workers** (`cfg.workers` threads) pop jobs from the
//!   [`AdmissionQueue`] and execute them against an immutable published
//!   [`Generation`] acquired through the [`EpochPtr`]. Workers never touch
//!   the writer state, so queries make progress during updates and
//!   repairs by construction — there is no lock a reader could wait on.
//! * **The writer** (a [`Mutex`]-guarded current structure plus its
//!   logical generation) is mutated only by update callers, fault
//!   injection and the auditor. Every update batch that changes the
//!   catalogs is applied to a copy of the writer's native catalogs
//!   ([`CatalogTree::apply_batch`]), wrapped as a deferred
//!   [`CoopStructure`] and published with one atomic swap before
//!   [`Service::update_batch`] returns, so a query admitted after the ack
//!   sees the write. In-flight queries drain on the generation they pinned.
//! * **The auditor** wakes on a schedule (or on demand via
//!   [`Service::trigger_audit`]) and audits the *published* generation,
//!   building its derived data first if no one has yet; on corruption it
//!   repairs the writer's structure (localized, audit-guided, copy on
//!   write) and republishes.
//!
//! ## Answer integrity
//!
//! The fault model treats native catalogs as authoritative; everything else
//! is derived. A worker answers with one `partition_point` per path node on
//! the pinned generation's native catalogs — the sequential oracle itself —
//! so an `Ok` answer always equals the oracle answer *on the generation
//! that served it*, whatever derived data a fault has corrupted. A publish
//! carries native catalogs only, so it also replaces any corrupted derived
//! data: an injected fault lasts until the next write or repair.

use crate::epoch::EpochPtr;
use crate::error::ServeError;
use crate::queue::{AdmissionQueue, PushError};
use crate::worker;
use fc_catalog::{CatalogKey, CatalogTree, NodeId};
use fc_coop::dynamic::{GenStats, UpdateOp};
use fc_coop::{CoopStructure, ParamMode};
use fc_resilience::{audit, repair, FaultPlan, FaultSpec};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tunables for [`Service::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Query worker threads (0 is allowed — useful for admission tests).
    pub workers: usize,
    /// Admission queue capacity; submissions beyond it are shed.
    pub queue_cap: usize,
    /// Deadline applied when a query does not carry its own.
    pub default_deadline: Duration,
    /// Background audit period (the auditor also wakes on demand).
    pub audit_interval: Duration,
    /// Has no effect: the writer keeps no PRAM cost meter. Kept until the
    /// benchmark stops setting it.
    pub processors: usize,
    /// Has no effect: the writer buffers nothing, so there is no rebuild
    /// threshold. Kept until the benchmark stops reading it.
    pub rebuild_frac: f64,
    /// Has no effect: the writer has one write path (publish per batch).
    /// Kept until the benchmark stops reading it.
    pub incremental: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_cap: 256,
            default_deadline: Duration::from_millis(250),
            audit_interval: Duration::from_millis(100),
            processors: 1 << 12,
            rebuild_frac: 0.25,
            incremental: false,
        }
    }
}

/// One published, immutable snapshot of the search structure.
pub struct Generation<K: CatalogKey> {
    /// Monotone publish id (0 = the generation cut at [`Service::start`]).
    pub id: u64,
    /// The cooperative structure queries run against, shared with the
    /// writer that published it (and, for generation 0, with the peer
    /// replicas started on the same structure). A write's generation
    /// builds its derived data on first use; queries read only the
    /// native catalogs.
    pub st: Arc<CoopStructure<K>>,
}

/// A successful query.
pub struct QueryOk<K: CatalogKey> {
    /// Per-path-node answers: the smallest native catalog entry `>= y`
    /// (`None` = `+∞`), exactly as the sequential oracle on
    /// [`QueryOk::gen`] would report.
    pub answers: Vec<Option<K>>,
    /// The root-to-leaf path the query descended (on [`QueryOk::gen`]).
    pub path: Vec<NodeId>,
    /// The generation that served the answer — tests oracle against this,
    /// not against "the latest" structure.
    pub gen: Arc<Generation<K>>,
}

/// What a query resolves to.
pub type QueryResult<K> = Result<QueryOk<K>, ServeError>;

impl<K: CatalogKey> std::fmt::Debug for Generation<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Generation")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

impl<K: CatalogKey> std::fmt::Debug for QueryOk<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryOk")
            .field("answers", &self.answers)
            .field("path", &self.path)
            .field("gen", &self.gen.id)
            .finish()
    }
}

/// One admitted query job.
pub(crate) struct Job<K: CatalogKey> {
    pub(crate) leaf: NodeId,
    pub(crate) y: K,
    pub(crate) deadline: Instant,
    pub(crate) resp: mpsc::Sender<QueryResult<K>>,
}

/// Monotone event counters (atomics; see [`ServeStats`] for the snapshot).
#[derive(Default)]
pub(crate) struct Stats {
    pub(crate) submitted: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) completed_exact: AtomicU64,
    pub(crate) timeouts: AtomicU64,
    pub(crate) audits_run: AtomicU64,
    pub(crate) audits_dirty: AtomicU64,
    pub(crate) repairs: AtomicU64,
    pub(crate) generations_published: AtomicU64,
}

/// A point-in-time snapshot of the service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Queries admitted to the queue.
    pub submitted: u64,
    /// Queries shed at admission (queue full).
    pub shed: u64,
    /// Queries answered.
    pub completed_exact: u64,
    /// Always 0: every answer comes from the one per-node read, so there is
    /// no degraded answer. Kept until the benchmark stops reading it.
    pub completed_degraded: u64,
    /// Queries abandoned at their deadline.
    pub timeouts: u64,
    /// Always 0: the read cannot fail on corruption, so nothing retries.
    /// Kept until the benchmark stops reading it.
    pub retries: u64,
    /// Audit cycles run.
    pub audits_run: u64,
    /// Audit cycles that found corruption.
    pub audits_dirty: u64,
    /// Repair passes performed on the writer state.
    pub repairs: u64,
    /// Generations published (update batches that changed the catalogs,
    /// fault injections and repairs; excludes generation 0).
    pub generations_published: u64,
}

/// A point-in-time health snapshot of one service instance, exposed for
/// cluster-level routing (`fc-shard` replica failover and hot-shard
/// detection). Cheap: atomic loads plus one queue-length lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaHealth {
    /// Queries currently waiting in the admission queue.
    pub queue_len: usize,
    /// Admission queue capacity (the shed threshold).
    pub queue_cap: usize,
    /// Queries shed at admission so far.
    pub shed: u64,
    /// Queries admitted so far.
    pub submitted: u64,
    /// Current epoch of the generation pointer (bumped once per publish).
    pub epoch: u64,
}

impl ReplicaHealth {
    /// Saturation of the admission queue in `[0, 1]` — the routing signal
    /// the shard rebalancer combines with shed counts to find hot shards.
    pub fn queue_frac(&self) -> f64 {
        self.queue_len as f64 / self.queue_cap.max(1) as f64
    }
}

/// State shared by the service handle, the workers, and the auditor.
pub(crate) struct Shared<K: CatalogKey> {
    pub(crate) cfg: ServeConfig,
    pub(crate) epoch: EpochPtr<Generation<K>>,
    pub(crate) queue: AdmissionQueue<Job<K>>,
    pub(crate) stats: Stats,
    pub(crate) shutdown: AtomicBool,
    pub(crate) audit_wake: (Mutex<bool>, Condvar),
}

impl<K: CatalogKey> Shared<K> {
    /// Wake the auditor thread now (idempotent).
    pub(crate) fn request_audit(&self) {
        let (lock, cv) = &self.audit_wake;
        let mut pending = lock.lock().unwrap_or_else(|p| p.into_inner());
        *pending = true;
        drop(pending);
        cv.notify_all();
    }
}

/// The mutable writer side: the structure the last publish handed out and
/// the counters [`Service::gen_stats`] reports.
pub(crate) struct Writer<K: CatalogKey> {
    st: Arc<CoopStructure<K>>,
    /// Parameter mode of the structures this writer wraps.
    mode: ParamMode,
    gen: GenStats,
    /// Publish id of the most recent generation.
    next_gen: u64,
}

/// A running query service (see module docs). Dropping the handle shuts
/// the service down; [`Service::shutdown`] does the same and returns the
/// final counters.
pub struct Service<K: CatalogKey> {
    shared: Arc<Shared<K>>,
    writer: Arc<Mutex<Writer<K>>>,
    workers: Vec<JoinHandle<()>>,
    auditor: Option<JoinHandle<()>>,
    ext_slot: usize,
    ext_lock: Mutex<()>,
}

impl<K: CatalogKey> Service<K> {
    /// Preprocess `tree` on the caller's thread, publish it as generation
    /// 0, and spawn the worker pool and the auditor.
    pub fn start(tree: CatalogTree<K>, mode: ParamMode, cfg: ServeConfig) -> Self {
        Self::from_structure(
            Arc::new(CoopStructure::preprocess(tree, mode)),
            0,
            mode,
            cfg,
        )
    }

    /// Serve an existing structure: the writer and generation 0 share `st`
    /// (no copy), so replicas started on one `Arc` hold one structure
    /// between them until their first write. `generation` is the logical
    /// generation that produced `st` (0 for a fresh tree; a recovered
    /// structure's generation on cold start), and [`Service::gen_stats`]
    /// counts on from it. Later publishes wrap their trees with `mode`.
    pub fn from_structure(
        st: Arc<CoopStructure<K>>,
        generation: u64,
        mode: ParamMode,
        cfg: ServeConfig,
    ) -> Self {
        let gen0 = Arc::new(Generation {
            id: 0,
            st: Arc::clone(&st),
        });
        // Slot layout: [0, workers) = query workers, then auditor, then one
        // externally lockable slot for Service::snapshot/audit_blocking.
        let shared = Arc::new(Shared {
            epoch: EpochPtr::new(gen0, cfg.workers + 2),
            queue: AdmissionQueue::new(cfg.queue_cap),
            stats: Stats::default(),
            shutdown: AtomicBool::new(false),
            audit_wake: (Mutex::new(false), Condvar::new()),
            cfg,
        });
        let writer = Arc::new(Mutex::new(Writer {
            st,
            mode,
            gen: GenStats {
                generation,
                ..GenStats::default()
            },
            next_gen: 0,
        }));
        let workers = (0..shared.cfg.workers)
            .map(|slot| {
                let sh = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("fc-serve-w{slot}"))
                    .spawn(move || worker::worker_loop(sh, slot))
                    .expect("spawn query worker")
            })
            .collect();
        let auditor_slot = shared.cfg.workers;
        let auditor = {
            let sh = Arc::clone(&shared);
            let wr = Arc::clone(&writer);
            thread::Builder::new()
                .name("fc-serve-auditor".to_owned())
                .spawn(move || auditor_loop(sh, wr, auditor_slot))
                .expect("spawn auditor")
        };
        Service {
            ext_slot: auditor_slot + 1,
            shared,
            writer,
            workers,
            auditor: Some(auditor),
            ext_lock: Mutex::new(()),
        }
    }

    /// Submit a query for the smallest logical entry `>= y` at every node
    /// on the root-to-leaf path of `leaf`. Non-blocking: returns the
    /// response channel, or sheds immediately when the queue is full.
    /// `deadline` defaults to [`ServeConfig::default_deadline`].
    pub fn submit(
        &self,
        leaf: NodeId,
        y: K,
        deadline: Option<Duration>,
    ) -> Result<mpsc::Receiver<QueryResult<K>>, ServeError> {
        if self.shared.shutdown.load(SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        let (tx, rx) = mpsc::channel();
        let budget = deadline.unwrap_or(self.shared.cfg.default_deadline);
        let job = Job {
            leaf,
            y,
            deadline: Instant::now() + budget,
            resp: tx,
        };
        match self.shared.queue.try_push(job) {
            Ok(()) => {
                self.shared.stats.submitted.fetch_add(1, SeqCst);
                Ok(rx)
            }
            Err(PushError::Full(_)) => {
                self.shared.stats.shed.fetch_add(1, SeqCst);
                Err(ServeError::Shed {
                    queue_len: self.shared.queue.capacity(),
                })
            }
            Err(PushError::Closed(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// [`Service::submit`] and wait for the answer.
    pub fn query_blocking(&self, leaf: NodeId, y: K, deadline: Option<Duration>) -> QueryResult<K> {
        let rx = self.submit(leaf, y, deadline)?;
        rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Apply one update (see [`Service::update_batch`]).
    pub fn update(&self, op: UpdateOp<K>) -> bool {
        self.update_batch(&[op])
    }

    /// Apply a batch of updates in order, with set semantics, and publish
    /// the result before returning: every query admitted after this call
    /// returns sees the whole batch, and no generation holds part of it.
    /// The new generation carries the updated native catalogs only; its
    /// derived data is built on first use. Returns `false`, publishing
    /// nothing, when the batch changes no catalog. Queries keep draining
    /// on the old generation throughout.
    ///
    /// # Panics
    /// Panics if an op names a node outside the tree.
    pub fn update_batch(&self, ops: &[UpdateOp<K>]) -> bool {
        let mut guard = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        let w = &mut *guard;
        let (tree, changed) = w.st.tree().apply_batch(ops);
        if changed == 0 {
            return false;
        }
        w.st = Arc::new(CoopStructure::deferred(tree, w.mode));
        w.gen.generation += 1;
        w.gen.rebuilds += 1;
        w.gen.last_drained = changed;
        w.gen.total_drained += changed;
        // fc-lint: allow(lock-discipline) -- by design: publish_locked requires the writer lock; readers never take it (epoch pin only)
        publish_locked(&self.shared, w);
        true
    }

    /// Chaos hook: resolve `spec`'s structural kinds into a fault plan,
    /// apply it to the writer's structure (a private copy when a published
    /// generation or a peer replica shares it), and publish the corrupted
    /// structure — modelling a bad replica push. The next write publishes
    /// fresh derived data again. Returns the plan for logging/replay.
    pub fn inject(&self, spec: &FaultSpec, seed: u64) -> FaultPlan {
        let mut guard = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        let w = &mut *guard;
        let plan = FaultPlan::generate(&w.st, spec, seed);
        plan.apply(Arc::make_mut(&mut w.st));
        // fc-lint: allow(lock-discipline) -- by design: publish_locked requires the writer lock; readers never take it (epoch pin only)
        publish_locked(&self.shared, w);
        plan
    }

    /// Wake the background auditor now.
    pub fn trigger_audit(&self) {
        self.shared.request_audit();
    }

    /// Run one audit cycle synchronously on the caller's thread (same
    /// logic as the background auditor). Returns `true` if corruption was
    /// found (and repaired + republished).
    pub fn audit_blocking(&self) -> bool {
        let _ext = self.ext_lock.lock().unwrap_or_else(|p| p.into_inner());
        // fc-lint: allow(lock-discipline) -- intentional: ext_lock serializes external pin/audit callers; audit_cycle's publish happens under the writer lock it takes itself
        audit_cycle(&self.shared, &self.writer, self.ext_slot)
    }

    /// Pin and return the currently published generation.
    pub fn snapshot(&self) -> Arc<Generation<K>> {
        let _ext = self.ext_lock.lock().unwrap_or_else(|p| p.into_inner());
        self.shared.epoch.load(self.ext_slot)
    }

    /// Generation counters of the writer: `generation` is the logical
    /// generation of its catalogs (the starting one plus one per batch
    /// that changed them), `rebuilds` counts those batches, and
    /// `last_drained`/`total_drained` the catalog entries they changed.
    /// Nothing is buffered, so `pending` is 0, and the fc-dyn counters
    /// (`incremental_applies`, `fallback_rebuilds`, `keys_touched`,
    /// `live_entries`, `tombstones`) and `audit_failures` read 0.
    pub fn gen_stats(&self) -> GenStats {
        self.writer.lock().unwrap_or_else(|p| p.into_inner()).gen
    }

    /// Health snapshot for cluster routing (see [`ReplicaHealth`]).
    pub fn health(&self) -> ReplicaHealth {
        ReplicaHealth {
            queue_len: self.shared.queue.len(),
            queue_cap: self.shared.queue.capacity(),
            shed: self.shared.stats.shed.load(SeqCst),
            submitted: self.shared.stats.submitted.load(SeqCst),
            epoch: self.shared.epoch.epoch(),
        }
    }

    /// Queries currently waiting in the admission queue (admission hook
    /// for cluster-level load balancing).
    pub fn queue_len(&self) -> usize {
        self.shared.queue.len()
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServeStats {
        let s = &self.shared.stats;
        ServeStats {
            submitted: s.submitted.load(SeqCst),
            shed: s.shed.load(SeqCst),
            completed_exact: s.completed_exact.load(SeqCst),
            completed_degraded: 0,
            timeouts: s.timeouts.load(SeqCst),
            retries: 0,
            audits_run: s.audits_run.load(SeqCst),
            audits_dirty: s.audits_dirty.load(SeqCst),
            repairs: s.repairs.load(SeqCst),
            generations_published: s.generations_published.load(SeqCst),
        }
    }

    /// Stop admitting, drain, join all threads, and return the final
    /// counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, SeqCst);
        self.shared.queue.close();
        self.shared.request_audit();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.auditor.take() {
            let _ = h.join();
        }
        self.shared.epoch.try_reclaim();
    }
}

impl<K: CatalogKey> Drop for Service<K> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Publish the writer's structure: the new generation shares the writer's
/// `Arc` (no copy; a later repair or fault injection copies before it
/// writes). Caller holds the writer lock; readers are unaffected (one
/// atomic swap).
pub(crate) fn publish_locked<K: CatalogKey>(shared: &Shared<K>, w: &mut Writer<K>) {
    w.next_gen += 1;
    let gen = Arc::new(Generation {
        id: w.next_gen,
        st: Arc::clone(&w.st),
    });
    shared.epoch.swap(gen);
    shared.stats.generations_published.fetch_add(1, SeqCst);
}

/// One auditor cycle: audit the published generation (building its
/// derived data if no one has yet); on corruption, repair the writer's
/// structure (localized, audit-guided) and republish. Returns `true` if
/// corruption was found.
pub(crate) fn audit_cycle<K: CatalogKey>(
    shared: &Shared<K>,
    writer: &Mutex<Writer<K>>,
    slot: usize,
) -> bool {
    shared.stats.audits_run.fetch_add(1, SeqCst);
    let gen = shared.epoch.load(slot);
    if audit(&gen.st).is_clean() {
        return false;
    }
    shared.stats.audits_dirty.fetch_add(1, SeqCst);

    // Repair the writer's structure under its lock — queries never take
    // this lock, they keep draining on published generations while the
    // repair runs. A write since the audit has already replaced the
    // corrupted structure, and then this audit finds nothing to repair.
    {
        let mut guard = writer.lock().unwrap_or_else(|p| p.into_inner());
        let w = &mut *guard;
        let writer_report = audit(&w.st);
        if !writer_report.is_clean() {
            repair(Arc::make_mut(&mut w.st), &writer_report);
        }
        shared.stats.repairs.fetch_add(1, SeqCst);
        // fc-lint: allow(lock-discipline) -- by design: the repaired state must publish before the writer lock is released, or a writer could republish corruption
        publish_locked(shared, w);
    }
    true
}

fn auditor_loop<K: CatalogKey>(shared: Arc<Shared<K>>, writer: Arc<Mutex<Writer<K>>>, slot: usize) {
    loop {
        {
            let (lock, cv) = &shared.audit_wake;
            let mut pending = lock.lock().unwrap_or_else(|p| p.into_inner());
            if !*pending {
                let (g, _) = cv
                    .wait_timeout(pending, shared.cfg.audit_interval)
                    .unwrap_or_else(|p| p.into_inner());
                pending = g;
            }
            *pending = false;
        }
        if shared.shutdown.load(SeqCst) {
            break;
        }
        audit_cycle(&shared, &writer, slot);
        shared.epoch.try_reclaim();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_catalog::gen::{self, SizeDist};
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

    fn small_cfg() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_cap: 64,
            default_deadline: Duration::from_secs(5),
            audit_interval: Duration::from_secs(3600), // manual audits only
            ..ServeConfig::default()
        }
    }

    #[test]
    fn blocking_queries_match_the_serving_generation_oracle() {
        let mut rng = SmallRng::seed_from_u64(901);
        let tree = gen::balanced_binary(6, 2000, SizeDist::Uniform, &mut rng);
        let svc = Service::start(tree, ParamMode::Auto, small_cfg());
        let leaves = svc.snapshot().st.tree().leaves();
        for i in 0..40 {
            let leaf = leaves[rng.gen_range(0..leaves.len())];
            let y = rng.gen_range(-10..70_000i64);
            let ok = svc
                .query_blocking(leaf, y, None)
                .unwrap_or_else(|e| panic!("query {i} failed: {e}"));
            assert_eq!(ok.path, ok.gen.st.tree().path_from_root(leaf));
            assert_eq!(ok.answers, oracle(&ok.gen.st, &ok.path, y), "query {i}");
        }
        let stats = svc.shutdown();
        assert_eq!(stats.completed_exact, 40);
    }

    #[test]
    fn expired_deadline_times_out_instead_of_answering() {
        let mut rng = SmallRng::seed_from_u64(903);
        let tree = gen::balanced_binary(5, 800, SizeDist::Uniform, &mut rng);
        let svc = Service::start(tree, ParamMode::Auto, small_cfg());
        let leaf = svc.snapshot().st.tree().leaves()[0];
        let res = svc.query_blocking(leaf, 5i64, Some(Duration::ZERO));
        assert!(matches!(res, Err(ServeError::Timeout { .. })), "{res:?}");
        let stats = svc.shutdown();
        assert_eq!(stats.timeouts, 1);
    }

    #[test]
    fn full_queue_sheds_at_admission() {
        let mut rng = SmallRng::seed_from_u64(905);
        let tree = gen::balanced_binary(4, 200, SizeDist::Uniform, &mut rng);
        let cfg = ServeConfig {
            workers: 0, // nothing drains the queue
            queue_cap: 2,
            ..small_cfg()
        };
        let svc = Service::start(tree, ParamMode::Auto, cfg);
        let leaf = svc.snapshot().st.tree().leaves()[0];
        let _rx1 = svc.submit(leaf, 1i64, None).expect("slot 1");
        let _rx2 = svc.submit(leaf, 2i64, None).expect("slot 2");
        let shed = svc.submit(leaf, 3i64, None);
        assert!(matches!(shed, Err(ServeError::Shed { queue_len: 2 })));
        let stats = svc.shutdown();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.shed, 1);
    }

    #[test]
    fn acked_update_is_visible_to_the_next_query() {
        let mut rng = SmallRng::seed_from_u64(907);
        let tree = gen::balanced_binary(5, 800, SizeDist::Uniform, &mut rng);
        let svc = Service::start(tree, ParamMode::Auto, small_cfg());
        let snap0 = svc.snapshot();
        assert_eq!(snap0.id, 0);
        let leaf = snap0.st.tree().leaves()[0];
        let node = snap0.st.tree().path_from_root(leaf)[1];
        let key = 123_456_789i64;
        assert!(svc.update(UpdateOp::Insert(node, key)), "published");
        let after = svc.query_blocking(leaf, key, None).expect("query");
        assert_eq!(after.gen.id, 1);
        assert_eq!(after.answers[1], Some(key));
        assert!(
            !after.gen.st.is_derived(),
            "a publish carries catalogs only"
        );
        // A batch that changes nothing publishes nothing.
        assert!(!svc.update(UpdateOp::Insert(node, key)));
        assert!(svc.update(UpdateOp::Remove(node, key)));
        let gone = svc.query_blocking(leaf, key, None).expect("query");
        assert_eq!(gone.gen.id, 2);
        assert_ne!(gone.answers[1], Some(key));
        let gs = svc.gen_stats();
        assert_eq!((gs.generation, gs.rebuilds, gs.pending), (2, 2, 0));
        let stats = svc.shutdown();
        assert_eq!(stats.generations_published, 2);
    }

    #[test]
    fn inject_audit_repair_republish_quarantine_cycle() {
        let mut rng = SmallRng::seed_from_u64(909);
        let tree = gen::balanced_binary(6, 2000, SizeDist::Uniform, &mut rng);
        let cfg = ServeConfig {
            workers: 0,
            ..small_cfg()
        };
        let svc = Service::start(tree, ParamMode::Auto, cfg);
        let node = svc.snapshot().st.tree().root();
        for k in 0..80 {
            svc.update(UpdateOp::Insert(node, 2_000_000 + k));
        }
        let plan = svc.inject(&FaultSpec::one_of_each(), 42);
        assert!(plan.structural_len() > 0);
        let corrupted = svc.snapshot();
        assert!(!audit(&corrupted.st).is_clean(), "corruption was published");

        assert!(svc.audit_blocking(), "audit must find the injected faults");
        let repaired = svc.snapshot();
        assert!(repaired.id > corrupted.id, "repair republished");
        assert!(audit(&repaired.st).is_clean(), "republished gen is clean");
        assert!(!svc.audit_blocking(), "second audit is clean");

        let stats = svc.shutdown();
        assert!(stats.audits_dirty >= 1);
        assert!(stats.repairs >= 1);
    }
}
