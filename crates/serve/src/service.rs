//! The query service: workers, auditor, updates, and generation publishing.
//!
//! ## Threads and ownership
//!
//! * **Query workers** (`cfg.workers` threads) pop jobs from the
//!   [`AdmissionQueue`] and execute them against an immutable published
//!   [`Generation`] acquired through the [`EpochPtr`]. Workers never touch
//!   the writer state, so queries make progress during rebuilds by
//!   construction — there is no lock a reader could wait on.
//! * **The writer** (a [`Mutex`]-guarded [`DynamicCoop`]) is mutated only by
//!   update callers and the auditor. A rebuild (threshold-triggered or
//!   forced) cuts a new [`Generation`] snapshot and publishes it with one
//!   atomic swap; in-flight queries drain on the generation they pinned.
//! * **The auditor** wakes on a schedule (or on demand, when a worker's
//!   checked search detects corruption), audits the *published* generation
//!   plus the writer's buffers, quarantines blamed subtrees behind the
//!   [`Quarantine`] circuit breaker, repairs the writer state in place
//!   (localized, audit-guided), republishes, and half-opens the breaker so
//!   probe queries can close it.
//!
//! ## Answer integrity
//!
//! The fault model treats native catalogs as authoritative; everything else
//! is derived. A query answer is produced by `fc_coop::certified_descent`,
//! which certifies every per-node answer against the native catalog in
//! `O(1)`, so an `Ok` answer always equals the oracle answer *on the
//! generation that served it* — corruption can cost latency (retries,
//! degraded reads, quarantine), never silent wrongness.

use crate::epoch::EpochPtr;
use crate::error::ServeError;
use crate::quarantine::{BreakerState, Quarantine};
use crate::queue::{AdmissionQueue, PushError};
use crate::worker;
use fc_catalog::{CatalogKey, CatalogTree, NodeId};
use fc_coop::dynamic::{DynamicCoop, GenStats, UpdateOp};
use fc_coop::{CoopStructure, DynConfig, ParamMode};
use fc_pram::{Model, Pram};
use fc_resilience::{audit, repair, Blame, FaultPlan, FaultSpec};
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
    /// Virtual processors of the writer's PRAM cost meter, which prices
    /// rebuilds; queries do not read it.
    pub processors: usize,
    /// Serve quarantined / persistently failing queries from the native
    /// catalogs instead of erroring.
    pub degraded_reads: bool,
    /// Rebuild threshold as a fraction of total catalog size (see
    /// [`DynamicCoop::new`]).
    pub rebuild_frac: f64,
    /// Run the writer in `fc-dyn` incremental mode: updates patch bridges
    /// and samples along the affected node-to-root path (cost per key
    /// touched) instead of buffering toward threshold rebuilds. Published
    /// generations then only advance on fallback rebuilds (density
    /// violation, detected corruption) or explicit checkpoints.
    pub incremental: bool,
    /// Seed for worker backoff jitter.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_cap: 256,
            default_deadline: Duration::from_millis(250),
            audit_interval: Duration::from_millis(100),
            processors: 1 << 12,
            degraded_reads: true,
            rebuild_frac: 0.25,
            incremental: false,
            seed: 0x5E12_FE11,
        }
    }
}

/// In half-open quarantine, every `PROBE_EVERY`-th quarantined-path query
/// runs the certified descent as a probe.
const PROBE_EVERY: u64 = 4;
/// Consecutive probe successes that close the breaker.
const CLOSE_AFTER: u64 = 4;

/// One published, immutable snapshot of the search structure.
pub struct Generation<K: CatalogKey> {
    /// Monotone publish id (0 = the generation cut at [`Service::start`]).
    pub id: u64,
    /// The static cooperative structure queries run against, shared with
    /// the writer that built it (and, for generation 0, with the peer
    /// replicas started on the same structure).
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
    /// `true` if the answer came from the degraded per-node binary search
    /// (quarantine or persistent certified-descent failure).
    pub degraded: bool,
    /// Certified-descent attempts consumed (1 = first try succeeded).
    pub attempts: u32,
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
            .field("degraded", &self.degraded)
            .field("attempts", &self.attempts)
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
    pub(crate) completed_degraded: AtomicU64,
    pub(crate) timeouts: AtomicU64,
    pub(crate) quarantined_rejects: AtomicU64,
    pub(crate) structural_failures: AtomicU64,
    pub(crate) retries: AtomicU64,
    pub(crate) corruption_detected: AtomicU64,
    pub(crate) probes: AtomicU64,
    pub(crate) probe_failures: AtomicU64,
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
    /// Queries answered by the certified descent.
    pub completed_exact: u64,
    /// Queries answered by the degraded per-node binary search.
    pub completed_degraded: u64,
    /// Queries abandoned at their deadline.
    pub timeouts: u64,
    /// Quarantined-path queries rejected (degraded reads disabled).
    pub quarantined_rejects: u64,
    /// Queries that exhausted retries with degraded reads disabled.
    pub structural_failures: u64,
    /// Cooperative-search retries performed.
    pub retries: u64,
    /// Structural errors detected by the certified descent.
    pub corruption_detected: u64,
    /// Half-open probe queries sent through the certified descent.
    pub probes: u64,
    /// Probes that failed (re-opening the breaker).
    pub probe_failures: u64,
    /// Audit cycles run.
    pub audits_run: u64,
    /// Audit cycles that found corruption.
    pub audits_dirty: u64,
    /// Repair passes performed on the writer state.
    pub repairs: u64,
    /// Generations published (rebuilds + repairs; excludes generation 0).
    pub generations_published: u64,
    /// Breaker transitions into `Open` (including re-opens).
    pub quarantine_opens: u64,
}

/// A point-in-time health snapshot of one service instance, exposed for
/// cluster-level routing (`fc-shard` replica failover and hot-shard
/// detection). Cheap: atomic loads plus one queue-length lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaHealth {
    /// Quarantine circuit-breaker state (`Closed` = fully healthy).
    pub breaker: BreakerState,
    /// Number of currently quarantined arena nodes.
    pub quarantined_nodes: usize,
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
    pub(crate) quarantine: Quarantine,
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

/// The mutable writer side: the dynamic structure plus its cost meter.
pub(crate) struct Writer<K: CatalogKey> {
    pub(crate) dy: DynamicCoop<K>,
    pub(crate) pram: Pram,
    pub(crate) next_gen: u64,
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
    /// Preprocess `tree`, publish generation 0, and spawn the worker pool
    /// and the auditor.
    pub fn start(tree: CatalogTree<K>, mode: ParamMode, cfg: ServeConfig) -> Self {
        Self::from_structure(
            Arc::new(CoopStructure::preprocess(tree, mode)),
            0,
            mode,
            cfg,
        )
    }

    /// Serve an already preprocessed structure: the writer and
    /// generation 0 share `st` (no copy), so replicas started on one
    /// `Arc` hold one structure between them until their first rebuild.
    /// `generation` is the logical generation that produced `st` (0 for a
    /// fresh tree; a recovered structure's generation on cold start), and
    /// [`Service::gen_stats`] counts on from it.
    pub fn from_structure(
        st: Arc<CoopStructure<K>>,
        generation: u64,
        mode: ParamMode,
        cfg: ServeConfig,
    ) -> Self {
        let frac = cfg.rebuild_frac.max(f64::MIN_POSITIVE);
        let mut dy = DynamicCoop::wrap(st, generation, mode, frac);
        if cfg.incremental {
            dy = dy.into_incremental(DynConfig::default());
        }
        let gen0 = Arc::new(Generation {
            id: 0,
            st: Arc::clone(dy.structure()),
        });
        // Slot layout: [0, workers) = query workers, then auditor, then one
        // externally lockable slot for Service::snapshot/audit_blocking.
        let shared = Arc::new(Shared {
            epoch: EpochPtr::new(gen0, cfg.workers + 2),
            queue: AdmissionQueue::new(cfg.queue_cap),
            quarantine: Quarantine::new(PROBE_EVERY, CLOSE_AFTER),
            stats: Stats::default(),
            shutdown: AtomicBool::new(false),
            audit_wake: (Mutex::new(false), Condvar::new()),
            cfg,
        });
        let writer = Arc::new(Mutex::new(Writer {
            dy,
            pram: Pram::new(shared.cfg.processors.max(1), Model::Crew),
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

    /// Apply one update; returns `true` if it triggered a rebuild (and a
    /// new generation was published).
    pub fn update(&self, op: UpdateOp<K>) -> bool {
        self.update_batch(&[op])
    }

    /// Apply a batch of updates atomically with respect to rebuilds (see
    /// [`DynamicCoop::apply_batch`]); publishes a new generation if the
    /// commit point rebuilt. Queries keep draining on the old generation
    /// throughout.
    pub fn update_batch(&self, ops: &[UpdateOp<K>]) -> bool {
        let mut guard = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        let w = &mut *guard;
        let rebuilt = w.dy.apply_batch(ops, &mut w.pram);
        if rebuilt {
            // fc-lint: allow(lock-discipline) -- by design: publish_locked requires the writer lock; readers never take it (epoch pin only)
            publish_locked(&self.shared, w);
        }
        rebuilt
    }

    /// Drain all buffered updates into the catalogs now and publish the
    /// resulting generation, regardless of the rebuild threshold.
    pub fn force_publish(&self) {
        let mut guard = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        let w = &mut *guard;
        w.dy.force_rebuild(&mut w.pram);
        // fc-lint: allow(lock-discipline) -- by design: publish_locked requires the writer lock; readers never take it (epoch pin only)
        publish_locked(&self.shared, w);
    }

    /// Chaos hook: resolve `spec` into a fault plan, apply it to the
    /// writer state (static structure + dynamic buffers), and publish the
    /// corrupted snapshot — modelling a bad replica push. Returns the
    /// plan for logging/replay.
    pub fn inject(&self, spec: &FaultSpec, seed: u64) -> FaultPlan {
        let mut guard = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        let w = &mut *guard;
        let plan = FaultPlan::generate_dynamic(&w.dy, spec, seed);
        plan.apply_dynamic(&mut w.dy);
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

    /// Rebuild/generation counters of the writer state.
    pub fn gen_stats(&self) -> GenStats {
        self.writer
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .dy
            .gen_stats()
    }

    /// Current quarantine breaker state.
    pub fn quarantine_state(&self) -> BreakerState {
        self.shared.quarantine.state()
    }

    /// Currently quarantined arena nodes.
    pub fn quarantined_nodes(&self) -> Vec<u32> {
        self.shared.quarantine.nodes()
    }

    /// Health snapshot for cluster routing (see [`ReplicaHealth`]).
    pub fn health(&self) -> ReplicaHealth {
        ReplicaHealth {
            breaker: self.shared.quarantine.state(),
            quarantined_nodes: self.shared.quarantine.nodes().len(),
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

    /// Chaos hook: force-open the quarantine breaker over `nodes` without
    /// running an audit — models a replica whose entire structure is
    /// distrusted (e.g. a failed health check). Queries crossing the set
    /// degrade or reject exactly as with an audit-driven open; the next
    /// audit cycle repairs and half-opens as usual.
    pub fn force_quarantine(&self, nodes: impl IntoIterator<Item = u32>) {
        self.shared.quarantine.open(nodes);
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServeStats {
        let s = &self.shared.stats;
        ServeStats {
            submitted: s.submitted.load(SeqCst),
            shed: s.shed.load(SeqCst),
            completed_exact: s.completed_exact.load(SeqCst),
            completed_degraded: s.completed_degraded.load(SeqCst),
            timeouts: s.timeouts.load(SeqCst),
            quarantined_rejects: s.quarantined_rejects.load(SeqCst),
            structural_failures: s.structural_failures.load(SeqCst),
            retries: s.retries.load(SeqCst),
            corruption_detected: s.corruption_detected.load(SeqCst),
            probes: s.probes.load(SeqCst),
            probe_failures: s.probe_failures.load(SeqCst),
            audits_run: s.audits_run.load(SeqCst),
            audits_dirty: s.audits_dirty.load(SeqCst),
            repairs: s.repairs.load(SeqCst),
            generations_published: s.generations_published.load(SeqCst),
            quarantine_opens: self.shared.quarantine.opens(),
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
        st: Arc::clone(w.dy.structure()),
    });
    shared.epoch.swap(gen);
    shared.stats.generations_published.fetch_add(1, SeqCst);
}

/// One auditor cycle: audit the published generation and the writer's
/// buffers; on corruption, quarantine the blamed region, repair the writer
/// state (localized, audit-guided), republish, and half-open the breaker.
/// Returns `true` if corruption was found.
pub(crate) fn audit_cycle<K: CatalogKey>(
    shared: &Shared<K>,
    writer: &Mutex<Writer<K>>,
    slot: usize,
) -> bool {
    shared.stats.audits_run.fetch_add(1, SeqCst);
    let gen = shared.epoch.load(slot);
    let report = audit(&gen.st);
    let buffers_dirty = {
        let guard = writer.lock().unwrap_or_else(|p| p.into_inner());
        guard.dy.audit_buffers().is_err()
    };
    if report.is_clean() && !buffers_dirty {
        // Clean structure but an open breaker: nothing to repair (e.g. a
        // forced quarantine, or a repair that already republished), so move
        // to half-open and let probe queries close it.
        if shared.quarantine.state() == BreakerState::Open {
            shared.quarantine.half_open();
        }
        return false;
    }
    shared.stats.audits_dirty.fetch_add(1, SeqCst);

    // Quarantine the blamed region: node-granular blames directly, plus
    // every node of any blamed skeleton unit (the search trusts skeleton
    // keys across the whole unit).
    let mut blamed: Vec<u32> = report.blamed_nodes();
    for b in &report.findings {
        if let Blame::Skeleton { sub, unit } = *b {
            if let Some(u) = gen
                .st
                .substructures()
                .get(sub)
                .and_then(|s| s.units.get(unit))
            {
                blamed.extend(u.nodes.iter().map(|id| id.0));
            }
        }
    }
    blamed.sort_unstable();
    blamed.dedup();
    let quarantined = !blamed.is_empty();
    if quarantined {
        shared.quarantine.open(blamed);
    }

    // Repair the writer state under its lock — queries never take this
    // lock, they keep draining on published generations (degraded on
    // quarantined paths) while the repair runs.
    {
        let mut guard = writer.lock().unwrap_or_else(|p| p.into_inner());
        let w = &mut *guard;
        let writer_report = audit(w.dy.structure());
        if !writer_report.is_clean() {
            repair(w.dy.structure_mut_for_repair(), &writer_report);
        }
        if w.dy.audit_buffers().is_err() {
            if w.dy.incremental() {
                // Incremental mode: "buffer" dirt is cascade dirt (corrupt
                // bridge/link/finger or density violation). The localized
                // repair story does not apply to the slot arena — the
                // always-correct fallback is a clone-and-rebuild from the
                // live (flat-arena) catalogs, which also compacts.
                w.dy.force_rebuild(&mut w.pram);
            } else {
                repair_buffers(&mut w.dy);
            }
        }
        shared.stats.repairs.fetch_add(1, SeqCst);
        // fc-lint: allow(lock-discipline) -- by design: the repaired state must publish before the writer lock is released, or a writer could republish corruption
        publish_locked(shared, w);
    }
    if quarantined {
        shared.quarantine.half_open();
    }
    true
}

/// Restore the buffer invariants from the authoritative static catalogs:
/// drop insert-buffer keys already present statically, delete-buffer keys
/// absent statically, resolve ins/del overlaps in favor of the insert, and
/// resynchronize the change counter. Idempotent; afterwards
/// [`DynamicCoop::audit_buffers`] passes.
pub(crate) fn repair_buffers<K: CatalogKey>(dy: &mut DynamicCoop<K>) {
    let cats: Vec<Vec<K>> = {
        let tree = dy.structure().tree();
        tree.ids().map(|id| tree.catalog(id).to_vec()).collect()
    };
    let (ins, del, changes) = dy.buffers_mut_for_fault_injection();
    let mut buffered = 0usize;
    for ((ins_v, del_v), cat) in ins.iter_mut().zip(del.iter_mut()).zip(&cats) {
        ins_v.retain(|k| cat.binary_search(k).is_err());
        del_v.retain(|k| cat.binary_search(k).is_ok());
        let overlap: Vec<K> = ins_v.intersection(del_v).copied().collect();
        for k in &overlap {
            del_v.remove(k);
        }
        buffered += ins_v.len() + del_v.len();
    }
    *changes = buffered;
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
            processors: 1 << 8,
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
            assert!(!ok.degraded);
            assert_eq!(ok.path, ok.gen.st.tree().path_from_root(leaf));
            assert_eq!(ok.answers, oracle(&ok.gen.st, &ok.path, y), "query {i}");
        }
        let stats = svc.shutdown();
        assert_eq!(stats.completed_exact, 40);
        assert_eq!(stats.corruption_detected, 0);
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
    fn forced_publish_makes_buffered_updates_visible_to_queries() {
        let mut rng = SmallRng::seed_from_u64(907);
        let tree = gen::balanced_binary(5, 800, SizeDist::Uniform, &mut rng);
        let svc = Service::start(tree, ParamMode::Auto, small_cfg());
        let snap0 = svc.snapshot();
        assert_eq!(snap0.id, 0);
        let leaf = snap0.st.tree().leaves()[0];
        let node = snap0.st.tree().path_from_root(leaf)[1];
        let key = 123_456_789i64;
        assert!(!svc.update(UpdateOp::Insert(node, key)), "below threshold");
        // Buffered but unpublished: queries still serve the old generation.
        let before = svc.query_blocking(leaf, key, None).expect("query");
        assert_eq!(before.gen.id, 0);
        assert_ne!(before.answers[1], Some(key));
        svc.force_publish();
        let after = svc.query_blocking(leaf, key, None).expect("query");
        assert!(after.gen.id >= 1);
        assert_eq!(after.answers[1], Some(key));
        assert_eq!(svc.gen_stats().rebuilds, 1);
        let stats = svc.shutdown();
        assert!(stats.generations_published >= 1);
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
        // Seed some buffered churn so dynamic faults have sites, then
        // corrupt both the static structure and the buffers.
        let node = svc.snapshot().st.tree().root();
        for k in 0..80 {
            svc.update(UpdateOp::Insert(node, 2_000_000 + k));
        }
        let plan = svc.inject(&FaultSpec::one_of_each(), 42);
        assert!(plan.structural_len() > 0);
        let corrupted = svc.snapshot();
        assert!(!audit(&corrupted.st).is_clean(), "corruption was published");

        assert!(svc.audit_blocking(), "audit must find the injected faults");
        assert_eq!(svc.quarantine_state(), BreakerState::HalfOpen);
        assert!(!svc.quarantined_nodes().is_empty());
        let repaired = svc.snapshot();
        assert!(repaired.id > corrupted.id, "repair republished");
        assert!(audit(&repaired.st).is_clean(), "republished gen is clean");
        assert!(!svc.audit_blocking(), "second audit is clean");

        let stats = svc.shutdown();
        assert!(stats.audits_dirty >= 1);
        assert!(stats.repairs >= 1);
        assert!(stats.quarantine_opens >= 1);
    }

    #[test]
    fn corrupted_buffers_are_repaired_not_baked_in() {
        let mut rng = SmallRng::seed_from_u64(911);
        let tree = gen::balanced_binary(5, 800, SizeDist::Uniform, &mut rng);
        let cfg = ServeConfig {
            workers: 0,
            ..small_cfg()
        };
        let svc = Service::start(tree, ParamMode::Auto, cfg);
        let node = svc.snapshot().st.tree().root();
        for k in 0..20 {
            svc.update(UpdateOp::Insert(node, 3_000_000 + k));
        }
        let spec = FaultSpec::one_of_each_dynamic();
        let plan = svc.inject(&spec, 7);
        assert_eq!(plan.dynamic_len(), spec.dynamic_total());
        assert!(svc.audit_blocking(), "buffer corruption must be detected");
        // After repair the buffers audit clean and a forced rebuild drains
        // them without baking phantom keys into the catalogs.
        svc.force_publish();
        let snap = svc.snapshot();
        assert!(audit(&snap.st).is_clean());
        let legit: Vec<i64> = (0..20).map(|k| 3_000_000 + k).collect();
        for k in &legit {
            assert!(snap.st.tree().catalog(node).binary_search(k).is_ok());
        }
        svc.shutdown();
    }
}
