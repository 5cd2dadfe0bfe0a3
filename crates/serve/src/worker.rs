//! The query worker hot path.
//!
//! Everything a worker does between popping a job and sending its response
//! lives here, and is written panic-free: a worker that unwinds would
//! silently drop its queue share, so this module avoids `unwrap`/`expect`/
//! `panic!` and direct indexing entirely (enforced by the `xtask lint`
//! hot-path scope).
//!
//! Per job: deadline gate → pin generation → quarantine gate (probe or
//! degrade) → [`certified_descent`] (sequential fractional cascading with
//! an `O(1)` per-node certificate against the native catalog) → on a
//! structural error, retry with decorrelated-jitter backoff on the freshest
//! generation → degraded fallback. Every exit is either a certified answer
//! or a typed [`ServeError`]; corruption detections wake the auditor.

use crate::backoff::DecorrelatedJitter;
use crate::error::ServeError;
use crate::service::{Generation, Job, QueryOk, QueryResult, Shared};
use fc_catalog::{CatalogKey, FcError, NodeId};
use fc_coop::{certified_descent, CancelToken};
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Certified-descent retries before falling back to a degraded read.
const RETRIES: u32 = 3;
/// Decorrelated-jitter backoff floor between retries.
const BACKOFF_BASE: Duration = Duration::from_micros(50);
/// Decorrelated-jitter backoff ceiling between retries.
const BACKOFF_CAP: Duration = Duration::from_millis(2);

/// Worker thread body: drain the admission queue until it closes.
pub(crate) fn worker_loop<K: CatalogKey>(shared: Arc<Shared<K>>, slot: usize) {
    let jitter_seed = shared
        .cfg
        .seed
        .wrapping_add((slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut backoff = DecorrelatedJitter::new(BACKOFF_BASE, BACKOFF_CAP, jitter_seed);
    while let Some(job) = shared.queue.pop() {
        let Job {
            leaf,
            y,
            deadline,
            resp,
        } = job;
        let result = execute(&shared, slot, leaf, y, deadline, &mut backoff);
        match &result {
            Ok(ok) if ok.degraded => {
                shared.stats.completed_degraded.fetch_add(1, SeqCst);
            }
            Ok(_) => {
                shared.stats.completed_exact.fetch_add(1, SeqCst);
            }
            Err(ServeError::Timeout { .. }) => {
                shared.stats.timeouts.fetch_add(1, SeqCst);
            }
            Err(ServeError::Quarantined { .. }) => {
                shared.stats.quarantined_rejects.fetch_add(1, SeqCst);
            }
            Err(ServeError::Degraded { .. }) => {
                shared.stats.structural_failures.fetch_add(1, SeqCst);
            }
            Err(_) => {}
        }
        // The client may have given up (dropped receiver): not an error.
        let _ = resp.send(result);
        backoff.reset();
    }
}

fn execute<K: CatalogKey>(
    shared: &Shared<K>,
    slot: usize,
    leaf: NodeId,
    y: K,
    deadline: Instant,
    backoff: &mut DecorrelatedJitter,
) -> QueryResult<K> {
    if shared.shutdown.load(SeqCst) {
        return Err(ServeError::ShuttingDown);
    }
    let cancel = CancelToken::with_deadline(deadline);
    if cancel.is_cancelled() {
        // Queued past its deadline: shed late rather than answer late.
        return Err(timeout(deadline));
    }
    let gen = shared.epoch.load(slot);
    let path = gen.st.tree().path_from_root(leaf);
    let mut answers = Vec::with_capacity(path.len());

    if let Some(node) = shared.quarantine.quarantined_on_path(&path) {
        if shared.quarantine.take_probe_ticket() {
            shared.stats.probes.fetch_add(1, SeqCst);
            match certified_descent(&gen.st, &path, y, &cancel, &mut answers) {
                Ok(()) => {
                    shared.quarantine.record_probe_success();
                    return finish(gen, path, answers, false, 1);
                }
                Err(FcError::Cancelled) => return Err(timeout(deadline)),
                Err(_) => {
                    shared.stats.probe_failures.fetch_add(1, SeqCst);
                    shared.quarantine.record_probe_failure();
                    shared.request_audit();
                }
            }
        }
        if !shared.cfg.degraded_reads {
            return Err(ServeError::Quarantined { node });
        }
        degraded_answers(&gen, &path, y, deadline, &cancel, &mut answers)?;
        return finish(gen, path, answers, true, 1);
    }

    match certified_descent(&gen.st, &path, y, &cancel, &mut answers) {
        Ok(()) => finish(gen, path, answers, false, 1),
        Err(FcError::Cancelled) => Err(timeout(deadline)),
        Err(error) => retry(
            shared, slot, leaf, y, &cancel, deadline, backoff, gen, error,
        ),
    }
}

/// The cold path after a structural failure on `gen`: wake the auditor,
/// back off, and retry on the freshest generation up to [`RETRIES`]
/// times; then serve a degraded read, or fail with the last error and
/// every generation the attempts saw.
#[allow(clippy::too_many_arguments)]
fn retry<K: CatalogKey>(
    shared: &Shared<K>,
    slot: usize,
    leaf: NodeId,
    y: K,
    cancel: &CancelToken,
    deadline: Instant,
    backoff: &mut DecorrelatedJitter,
    mut gen: Arc<Generation<K>>,
    mut error: FcError,
) -> QueryResult<K> {
    // Consecutively deduplicated: reported through `ServeError::Degraded`
    // so a failing query names the generation(s) it saw.
    let mut gens_seen = vec![gen.id];
    let mut answers = Vec::new();
    let mut attempts: u32 = 1;
    loop {
        shared.stats.corruption_detected.fetch_add(1, SeqCst);
        shared.request_audit();
        if attempts > RETRIES {
            break;
        }
        shared.stats.retries.fetch_add(1, SeqCst);
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(timeout(deadline));
        }
        thread::sleep(backoff.next_delay().min(remaining));
        // A repair/rebuild may have republished meanwhile; retry against
        // the freshest generation.
        gen = shared.epoch.load(slot);
        if gens_seen.last() != Some(&gen.id) {
            gens_seen.push(gen.id);
        }
        attempts += 1;
        let path = gen.st.tree().path_from_root(leaf);
        match certified_descent(&gen.st, &path, y, cancel, &mut answers) {
            Ok(()) => return finish(gen, path, answers, false, attempts),
            Err(FcError::Cancelled) => return Err(timeout(deadline)),
            Err(e) => error = e,
        }
    }
    if !shared.cfg.degraded_reads {
        return Err(ServeError::Degraded {
            error,
            attempts,
            gens: gens_seen,
        });
    }
    let path = gen.st.tree().path_from_root(leaf);
    degraded_answers(&gen, &path, y, deadline, cancel, &mut answers)?;
    finish(gen, path, answers, true, attempts)
}

/// Degraded read: per-node binary search over the native catalogs, which
/// the fault model treats as authoritative — correct on any generation,
/// corrupted or not, at `O(path · log)` sequential cost.
fn degraded_answers<K: CatalogKey>(
    gen: &Generation<K>,
    path: &[NodeId],
    y: K,
    deadline: Instant,
    cancel: &CancelToken,
    out: &mut Vec<Option<K>>,
) -> Result<(), ServeError> {
    out.clear();
    for &node in path {
        if cancel.is_cancelled() {
            return Err(timeout(deadline));
        }
        let cat = gen.st.tree().catalog(node);
        out.push(cat.get(cat.partition_point(|k| *k < y)).copied());
    }
    Ok(())
}

fn finish<K: CatalogKey>(
    gen: Arc<Generation<K>>,
    path: Vec<NodeId>,
    answers: Vec<Option<K>>,
    degraded: bool,
    attempts: u32,
) -> QueryResult<K> {
    Ok(QueryOk {
        answers,
        path,
        gen,
        degraded,
        attempts,
    })
}

fn timeout(deadline: Instant) -> ServeError {
    ServeError::Timeout {
        missed_by: Instant::now().saturating_duration_since(deadline),
    }
}
