//! The query worker hot path.
//!
//! Everything a worker does between popping a job and sending its response
//! lives here, and is written panic-free: a worker that unwinds would
//! silently drop its queue share, so this module avoids `unwrap`/`expect`/
//! `panic!` and direct indexing entirely (enforced by the `xtask lint`
//! hot-path scope).
//!
//! Per job: shutdown gate → deadline gate → pin generation → one
//! `partition_point` per path node on the pinned generation's native
//! catalogs. That per-node search *is* the sequential oracle, and no
//! fault kind reaches it: the fault model corrupts only derived data
//! (augmented keys, bridges, native-successor ranks, skeleton keys) and
//! treats native catalogs as authoritative. Every exit is therefore the
//! oracle answer on the pinned generation or a typed [`ServeError`].

use crate::error::ServeError;
use crate::service::{Job, QueryOk, QueryResult, Shared};
use fc_catalog::{CatalogKey, NodeId};
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;
use std::time::Instant;

/// Worker thread body: drain the admission queue until it closes.
pub(crate) fn worker_loop<K: CatalogKey>(shared: Arc<Shared<K>>) {
    while let Some(job) = shared.queue.pop() {
        let Job {
            leaf,
            y,
            deadline,
            resp,
        } = job;
        let result = execute(&shared, leaf, y, deadline);
        match &result {
            Ok(_) => {
                shared.stats.completed_exact.fetch_add(1, SeqCst);
            }
            Err(ServeError::Timeout { .. }) => {
                shared.stats.timeouts.fetch_add(1, SeqCst);
            }
            Err(_) => {}
        }
        // The client may have given up (dropped receiver): not an error.
        let _ = resp.send(result);
    }
}

fn execute<K: CatalogKey>(
    shared: &Shared<K>,
    leaf: NodeId,
    y: K,
    deadline: Instant,
) -> QueryResult<K> {
    if shared.shutdown.load(SeqCst) {
        return Err(ServeError::ShuttingDown);
    }
    let now = Instant::now();
    if now >= deadline {
        // Queued past its deadline: shed late rather than answer late. A
        // whole search is well under a microsecond, so this is the only
        // deadline check.
        return Err(ServeError::Timeout {
            missed_by: now.saturating_duration_since(deadline),
        });
    }
    let gen = shared.pin();
    let tree = gen.st.tree();
    let path = tree.path_from_root(leaf);
    let mut answers = Vec::with_capacity(path.len());
    for &node in &path {
        let cat = tree.catalog(node);
        answers.push(cat.get(cat.partition_point(|k| *k < y)).copied());
    }
    Ok(QueryOk { answers, path, gen })
}
