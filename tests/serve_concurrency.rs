//! Concurrency test for `fc-serve`: N reader threads against one updater
//! storming `update_batch` with large batches, back to back.
//!
//! Asserted invariants:
//!
//! * **Per-generation correctness** — every answer equals the sequential
//!   oracle computed on the generation that served it (`QueryOk::gen`),
//!   not on "the latest" structure;
//! * **Monotone generations** — a client's successive queries never
//!   observe the published generation going backwards;
//! * **Reader progress** — queries complete *while* an update holds the
//!   writer lock. Every `update_batch` holds it from the batch apply to
//!   the publish; workers have no code path that takes it (a publish is
//!   one swap of the epoch pointer), and this test observes that: whole
//!   queries, submit to answer, land inside one update window.

use fc_catalog::gen::{self, SizeDist};
use fc_catalog::NodeId;
use fc_coop::dynamic::UpdateOp;
use fc_coop::{CoopStructure, ParamMode};
use fc_serve::{ServeConfig, Service};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn oracle(st: &CoopStructure<i64>, path: &[NodeId], y: i64) -> Vec<Option<i64>> {
    path.iter()
        .map(|&node| {
            let cat = st.tree().catalog(node);
            cat.get(cat.partition_point(|k| *k < y)).copied()
        })
        .collect()
}

#[test]
fn readers_progress_and_match_generation_oracles_under_rebuild_storm() {
    const READERS: u64 = 4;
    const QUERIES_PER_READER: u64 = 300;
    /// Ops per update batch: large enough that applying one takes longer
    /// than answering a query, so update windows can hold whole queries.
    const BATCH: usize = 20_000;

    let mut rng = SmallRng::seed_from_u64(1201);
    let tree = gen::balanced_binary(7, 6000, SizeDist::Uniform, &mut rng);
    let cfg = ServeConfig {
        workers: 4,
        queue_cap: 256,
        default_deadline: Duration::from_secs(30),
        audit_interval: Duration::from_millis(50),
        ..ServeConfig::default()
    };
    let svc = Arc::new(Service::start(tree, ParamMode::Auto, cfg));
    let leaves = Arc::new(svc.snapshot().st.tree().leaves());
    let node_count = svc.snapshot().st.tree().len() as u32;

    // Odd while an update_batch call is in progress; bumped on entry and
    // on exit, so equal odd readings bracket one update window.
    let window = Arc::new(AtomicU64::new(0));
    let during_update = Arc::new(AtomicU64::new(0));
    let published_ctr = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    // Updater: alternately insert a batch of fresh keys and remove the
    // same keys again (so the catalogs stay near their starting size),
    // back to back, until the readers are done.
    let updater = {
        let svc = Arc::clone(&svc);
        let window = Arc::clone(&window);
        let published_ctr = Arc::clone(&published_ctr);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(77);
            let mut published = 0u64;
            while !stop.load(SeqCst) {
                let keys: Vec<(NodeId, i64)> = (0..BATCH)
                    .map(|_| {
                        (
                            NodeId(rng.gen_range(0..node_count)),
                            rng.gen_range(0..10_000_000i64),
                        )
                    })
                    .collect();
                let inserts: Vec<UpdateOp<i64>> =
                    keys.iter().map(|&(n, k)| UpdateOp::Insert(n, k)).collect();
                let removes: Vec<UpdateOp<i64>> =
                    keys.iter().map(|&(n, k)| UpdateOp::Remove(n, k)).collect();
                for ops in [inserts, removes] {
                    window.fetch_add(1, SeqCst);
                    let changed = svc.update_batch(&ops);
                    window.fetch_add(1, SeqCst);
                    assert!(changed, "a batch of {BATCH} fresh keys changed nothing");
                    published += 1;
                    published_ctr.store(published, SeqCst);
                }
            }
            published
        })
    };

    // Let the first updated generation land before the readers start, so
    // every reader is guaranteed to observe a post-update generation even
    // when queries are much faster than updates.
    while published_ctr.load(SeqCst) < 1 {
        thread::sleep(Duration::from_millis(1));
    }

    let readers: Vec<_> = (0..READERS)
        .map(|t| {
            let svc = Arc::clone(&svc);
            let leaves = Arc::clone(&leaves);
            let window = Arc::clone(&window);
            let during_update = Arc::clone(&during_update);
            thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(1000 + t);
                let mut last_gen = 0u64;
                for i in 0..QUERIES_PER_READER {
                    let leaf = leaves[rng.gen_range(0..leaves.len())];
                    let y = rng.gen_range(-5..10_000_005i64);
                    let opened = window.load(SeqCst);
                    let ok = svc
                        .query_blocking(leaf, y, None)
                        .unwrap_or_else(|e| panic!("reader {t} query {i}: {e}"));
                    assert_eq!(ok.path, ok.gen.st.tree().path_from_root(leaf));
                    assert_eq!(
                        ok.answers,
                        oracle(&ok.gen.st, &ok.path, y),
                        "reader {t} query {i} on generation {}",
                        ok.gen.id
                    );
                    assert!(
                        ok.gen.id >= last_gen,
                        "reader {t}: generation went backwards ({} < {last_gen})",
                        ok.gen.id
                    );
                    last_gen = ok.gen.id;
                    // The whole query (submit → answer) landed inside one
                    // update window: reader progress while the writer
                    // holds its lock.
                    if opened % 2 == 1 && window.load(SeqCst) == opened {
                        during_update.fetch_add(1, SeqCst);
                    }
                }
                last_gen
            })
        })
        .collect();

    let mut max_gen_seen = 0u64;
    for r in readers {
        max_gen_seen = max_gen_seen.max(r.join().expect("reader panicked"));
    }
    // A large batch is much slower than a query (especially unoptimised),
    // so fast readers can drain their quota before the updater has looped
    // much; let it reach a few publishes regardless of build profile
    // before stopping it.
    while published_ctr.load(SeqCst) < 3 {
        thread::sleep(Duration::from_millis(1));
    }
    stop.store(true, SeqCst);
    let published = updater.join().expect("updater panicked");

    assert!(published >= 3, "updater must have published repeatedly");
    assert!(
        max_gen_seen >= 1,
        "readers must observe updated generations"
    );
    assert!(
        during_update.load(SeqCst) > 0,
        "readers made no progress during updates — are queries blocking on the writer lock?"
    );

    let Ok(svc) = Arc::try_unwrap(svc) else {
        panic!("service handle still shared after joins");
    };
    let stats = svc.shutdown();
    assert_eq!(stats.completed_exact, READERS * QUERIES_PER_READER);
    assert_eq!(stats.timeouts, 0);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.audits_dirty, 0, "clean run must not blame");
    assert!(stats.generations_published >= published);
}
