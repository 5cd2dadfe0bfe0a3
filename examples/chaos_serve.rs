//! Chaos harness for the fc-serve query service.
//!
//! Drives ≥10⁵ mixed operations — queries, update batches, structural
//! fault injections, and forced audits — against a running [`Service`],
//! and asserts the service's core contract: **zero silently-wrong
//! answers**. Every `Ok` answer is re-checked against the sequential
//! oracle on the generation that served it; load may cost *detected*
//! outcomes (timeouts, sheds), never correctness, and the audits must
//! catch and repair injected corruption. Each update batch publishes
//! fresh derived data, so every injection is audited before the next
//! write.
//!
//! Run with: `cargo run --release --example chaos_serve`

use fc_catalog::gen::{self, SizeDist};
use fc_catalog::{NodeId, UpdateOp};
use fc_coop::{CoopStructure, ParamMode};
use fc_resilience::FaultSpec;
use fc_serve::{QueryResult, ServeConfig, Service};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

const TOTAL_OPS: usize = 120_000;
const INJECT_EVERY: usize = 6_000; // structural fault injections
const AUDIT_EVERY: usize = 1_000; // synchronous audits
const DRAIN_AT: usize = 384; // in-flight queries before draining

fn oracle(st: &CoopStructure<i64>, path: &[NodeId], y: i64) -> Vec<Option<i64>> {
    path.iter()
        .map(|&node| {
            let cat = st.tree().catalog(node);
            cat.get(cat.partition_point(|k| *k < y)).copied()
        })
        .collect()
}

#[derive(Default)]
struct Tally {
    answered: u64,
    wrong: u64,
    detected_errors: u64,
    dropped: u64,
}

fn drain(pending: &mut Vec<(NodeId, i64, Receiver<QueryResult<i64>>)>, tally: &mut Tally) {
    for (leaf, y, rx) in pending.drain(..) {
        match rx.recv() {
            Ok(Ok(ok)) => {
                let expect = oracle(&ok.gen.st, &ok.path, y);
                let path_ok = ok.path == ok.gen.st.tree().path_from_root(leaf);
                if ok.answers != expect || !path_ok {
                    tally.wrong += 1;
                    eprintln!(
                        "WRONG answer for y={y} leaf={leaf:?} on generation {}",
                        ok.gen.id
                    );
                } else {
                    tally.answered += 1;
                }
            }
            Ok(Err(_)) => tally.detected_errors += 1,
            Err(_) => tally.dropped += 1,
        }
    }
}

fn main() {
    let t0 = Instant::now();
    let mut rng = SmallRng::seed_from_u64(0xC4A0_5EED);
    let tree = gen::balanced_binary(7, 8000, SizeDist::Uniform, &mut rng);
    let cfg = ServeConfig {
        workers: 4,
        queue_cap: 512,
        default_deadline: Duration::from_millis(250),
        ..ServeConfig::default()
    };
    let svc = Service::start(tree, ParamMode::Auto, cfg);
    let leaves = svc.snapshot().st.tree().leaves();
    let node_count = svc.snapshot().st.tree().len() as u32;

    let mut tally = Tally::default();
    let mut pending: Vec<(NodeId, i64, Receiver<QueryResult<i64>>)> = Vec::new();
    let mut queries = 0u64;
    let mut update_ops = 0u64;
    let mut injections = 0u64;
    let mut shed_submits = 0u64;

    for op in 1..=TOTAL_OPS {
        if op % INJECT_EVERY == 0 {
            // Corrupt the derived data (bridges, augmented keys, skeleton
            // keys), published like a bad replica push, and audit before
            // the next write replaces it.
            let plan = svc.inject(&FaultSpec::one_of_each(), rng.gen());
            injections += plan.structural_len() as u64;
            svc.audit_blocking();
        } else if op % AUDIT_EVERY == 0 {
            svc.audit_blocking();
        } else if rng.gen_bool(0.10) {
            let ops: Vec<UpdateOp<i64>> = (0..8)
                .map(|_| {
                    let node = NodeId(rng.gen_range(0..node_count));
                    let key = rng.gen_range(0..20_000_000i64);
                    if rng.gen_bool(0.7) {
                        UpdateOp::Insert(node, key)
                    } else {
                        UpdateOp::Remove(node, key)
                    }
                })
                .collect();
            svc.update_batch(&ops);
            update_ops += ops.len() as u64;
        } else {
            let leaf = leaves[rng.gen_range(0..leaves.len())];
            let y = rng.gen_range(-5..20_000_005i64);
            match svc.submit(leaf, y, None) {
                Ok(rx) => pending.push((leaf, y, rx)),
                Err(_) => shed_submits += 1,
            }
            queries += 1;
        }
        if pending.len() >= DRAIN_AT {
            drain(&mut pending, &mut tally);
        }
    }
    drain(&mut pending, &mut tally);
    let stats = svc.shutdown();

    println!(
        "chaos_serve: {TOTAL_OPS} driver ops in {:.2?}",
        t0.elapsed()
    );
    println!(
        "  queries submitted        {queries} (shed at submit: {shed_submits}, dropped at shutdown: {})",
        tally.dropped
    );
    println!("  update ops applied       {update_ops}");
    println!("  faults injected          {injections}");
    println!("  answered                 {}", tally.answered);
    println!(
        "  detected errors          {} (timeouts {})",
        tally.detected_errors, stats.timeouts
    );
    println!(
        "  audits run/dirty         {}/{}  repairs {}",
        stats.audits_run, stats.audits_dirty, stats.repairs
    );
    println!("  generations published    {}", stats.generations_published);
    println!("  SILENTLY WRONG ANSWERS   {}", tally.wrong);

    assert_eq!(tally.wrong, 0, "chaos run produced a silently wrong answer");
    assert!(injections > 0, "chaos must actually inject faults");
    assert!(
        stats.audits_dirty > 0,
        "injected corruption must be caught by the audits"
    );
    assert!(stats.repairs > 0, "caught corruption must be repaired");
    let answered = tally.answered;
    assert!(
        answered > (queries * 9) / 10,
        "most queries must be answered despite chaos ({answered}/{queries})"
    );
    println!("chaos_serve: OK — zero silently-wrong answers across {TOTAL_OPS} ops");
}
