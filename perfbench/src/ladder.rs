//! The traced run: the workload's own inputs replayed into each layer's
//! public entry point, one rung at a time, every call inside a span. A
//! layer's self time is its rung's median minus the rung below it:
//! naive → descent → coop → serve → shard → net.

use crate::inputs::{self, Inputs};
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use crate::wire::{self, serve_config, Stack, CONNS, PROCESSORS};
use crate::{Metric, Spec, Tally};
use fc_catalog::cascade::Find;
use fc_catalog::search::search_path_fc_into;
use fc_catalog::{CatalogTree, NodeId};
use fc_coop::dynamic::{DynamicCoop, UpdateOp};
use fc_coop::{coop_search_explicit_cancellable, CancelToken, ParamMode};
use fc_net::proto::{
    decode_request, decode_response, encode_request, encode_response, DEFAULT_MAX_FRAME_LEN,
};
use fc_net::{Request, Response, WireAnswer};
use fc_pram::{Model, Pram};
use fc_serve::Service;
use fc_store::{Store, StoreConfig};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Queries per timed batch on the sub-microsecond rungs, where one clock
/// read per call would cost as much as the call.
const BATCH: usize = 64;

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn p_of(ns: Vec<f64>, p: f64) -> f64 {
    percentile(&sorted(ns), p)
}

/// Run `f(i)` for `i = 0, 1, …` until `budget` has passed (at least
/// `min` times, at most `max`).
fn for_budget(budget: Duration, min: usize, max: usize, mut f: impl FnMut(usize)) {
    let end = Instant::now() + budget;
    let mut i = 0;
    while i < max && (i < min || Instant::now() < end) {
        f(i);
        i += 1;
    }
}

/// Median ns per item of `call`, timed over batches of [`BATCH`] items.
fn batched_ns<T>(
    tr: &Tracer,
    name: &'static str,
    items: &[T],
    budget: Duration,
    mut call: impl FnMut(&T),
) -> f64 {
    let rung = tr.span(name, 0, 0, |rung| {
        for_budget(budget, 8, usize::MAX, |b| {
            tr.span("batch", rung, b as u64 + 1, |_| {
                for k in 0..BATCH {
                    call(black_box(&items[(b * BATCH + k) % items.len()]));
                }
            });
        });
        rung
    });
    let per_item: Vec<f64> = tr
        .children_ns(rung)
        .iter()
        .map(|d| d / BATCH as f64)
        .collect();
    median(&per_item)
}

/// Sum the WAL segment bytes under `dir`.
fn wal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == "fcw"))
                .map(|e| e.metadata().map_or(0, |m| m.len()))
                .sum()
        })
        .unwrap_or(0)
}

/// Replay the workload into every rung; returns the per-layer metrics.
pub fn run(
    inp: &Inputs,
    spec: &Spec,
    secs: f64,
    tr: &Tracer,
    scratch: &Path,
    tally: &mut Tally,
) -> Vec<Metric> {
    let share = |f: f64| Duration::from_secs_f64(secs * f);
    let mut m: Vec<Metric> = Vec::new();
    let ops: Vec<UpdateOp<i64>> = inp
        .updates
        .iter()
        .take(spec.write_ops)
        .map(|u| u.op)
        .collect();

    // --- net / shard / cluster-write rungs on the deployed stack --------
    let stack = Stack::start(&inp.tree);
    let addr = stack.addr();
    let off = Tracer::new(false);
    tally.wire(&wire::closed_loop(addr, inp, share(0.05), CONNS, &off, 0));
    let open = tr.span("rung.loadgen", 0, 0, |rung| {
        wire::open_loop(addr, inp, spec.open_rate, share(0.2), CONNS, tr, rung)
    });
    tally.wire(&open);
    let late_us: Vec<f64> = open.samples.iter().map(|s| s.lateness() * 1e6).collect();
    let due_us: Vec<f64> = open.samples.iter().map(|s| s.latency() * 1e6).collect();
    m.push(Metric::new(
        "loadgen.late_p99_us",
        p_of(late_us, 0.99),
        "us",
    ));
    m.push(Metric::new(
        "loadgen.open_p50_us",
        p_of(due_us.clone(), 0.5),
        "us",
    ));
    m.push(Metric::new("loadgen.open_p99_us", p_of(due_us, 0.99), "us"));

    // The end-to-end closed loop, untraced then traced: what spans cost.
    let plain = wire::closed_loop(addr, inp, share(0.1), CONNS, &off, 0);
    let traced = tr.span("rung.closed", 0, 0, |rung| {
        wire::closed_loop(addr, inp, share(0.1), CONNS, tr, rung)
    });
    tally.wire(&plain);
    tally.wire(&traced);
    let overhead = p_of(traced.rtts, 0.5) / p_of(plain.rtts, 0.5) - 1.0;
    m.push(Metric::new("trace.overhead_frac", overhead, "ratio"));

    // One connection, closed loop: the net rung.
    let (net_rung, single) = tr.span("rung.net", 0, 0, |rung| {
        (rung, wire::closed_loop(addr, inp, share(0.1), 1, tr, rung))
    });
    tally.wire(&single);
    let net_rtt_p50 = us(p_of(tr.children_ns(net_rung), 0.5));

    let cluster = &stack.cluster;
    let before = cluster.stats();
    tr.span("rung.shard", 0, 0, |rung| {
        for_budget(share(0.1), 200, usize::MAX, |i| {
            let (leaf, y) = inp.queries[i % inp.queries.len()];
            let res = tr.span("shard.query_blocking", rung, i as u64 + 1, |_| {
                cluster.query_blocking(leaf, y, None)
            });
            tally.attempted += 1;
            match res {
                Ok(ok) if inputs::sharded_ok(&inp.tree, leaf, y, &ok) => {}
                Ok(_) => tally.wrong += 1,
                Err(_) => tally.failed += 1,
            }
        });
    });
    let after = cluster.stats();
    let shard_ns = tr.durations_ns("shard.query_blocking");
    let shard_p50 = us(p_of(shard_ns.clone(), 0.5));
    m.push(Metric::new("shard.query_p50_us", shard_p50, "us"));
    m.push(Metric::new(
        "shard.query_p99_us",
        us(p_of(shard_ns, 0.99)),
        "us",
    ));
    let queries = (after.queries - before.queries).max(1) as f64;
    m.push(Metric::new(
        "shard.legs_per_query",
        (after.legs - before.legs) as f64 / queries,
        "ratio",
    ));
    m.push(Metric::new(
        "shard.failovers",
        after.failovers as f64,
        "count",
    ));

    m.push(Metric::new("net.rtt_p50_us", net_rtt_p50, "us"));
    m.push(Metric::new("net.self_us", net_rtt_p50 - shard_p50, "us"));
    let ns = stack.server.stats();
    m.push(Metric::new(
        "net.errors_sent",
        ns.errors_sent as f64,
        "count",
    ));
    m.push(Metric::new("net.shed_conns", ns.shed_conns as f64, "count"));
    m.push(Metric::new(
        "net.proto_errors",
        ns.proto_errors as f64,
        "count",
    ));
    let rs = wire::replica_stats(cluster);
    m.push(Metric::new(
        "serve.audits_run",
        rs.audits_run as f64,
        "count",
    ));
    m.push(Metric::new("serve.retries", rs.retries as f64, "count"));
    m.push(Metric::new(
        "serve.degraded",
        rs.completed_degraded as f64,
        "count",
    ));
    m.push(Metric::new("serve.shed", rs.shed as f64, "count"));

    // Shard-filtered trees and op routing, taken before any write lands.
    let state = cluster.state();
    let shard_trees: Vec<CatalogTree<i64>> = state
        .groups
        .iter()
        .map(|g| {
            g.replica(0)
                .expect("every shard has a replica")
                .snapshot()
                .st
                .tree()
                .clone()
        })
        .collect();
    let owner: Vec<usize> = ops
        .iter()
        .map(|op| state.table.shard_of(&inputs::op_key(op)))
        .collect();
    drop(state);

    tr.span("rung.shard_update", 0, 0, |rung| {
        for (i, op) in ops.iter().enumerate() {
            tr.span("shard.update_batch", rung, i as u64 + 1, |_| {
                cluster.update_batch(std::slice::from_ref(op))
            });
        }
    });
    let upd = tr.durations_ns("shard.update_batch");
    m.push(Metric::new(
        "shard.update_p50_us",
        us(p_of(upd.clone(), 0.5)),
        "us",
    ));
    m.push(Metric::new(
        "shard.update_p99_us",
        us(p_of(upd, 0.99)),
        "us",
    ));
    let ws = cluster.write_stats();
    m.push(Metric::new("shard.rebuilds", ws.rebuilds as f64, "count"));
    m.push(Metric::new(
        "shard.fallback_rebuilds",
        ws.fallback_rebuilds as f64,
        "count",
    ));
    m.push(Metric::new(
        "shard.keys_touched_per_op",
        ws.keys_touched as f64 / ops.len().max(1) as f64,
        "count",
    ));
    stack.stop();

    // --- store: the same writes, per owning shard, fsync on --------------
    let store_dir = scratch.join("store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut wal = 0u64;
    tr.span("rung.store", 0, 0, |rung| {
        for (s, tree) in shard_trees.iter().enumerate() {
            let dir = store_dir.join(format!("shard-{s}"));
            let store = Store::<i64>::open(&dir, StoreConfig::default()).expect("open store");
            store
                .persist_snapshot(tree, 0)
                .expect("persist shard snapshot");
            for (i, op) in ops.iter().enumerate().filter(|(i, _)| owner[*i] == s) {
                let res = tr.span("store.append_batch", rung, i as u64 + 1, |_| {
                    store.append_batch(std::slice::from_ref(op))
                });
                tally.attempted += 1;
                if res.is_err() {
                    tally.failed += 1;
                }
            }
            drop(store);
            wal += wal_bytes(&dir);
            let rec = tr.span("store.recover", rung, s as u64 + 1, |_| {
                fc_store::recover::<i64>(&dir)
            });
            let want = owner.iter().filter(|&&o| o == s).count() as u64;
            if rec.map_or(true, |r| r.replayed_ops != want) {
                tally.wrong += 1;
            }
        }
    });
    let _ = std::fs::remove_dir_all(&store_dir);
    let app = tr.durations_ns("store.append_batch");
    m.push(Metric::new(
        "store.append_p50_us",
        us(p_of(app.clone(), 0.5)),
        "us",
    ));
    m.push(Metric::new(
        "store.append_p99_us",
        us(p_of(app, 0.99)),
        "us",
    ));
    m.push(Metric::new(
        "store.wal_bytes_per_op",
        wal as f64 / ops.len().max(1) as f64,
        "B/op",
    ));
    let recover_ms: f64 = tr.durations_ns("store.recover").iter().sum::<f64>() / 1e6;
    m.push(Metric::new("store.recover_ms", recover_ms, "ms"));

    // --- dyn and rebuild on shard 0's tree and its share of the writes ---
    let shard0: Vec<UpdateOp<i64>> = ops
        .iter()
        .zip(&owner)
        .filter(|(_, &o)| o == 0)
        .map(|(op, _)| *op)
        .collect();
    let mut pram = Pram::new(PROCESSORS, Model::Crew);
    let mut incr = DynamicCoop::new_incremental(
        shard_trees[0].clone(),
        ParamMode::Auto,
        serve_config().rebuild_frac,
    );
    tr.span("rung.dyn", 0, 0, |rung| {
        for (i, op) in shard0.iter().enumerate() {
            tr.span("dyn.update", rung, i as u64 + 1, |_| match *op {
                UpdateOp::Insert(node, key) => incr.insert(node, key, &mut pram),
                UpdateOp::Remove(node, key) => incr.remove(node, key, &mut pram),
            });
        }
    });
    drop(incr);
    let dy = tr.durations_ns("dyn.update");
    m.push(Metric::new(
        "dyn.update_p50_us",
        us(p_of(dy.clone(), 0.5)),
        "us",
    ));
    m.push(Metric::new("dyn.update_p99_us", us(p_of(dy, 0.99)), "us"));
    let mut buffered = DynamicCoop::new(
        shard_trees[0].clone(),
        ParamMode::Auto,
        serve_config().rebuild_frac,
    );
    buffered.apply_batch(&shard0, &mut pram);
    tr.span("rung.rebuild", 0, 0, |rung| {
        for_budget(share(0.05), 3, 50, |i| {
            tr.span("coop.force_rebuild", rung, i as u64 + 1, |_| {
                buffered.force_rebuild(&mut pram)
            });
        });
    });
    drop(buffered);
    drop(shard_trees);
    m.push(Metric::new(
        "coop.rebuild_ms",
        median(&tr.durations_ns("coop.force_rebuild")) / 1e6,
        "ms",
    ));

    // --- serve: one unsharded service, same config ----------------------
    let svc = Service::start(inp.tree.clone(), ParamMode::Auto, serve_config());
    tr.span("rung.serve", 0, 0, |rung| {
        for_budget(share(0.1), 200, usize::MAX, |i| {
            let (leaf, y) = inp.queries[i % inp.queries.len()];
            let res = tr.span("serve.query_blocking", rung, i as u64 + 1, |_| {
                svc.query_blocking(leaf, y, None)
            });
            tally.attempted += 1;
            match res {
                Ok(ok) => {
                    // No writes reach this service: the generated tree is
                    // the oracle.
                    let entries: Vec<(u32, Option<i64>)> =
                        ok.path.iter().map(|n| n.0).zip(ok.answers).collect();
                    if !inputs::answers_ok(&inp.tree, leaf, y, &entries) {
                        tally.wrong += 1;
                    }
                }
                Err(_) => tally.failed += 1,
            }
        });
        for_budget(share(0.05), 3, 50, |i| {
            tr.span("serve.audit_blocking", rung, i as u64 + 1, |_| {
                svc.audit_blocking()
            });
        });
    });
    let gen = svc.snapshot();
    svc.shutdown();
    let serve_ns = tr.durations_ns("serve.query_blocking");
    let serve_p50 = us(p_of(serve_ns.clone(), 0.5));
    m.push(Metric::new("serve.query_p50_us", serve_p50, "us"));
    m.push(Metric::new(
        "serve.query_p99_us",
        us(p_of(serve_ns, 0.99)),
        "us",
    ));
    m.push(Metric::new(
        "serve.audit_ms",
        median(&tr.durations_ns("serve.audit_blocking")) / 1e6,
        "ms",
    ));
    m.push(Metric::new("shard.self_us", shard_p50 - serve_p50, "us"));

    // --- coop / catalog rungs on the served generation ------------------
    let st = &gen.st;
    let paths: Vec<(Vec<NodeId>, i64)> = inp
        .queries
        .iter()
        .take(4096)
        .map(|&(leaf, y)| (st.tree().path_from_root(leaf), y))
        .collect();
    // Untimed check that the three searches agree with the oracle.
    let mut finds: Vec<Find> = Vec::new();
    for (path, y) in paths.iter().take(512) {
        let want: Vec<Option<i64>> = path
            .iter()
            .map(|&n| inputs::successor(inp.tree.catalog(n), *y))
            .collect();
        let mut p = Pram::new(PROCESSORS, Model::Crew);
        let coop = coop_search_explicit_cancellable(st, path, *y, &mut p, &CancelToken::new());
        search_path_fc_into(st.cascade(), path, *y, None, &mut finds);
        let at = |f: &[Find]| -> Vec<Option<i64>> {
            path.iter()
                .zip(f)
                .map(|(&n, f)| st.tree().catalog(n).get(f.native_idx as usize).copied())
                .collect()
        };
        tally.attempted += 1;
        if coop.map_or(true, |r| at(&r.finds) != want) || at(&finds) != want {
            tally.wrong += 1;
        }
    }
    let coop_ns = batched_ns(tr, "rung.coop", &paths, share(0.05), |(path, y)| {
        // As the serve worker runs it: a fresh machine and a deadline
        // token per query.
        let mut p = Pram::new(PROCESSORS, Model::Crew);
        let cancel = CancelToken::with_deadline(Instant::now() + Duration::from_secs(5));
        let _ = black_box(coop_search_explicit_cancellable(
            st, path, *y, &mut p, &cancel,
        ));
    });
    let descent_ns = batched_ns(tr, "rung.descent", &paths, share(0.05), |(path, y)| {
        search_path_fc_into(st.cascade(), path, *y, None, &mut finds);
        black_box(&finds);
    });
    let naive_ns = batched_ns(tr, "rung.naive", &paths, share(0.05), |(path, y)| {
        for &n in path {
            black_box(inputs::successor(st.tree().catalog(n), *y));
        }
    });
    m.push(Metric::new("catalog.naive_ns", naive_ns, "ns"));
    m.push(Metric::new("catalog.descent_ns", descent_ns, "ns"));
    m.push(Metric::new("coop.search_ns", coop_ns, "ns"));
    m.push(Metric::new("serve.self_us", serve_p50 - us(coop_ns), "us"));

    // --- net codec on the workload's own frames --------------------------
    let frames: Vec<(Request<i64>, Response<i64>)> = paths
        .iter()
        .take(1024)
        .zip(&inp.queries)
        .map(|((path, y), &(leaf, _))| {
            let entries = path
                .iter()
                .map(|&n| (n.0, inputs::successor(st.tree().catalog(n), *y)))
                .collect();
            (
                Request::Query {
                    leaf: leaf.0,
                    key: *y,
                    deadline_ms: 0,
                },
                Response::Answer(WireAnswer {
                    table_version: 1,
                    entries,
                }),
            )
        })
        .collect();
    let codec_ns = batched_ns(tr, "rung.codec", &frames, share(0.05), |(req, resp)| {
        let r = decode_request::<i64>(&encode_request(req), DEFAULT_MAX_FRAME_LEN);
        let a = decode_response::<i64>(&encode_response(resp), DEFAULT_MAX_FRAME_LEN);
        black_box((r.is_ok(), a.is_ok()));
    });
    m.push(Metric::new("net.codec_ns", codec_ns, "ns"));
    m
}
