//! Durable mixed rounds: one writer acks single-op `update_batch` calls
//! after fsync while one reader runs `query_blocking` in a closed loop,
//! then the cluster is stopped and cold-started from its directory.

use crate::inputs::{self, Inputs};
use crate::stats;
use crate::wire::shard_config;
use fc_coop::dynamic::UpdateOp;
use fc_coop::ParamMode;
use fc_shard::{DurableCluster, ShardCluster, StoreConfig};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// How long the reader keeps probing after the last write is acked before
/// the still-unseen inserts are censored.
pub const SETTLE: Duration = Duration::from_millis(500);

/// One round's measurements. Latencies in seconds, `INFINITY` = failed.
#[derive(Debug, Default)]
pub struct Round {
    pub setup_s: f64,
    pub update_lat: Vec<f64>,
    pub write_secs: f64,
    pub lags: Vec<f64>,
    /// Reader latencies while the writer ran.
    pub read_lat: Vec<f64>,
    pub recover_s: f64,
    pub disk_bytes: u64,
    pub ops: usize,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

/// Acked inserts not yet seen by a read, one queue per owning shard:
/// shards publish independently, so a stuck shard must not hide the rest.
struct Pending {
    /// Update indices, oldest ack first.
    queues: Vec<VecDeque<usize>>,
    next: usize,
}

impl Pending {
    /// `(queue, update index)` of the next queue's oldest entry.
    fn oldest_round_robin(&mut self) -> Option<(usize, usize)> {
        let n = self.queues.len();
        for k in 0..n {
            let q = (self.next + k) % n;
            if let Some(&idx) = self.queues[q].front() {
                self.next = (q + 1) % n;
                return Some((q, idx));
            }
        }
        None
    }

    fn is_empty(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// Reader side of a round: uniform queries, alternating with probes of the
/// oldest acked-but-unseen insert, every answer oracle-checked.
fn read_loop(
    cluster: &ShardCluster<i64>,
    inp: &Inputs,
    t0: Instant,
    pending: &Mutex<Pending>,
    seen: &Mutex<Vec<Option<f64>>>,
    writer_done: &AtomicBool,
    out: &mut Round,
) {
    let mut qi = 0usize;
    let mut probe_turn = false;
    let mut settle_until: Option<Instant> = None;
    loop {
        let done = writer_done.load(SeqCst);
        if done {
            let until = *settle_until.get_or_insert_with(|| Instant::now() + SETTLE);
            let empty = pending.lock().expect("pending poisoned").is_empty();
            if empty || Instant::now() >= until {
                return;
            }
        }
        probe_turn = !probe_turn;
        let probe = if probe_turn || done {
            pending
                .lock()
                .expect("pending poisoned")
                .oldest_round_robin()
        } else {
            None
        };
        let (leaf, y) = match probe {
            Some((_, idx)) => (
                inp.updates[idx].probe_leaf,
                inputs::op_key(&inp.updates[idx].op),
            ),
            None if done => continue,
            None => {
                qi += 1;
                inp.queries[qi % inp.queries.len()]
            }
        };
        let t = Instant::now();
        let res = cluster.query_blocking(leaf, y, None);
        let lat = t.elapsed().as_secs_f64();
        let now = t0.elapsed().as_secs_f64();
        if !done {
            out.attempted += 1;
        }
        match res {
            Ok(ok) => {
                if !inputs::sharded_ok(&inp.tree, leaf, y, &ok) {
                    out.wrong += 1;
                }
                if !done {
                    out.read_lat.push(lat);
                }
                if let Some((q, idx)) = probe {
                    let UpdateOp::Insert(node, key) = inp.updates[idx].op else {
                        continue;
                    };
                    let visible = ok
                        .path
                        .iter()
                        .zip(&ok.answers)
                        .any(|(n, a)| *n == node && *a == Some(key));
                    if visible {
                        seen.lock().expect("seen poisoned")[idx] = Some(now);
                        pending.lock().expect("pending poisoned").queues[q].pop_front();
                    }
                }
            }
            Err(_) => {
                if !done {
                    out.failed += 1;
                    out.read_lat.push(f64::INFINITY);
                }
            }
        }
    }
}

/// Run one round of the first `ops` updates on a fresh durable cluster in
/// `dir` (removed first and after).
pub fn round(dir: &Path, inp: &Inputs, ops: usize) -> Round {
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    let dc = DurableCluster::create(
        dir,
        &inp.tree,
        ParamMode::Auto,
        shard_config(),
        StoreConfig::default(),
    )
    .expect("create durable cluster");
    let mut out = Round {
        setup_s: t.elapsed().as_secs_f64(),
        ops,
        ..Round::default()
    };
    let table = dc.cluster().state();
    let shards = table.table.shards();
    let pending = Mutex::new(Pending {
        queues: vec![VecDeque::new(); shards],
        next: 0,
    });
    let seen: Mutex<Vec<Option<f64>>> = Mutex::new(vec![None; ops]);
    let mut acks: Vec<(usize, f64)> = Vec::new();
    let writer_done = AtomicBool::new(false);
    let t0 = Instant::now();
    let mut writer_end = 0.0;
    let mut reader = Round::default();
    thread::scope(|s| {
        let r = s.spawn(|| {
            read_loop(
                dc.cluster(),
                inp,
                t0,
                &pending,
                &seen,
                &writer_done,
                &mut reader,
            );
        });
        for (idx, u) in inp.updates.iter().take(ops).enumerate() {
            let t = Instant::now();
            let res = dc.update_batch(&[u.op]);
            let ack = t0.elapsed().as_secs_f64();
            out.attempted += 1;
            match res {
                Ok(()) => {
                    out.update_lat.push(t.elapsed().as_secs_f64());
                    if let UpdateOp::Insert(..) = u.op {
                        let q = table.table.shard_of(&inputs::op_key(&u.op));
                        pending.lock().expect("pending poisoned").queues[q].push_back(idx);
                        acks.push((idx, ack));
                    }
                }
                Err(_) => {
                    out.failed += 1;
                    out.update_lat.push(f64::INFINITY);
                }
            }
        }
        writer_end = t0.elapsed().as_secs_f64();
        writer_done.store(true, SeqCst);
        r.join().expect("durable reader panicked");
    });
    drop(table);
    out.write_secs = writer_end;
    let seen = seen.into_inner().expect("seen poisoned");
    let ack_times: Vec<f64> = acks.iter().map(|&(_, a)| a).collect();
    let seen_times: Vec<Option<f64>> = acks.iter().map(|&(i, _)| seen[i]).collect();
    out.lags = stats::visibility_lags(&ack_times, &seen_times, writer_end + SETTLE.as_secs_f64());
    out.read_lat = reader.read_lat;
    out.attempted += reader.attempted;
    out.failed += reader.failed;
    out.wrong += reader.wrong;
    dc.shutdown();
    out.disk_bytes = dir_bytes(dir);

    let t = Instant::now();
    let (dc2, report) = DurableCluster::<i64>::cold_start(
        dir,
        ParamMode::Auto,
        shard_config(),
        StoreConfig::default(),
    )
    .expect("cold start durable cluster");
    out.recover_s = t.elapsed().as_secs_f64();
    // Every acked op must come back from the logs.
    let acked = out.update_lat.iter().filter(|l| l.is_finite()).count() as u64;
    if report.replayed_ops != acked {
        out.wrong += 1;
    }
    dc2.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    out
}
