//! The repository benchmark: two workloads against the stack as
//! `fc-netd` deploys it, every answer checked against a sequential oracle,
//! end-to-end metrics from untraced runs and per-layer metrics from a
//! separate traced run over the same inputs. See `README.md` beside this
//! crate for the workloads, metrics, and seeds.

pub mod durable;
pub mod inputs;
pub mod ladder;
pub mod stats;
pub mod trace;
pub mod wire;

use stats::{median, percentile, sorted};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;
use wire::CONNS;

/// Seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 2026;
/// Seed kept out of tuning, for checking a claimed gain.
pub const HELD_OUT_SEED: u64 = 7919;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Wire reads on the committed bench tree, which fits in L2.
    ReadSmall,
    /// Durable single-op writes with a concurrent in-process reader.
    MixedDurable,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ReadSmall, Workload::MixedDurable];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadSmall => "read-small",
            Workload::MixedDurable => "mixed-durable",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The sizes each workload runs at.
    pub fn spec(self) -> Spec {
        match self {
            Workload::ReadSmall => Spec {
                depth: 6,
                keys: 6_000,
                open_rate: 15_000.0,
                stacks: 7,
                write_ops: 2_000,
                rounds: 5,
            },
            Workload::MixedDurable => Spec {
                depth: 6,
                keys: 6_000,
                open_rate: 15_000.0,
                stacks: 1,
                write_ops: 4_000,
                rounds: 5,
            },
        }
    }
}

/// Sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub depth: u32,
    pub keys: usize,
    /// Fixed open-loop rate, q/s: about half the closed-loop capacity
    /// measured on the machine the benchmark was sized on.
    pub open_rate: f64,
    /// Wire stacks per run, each built (timed for `setup_s`), measured on
    /// its share of the run, and torn down; read metrics are medians over
    /// stacks, so one unlucky thread placement cannot move them.
    pub stacks: usize,
    /// Durable writes per round.
    pub write_ops: usize,
    /// Durable rounds per run (`mixed-durable` adds rounds until its
    /// measuring time is spent); write metrics are medians over rounds.
    pub rounds: usize,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Operations attempted, failed, and answered wrongly over a whole run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Tally {
    pub fn wire(&mut self, p: &wire::Phase) {
        self.attempted += p.attempted;
        self.failed += p.failed;
        self.wrong += p.wrong;
    }

    fn round(&mut self, r: &durable::Round) {
        self.attempted += r.attempted;
        self.failed += r.failed;
        self.wrong += r.wrong;
    }
}

/// What a run prints.
#[derive(Debug)]
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// One JSON object describing the machine and the configuration.
    pub provenance: String,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.tally.wrong == 0
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed
        )
    }
}

/// A JSON number with every digit Rust keeps; non-finite values (a phase
/// that measured nothing) become `null` rather than invalid JSON.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// Where a run keeps its scratch files and trace: inside the benchmark's
/// own directory of the checkout it was built from.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn read_trim(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_owned())
}

/// Unified cache size of `level` (e.g. "2048K"), from sysfs.
fn cache_size(level: &str) -> String {
    (0..8)
        .find_map(|i| {
            let base = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let lvl = read_trim(&format!("{base}/level"))?;
            let ty = read_trim(&format!("{base}/type"))?;
            (lvl == level && ty == "Unified").then(|| read_trim(&format!("{base}/size")))?
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    read_trim("/proc/self/status")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn provenance(w: Workload, spec: &Spec, seed: u64, seconds: f64, trace: bool) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"nproc\": {cores}, \"l2\": \"{}\", \"l3\": \"{}\", \"tree_depth\": {}, \"tree_keys\": {}, \
         \"open_rate_qps\": {}, \"conns\": {CONNS}, \"shards\": {}, \"replicas\": {}, \"workers\": {}, \
         \"processors\": {}, \"audit_interval_ms\": {}, \"batch_threads\": {}, \"fsync\": {}, \
         \"write_ops_per_round\": {}, \"incremental\": {}}}",
        w.name(),
        cache_size("2"),
        cache_size("3"),
        spec.depth,
        spec.keys,
        spec.open_rate,
        wire::SHARDS,
        wire::REPLICAS,
        wire::WORKERS,
        wire::PROCESSORS,
        wire::AUDIT_INTERVAL.as_millis(),
        wire::BATCH_THREADS,
        fc_shard::StoreConfig::default().fsync,
        spec.write_ops,
        wire::serve_config().incremental,
    )
}

/// Push the write-side end-to-end metrics of a run's durable rounds.
fn write_metrics(m: &mut Vec<Metric>, rounds: &[durable::Round]) {
    let ops: usize = rounds.iter().map(|r| r.ops).sum();
    let secs: f64 = rounds.iter().map(|r| r.write_secs).sum();
    let per =
        |f: &dyn Fn(&durable::Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    // Pooled over rounds: an fsync tail is rare enough that one round's
    // p99 rests on too few samples to repeat.
    let lat = sorted(
        rounds
            .iter()
            .flat_map(|r| r.update_lat.iter().copied())
            .collect(),
    );
    m.push(Metric::new("update_ops_per_s", ops as f64 / secs, "ops/s"));
    m.push(Metric::new(
        "update_p50_us",
        percentile(&lat, 0.5) * 1e6,
        "us",
    ));
    m.push(Metric::new(
        "update_p99_us",
        percentile(&lat, 0.99) * 1e6,
        "us",
    ));
    m.push(Metric::new(
        "visible_lag_p99_ms",
        per(&|r| percentile(&sorted(r.lags.clone()), 0.99)) * 1e3,
        "ms",
    ));
    m.push(Metric::new("recover_s", per(&|r| r.recover_s), "s"));
    m.push(Metric::new(
        "disk_bytes_per_op",
        per(&|r| r.disk_bytes as f64 / r.ops as f64),
        "B/op",
    ));
}

/// Run one workload for `seconds` of measuring and report it. With
/// `trace` the per-layer ladder runs instead of the end-to-end phases.
pub fn run(w: Workload, spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Report {
    let scratch = out_dir().join(format!("run-{}-{}", w.name(), std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch directory");
    let inp = inputs::generate(spec.depth, spec.keys, spec.write_ops, seed);
    let mut tally = Tally::default();
    let mut metrics = Vec::new();
    if trace {
        let tr = Tracer::new(true);
        metrics = ladder::run(&inp, spec, seconds, &tr, &scratch, &mut tally);
        // One file per workload, overwritten by the next traced run.
        let file = out_dir().join(format!("trace-{}.tsv", w.name()));
        tr.write_tsv(&file).expect("write trace spans");
    } else {
        let mut rounds = Vec::new();
        if w == Workload::MixedDurable {
            // Each round is a fresh cluster, so every round's set-up, disk
            // use and recovery compare like for like.
            let mut spent = 0.0;
            while rounds.len() < spec.rounds || spent < seconds {
                let r = durable::round(&scratch.join("cluster"), &inp, spec.write_ops);
                spent += r.write_secs;
                tally.round(&r);
                rounds.push(r);
            }
            let per = |f: &dyn Fn(&durable::Round) -> f64| {
                median(&rounds.iter().map(f).collect::<Vec<_>>())
            };
            let read_p = |r: &durable::Round, p: f64| percentile(&sorted(r.read_lat.clone()), p);
            metrics.push(Metric::new("setup_s", per(&|r| r.setup_s), "s"));
            metrics.push(Metric::new(
                "query_qps",
                per(&|r| r.read_lat.len() as f64 / r.write_secs),
                "q/s",
            ));
            metrics.push(Metric::new(
                "query_p50_us",
                per(&|r| read_p(r, 0.5)) * 1e6,
                "us",
            ));
            metrics.push(Metric::new(
                "query_p99_us",
                per(&|r| read_p(r, 0.99)) * 1e6,
                "us",
            ));
        } else {
            // Closed loop on every stack. The fixed-rate open loop runs in
            // the traced run only: its due-time tail is set by how often
            // the machine stalls, which varies from run to run by more than
            // any bound a regression gate could use.
            let off = Tracer::new(false);
            let slice = Duration::from_secs_f64(seconds / spec.stacks as f64);
            let (mut setup, mut qps, mut p50, mut p99) = (vec![], vec![], vec![], vec![]);
            for _ in 0..spec.stacks {
                let t = Instant::now();
                let stack = wire::Stack::start(&inp.tree);
                setup.push(t.elapsed().as_secs_f64());
                let addr = stack.addr();
                // Warm caches and lazy set-up before anything is timed.
                tally.wire(&wire::closed_loop(addr, &inp, slice / 10, CONNS, &off, 0));
                let closed = wire::closed_loop(addr, &inp, slice * 9 / 10, CONNS, &off, 0);
                tally.wire(&closed);
                stack.stop();
                let rtts = sorted(closed.rtts);
                qps.push(closed.attempted as f64 / closed.secs);
                p50.push(percentile(&rtts, 0.5) * 1e6);
                p99.push(percentile(&rtts, 0.99) * 1e6);
            }
            metrics.push(Metric::new("setup_s", median(&setup), "s"));
            metrics.push(Metric::new("query_qps", median(&qps), "q/s"));
            metrics.push(Metric::new("query_p50_us", median(&p50), "us"));
            metrics.push(Metric::new("query_p99_us", median(&p99), "us"));
            for _ in 0..spec.rounds {
                let r = durable::round(&scratch.join("cluster"), &inp, spec.write_ops);
                tally.round(&r);
                rounds.push(r);
            }
        }
        write_metrics(&mut metrics, &rounds);
        metrics.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB"));
    }
    let _ = std::fs::remove_dir_all(&scratch);
    Report {
        tally,
        metrics,
        provenance: provenance(w, spec, seed, seconds, trace),
    }
}
