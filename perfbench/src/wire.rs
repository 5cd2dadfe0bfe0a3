//! The stack as `fc-netd` deploys it, and the wire read phases against it:
//! an open loop at a fixed rate timed from each request's due time, and a
//! closed loop over a fixed number of connections.

use crate::inputs::{self, Inputs};
use crate::stats::{due_at, Sample};
use crate::trace::Tracer;
use fc_catalog::CatalogTree;
use fc_coop::ParamMode;
use fc_net::{ClientConfig, NetClient, NetConfig, NetServer};
use fc_serve::{ServeConfig, ServeStats};
use fc_shard::{ShardCluster, ShardConfig};
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

pub const SHARDS: usize = 3;
pub const REPLICAS: usize = 2;
pub const WORKERS: usize = 2;
pub const PROCESSORS: usize = 1 << 9;
pub const AUDIT_INTERVAL: Duration = Duration::from_millis(250);
pub const BATCH_THREADS: usize = 2;
/// Generator connections (one thread each): at most the 2 cores the
/// benchmark was sized on, so the generator cannot outnumber the server.
pub const CONNS: usize = 2;

/// The per-replica service config `fc-netd` runs.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        default_deadline: Duration::from_secs(5),
        audit_interval: AUDIT_INTERVAL,
        processors: PROCESSORS,
        ..ServeConfig::default()
    }
}

/// The cluster shape `fc-netd` runs.
pub fn shard_config() -> ShardConfig {
    ShardConfig {
        shards: SHARDS,
        replicas: REPLICAS,
        serve: serve_config(),
        batch_threads: BATCH_THREADS,
        default_deadline: Duration::from_secs(10),
        ..ShardConfig::default()
    }
}

/// Service counters summed over every replica of the cluster.
pub fn replica_stats(cluster: &ShardCluster<i64>) -> ServeStats {
    let mut sum = ServeStats::default();
    for group in &cluster.state().groups {
        for svc in group.iter() {
            let s = svc.stats();
            sum.shed += s.shed;
            sum.retries += s.retries;
            sum.completed_degraded += s.completed_degraded;
            sum.audits_run += s.audits_run;
        }
    }
    sum
}

/// A served cluster behind live loopback ingress.
pub struct Stack {
    pub cluster: Arc<ShardCluster<i64>>,
    pub server: NetServer,
}

impl Stack {
    /// Build the cluster and bind ingress: what `setup_s` times.
    pub fn start(tree: &CatalogTree<i64>) -> Stack {
        let cluster = Arc::new(ShardCluster::start(tree, ParamMode::Auto, shard_config()));
        let server = NetServer::start(Arc::clone(&cluster), "127.0.0.1:0", NetConfig::default())
            .expect("bind loopback ingress");
        Stack { cluster, server }
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Drain ingress (every client must be gone) and stop the cluster,
    /// joining its threads.
    pub fn stop(self) {
        let report = self.server.drain();
        assert_eq!(
            report.forced, 0,
            "ingress drain left connections open: {report:?}"
        );
        if let Ok(cluster) = Arc::try_unwrap(self.cluster) {
            cluster.shutdown();
        }
    }
}

/// What one wire phase saw, summed over its connections.
#[derive(Debug, Default)]
pub struct Phase {
    /// Open loop: one sample per request (seconds from the phase start).
    pub samples: Vec<Sample>,
    /// Closed loop: per-request round-trip seconds (`INFINITY` = failed).
    pub rtts: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    /// Closed loop: wall-clock seconds the phase took.
    pub secs: f64,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.rtts.extend(other.rtts);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

/// Sleep most of the way to `t`, then yield until it passes: plain sleeps
/// overshoot by the timer slack (tens of µs), which the due-time latency
/// would then charge to the server.
fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_micros(300) {
            thread::sleep(left - Duration::from_micros(200));
        } else {
            thread::yield_now();
        }
    }
}

/// One query over the wire, oracle-checked. `Err(())` = the request failed.
fn ask(
    client: &mut NetClient,
    inp: &Inputs,
    i: usize,
    tr: &Tracer,
    parent: u64,
    req: u64,
) -> Result<bool, ()> {
    let (leaf, y) = inp.queries[i % inp.queries.len()];
    let res = tr.span("net.query", parent, req, |_| {
        client.query::<i64>(leaf.0, y, None)
    });
    match res {
        Ok(a) => Ok(inputs::answers_ok(&inp.tree, leaf, y, &a.entries)),
        Err(_) => Err(()),
    }
}

fn connect(addr: SocketAddr) -> NetClient {
    NetClient::connect(addr, ClientConfig::default()).expect("connect to loopback ingress")
}

/// Open loop: `rate` q/s over `conns` connections for `dur`, each request
/// timed from its due time. Spans (if on) are children of `parent`.
pub fn open_loop(
    addr: SocketAddr,
    inp: &Inputs,
    rate: f64,
    dur: Duration,
    conns: usize,
    tr: &Tracer,
    parent: u64,
) -> Phase {
    let start = Instant::now() + Duration::from_millis(5);
    let mut total = Phase::default();
    thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut client = connect(addr);
                    let mut out = Phase::default();
                    for i in 0.. {
                        let due = due_at(rate, conns, c, i);
                        if due >= dur.as_secs_f64() {
                            break;
                        }
                        wait_until(start + Duration::from_secs_f64(due));
                        let sent = start.elapsed().as_secs_f64();
                        let slot = i * conns + c;
                        let res = ask(&mut client, inp, slot, tr, parent, slot as u64 + 1);
                        let done = start.elapsed().as_secs_f64();
                        out.attempted += 1;
                        let done = match res {
                            Ok(true) => done,
                            Ok(false) => {
                                out.wrong += 1;
                                done
                            }
                            Err(()) => {
                                out.failed += 1;
                                client = connect(addr);
                                f64::INFINITY
                            }
                        };
                        out.samples.push(Sample { due, sent, done });
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            total.absorb(h.join().expect("open-loop generator panicked"));
        }
    });
    total
}

/// Closed loop: each of `conns` connections sends its next query as soon
/// as the previous reply is back, for `dur`. Connection `c` starts at a
/// different offset of the query pool. Spans (if on) are children of
/// `parent`.
pub fn closed_loop(
    addr: SocketAddr,
    inp: &Inputs,
    dur: Duration,
    conns: usize,
    tr: &Tracer,
    parent: u64,
) -> Phase {
    let mut total = Phase::default();
    let t0 = Instant::now();
    thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut client = connect(addr);
                    let mut out = Phase::default();
                    let end = Instant::now() + dur;
                    let mut i = c * inp.queries.len() / conns.max(1);
                    while Instant::now() < end {
                        let t = Instant::now();
                        let res = ask(&mut client, inp, i, tr, parent, i as u64 + 1);
                        let rtt = t.elapsed().as_secs_f64();
                        out.attempted += 1;
                        i += 1;
                        match res {
                            Ok(true) => out.rtts.push(rtt),
                            Ok(false) => {
                                out.wrong += 1;
                                out.rtts.push(rtt);
                            }
                            Err(()) => {
                                out.failed += 1;
                                out.rtts.push(f64::INFINITY);
                                client = connect(addr);
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            total.absorb(h.join().expect("closed-loop generator panicked"));
        }
    });
    total.secs = t0.elapsed().as_secs_f64();
    total
}
