//! `fc-netd`: the cluster server binary.
//!
//! Builds a deterministic cluster (tree derived from `--seed`, so
//! clients can rebuild the sequential oracle on their side of the wire),
//! binds the `FCNET001` ingress, and serves until SIGTERM or a wire
//! `Shutdown` frame, then drains gracefully and exits 0.
//!
//! ```text
//! fc-netd [--addr 127.0.0.1:0] [--seed 2026] [--depth 5] [--keys 1200]
//!         [--shards 3] [--replicas 2] [--max-conns 64]
//!         [--idle-ms 10000] [--grace-ms 1000] [--drain-ms 10000]
//! ```
//!
//! Prints `LISTENING <addr>` then `READY` on stdout (the loadgen parent
//! parses these), and a `DRAINED` line before exiting.

use fc_catalog::gen::{self, SizeDist};
use fc_coop::ParamMode;
use fc_net::{install_sigterm_drain, sigterm_received, NetConfig, NetServer};
use fc_serve::ServeConfig;
use fc_shard::{ShardCluster, ShardConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    addr: String,
    seed: u64,
    depth: u32,
    keys: usize,
    shards: usize,
    replicas: usize,
    max_conns: usize,
    idle_ms: u64,
    grace_ms: u64,
    drain_ms: u64,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut out = Args {
            addr: "127.0.0.1:0".to_owned(),
            seed: 2026,
            depth: 5,
            keys: 1200,
            shards: 3,
            replicas: 2,
            max_conns: 64,
            idle_ms: 10_000,
            grace_ms: 1_000,
            drain_ms: 10_000,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut take = |name: &str| -> Result<String, String> {
                it.next().ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--addr" => out.addr = take("--addr")?,
                "--seed" => out.seed = parse_num(&take("--seed")?)?,
                "--depth" => out.depth = parse_num(&take("--depth")?)?,
                "--keys" => out.keys = parse_num(&take("--keys")?)?,
                "--shards" => out.shards = parse_num(&take("--shards")?)?,
                "--replicas" => out.replicas = parse_num(&take("--replicas")?)?,
                "--max-conns" => out.max_conns = parse_num(&take("--max-conns")?)?,
                "--idle-ms" => out.idle_ms = parse_num(&take("--idle-ms")?)?,
                "--grace-ms" => out.grace_ms = parse_num(&take("--grace-ms")?)?,
                "--drain-ms" => out.drain_ms = parse_num(&take("--drain-ms")?)?,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(out)
    }
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse::<T>().map_err(|_| format!("bad number `{s}`"))
}

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fc-netd: {e}");
            return 2;
        }
    };
    install_sigterm_drain();
    let mut rng = SmallRng::seed_from_u64(args.seed);
    let tree = gen::balanced_binary(args.depth, args.keys, SizeDist::Uniform, &mut rng);
    let cfg = ShardConfig {
        shards: args.shards,
        replicas: args.replicas,
        serve: ServeConfig {
            workers: 2,
            default_deadline: Duration::from_secs(5),
            ..ServeConfig::default()
        },
        batch_threads: 2,
        default_deadline: Duration::from_secs(10),
    };
    let cluster = Arc::new(ShardCluster::<i64>::start(&tree, ParamMode::Auto, cfg));
    let net_cfg = NetConfig {
        max_conns: args.max_conns,
        idle_timeout: Duration::from_millis(args.idle_ms),
        drain_grace: Duration::from_millis(args.grace_ms),
        drain_timeout: Duration::from_millis(args.drain_ms),
        ..NetConfig::default()
    };
    let server = match NetServer::start(Arc::clone(&cluster), args.addr.as_str(), net_cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fc-netd: bind {}: {e}", args.addr);
            return 1;
        }
    };
    // The loadgen parent parses these two lines.
    println!("LISTENING {}", server.local_addr());
    println!("READY");
    let _ = std::io::stdout().flush();
    while !sigterm_received() && !server.is_draining() {
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = server.stats();
    let report = server.drain();
    println!(
        "DRAINED took_ms {} open_at_drain {} forced {} queries {} answers {} \
         errors {} shed_conns {} proto_errors {}",
        report.took.as_millis(),
        report.open_at_drain,
        report.forced,
        stats.queries,
        stats.answers,
        stats.errors_sent,
        stats.shed_conns,
        stats.proto_errors,
    );
    let _ = std::io::stdout().flush();
    if report.forced == 0 {
        0
    } else {
        1
    }
}
