//! Multi-process loadgen gate for the network ingress (registered under
//! fc-net in `crates/net/Cargo.toml`).
//!
//! One binary, three roles (selected by `FC_NET_ROLE`, the same
//! self-exec idiom as `tests/store_recovery.rs`):
//!
//! * **parent** (no role) — orchestrates: spawns the server process
//!   (`fc-netd` if it sits next to this example in the target dir,
//!   otherwise a self-exec'd twin), then drives four phases and asserts
//!   their invariants.
//! * **server** — `fc-netd`'s run loop: deterministic cluster, `FCNET001`
//!   ingress, `LISTENING`/`READY`/`DRAINED` lines on stdout, exit 0 iff
//!   the drain forced nothing.
//! * **client** — rebuilds the seed-derived tree (its own copy of the
//!   sequential oracle), fires paced queries over the wire through
//!   `RetryClient`, verifies every `Ok` against the oracle, and prints
//!   `CLIENT ok <n> err <n> wrong <n>`.
//!
//! Phases and invariants:
//!
//! 1. **Throughput** — 4 client processes at ~200 qps each for 3 s:
//!    zero wrong answers, nonzero throughput.
//! 2. **Overload** — more idle connections than `--max-conns`: every
//!    connection past the cap receives a *typed* `Overloaded` reply,
//!    not a silent close or a hang.
//! 3. **Client kill** — SIGKILL one client mid-stream: the server keeps
//!    serving oracle-equal answers to everyone else.
//! 4. **SIGTERM mid-storm** — TERM the server while 3 clients hammer it:
//!    the server drains (bounded time, zero forced connections, exit 0),
//!    clients see answers or typed errors — never a wrong answer.
//!
//! Run with `cargo run --release -p fc-net --example netd_loadgen`.

use fc_catalog::gen::{self, SizeDist};
use fc_catalog::{CatalogTree, NodeId};
use fc_net::proto::{self, DEFAULT_MAX_FRAME_LEN};
use fc_net::{
    install_sigterm_drain, sigterm_received, ClientConfig, ErrorCode, NetConfig, NetError,
    NetServer, RetryClient,
};
use fc_serve::ServeConfig;
use fc_shard::{ShardCluster, ShardConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TREE_SEED: u64 = 0x10AD_5EED;
const TREE_DEPTH: u32 = 5;
const TREE_KEYS: usize = 1_500;
const KEY_SPAN: i64 = 200_000;
const MAX_CONNS: usize = 24;
const OVERLOAD_EXTRA: usize = 8;
const DRAIN_MS: u64 = 8_000;

fn main() {
    match std::env::var("FC_NET_ROLE").as_deref() {
        Ok("server") => std::process::exit(server_role()),
        Ok("client") => std::process::exit(client_role()),
        _ => parent(),
    }
}

fn build_tree() -> CatalogTree<i64> {
    let mut rng = SmallRng::seed_from_u64(TREE_SEED);
    gen::balanced_binary(TREE_DEPTH, TREE_KEYS, SizeDist::Uniform, &mut rng)
}

// ---------------------------------------------------------------------
// Server role: fc-netd's run loop, self-exec'd (used when the fc-netd
// binary wasn't built alongside this example).
// ---------------------------------------------------------------------

fn server_role() -> i32 {
    install_sigterm_drain();
    let tree = build_tree();
    let cluster = Arc::new(ShardCluster::<i64>::start(
        &tree,
        fc_coop::ParamMode::Auto,
        ShardConfig {
            shards: 3,
            replicas: 2,
            serve: ServeConfig {
                workers: 2,
                default_deadline: Duration::from_secs(5),
                audit_interval: Duration::from_millis(250),
                ..ServeConfig::default()
            },
            batch_threads: 2,
            default_deadline: Duration::from_secs(10),
        },
    ));
    let server = NetServer::start(
        Arc::clone(&cluster),
        "127.0.0.1:0",
        NetConfig {
            max_conns: MAX_CONNS,
            idle_timeout: Duration::from_secs(3),
            drain_grace: Duration::from_millis(500),
            drain_timeout: Duration::from_millis(DRAIN_MS),
            ..NetConfig::default()
        },
    )
    .expect("bind");
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
    i32::from(report.forced != 0)
}

// ---------------------------------------------------------------------
// Client role: paced oracle-checked load.
// ---------------------------------------------------------------------

fn oracle(tree: &CatalogTree<i64>, leaf: NodeId, y: i64) -> Vec<(u32, Option<i64>)> {
    tree.path_from_root(leaf)
        .iter()
        .map(|&node| {
            let cat = tree.catalog(node);
            (node.0, cat.get(cat.partition_point(|k| *k < y)).copied())
        })
        .collect()
}

fn client_role() -> i32 {
    let addr: SocketAddr = std::env::var("FC_NET_ADDR")
        .expect("FC_NET_ADDR")
        .parse()
        .expect("addr");
    let qps: u64 = std::env::var("FC_NET_QPS")
        .expect("FC_NET_QPS")
        .parse()
        .unwrap();
    let secs: u64 = std::env::var("FC_NET_SECS")
        .expect("FC_NET_SECS")
        .parse()
        .unwrap();
    let cseed: u64 = std::env::var("FC_NET_CSEED")
        .expect("FC_NET_CSEED")
        .parse()
        .unwrap();
    let tree = build_tree();
    let leaves = tree.leaves();
    let mut rng = SmallRng::seed_from_u64(cseed);
    let mut client = RetryClient::new(
        addr,
        ClientConfig {
            read_timeout: Duration::from_secs(5),
            ..ClientConfig::default()
        },
        2,
        cseed,
    );
    let period = Duration::from_nanos(1_000_000_000 / qps.max(1));
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(secs);
    let (mut ok, mut err, mut wrong) = (0u64, 0u64, 0u64);
    let mut tick = 0u32;
    while Instant::now() < deadline {
        let leaf = leaves[rng.gen_range(0..leaves.len())];
        let y = rng.gen_range(-KEY_SPAN..KEY_SPAN);
        match client.query(leaf.0, y, Some(Duration::from_secs(2))) {
            Ok(ans) => {
                if ans.entries == oracle(&tree, leaf, y) {
                    ok += 1;
                } else {
                    wrong += 1;
                    eprintln!("CLIENT-WRONG leaf {} key {y}: {:?}", leaf.0, ans.entries);
                }
            }
            // Typed errors and transport failures during shutdown are
            // legal outcomes; *wrong* answers never are.
            Err(NetError::Remote(e)) if e.code == ErrorCode::ShuttingDown => {
                err += 1;
                break; // the server is draining; stop adding load
            }
            Err(_) => err += 1,
        }
        tick += 1;
        let next = t0 + period * tick;
        if let Some(sleep) = next.checked_duration_since(Instant::now()) {
            std::thread::sleep(sleep);
        }
    }
    println!("CLIENT ok {ok} err {err} wrong {wrong}");
    let _ = std::io::stdout().flush();
    i32::from(wrong != 0)
}

// ---------------------------------------------------------------------
// Parent: orchestration + assertions.
// ---------------------------------------------------------------------

struct ServerProc {
    child: Child,
    reader: BufReader<std::process::ChildStdout>,
    addr: SocketAddr,
}

fn spawn_server() -> ServerProc {
    let me = std::env::current_exe().expect("current_exe");
    // Prefer the real fc-netd binary when it was built alongside
    // (target/<profile>/examples/netd_loadgen → target/<profile>/fc-netd);
    // otherwise self-exec the server role, which runs the same loop.
    let netd = me
        .parent()
        .and_then(|examples| examples.parent())
        .map(|profile| profile.join("fc-netd"))
        .filter(|p| p.is_file());
    let mut cmd = match netd {
        Some(bin) => {
            let mut c = Command::new(bin);
            c.args([
                "--addr",
                "127.0.0.1:0",
                "--seed",
                &TREE_SEED.to_string(),
                "--depth",
                &TREE_DEPTH.to_string(),
                "--keys",
                &TREE_KEYS.to_string(),
                "--max-conns",
                &MAX_CONNS.to_string(),
                "--idle-ms",
                "3000",
                "--grace-ms",
                "500",
                "--drain-ms",
                &DRAIN_MS.to_string(),
            ]);
            c
        }
        None => {
            let mut c = Command::new(me);
            c.env("FC_NET_ROLE", "server");
            c
        }
    };
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn server");
    let mut reader = BufReader::new(child.stdout.take().expect("server stdout"));
    let mut addr = None;
    for _ in 0..2 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("server banner");
        if let Some(rest) = line.trim().strip_prefix("LISTENING ") {
            addr = Some(rest.parse().expect("listen addr"));
        }
    }
    ServerProc {
        child,
        reader,
        addr: addr.expect("server never printed LISTENING"),
    }
}

fn spawn_client(addr: SocketAddr, qps: u64, secs: u64, cseed: u64) -> Child {
    Command::new(std::env::current_exe().expect("current_exe"))
        .env("FC_NET_ROLE", "client")
        .env("FC_NET_ADDR", addr.to_string())
        .env("FC_NET_QPS", qps.to_string())
        .env("FC_NET_SECS", secs.to_string())
        .env("FC_NET_CSEED", cseed.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn client")
}

/// Wait for a client and parse its `CLIENT ok N err N wrong N` line.
fn reap_client(child: Child, phase: &str) -> (u64, u64, u64) {
    let out = child.wait_with_output().expect("client wait");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("CLIENT "))
        .unwrap_or_else(|| panic!("{phase}: client printed no CLIENT line:\n{stdout}"));
    let nums: Vec<u64> = line
        .split_whitespace()
        .filter_map(|w| w.parse().ok())
        .collect();
    assert_eq!(nums.len(), 3, "{phase}: bad CLIENT line: {line}");
    assert!(
        out.status.success(),
        "{phase}: client exited nonzero ({line})"
    );
    (nums[0], nums[1], nums[2])
}

fn parse_drained(line: &str) -> std::collections::HashMap<String, u64> {
    let words: Vec<&str> = line.split_whitespace().collect();
    words
        .windows(2)
        .filter_map(|w| w[1].parse().ok().map(|v| (w[0].to_string(), v)))
        .collect()
}

fn parent() {
    // --- Phase 1: throughput at the stated qps, zero wrong answers. ---
    let mut srv = spawn_server();
    let addr = srv.addr;
    println!("loadgen: server up at {addr} (pid {})", srv.child.id());
    println!("loadgen: phase 1 — 4 clients × 200 qps × 3 s");
    let clients: Vec<Child> = (0..4)
        .map(|i| spawn_client(addr, 200, 3, 100 + i))
        .collect();
    let (mut total_ok, mut total_err) = (0u64, 0u64);
    for c in clients {
        let (ok, err, wrong) = reap_client(c, "throughput");
        assert_eq!(wrong, 0, "throughput phase produced wrong answers");
        total_ok += ok;
        total_err += err;
    }
    assert!(
        total_ok >= 800,
        "throughput phase: expected ≥800 oracle-equal answers, got {total_ok} (err {total_err})"
    );
    println!("loadgen: phase 1 ok — {total_ok} oracle-equal answers, {total_err} typed errors");

    // --- Phase 2: overload — connections past the cap get a typed
    //     Overloaded reply, not a silent close or a hang. ---
    println!(
        "loadgen: phase 2 — {} holders against a {MAX_CONNS}-conn cap",
        MAX_CONNS + OVERLOAD_EXTRA
    );
    std::thread::sleep(Duration::from_millis(500)); // let phase-1 conns close
    let mut holders = Vec::new();
    let mut overloaded = 0usize;
    for _ in 0..MAX_CONNS + OVERLOAD_EXTRA {
        let s = TcpStream::connect(addr).expect("holder connect");
        s.set_read_timeout(Some(Duration::from_millis(1_000)))
            .unwrap();
        holders.push(s);
    }
    for s in &mut holders {
        if let Ok(frame) = proto::read_frame(s, DEFAULT_MAX_FRAME_LEN) {
            if let Ok((proto::Response::Error(e), _)) =
                proto::decode_response::<i64>(&frame, DEFAULT_MAX_FRAME_LEN)
            {
                assert_eq!(
                    e.code,
                    ErrorCode::Overloaded,
                    "shed connection got a non-Overloaded reply: {e:?}"
                );
                overloaded += 1;
            }
        }
    }
    drop(holders);
    assert!(
        overloaded >= OVERLOAD_EXTRA,
        "expected ≥{OVERLOAD_EXTRA} typed Overloaded sheds, got {overloaded}"
    );
    println!("loadgen: phase 2 ok — {overloaded} typed Overloaded replies");

    // --- Phase 3: SIGKILL a client mid-stream; everyone else unharmed. ---
    println!("loadgen: phase 3 — killing a client mid-stream");
    std::thread::sleep(Duration::from_millis(500)); // let holders close
    let mut victim = spawn_client(addr, 200, 4, 300);
    let survivor = spawn_client(addr, 200, 4, 301);
    std::thread::sleep(Duration::from_secs(1));
    victim.kill().expect("kill client"); // SIGKILL: no goodbye frame
    let _ = victim.wait();
    let (ok, _err, wrong) = reap_client(survivor, "client-kill");
    assert_eq!(wrong, 0, "client-kill phase produced wrong answers");
    assert!(ok > 0, "survivor client made no progress after the kill");
    println!("loadgen: phase 3 ok — survivor answered {ok} queries oracle-equal");

    // --- Phase 4: SIGTERM the server mid-storm; bounded graceful drain,
    //     zero forced connections, zero wrong answers, exit 0. ---
    println!("loadgen: phase 4 — SIGTERM mid-storm");
    let storm: Vec<Child> = (0..3)
        .map(|i| spawn_client(addr, 200, 4, 400 + i))
        .collect();
    std::thread::sleep(Duration::from_secs(1));
    let term = Command::new("kill")
        .args(["-TERM", &srv.child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success(), "kill -TERM failed");
    let t_term = Instant::now();

    // Clients ride out the drain: typed errors allowed, wrongness not.
    for c in storm {
        let (_ok, _err, wrong) = reap_client(c, "sigterm-storm");
        assert_eq!(wrong, 0, "sigterm phase produced wrong answers");
    }

    // The server prints DRAINED and exits 0 within the drain bound.
    let mut drained_line = String::new();
    loop {
        let mut line = String::new();
        if srv.reader.read_line(&mut line).expect("server stdout") == 0 {
            break;
        }
        if line.starts_with("DRAINED ") {
            drained_line = line;
        }
    }
    assert!(!drained_line.is_empty(), "server never printed DRAINED");
    let fields = parse_drained(&drained_line);
    let status = loop {
        if let Some(st) = srv.child.try_wait().expect("server wait") {
            break st;
        }
        assert!(
            t_term.elapsed() < Duration::from_millis(DRAIN_MS + 5_000),
            "server did not exit within the drain bound"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        status.success(),
        "server exited nonzero after SIGTERM: {status}"
    );
    assert_eq!(
        fields.get("forced").copied(),
        Some(0),
        "drain forced connections closed: {drained_line}"
    );
    let took = fields.get("took_ms").copied().unwrap_or(u64::MAX);
    assert!(
        took <= DRAIN_MS,
        "drain took {took} ms, bound is {DRAIN_MS} ms: {drained_line}"
    );
    let answers = fields.get("answers").copied().unwrap_or(0);
    assert!(answers > 0, "server served no answers: {drained_line}");
    println!("loadgen: phase 4 ok — drained in {took} ms, forced 0, {answers} answers served");
    println!("loadgen: PASS — zero silently-wrong answers across all phases");
}
