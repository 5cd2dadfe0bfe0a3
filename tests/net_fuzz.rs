//! The protocol-fuzz gate (registered under fc-net in
//! `crates/net/Cargo.toml`): deterministic byte surgery over valid
//! frames, in the style of `fc_store::fault`.
//!
//! * **Offline sweep** — ≥100k seeded mutants pushed through both
//!   decoders. Contract per mutant: a typed error, or a decoded value
//!   whose canonical re-encoding is byte-identical to the accepted
//!   prefix. Never a panic, never a hang (decoding is a pure function
//!   over a bounded buffer), never a silent reinterpretation.
//! * **Live storm** — the same mutants thrown at a real `NetServer` over
//!   TCP sockets, interleaved with valid queries that must stay
//!   oracle-equal; the server must survive, count protocol errors, and
//!   still drain clean afterwards.
//!
//! Every failure is a one-number repro: the seed prints alongside the
//! surgery list that produced the mutant.

use fc_catalog::gen::{self, SizeDist};
use fc_catalog::{CatalogTree, NodeId};
use fc_net::fuzz::Mutator;
use fc_net::proto::{self, Request, Response, WireAnswer, DEFAULT_MAX_FRAME_LEN};
use fc_net::{ClientConfig, ErrorCode, NetClient, NetConfig, NetServer, WireError};
use fc_serve::ServeConfig;
use fc_shard::{ShardCluster, ShardConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Canonical frames the mutator operates on: every request and response
/// shape, so surgery explores every decode path.
fn corpus() -> Vec<Vec<u8>> {
    let mut out = vec![
        proto::encode_request::<i64>(&Request::Query {
            leaf: 11,
            key: -777,
            deadline_ms: 1_500,
        }),
        proto::encode_request::<i64>(&Request::Query {
            leaf: u32::MAX,
            key: i64::MIN,
            deadline_ms: u32::MAX,
        }),
        proto::encode_request::<i64>(&Request::Health),
        proto::encode_request::<i64>(&Request::Shutdown),
        proto::encode_response::<i64>(&Response::Answer(WireAnswer {
            table_version: 4,
            entries: vec![(0, Some(1)), (2, None), (5, Some(i64::MAX))],
        })),
        proto::encode_response::<i64>(&Response::Answer(WireAnswer {
            table_version: 0,
            entries: vec![],
        })),
        proto::encode_response::<i64>(&Response::Health("q 3\nshed 0.1\n".to_owned())),
        proto::encode_response::<i64>(&Response::Error(WireError {
            code: ErrorCode::Overloaded,
            detail: "queue full".to_owned(),
        })),
        proto::encode_response::<i64>(&Response::Bye),
    ];
    // One big answer so length-field surgery has room to play.
    out.push(proto::encode_response::<i64>(&Response::Answer(
        WireAnswer {
            table_version: 77,
            entries: (0..200)
                .map(|i| (i as u32, Some(i as i64 * 13 - 900)))
                .collect(),
        },
    )));
    out
}

/// The per-mutant contract: decoding must be total (it returned), and an
/// accepted prefix must be the canonical encoding of the decoded value —
/// the only way surgery can pass the CRC is by reproducing valid bytes,
/// and then the decode must mean exactly what those bytes encode.
fn check_mutant(seed: u64, surgeries: &str, mutant: &[u8]) {
    if let Ok((req, used)) = proto::decode_request::<i64>(mutant, DEFAULT_MAX_FRAME_LEN) {
        let canon = proto::encode_request(&req);
        assert_eq!(
            &mutant[..used],
            canon.as_slice(),
            "seed {seed} [{surgeries}]: accepted request prefix is not the \
             canonical encoding of its decoded value"
        );
    }
    if let Ok((resp, used)) = proto::decode_response::<i64>(mutant, DEFAULT_MAX_FRAME_LEN) {
        let canon = proto::encode_response(&resp);
        assert_eq!(
            &mutant[..used],
            canon.as_slice(),
            "seed {seed} [{surgeries}]: accepted response prefix is not the \
             canonical encoding of its decoded value"
        );
    }
}

/// The offline gate: ≥100k seeded mutants, both decoders, no panic, no
/// silent reinterpretation. Any failure names its seed.
#[test]
fn fuzz_gate_100k_mutants_decode_safely() {
    const SEEDS: u64 = 120_000;
    let frames = corpus();
    let mut mutants = 0u64;
    for seed in 0..SEEDS {
        let frame = &frames[(seed as usize) % frames.len()];
        let (mutant, surgeries) = Mutator::new(seed).mutate(frame);
        check_mutant(seed, &format!("{surgeries:?}"), &mutant);
        mutants += 1;
    }
    assert!(
        mutants >= 100_000,
        "gate requires ≥100k mutants, ran {mutants}"
    );
}

// ---------------------------------------------------------------------
// Live storm against a real server.
// ---------------------------------------------------------------------

fn small_cluster(tree: &CatalogTree<i64>) -> Arc<ShardCluster<i64>> {
    Arc::new(ShardCluster::start(
        tree,
        fc_coop::ParamMode::Auto,
        ShardConfig {
            shards: 2,
            replicas: 1,
            serve: ServeConfig {
                workers: 2,
                default_deadline: Duration::from_secs(5),
                audit_interval: Duration::from_millis(500),
                ..ServeConfig::default()
            },
            batch_threads: 1,
            default_deadline: Duration::from_secs(10),
        },
    ))
}

fn oracle(tree: &CatalogTree<i64>, leaf: NodeId, y: i64) -> Vec<(u32, Option<i64>)> {
    tree.path_from_root(leaf)
        .iter()
        .map(|&node| {
            let cat = tree.catalog(node);
            (node.0, cat.get(cat.partition_point(|k| *k < y)).copied())
        })
        .collect()
}

fn assert_oracle_equal(tree: &CatalogTree<i64>, client: &mut NetClient, leaf: NodeId, y: i64) {
    let ans = client
        .query(leaf.0, y, Some(Duration::from_secs(5)))
        .unwrap_or_else(|e| panic!("valid query failed mid-storm: {e}"));
    assert_eq!(
        ans.entries,
        oracle(tree, leaf, y),
        "wire answer diverged from the sequential oracle — a silently \
         wrong answer crossed the network boundary"
    );
}

/// Throw 400 seeded mutants at live sockets. The server must reply (or
/// close) within a bounded time for every one, keep answering valid
/// queries oracle-equally throughout, count the protocol errors, and
/// drain with zero forced connections afterwards.
#[test]
fn garbage_storm_on_live_sockets_then_oracle_equal() {
    let mut rng = SmallRng::seed_from_u64(0xF0_11E7);
    let tree = gen::balanced_binary(4, 600, SizeDist::Uniform, &mut rng);
    let cluster = small_cluster(&tree);
    let server = NetServer::start(
        Arc::clone(&cluster),
        "127.0.0.1:0",
        NetConfig {
            max_conns: 64,
            idle_timeout: Duration::from_millis(500),
            drain_timeout: Duration::from_secs(5),
            ..NetConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let leaves = tree.leaves();
    // Exclude the canonical Shutdown frame: surgery can no-op (e.g. a
    // full-length truncate), and a byte-identical Shutdown would — by
    // design — drain the server mid-storm.
    let frames: Vec<Vec<u8>> = corpus()
        .into_iter()
        .filter(|f| f.get(8) != Some(&proto::T_SHUTDOWN))
        .collect();
    let ccfg = ClientConfig {
        read_timeout: Duration::from_secs(5),
        ..ClientConfig::default()
    };

    for seed in 0..400u64 {
        let frame = &frames[(seed as usize) % frames.len()];
        let (mutant, _) = Mutator::new(0xBAD0_0000 + seed).mutate(frame);
        let mut sock = TcpStream::connect(addr).expect("connect");
        sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        sock.set_write_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        // The server may close mid-write on garbage; that is its right.
        let _ = sock.write_all(&mutant);
        let _ = sock.flush();
        // Drain whatever reply comes (typed error frame or EOF); the
        // read timeout bounds a hang — a wedged server fails here.
        let _ = proto::read_frame(&mut sock, DEFAULT_MAX_FRAME_LEN);
        drop(sock);
        if seed % 40 == 0 {
            let mut client = NetClient::connect(addr, ccfg.clone()).expect("client connect");
            let leaf = leaves[(seed as usize / 40) % leaves.len()];
            assert_oracle_equal(&tree, &mut client, leaf, rng.gen_range(-200_000..200_000));
        }
    }

    // The storm is over: a fresh client still gets oracle-equal answers,
    // and the garbage was counted as typed protocol errors, not crashes.
    let mut client = NetClient::connect(addr, ccfg).expect("post-storm connect");
    for leaf in leaves.iter().take(8) {
        assert_oracle_equal(&tree, &mut client, *leaf, rng.gen_range(-200_000..200_000));
    }
    let stats = server.stats();
    assert!(
        stats.proto_errors > 0,
        "storm must have registered protocol errors, got {stats:?}"
    );
    assert!(
        stats.answers >= 18,
        "valid queries must have answered: {stats:?}"
    );
    drop(client);
    let report = server.drain();
    assert_eq!(
        report.forced, 0,
        "drain after the storm must not force-close connections: {report:?}"
    );
}

/// The `Health` frame works over a live socket and reports what the
/// operator needs: per-shard replica lines (queue depth, shed counts,
/// heat) plus the wire-level counters, updating as traffic flows.
#[test]
fn health_report_over_the_wire_names_every_shard() {
    let mut rng = SmallRng::seed_from_u64(0x4EA17);
    let tree = gen::balanced_binary(3, 300, SizeDist::Uniform, &mut rng);
    let cluster = small_cluster(&tree);
    let shards = cluster.health().len();
    let server =
        NetServer::start(Arc::clone(&cluster), "127.0.0.1:0", NetConfig::default()).expect("bind");
    let mut client =
        NetClient::connect(server.local_addr(), ClientConfig::default()).expect("connect");
    for leaf in tree.leaves().iter().take(5) {
        assert_oracle_equal(&tree, &mut client, *leaf, rng.gen_range(-200_000..200_000));
    }
    let text = client.health::<i64>().expect("health round trip");
    for shard in 0..shards {
        assert!(
            text.contains(&format!("shard {shard}")),
            "health report must name shard {shard}:\n{text}"
        );
    }
    for needle in [
        "queue",
        "shed",
        "heat",
        "answers",
        "incr_applies",
        "fallback_rebuilds",
        "tombstone_ratio",
    ] {
        assert!(
            text.contains(needle),
            "health report missing `{needle}`:\n{text}"
        );
    }
    drop(client);
    let report = server.drain();
    assert_eq!(report.forced, 0, "clean drain after health: {report:?}");
}

/// The Health frame's per-shard heat is the score the rebalancer acts on
/// (`fc_shard::shard_heat`), not a second formula: a replica that admitted
/// 2 queries and shed 18 reads the same on the wire as to the rebalancer.
#[test]
fn health_frame_heat_equals_the_rebalancer_score() {
    let mut rng = SmallRng::seed_from_u64(0x4EA7);
    let tree = gen::balanced_binary(3, 300, SizeDist::Uniform, &mut rng);
    let cluster = Arc::new(ShardCluster::start(
        &tree,
        fc_coop::ParamMode::Auto,
        ShardConfig {
            shards: 2,
            replicas: 1,
            serve: ServeConfig {
                workers: 0,
                queue_cap: 2,
                audit_interval: Duration::from_secs(3600),
                ..ServeConfig::default()
            },
            ..ShardConfig::default()
        },
    ));
    let leaf = cluster.leaves()[0];
    let state = cluster.state();
    let svc = state.groups[0].replica(0).expect("replica 0");
    for y in 0..20 {
        let _ = svc.submit(leaf, y, None);
    }
    drop(state);
    let server =
        NetServer::start(Arc::clone(&cluster), "127.0.0.1:0", NetConfig::default()).expect("bind");
    let mut client =
        NetClient::connect(server.local_addr(), ClientConfig::default()).expect("connect");
    let text = client.health::<i64>().expect("health round trip");
    let health = cluster.health();
    assert!(health[0][0].shed > 0, "shard 0 must have shed");
    for (shard, replicas) in health.iter().enumerate() {
        let line = format!("shard {shard} heat {:.4}", fc_shard::shard_heat(replicas));
        assert!(
            text.lines().any(|l| l == line),
            "health report must carry `{line}`:\n{text}"
        );
    }
    drop(client);
    let report = server.drain();
    assert_eq!(report.forced, 0, "clean drain after health: {report:?}");
}

/// A wire `Shutdown` frame drains the server exactly like SIGTERM: the
/// requester gets `Bye`, an in-flight peer's next query gets a typed
/// `ShuttingDown`, and the drain completes without forcing connections.
#[test]
fn wire_shutdown_drains_with_typed_refusals() {
    let mut rng = SmallRng::seed_from_u64(0xD1A10);
    let tree = gen::balanced_binary(3, 200, SizeDist::Uniform, &mut rng);
    let cluster = small_cluster(&tree);
    let server = NetServer::start(
        Arc::clone(&cluster),
        "127.0.0.1:0",
        NetConfig {
            drain_grace: Duration::from_secs(2),
            drain_timeout: Duration::from_secs(5),
            ..NetConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let leaves = tree.leaves();
    let ccfg = ClientConfig::default();

    // Peer A connects and proves the server answers before the drain.
    let mut peer = NetClient::connect(addr, ccfg.clone()).expect("peer connect");
    assert_oracle_equal(&tree, &mut peer, leaves[0], 42);

    // Peer B requests shutdown and gets the Bye ack.
    let mut admin = NetClient::connect(addr, ccfg).expect("admin connect");
    admin.shutdown_server::<i64>().expect("shutdown ack");
    assert!(
        server.is_draining(),
        "wire Shutdown must set the drain flag"
    );

    // Peer A is still connected (grace window): its next query must be
    // refused with a *typed* ShuttingDown, not a hang or a slam.
    match peer.query(leaves[0].0, 42i64, Some(Duration::from_secs(2))) {
        Err(fc_net::NetError::Remote(e)) => {
            assert_eq!(e.code, ErrorCode::ShuttingDown, "got {e:?}")
        }
        other => panic!("query during drain gave {other:?}"),
    }
    drop(peer);
    drop(admin);
    let report = server.drain();
    assert_eq!(
        report.forced, 0,
        "graceful drain forced connections: {report:?}"
    );
    assert!(
        report.took < Duration::from_secs(5),
        "drain exceeded its bound: {report:?}"
    );
}
