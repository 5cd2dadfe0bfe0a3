//! The TCP ingress server: an accept loop + per-connection handler
//! threads in front of a [`ShardCluster`].
//!
//! Defense-in-depth, layer by layer:
//!
//! * **Connection cap** — beyond [`NetConfig::max_conns`] concurrent
//!   connections the accept loop replies with a typed `Overloaded` frame
//!   and closes; it never queues unboundedly. Admitted queries then flow
//!   into the *existing* bounded admission queue per replica, whose sheds
//!   also surface as `Overloaded` — backpressure composes end to end.
//! * **Idle timeouts (slowloris defense)** — frames are read
//!   incrementally through [`FrameReader`] with a short poll timeout; a
//!   connection that does not complete a frame within
//!   [`NetConfig::idle_timeout`] of the previous one is closed. Partial
//!   bytes are buffered, so a slow-but-honest client never desyncs the
//!   stream.
//! * **Strict decode** — any malformed frame is answered with a typed
//!   `Protocol` error and the connection is closed (after a framing
//!   error the stream cannot be trusted to resynchronize).
//! * **Deadline propagation** — the request's `deadline_ms` becomes the
//!   cluster deadline, which PR 4's router splits into per-leg budgets
//!   (`remaining / legs_left`).
//! * **Graceful drain** — [`NetServer::begin_drain`] (or SIGTERM via
//!   [`install_sigterm_drain`], or a wire `Shutdown` frame) stops the
//!   accept loop; in-flight queries finish (or deadline out) and their
//!   replies are flushed; for a grace window new queries still receive a
//!   typed `ShuttingDown` reply so no written request goes unanswered;
//!   then connections close and [`NetServer::drain`] returns a
//!   [`DrainReport`].
//!
//! The handler path holds **no lock across any socket write** (all
//! shared state is atomic); the lock-discipline lint enforces this.

use crate::error::{ErrorCode, NetError, ProtoError, WireError};
use crate::proto::{self, Request, Response, WireAnswer};
use fc_catalog::{CatalogKey, NodeId};
use fc_serve::ServeError;
use fc_shard::{shard_heat, ShardCluster, ShardError};
use fc_store::KeyCodec;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::io::Read;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cadence at which handlers re-check the drain flag and idle clock while
/// waiting for bytes.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Ingress tuning knobs. Defaults suit tests and the `fc-netd` binary;
/// the loadgen example tightens them to provoke shedding.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Concurrent-connection cap; excess connections get a typed
    /// `Overloaded` reply and are closed.
    pub max_conns: usize,
    /// A connection must complete a frame within this of the previous
    /// one (or of accept), else it is closed.
    pub idle_timeout: Duration,
    /// Per-socket write timeout (a peer that stops reading cannot wedge
    /// a handler forever).
    pub write_timeout: Duration,
    /// After drain starts, the window during which still-arriving
    /// queries receive a typed `ShuttingDown` reply before the
    /// connection closes.
    pub drain_grace: Duration,
    /// Upper bound [`NetServer::drain`] waits for handlers to finish.
    pub drain_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_conns: 64,
            idle_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(5),
            drain_grace: Duration::from_secs(1),
            drain_timeout: Duration::from_secs(10),
        }
    }
}

/// Monotone ingress counters (atomic; sampled by [`NetServer::stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted and handled.
    pub accepted: u64,
    /// Connections shed at the cap with an `Overloaded` reply.
    pub shed_conns: u64,
    /// Frames that failed to decode (answered with `Protocol`).
    pub proto_errors: u64,
    /// Query frames admitted to the cluster.
    pub queries: u64,
    /// Successful answers written.
    pub answers: u64,
    /// Typed error replies written (all codes).
    pub errors_sent: u64,
    /// Health reports served.
    pub health_reqs: u64,
}

/// What [`NetServer::drain`] observed.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Connections open when the drain began.
    pub open_at_drain: usize,
    /// Connections still open when the drain timeout expired (`0` on a
    /// clean drain).
    pub forced: usize,
    /// Wall-clock duration of the drain.
    pub took: Duration,
}

const NOT_DRAINING: u64 = u64::MAX;

/// State shared between the accept loop, handlers, and the owner.
struct Shared {
    t0: Instant,
    /// Milliseconds after `t0` at which drain began (`NOT_DRAINING`).
    drain_at_ms: AtomicU64,
    conns: AtomicUsize,
    cfg: NetConfig,
    accepted: AtomicU64,
    shed_conns: AtomicU64,
    proto_errors: AtomicU64,
    queries: AtomicU64,
    answers: AtomicU64,
    errors_sent: AtomicU64,
    health_reqs: AtomicU64,
}

impl Shared {
    fn draining(&self) -> bool {
        self.drain_at_ms.load(Ordering::Acquire) != NOT_DRAINING
    }

    /// Whether the post-drain grace window has elapsed.
    fn drain_grace_over(&self) -> bool {
        let at = self.drain_at_ms.load(Ordering::Acquire);
        if at == NOT_DRAINING {
            return false;
        }
        let grace = self.cfg.drain_grace.as_millis().min(u64::MAX as u128) as u64;
        self.elapsed_ms().saturating_sub(at) > grace
    }

    fn elapsed_ms(&self) -> u64 {
        self.t0.elapsed().as_millis().min(u64::MAX as u128) as u64
    }

    fn begin_drain(&self) {
        let now = self.elapsed_ms();
        let _ = self.drain_at_ms.compare_exchange(
            NOT_DRAINING,
            now,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }
}

/// The running ingress server. Dropping it without calling
/// [`NetServer::drain`] leaves handler threads to finish on their own;
/// call `drain` for an orderly exit.
pub struct NetServer {
    shared: Arc<Shared>,
    local_addr: std::net::SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl NetServer {
    /// Bind `addr` and start serving `cluster`. `addr` may use port 0;
    /// the bound address is available via [`NetServer::local_addr`].
    pub fn start<K, A>(
        cluster: Arc<ShardCluster<K>>,
        addr: A,
        cfg: NetConfig,
    ) -> std::io::Result<NetServer>
    where
        K: CatalogKey + KeyCodec + Send + Sync + 'static,
        A: ToSocketAddrs,
    {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            t0: Instant::now(),
            drain_at_ms: AtomicU64::new(NOT_DRAINING),
            conns: AtomicUsize::new(0),
            cfg,
            accepted: AtomicU64::new(0),
            shed_conns: AtomicU64::new(0),
            proto_errors: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            answers: AtomicU64::new(0),
            errors_sent: AtomicU64::new(0),
            health_reqs: AtomicU64::new(0),
        });
        // Wire ids the protocol may name: only real leaves reach the
        // cluster, every other id is a typed protocol error.
        let leaves: Arc<HashSet<u32>> = Arc::new(cluster.leaves().iter().map(|n| n.0).collect());
        let sh = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || {
            accept_loop(listener, cluster, leaves, sh);
        });
        Ok(NetServer {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Stop accepting and start the drain (idempotent; also triggered by
    /// a wire `Shutdown` frame or SIGTERM via [`install_sigterm_drain`]).
    pub fn begin_drain(&self) {
        self.shared.begin_drain();
    }

    /// Whether a drain has been requested (by any trigger).
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }

    /// Currently open connections.
    pub fn open_conns(&self) -> usize {
        self.shared.conns.load(Ordering::Acquire)
    }

    /// Snapshot the ingress counters.
    pub fn stats(&self) -> NetStats {
        let s = &self.shared;
        NetStats {
            accepted: s.accepted.load(Ordering::Relaxed),
            shed_conns: s.shed_conns.load(Ordering::Relaxed),
            proto_errors: s.proto_errors.load(Ordering::Relaxed),
            queries: s.queries.load(Ordering::Relaxed),
            answers: s.answers.load(Ordering::Relaxed),
            errors_sent: s.errors_sent.load(Ordering::Relaxed),
            health_reqs: s.health_reqs.load(Ordering::Relaxed),
        }
    }

    /// Drain and shut down: stop accepting, let in-flight queries finish
    /// and their replies flush, wait for handlers (bounded by
    /// [`NetConfig::drain_timeout`]), and report what happened.
    pub fn drain(mut self) -> DrainReport {
        self.shared.begin_drain();
        let t0 = Instant::now();
        let open_at_drain = self.shared.conns.load(Ordering::Acquire);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        let deadline = t0 + self.shared.cfg.drain_timeout;
        while self.shared.conns.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        DrainReport {
            open_at_drain,
            forced: self.shared.conns.load(Ordering::Acquire),
            took: t0.elapsed(),
        }
    }
}

// ---------------------------------------------------------------------
// SIGTERM → drain flag (raw libc `signal`; std links libc already, and
// storing one atomic is async-signal-safe).
// ---------------------------------------------------------------------

static TERM_FLAG: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: i32) {
    TERM_FLAG.store(true, Ordering::SeqCst);
}

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Install a SIGTERM handler that requests a drain (observable via
/// [`sigterm_received`]). The `fc-netd` main loop polls it and calls
/// [`NetServer::drain`].
pub fn install_sigterm_drain() {
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term as *const () as usize);
    }
}

/// Whether SIGTERM has arrived since [`install_sigterm_drain`].
pub fn sigterm_received() -> bool {
    TERM_FLAG.load(Ordering::SeqCst)
}

// ---------------------------------------------------------------------
// Accept loop.
// ---------------------------------------------------------------------

fn accept_loop<K>(
    listener: TcpListener,
    cluster: Arc<ShardCluster<K>>,
    leaves: Arc<HashSet<u32>>,
    shared: Arc<Shared>,
) where
    K: CatalogKey + KeyCodec + Send + Sync + 'static,
{
    loop {
        if shared.draining() || sigterm_received() {
            shared.begin_drain();
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                // The cap is checked with the increment in one step so a
                // connection storm cannot race past it.
                let prev = shared.conns.fetch_add(1, Ordering::AcqRel);
                if prev >= shared.cfg.max_conns {
                    shared.conns.fetch_sub(1, Ordering::AcqRel);
                    shared.shed_conns.fetch_add(1, Ordering::Relaxed);
                    shed_connection::<K>(stream, &shared);
                    continue;
                }
                shared.accepted.fetch_add(1, Ordering::Relaxed);
                let cl = Arc::clone(&cluster);
                let lv = Arc::clone(&leaves);
                let sh = Arc::clone(&shared);
                std::thread::spawn(move || {
                    handle_conn(stream, cl, lv, &sh);
                    sh.conns.fetch_sub(1, Ordering::AcqRel);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                // Transient accept failure (EMFILE, aborted handshake):
                // back off briefly rather than spin.
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Best-effort typed `Overloaded` reply to a connection shed at the cap.
fn shed_connection<K>(stream: TcpStream, shared: &Shared)
where
    K: CatalogKey + KeyCodec,
{
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let mut stream = stream;
    let frame = proto::encode_response::<K>(&Response::Error(WireError {
        code: ErrorCode::Overloaded,
        detail: format!("connection cap {} reached", shared.cfg.max_conns),
    }));
    let _ = proto::write_frame(&mut stream, &frame);
}

// ---------------------------------------------------------------------
// Per-connection handler.
// ---------------------------------------------------------------------

/// Incremental frame assembly: bytes accumulate across short poll reads,
/// so a slow sender never desyncs the stream and never blocks the
/// handler past one poll interval.
struct FrameReader {
    buf: Vec<u8>,
}

enum PollFrame {
    /// A complete frame (header + payload + CRC).
    Ready(Vec<u8>),
    /// No complete frame yet; call again.
    Pending,
    /// The stream is done (peer closed / io error / framing violation).
    Failed(NetError),
}

impl FrameReader {
    fn new() -> Self {
        FrameReader { buf: Vec::new() }
    }

    /// Validate what the buffer holds so far; `Ok(Some(total))` once the
    /// full frame length is known and sane.
    fn frame_total(&self, max_len: u32) -> Result<Option<usize>, ProtoError> {
        if self.buf.len() < proto::HEADER_LEN {
            return Ok(None);
        }
        if self.buf.get(..proto::MAGIC.len()) != Some(proto::MAGIC.as_slice()) {
            return Err(ProtoError::BadMagic);
        }
        let len_bytes = self
            .buf
            .get(proto::MAGIC.len() + 1..proto::HEADER_LEN)
            .unwrap_or(&[]);
        let len = len_bytes
            .try_into()
            .map(u32::from_le_bytes)
            .map_err(|_| ProtoError::Malformed("length field"))?;
        if len > max_len {
            return Err(ProtoError::Oversized { len, max: max_len });
        }
        Ok(Some(proto::HEADER_LEN + len as usize + proto::TRAILER_LEN))
    }

    fn poll(&mut self, stream: &mut TcpStream, max_len: u32) -> PollFrame {
        loop {
            match self.frame_total(max_len) {
                Err(e) => return PollFrame::Failed(NetError::Proto(e)),
                Ok(Some(total)) if self.buf.len() >= total => {
                    let frame: Vec<u8> = self.buf.drain(..total).collect();
                    return PollFrame::Ready(frame);
                }
                Ok(_) => {}
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => return PollFrame::Failed(NetError::Closed),
                Ok(n) => match chunk.get(..n) {
                    Some(got) => self.buf.extend_from_slice(got),
                    None => return PollFrame::Failed(NetError::Closed),
                },
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return PollFrame::Pending;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return PollFrame::Failed(NetError::from_io("read", e)),
            }
        }
    }
}

fn handle_conn<K>(
    mut stream: TcpStream,
    cluster: Arc<ShardCluster<K>>,
    leaves: Arc<HashSet<u32>>,
    shared: &Shared,
) where
    K: CatalogKey + KeyCodec + Send + Sync + 'static,
{
    let cfg = &shared.cfg;
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err()
        || stream.set_write_timeout(Some(cfg.write_timeout)).is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut reader = FrameReader::new();
    let mut idle_since = Instant::now();
    loop {
        if shared.drain_grace_over() {
            // Grace spent: anything still pending is the client's to
            // retry elsewhere. Closing is the typed signal now.
            return;
        }
        let frame = match reader.poll(&mut stream, proto::DEFAULT_MAX_FRAME_LEN) {
            PollFrame::Ready(f) => f,
            PollFrame::Pending => {
                if idle_since.elapsed() >= cfg.idle_timeout {
                    // Slowloris defense: no complete frame within the
                    // idle window — drop the connection.
                    return;
                }
                continue;
            }
            PollFrame::Failed(NetError::Proto(e)) => {
                shared.proto_errors.fetch_add(1, Ordering::Relaxed);
                send_error::<K>(&mut stream, shared, ErrorCode::Protocol, &e.to_string());
                return;
            }
            PollFrame::Failed(_) => return,
        };
        idle_since = Instant::now();
        let req = match proto::decode_request::<K>(&frame, proto::DEFAULT_MAX_FRAME_LEN) {
            Ok((req, _)) => req,
            Err(e) => {
                shared.proto_errors.fetch_add(1, Ordering::Relaxed);
                send_error::<K>(&mut stream, shared, ErrorCode::Protocol, &e.to_string());
                // After a framing violation the stream may be mid-frame
                // anywhere; resync is not possible, so close.
                return;
            }
        };
        match req {
            Request::Query {
                leaf,
                key,
                deadline_ms,
            } => {
                if shared.draining() {
                    send_error::<K>(&mut stream, shared, ErrorCode::ShuttingDown, "draining");
                    continue;
                }
                if !leaves.contains(&leaf) {
                    shared.proto_errors.fetch_add(1, Ordering::Relaxed);
                    send_error::<K>(
                        &mut stream,
                        shared,
                        ErrorCode::Protocol,
                        &format!("unknown leaf {leaf}"),
                    );
                    continue;
                }
                shared.queries.fetch_add(1, Ordering::Relaxed);
                let deadline = if deadline_ms == 0 {
                    None
                } else {
                    Some(Duration::from_millis(u64::from(deadline_ms)))
                };
                match cluster.query_blocking(NodeId(leaf), key, deadline) {
                    Ok(ok) => {
                        let entries = ok
                            .path
                            .iter()
                            .zip(ok.answers.iter())
                            .map(|(n, a)| (n.0, *a))
                            .collect();
                        let resp = Response::Answer(WireAnswer {
                            table_version: ok.table_version,
                            entries,
                        });
                        let frame = proto::encode_response::<K>(&resp);
                        // Count before the write: the peer can observe the
                        // reply (and read `stats()`) before this thread
                        // would run a post-write increment.
                        shared.answers.fetch_add(1, Ordering::Relaxed);
                        if proto::write_frame(&mut stream, &frame).is_err() {
                            return;
                        }
                    }
                    Err(e) => {
                        let (code, detail) = map_shard_error(&e);
                        send_error::<K>(&mut stream, shared, code, &detail);
                    }
                }
            }
            Request::Health => {
                shared.health_reqs.fetch_add(1, Ordering::Relaxed);
                let text = health_text(&cluster, shared);
                let frame = proto::encode_response::<K>(&Response::Health(text));
                if proto::write_frame(&mut stream, &frame).is_err() {
                    return;
                }
            }
            Request::Shutdown => {
                shared.begin_drain();
                let frame = proto::encode_response::<K>(&Response::Bye);
                let _ = proto::write_frame(&mut stream, &frame);
                return;
            }
        }
    }
}

/// Write a typed error reply (best effort — a peer that vanished is not
/// an error worth keeping the handler for).
fn send_error<K>(stream: &mut TcpStream, shared: &Shared, code: ErrorCode, detail: &str)
where
    K: CatalogKey + KeyCodec,
{
    let frame = proto::encode_response::<K>(&Response::Error(WireError {
        code,
        detail: detail.to_owned(),
    }));
    if proto::write_frame(stream, &frame).is_ok() {
        shared.errors_sent.fetch_add(1, Ordering::Relaxed);
    }
}

/// Project a cluster error onto the wire's typed codes. Admission-queue
/// sheds become `Overloaded` — the wire view of the bounded queue.
fn map_shard_error(e: &ShardError) -> (ErrorCode, String) {
    let detail = e.to_string();
    let code = match e {
        ShardError::ShuttingDown => ErrorCode::ShuttingDown,
        ShardError::BudgetExhausted { .. } => ErrorCode::BudgetExhausted,
        ShardError::ShardUnavailable { last, .. } => match last {
            ServeError::Shed { .. } => ErrorCode::Overloaded,
            ServeError::Timeout { .. } => ErrorCode::Timeout,
            _ => ErrorCode::ShardUnavailable,
        },
    };
    (code, detail)
}

// ---------------------------------------------------------------------
// Health / metrics.
// ---------------------------------------------------------------------

/// The plain-text `/health` report: ingress counters, then per shard the
/// heat score the rebalancer uses to pick split candidates and, per
/// replica, queue depth, shed and admission counts, and the id of the
/// published generation (`epoch`).
fn health_text<K>(cluster: &ShardCluster<K>, shared: &Shared) -> String
where
    K: CatalogKey + KeyCodec,
{
    let mut s = String::with_capacity(1024);
    let stats = cluster.stats();
    let _ = writeln!(s, "fc-netd up_ms {}", shared.elapsed_ms());
    let _ = writeln!(
        s,
        "conns {}/{} draining {}",
        shared.conns.load(Ordering::Acquire),
        shared.cfg.max_conns,
        shared.draining() as u8
    );
    let _ = writeln!(
        s,
        "ingress accepted {} shed_conns {} proto_errors {} queries {} \
         answers {} errors {} health {}",
        shared.accepted.load(Ordering::Relaxed),
        shared.shed_conns.load(Ordering::Relaxed),
        shared.proto_errors.load(Ordering::Relaxed),
        shared.queries.load(Ordering::Relaxed),
        shared.answers.load(Ordering::Relaxed),
        shared.errors_sent.load(Ordering::Relaxed),
        shared.health_reqs.load(Ordering::Relaxed),
    );
    let _ = writeln!(
        s,
        "cluster table_version {} shards {} legs {} escalations {} \
         failovers {} budget_exhausted {} shard_unavailable {} splits {}",
        stats.table_version,
        cluster.shards(),
        stats.legs,
        stats.escalations,
        stats.failovers,
        stats.budget_exhausted,
        stats.shard_unavailable,
        stats.splits,
    );
    let ws = cluster.write_stats();
    let _ = writeln!(
        s,
        "writes incr_applies {} fallback_rebuilds {} rebuilds {} \
         keys_touched {} tombstone_ratio {:.4}",
        ws.incremental_applies,
        ws.fallback_rebuilds,
        ws.rebuilds,
        ws.keys_touched,
        ws.tombstone_ratio(),
    );
    for (shard, replicas) in cluster.health().iter().enumerate() {
        let _ = writeln!(s, "shard {shard} heat {:.4}", shard_heat(replicas));
        for (ri, h) in replicas.iter().enumerate() {
            let _ = writeln!(
                s,
                "shard {shard} replica {ri} queue {}/{} shed {} submitted {} epoch {}",
                h.queue_len, h.queue_cap, h.shed, h.submitted, h.epoch,
            );
        }
    }
    s
}
