//! The client side of the wire: a blocking request/reply connection plus
//! a reconnecting retry wrapper with decorrelated-jitter backoff.

use crate::backoff::DecorrelatedJitter;
use crate::error::{NetError, WireError};
use crate::proto::{self, Request, Response, WireAnswer};
use fc_catalog::CatalogKey;
use fc_store::KeyCodec;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side socket knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-reply read timeout (should exceed the query deadline, or the
    /// client gives up before the server does).
    pub read_timeout: Duration,
    /// Per-request write timeout.
    pub write_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(5),
        }
    }
}

/// One blocking connection speaking strict request/reply `FCNET001`.
pub struct NetClient {
    stream: TcpStream,
}

impl NetClient {
    /// Connect to `addr`.
    pub fn connect<A: ToSocketAddrs>(addr: A, cfg: ClientConfig) -> Result<Self, NetError> {
        let mut last: Option<std::io::Error> = None;
        let addrs = addr
            .to_socket_addrs()
            .map_err(|e| NetError::Io {
                op: "resolve",
                source: e,
            })?
            .collect::<Vec<SocketAddr>>();
        for a in &addrs {
            match TcpStream::connect_timeout(a, cfg.connect_timeout) {
                Ok(stream) => {
                    stream
                        .set_read_timeout(Some(cfg.read_timeout))
                        .map_err(|e| NetError::Io {
                            op: "set timeouts",
                            source: e,
                        })?;
                    stream
                        .set_write_timeout(Some(cfg.write_timeout))
                        .map_err(|e| NetError::Io {
                            op: "set timeouts",
                            source: e,
                        })?;
                    let _ = stream.set_nodelay(true);
                    return Ok(NetClient { stream });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(NetError::Io {
            op: "connect",
            source: last.unwrap_or_else(|| std::io::Error::other("no addresses")),
        })
    }

    fn round_trip<K: KeyCodec>(&mut self, req: &Request<K>) -> Result<Response<K>, NetError> {
        let frame = proto::encode_request(req);
        proto::write_frame(&mut self.stream, &frame)?;
        let reply = proto::read_frame(&mut self.stream, proto::DEFAULT_MAX_FRAME_LEN)?;
        let (resp, _) = proto::decode_response::<K>(&reply, proto::DEFAULT_MAX_FRAME_LEN)?;
        Ok(resp)
    }

    /// Successor query. `deadline` rides the request header and becomes
    /// the cluster's per-leg budget on the server; `None` = server
    /// default. Typed server errors surface as [`NetError::Remote`].
    pub fn query<K: CatalogKey + KeyCodec>(
        &mut self,
        leaf: u32,
        key: K,
        deadline: Option<Duration>,
    ) -> Result<WireAnswer<K>, NetError> {
        let deadline_ms = deadline
            .map(|d| u32::try_from(d.as_millis()).unwrap_or(u32::MAX).max(1))
            .unwrap_or(0);
        let req = Request::Query {
            leaf,
            key,
            deadline_ms,
        };
        match self.round_trip(&req)? {
            Response::Answer(a) => Ok(a),
            Response::Error(e) => Err(NetError::Remote(e)),
            Response::Health(_) => Err(NetError::UnexpectedFrame {
                got: proto::T_HEALTH_REP,
            }),
            Response::Bye => Err(NetError::UnexpectedFrame { got: proto::T_BYE }),
        }
    }

    /// Fetch the plain-text health/metrics report.
    pub fn health<K: CatalogKey + KeyCodec>(&mut self) -> Result<String, NetError> {
        match self.round_trip::<K>(&Request::Health)? {
            Response::Health(text) => Ok(text),
            Response::Error(e) => Err(NetError::Remote(e)),
            Response::Answer(_) => Err(NetError::UnexpectedFrame {
                got: proto::T_ANSWER,
            }),
            Response::Bye => Err(NetError::UnexpectedFrame { got: proto::T_BYE }),
        }
    }

    /// Ask the server to drain and exit; resolves on the `Bye` ack.
    pub fn shutdown_server<K: CatalogKey + KeyCodec>(&mut self) -> Result<(), NetError> {
        match self.round_trip::<K>(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            Response::Error(e) => Err(NetError::Remote(e)),
            Response::Answer(_) => Err(NetError::UnexpectedFrame {
                got: proto::T_ANSWER,
            }),
            Response::Health(_) => Err(NetError::UnexpectedFrame {
                got: proto::T_HEALTH_REP,
            }),
        }
    }
}

/// Reconnect-and-retry policy over [`NetClient`], with
/// [`DecorrelatedJitter`] backoff so competing clients' retries spread
/// apart.
pub struct RetryClient {
    addr: SocketAddr,
    cfg: ClientConfig,
    /// Attempts beyond the first.
    retries: u32,
    backoff: DecorrelatedJitter,
    conn: Option<NetClient>,
}

impl RetryClient {
    /// A lazy client for `addr`: connections are (re)established on
    /// demand, retried failures sleep `DecorrelatedJitter` delays seeded
    /// by `seed` (deterministic per client).
    pub fn new(addr: SocketAddr, cfg: ClientConfig, retries: u32, seed: u64) -> Self {
        let backoff =
            DecorrelatedJitter::new(Duration::from_millis(5), Duration::from_millis(500), seed);
        RetryClient {
            addr,
            cfg,
            retries,
            backoff,
            conn: None,
        }
    }

    /// Query with reconnect-and-backoff on retryable failures (transport
    /// errors, `Overloaded`, `Timeout`, `ShardUnavailable`). Protocol
    /// violations and `ShuttingDown` surface immediately — retrying a
    /// draining server only prolongs its drain.
    pub fn query<K: CatalogKey + KeyCodec>(
        &mut self,
        leaf: u32,
        key: K,
        deadline: Option<Duration>,
    ) -> Result<WireAnswer<K>, NetError> {
        let mut last: Option<NetError> = None;
        for _attempt in 0..=self.retries {
            if let Some(e) = last.as_ref() {
                if !e.retryable() {
                    break;
                }
                std::thread::sleep(self.backoff.next_delay());
            }
            let conn = match self.conn.as_mut() {
                Some(c) => c,
                None => match NetClient::connect(self.addr, self.cfg.clone()) {
                    Ok(c) => self.conn.insert(c),
                    Err(e) => {
                        last = Some(e);
                        continue;
                    }
                },
            };
            match conn.query(leaf, key, deadline) {
                Ok(a) => {
                    self.backoff.reset();
                    return Ok(a);
                }
                Err(e) => {
                    // A transport-level failure poisons the connection;
                    // typed server errors keep it.
                    if !matches!(e, NetError::Remote(_)) {
                        self.conn = None;
                    }
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or(NetError::Closed))
    }

    /// The last typed error's wire detail, if the caller wants to log it.
    pub fn describe(e: &WireError) -> String {
        format!("{e}")
    }
}
