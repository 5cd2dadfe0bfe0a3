//! # fc-net — hardened TCP ingress for the cooperative-search cluster
//!
//! ROADMAP item 4: "millions of users needs a wire, not an in-process
//! API". This crate puts a std-only (threads, no async) TCP front end in
//! front of `fc-shard` and extends the stack's contract across the
//! network boundary: **a byte stream in, an oracle-equal answer or a
//! typed error out — never a panic, never a hang, never a silently wrong
//! answer.**
//!
//! * [`proto`] — the `FCNET001` length-prefixed binary protocol:
//!   CRC-framed like the WAL, decoded through a bounds-checked cursor,
//!   length-capped before allocation (`DESIGN.md` §15 has the layout).
//! * [`server`] — [`server::NetServer`]: accept loop with a
//!   connection-count cap (typed `Overloaded` shed) that composes with
//!   the serve layer's bounded admission queue, per-connection idle
//!   timeouts (slowloris defense), client deadline propagation into the
//!   router's per-leg budgets, and graceful drain on SIGTERM / a wire
//!   `Shutdown` frame.
//! * [`client`] — [`client::NetClient`] (blocking request/reply) and
//!   [`client::RetryClient`] (reconnect + [`backoff::DecorrelatedJitter`]
//!   backoff).
//! * [`fuzz`] — deterministic byte surgery over valid frames, in the
//!   style of `fc_store::fault`; the ≥100k-mutant protocol-fuzz gate
//!   (`tests/net_fuzz.rs`) and the multi-process loadgen gate
//!   (`examples/netd_loadgen.rs`) ride on it.
//!
//! The `fc-netd` binary serves a deterministically generated cluster
//! (tree derived from a seed, so test clients can rebuild the oracle on
//! their side of the wire).

#![warn(missing_docs)]

pub mod backoff;
pub mod client;
pub mod error;
pub mod fuzz;
pub mod proto;
pub mod server;

pub use client::{ClientConfig, NetClient, RetryClient};
pub use error::{ErrorCode, NetError, ProtoError, WireError};
pub use proto::{Request, Response, WireAnswer};
pub use server::{
    install_sigterm_drain, sigterm_received, DrainReport, NetConfig, NetServer, NetStats,
};
