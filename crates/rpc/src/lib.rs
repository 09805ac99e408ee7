//! `rpc` — the network serving front-end: a TCP wire path onto the
//! `serve` micro-batching engine, built on `std::net` alone (no new
//! dependencies — the build environment has no registry access).
//!
//! Training parallelizes within a batch (the paper's coarse-grain scheme)
//! and `serve` assembles batches from in-process callers; this crate adds
//! the last hop, where real request traffic actually arrives: a socket.
//! Three modules:
//!
//! - [`proto`] — the versioned `CGRP` handshake and CRC-protected,
//!   length-prefixed binary frames (request: id + deadline budget + `f32`
//!   sample(s); response: probs / rejected / timed-out / shutdown /
//!   error), with pipelining by id and a K-sample streaming kind.
//! - [`poller`] — the `poll(2)` readiness primitive and cross-thread
//!   waker the event loop sleeps on.
//! - [`server`] — [`RpcServer`]: one event-loop thread multiplexing all
//!   connections (non-blocking sockets, per-connection buffers and state
//!   machines, a live-connection admission cap), bridging into the
//!   micro-batcher via completion callbacks, with wakeup-driven graceful
//!   drain and `rpc.*` metrics + trace spans.
//! - [`client`] / [`load`] — [`RpcClient`] (blocking; one *or many*
//!   requests in flight, completions matched by id) and the windowed
//!   load generator + malformed-traffic fuzzer behind `cgdnn load`.
//!
//! Deadlines and backpressure propagate end to end: a frame's µs budget
//! becomes [`serve::Client::infer_with_deadline`], and the batcher's
//! `Rejected`/`TimedOut` come back as typed response frames, so a remote
//! client sees exactly what an in-process one does.

pub mod client;
pub mod load;
pub mod poller;
pub mod proto;
pub mod server;

pub use client::{fetch_stats, Completion, Outcome, RpcClient};
pub use load::{FuzzReport, LoadConfig, LoadReport};
pub use server::{RpcConfig, RpcMetrics, RpcServer};

use std::fmt;

/// Client-side failures. The middle three mirror the server's typed
/// response frames; the rest are local.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// Socket-level failure (connect, read, write).
    Io(String),
    /// A socket read or write made no progress within the client's I/O
    /// timeout (see [`RpcClient::connect_with`]): the server is stalled or
    /// unreachable, as opposed to having answered [`RpcError::TimedOut`].
    IoTimeout,
    /// The peer violated the wire protocol (bad magic/version/CRC,
    /// mismatched response id, unknown frame kind).
    Protocol(String),
    /// The server's connection admission cap is full; back off and retry.
    Busy,
    /// The sample does not match the server's advertised shape.
    ShapeMismatch {
        /// Values provided.
        got: usize,
        /// Values the handshake promised.
        want: usize,
    },
    /// The server's request queue was full ([`proto::RESP_REJECTED`]).
    Rejected,
    /// The request's deadline budget expired ([`proto::RESP_TIMED_OUT`]).
    TimedOut,
    /// The server is draining or gone ([`proto::RESP_SHUTDOWN`] or EOF).
    ServerShutdown,
    /// The server answered with an error frame; the payload message.
    Server(String),
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Io(m) => write!(f, "io: {m}"),
            RpcError::IoTimeout => write!(f, "no progress within the client's i/o timeout"),
            RpcError::Protocol(m) => write!(f, "protocol violation: {m}"),
            RpcError::Busy => write!(f, "server at connection capacity"),
            RpcError::ShapeMismatch { got, want } => {
                write!(f, "sample has {got} values, server expects {want}")
            }
            RpcError::Rejected => write!(f, "request rejected: server queue full"),
            RpcError::TimedOut => write!(f, "request timed out server-side"),
            RpcError::ServerShutdown => write!(f, "server shut down"),
            RpcError::Server(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for RpcError {}

impl From<std::io::Error> for RpcError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            // An expired SO_RCVTIMEO/SO_SNDTIMEO surfaces as EAGAIN on unix
            // and as a timeout elsewhere.
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => RpcError::IoTimeout,
            _ => RpcError::Io(e.to_string()),
        }
    }
}

impl From<proto::DecodeError> for RpcError {
    fn from(e: proto::DecodeError) -> Self {
        RpcError::Protocol(e.to_string())
    }
}
