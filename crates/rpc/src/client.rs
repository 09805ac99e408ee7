//! `RpcClient` — a blocking wire client with pipelined request support.
//!
//! The CGRP protocol matches responses to requests by frame `id`, and
//! the event-driven server answers in micro-batch completion order —
//! not send order. The client therefore keeps the set of outstanding
//! ids: [`RpcClient::send_infer`] puts requests on the wire without
//! waiting, and [`RpcClient::recv_completion`] blocks for the next
//! response from *any* of them. The classic closed-loop calls
//! ([`RpcClient::infer`]) are a send immediately followed by a wait for
//! that id, stashing any other completions that arrive first.
//!
//! A response whose `id` matches nothing outstanding still poisons the
//! stream ([`RpcError::Protocol`]) — with the bookkeeping in place that
//! can only mean desynchronisation, never pipelining.

use crate::proto::{self, DecodeError, Frame, FrameError};
use crate::RpcError;
use std::collections::{HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// How the server answered one sample.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Softmax outputs, length-checked against the handshake.
    Probs(Vec<f32>),
    /// Admission queue full — back off and retry.
    Rejected,
    /// The deadline budget expired before compute.
    TimedOut,
    /// Server-side error message for this request.
    Error(String),
}

/// One response frame, matched to its request.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The request id this answers.
    pub id: u64,
    pub outcome: Outcome,
}

/// A connected wire client. See [`RpcClient::connect`].
pub struct RpcClient {
    stream: TcpStream,
    sample_len: usize,
    output_len: usize,
    next_id: u64,
    buf: Vec<u8>,
    /// Ids whose response is still owed.
    outstanding: HashSet<u64>,
    /// Completions read off the wire while waiting for a specific id.
    ready: VecDeque<Completion>,
}

/// A clean hangup — end-of-stream inside a frame or between two — means the
/// server finished draining; any other rejected byte is a protocol violation.
impl From<FrameError> for RpcError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => e.into(),
            FrameError::Decode(DecodeError::Truncated(_)) => RpcError::ServerShutdown,
            FrameError::Decode(e) => e.into(),
            FrameError::Protocol(m) => RpcError::Protocol(m),
        }
    }
}

/// Open a connection, read the server hello and answer it — the start of
/// both [`RpcClient::connect_with`] and [`fetch_stats`].
fn handshake(
    addr: impl ToSocketAddrs,
    io_timeout: Duration,
) -> Result<(TcpStream, proto::ServerHello), RpcError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(io_timeout))?;
    stream.set_write_timeout(Some(io_timeout))?;
    let mut hello = [0u8; proto::SERVER_HELLO_LEN];
    stream.read_exact(&mut hello).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => RpcError::ServerShutdown,
        _ => e.into(),
    })?;
    let h = proto::decode_server_hello(&hello)?;
    match h.status {
        proto::HELLO_OK => {}
        proto::HELLO_BUSY => return Err(RpcError::Busy),
        proto::HELLO_DRAINING => return Err(RpcError::ServerShutdown),
        s => return Err(RpcError::Protocol(format!("unknown hello status {s}"))),
    }
    stream.write_all(&proto::encode_client_hello())?;
    Ok((stream, h))
}

impl RpcClient {
    /// Connect with a 5 s I/O timeout.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, RpcError> {
        Self::connect_with(addr, Duration::from_secs(5))
    }

    /// Connect, perform the handshake, and learn the server's sample and
    /// output shapes. `io_timeout` bounds every subsequent read and write.
    pub fn connect_with(addr: impl ToSocketAddrs, io_timeout: Duration) -> Result<Self, RpcError> {
        let (stream, h) = handshake(addr, io_timeout)?;
        Ok(Self {
            stream,
            sample_len: h.sample_len as usize,
            output_len: h.output_len as usize,
            next_id: 1,
            buf: Vec::new(),
            outstanding: HashSet::new(),
            ready: VecDeque::new(),
        })
    }

    /// Values per sample, from the handshake.
    pub fn sample_len(&self) -> usize {
        self.sample_len
    }

    /// Values per output, from the handshake.
    pub fn output_len(&self) -> usize {
        self.output_len
    }

    /// Responses the server still owes this connection.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len() + self.ready.len()
    }

    /// Put one sample on the wire without waiting; returns the request
    /// id to match against [`RpcClient::recv_completion`]. `budget_us`
    /// of 0 means no deadline.
    pub fn send_infer(&mut self, sample: &[f32], budget_us: u32) -> Result<u64, RpcError> {
        if sample.len() != self.sample_len {
            return Err(RpcError::ShapeMismatch {
                got: sample.len(),
                want: self.sample_len,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        // Header and payload assembled in the reused buffer, one write.
        let payload_len = std::mem::size_of_val(sample) as u32;
        self.buf.clear();
        self.buf.extend_from_slice(&proto::encode_header(
            proto::REQ_INFER,
            id,
            budget_us,
            payload_len,
        ));
        proto::write_f32s(&mut self.buf, sample);
        self.stream.write_all(&self.buf)?;
        self.outstanding.insert(id);
        Ok(id)
    }

    /// Block for the next completion from any outstanding request —
    /// stashed or off the wire, in server completion order.
    pub fn recv_completion(&mut self) -> Result<Completion, RpcError> {
        if let Some(c) = self.ready.pop_front() {
            return Ok(c);
        }
        self.recv_wire()
    }

    /// Submit one sample and block for its softmax outputs.
    pub fn infer(&mut self, sample: &[f32]) -> Result<Vec<f32>, RpcError> {
        let id = self.send_infer(sample, 0)?;
        into_result(self.wait_for(id)?)
    }

    /// Like [`RpcClient::infer`], but the server drops the request with
    /// [`RpcError::TimedOut`] if it is still queued after `budget_us`
    /// microseconds (measured server-side from decode).
    pub fn infer_with_budget(
        &mut self,
        sample: &[f32],
        budget_us: u32,
    ) -> Result<Vec<f32>, RpcError> {
        let id = self.send_infer(sample, budget_us.max(1))?;
        into_result(self.wait_for(id)?)
    }

    /// Ask the server to drain and shut down; returns once acknowledged.
    /// Completions for still-outstanding requests may arrive first; they
    /// are stashed for [`RpcClient::recv_completion`].
    pub fn drain_server(&mut self) -> Result<(), RpcError> {
        let id = self.next_id;
        self.next_id += 1;
        proto::write_frame(&mut self.stream, proto::REQ_DRAIN, id, 0, &[])?;
        loop {
            let f = proto::read_frame(&mut self.stream)?;
            if f.kind == proto::RESP_SHUTDOWN {
                if f.id == id {
                    return Ok(());
                }
                return Err(RpcError::ServerShutdown);
            }
            let c = self.match_completion(f)?;
            self.ready.push_back(c);
        }
    }

    /// Wait for a completion of `id` specifically, stashing others.
    fn wait_for(&mut self, id: u64) -> Result<Completion, RpcError> {
        if let Some(pos) = self.ready.iter().position(|c| c.id == id) {
            return Ok(self.ready.remove(pos).expect("position just found"));
        }
        loop {
            let c = self.recv_wire()?;
            if c.id == id {
                return Ok(c);
            }
            self.ready.push_back(c);
        }
    }

    /// Read one response frame and match it to an outstanding request.
    fn recv_wire(&mut self) -> Result<Completion, RpcError> {
        if self.outstanding.is_empty() {
            return Err(RpcError::Protocol(
                "no requests in flight to receive for".into(),
            ));
        }
        let f = proto::read_frame(&mut self.stream)?;
        if f.kind == proto::RESP_SHUTDOWN {
            return Err(RpcError::ServerShutdown);
        }
        self.match_completion(f)
    }

    /// Decode a non-shutdown response against the outstanding table.
    fn match_completion(&mut self, f: Frame) -> Result<Completion, RpcError> {
        let Frame {
            kind,
            id: rid,
            payload,
            ..
        } = f;
        if !self.outstanding.remove(&rid) {
            return Err(RpcError::Protocol(format!(
                "response carries id {rid}, which has no outstanding request"
            )));
        }
        let outcome = match kind {
            proto::RESP_PROBS => {
                let out = proto::read_f32s(&payload)?;
                if out.len() != self.output_len {
                    return Err(RpcError::Protocol(format!(
                        "{} output values, handshake promised {}",
                        out.len(),
                        self.output_len
                    )));
                }
                Outcome::Probs(out)
            }
            proto::RESP_REJECTED => Outcome::Rejected,
            proto::RESP_TIMED_OUT => Outcome::TimedOut,
            proto::RESP_ERROR => Outcome::Error(String::from_utf8_lossy(&payload).into_owned()),
            k => return Err(RpcError::Protocol(format!("unknown response kind {k}"))),
        };
        Ok(Completion { id: rid, outcome })
    }
}

/// Fetch a live [`obs::Snapshot`] of a serving process's metrics registry
/// from `addr` — the client half of the `FRAME_STATS` exchange, used by
/// `cgdnn stats --connect`. Works against both the RPC event loop and a
/// dist coordinator: each greets with a server hello and answers a stats
/// frame read-only, without disturbing in-flight work. The connection is
/// dedicated to the scrape and dropped when it returns.
pub fn fetch_stats(
    addr: impl ToSocketAddrs,
    io_timeout: Duration,
) -> Result<obs::Snapshot, RpcError> {
    let (mut stream, _) = handshake(addr, io_timeout)?;
    proto::write_frame(&mut stream, proto::FRAME_STATS, 1, 0, &[])?;
    // The snapshot comes back as a FRAME_STATS chunk run.
    let bytes = proto::read_blob(proto::FRAME_STATS, 1, || {
        proto::read_frame(&mut stream).map_err(RpcError::from)
    })?;
    obs::Snapshot::from_bytes(&bytes).map_err(RpcError::Protocol)
}

/// Collapse a completion into the classic closed-loop result shape.
fn into_result(c: Completion) -> Result<Vec<f32>, RpcError> {
    match c.outcome {
        Outcome::Probs(p) => Ok(p),
        Outcome::Rejected => Err(RpcError::Rejected),
        Outcome::TimedOut => Err(RpcError::TimedOut),
        Outcome::Error(msg) => Err(RpcError::Server(msg)),
    }
}
