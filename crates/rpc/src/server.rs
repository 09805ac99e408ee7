//! `RpcServer` — a single-threaded readiness loop multiplexing every
//! connection, bridging decoded wire requests into the `serve`
//! micro-batcher via completion callbacks.
//!
//! One event-loop thread owns the listening socket and every accepted
//! connection. All sockets are non-blocking; the loop sleeps in
//! [`crate::poller::PollSet::wait`] until a socket is ready, a
//! completion callback rings the [`crate::poller::Waker`], or a
//! deadline (stalled writer, drain grace) expires. An **idle** server —
//! even one holding thousands of parked connections — makes zero
//! wakeups: there is no accept-poll tick and no per-connection timeout
//! spin. Compute never runs on the loop: frames are decoded, submitted
//! to the shared [`serve::Client`] with [`serve::Client::submit_async`],
//! and the loop moves on; the micro-batcher's worker invokes the
//! completion callback, which encodes the response frame, queues it,
//! and wakes the loop to write it out.
//!
//! **Connections are state machines, not threads.** Each holds a read
//! buffer (bytes off the wire, parsed as they complete), a write buffer
//! (responses queued until the socket accepts them), and a state:
//!
//! ```text
//! hello ──client hello ok──▶ open ──drain/EOF/fatal error──▶ closing ──flushed──▶ gone
//! ```
//!
//! Because responses are queued as their micro-batches complete, a
//! connection may have many requests in flight and receive the answers
//! **out of order** — the CGRP frame `id` (echoed on every response) is
//! the correlation key. Back-pressure is per-connection: a peer that stops
//! reading grows its write buffer to `MAX_WBUF`, at which point the loop
//! stops *reading* from it (no new requests), and a write stalled past
//! `WRITE_TIMEOUT` drops the connection.
//!
//! **Admission** is a live-connection cap decided before the hello goes
//! out: over the cap means [`proto::HELLO_BUSY`] and close (the
//! client-side back-off signal), and the seat is released only at
//! connection teardown — "busy" means what it says, regardless of how
//! the connection spends its lifetime.
//!
//! **Drain** (`shutdown()` or a client's [`proto::REQ_DRAIN`] observed
//! by the owner) is wakeup-driven: the stop flag plus a wake reach the
//! loop immediately, which closes the listener, answers what is in
//! flight, writes [`proto::RESP_SHUTDOWN`] on every connection, flushes,
//! and exits — bounded by `DRAIN_GRACE` so a stalled peer cannot wedge
//! it. A client blocked in `read` sees a shutdown frame or a clean FIN.
//!
//! Decode errors never panic and never take down the server: a bad
//! hello or corrupt header poisons only its own connection (error
//! frame, then close — a byte stream cannot be resynchronised after an
//! untrustworthy length prefix), while an intact header with an
//! unexpected kind or payload length is answered with
//! [`proto::RESP_ERROR`] and the connection lives on. Every rejection
//! bumps `rpc.decode_errors`.

use crate::poller::{PollSet, WakePipe, Waker};
use crate::proto::{self, encode_frame, DecodeError};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for the wire front-end.
#[derive(Debug, Clone)]
pub struct RpcConfig {
    /// Max live connections; one more is greeted with
    /// [`proto::HELLO_BUSY`] and closed.
    pub max_connections: usize,
}

impl Default for RpcConfig {
    /// Cap of 24 live connections.
    fn default() -> Self {
        Self {
            max_connections: 24,
        }
    }
}

/// How long a connection's pending response bytes may sit unwritten while
/// the peer refuses them; past this the connection is dropped.
const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// Per-connection pending-write cap: past this the loop stops reading new
/// requests from that connection until the peer drains its responses (flow
/// control, not an error).
const MAX_WBUF: usize = 1 << 20;

/// Hard bound on the drain flush: connections still holding unflushed
/// bytes this long after shutdown began are cut off.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Cached `rpc.*` registry handles; every update is a few atomics.
pub struct RpcMetrics {
    /// Connections accepted (including busy-rejected ones).
    pub connections: obs::Counter,
    /// Connections refused with [`proto::HELLO_BUSY`].
    pub rejected_connections: obs::Counter,
    /// Currently served connections (gauge `rpc.active_connections`).
    pub active_connections: obs::Gauge,
    /// Request frames with a valid header.
    pub frames_in: obs::Counter,
    /// Response frames written.
    pub frames_out: obs::Counter,
    /// Bytes read off the wire.
    pub bytes_in: obs::Counter,
    /// Bytes written to the wire.
    pub bytes_out: obs::Counter,
    /// Malformed hellos/headers/payloads rejected (see [`DecodeError`]).
    pub decode_errors: obs::Counter,
    /// Socket-level read/write failures (resets, stalled writers).
    pub io_errors: obs::Counter,
    /// Infer requests answered with probabilities.
    pub completed: obs::Counter,
    /// Infer requests answered with [`proto::RESP_REJECTED`].
    pub rejected: obs::Counter,
    /// Infer requests answered with [`proto::RESP_TIMED_OUT`].
    pub timed_out: obs::Counter,
    /// Per-connection panics survived (the loop keeps serving).
    pub handler_panics: obs::Counter,
    /// Decode-to-response latency of answered infer frames.
    pub frame_seconds: obs::Histogram,
    /// Event-loop wakeups — the idle-cost gauge: an idle server adds
    /// ~nothing here no matter how many connections it holds.
    pub loop_wakeups: obs::Counter,
    /// All frames either direction (`frames_in + frames_out`) — the
    /// single liveness number a `cgdnn stats` scrape checks first.
    pub frames_total: obs::Counter,
    /// Wall time of one loop iteration's work (poll return to next poll),
    /// excluding the sleep itself — event-loop latency health.
    pub loop_iter_seconds: obs::Histogram,
    /// Connections currently mid-handshake (gauge `rpc.conns_hello`).
    pub conns_hello: obs::Gauge,
    /// Connections currently serving frames (gauge `rpc.conns_open`).
    pub conns_open: obs::Gauge,
    /// Connections flushing before teardown (gauge `rpc.conns_closing`).
    pub conns_closing: obs::Gauge,
    /// Stall-watchdog kills: writers stuck past `WRITE_TIMEOUT`.
    pub stalled_conns_reaped: obs::Counter,
}

impl RpcMetrics {
    /// Resolve the `rpc.*` handles in `reg` (usually
    /// [`obs::registry::global`]; tests pass their own registry).
    pub fn register(reg: &obs::Registry) -> Arc<Self> {
        Arc::new(Self {
            connections: reg.counter("rpc.connections"),
            rejected_connections: reg.counter("rpc.rejected_connections"),
            active_connections: reg.gauge("rpc.active_connections"),
            frames_in: reg.counter("rpc.frames_in"),
            frames_out: reg.counter("rpc.frames_out"),
            bytes_in: reg.counter("rpc.bytes_in"),
            bytes_out: reg.counter("rpc.bytes_out"),
            decode_errors: reg.counter("rpc.decode_errors"),
            io_errors: reg.counter("rpc.io_errors"),
            completed: reg.counter("rpc.completed"),
            rejected: reg.counter("rpc.rejected"),
            timed_out: reg.counter("rpc.timed_out"),
            handler_panics: reg.counter("rpc.handler_panics"),
            frame_seconds: reg.histogram("rpc.frame_seconds", &obs::registry::DURATION_BOUNDS_SECS),
            loop_wakeups: reg.counter("rpc.loop_wakeups"),
            frames_total: reg.counter("rpc.frames_total"),
            loop_iter_seconds: reg.histogram(
                "rpc.loop_iter_seconds",
                &obs::registry::DURATION_BOUNDS_SECS,
            ),
            conns_hello: reg.gauge("rpc.conns_hello"),
            conns_open: reg.gauge("rpc.conns_open"),
            conns_closing: reg.gauge("rpc.conns_closing"),
            stalled_conns_reaped: reg.counter("rpc.stalled_conns_reaped"),
        })
    }
}

/// The running wire front-end. Dropping it signals the loop to stop;
/// [`RpcServer::shutdown`] performs the graceful drain and joins it.
pub struct RpcServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    drain: Arc<AtomicBool>,
    waker: Waker,
    event_loop: Option<JoinHandle<()>>,
    metrics: Arc<RpcMetrics>,
}

impl RpcServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving `bridge`. `output_len` is what the server hello advertises
    /// (take it from [`serve::Server::output_len`]); `reg` receives the
    /// `rpc.*` metrics and is what `FRAME_STATS` scrapes answer from.
    pub fn start(
        addr: impl ToSocketAddrs,
        bridge: serve::Client<f32>,
        output_len: usize,
        cfg: RpcConfig,
        reg: &obs::Registry,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let drain = Arc::new(AtomicBool::new(false));
        let metrics = RpcMetrics::register(reg);
        let (wake_rx, waker) = WakePipe::new()?;
        let sample_len = bridge.sample_len();
        let mut el = EventLoop {
            listener: Some(listener),
            conns: HashMap::new(),
            next_conn: 0,
            poll: PollSet::new(),
            wake_rx,
            waker: waker.clone(),
            completions: Arc::new(Mutex::new(Vec::new())),
            bridge,
            stop: Arc::clone(&stop),
            drain: Arc::clone(&drain),
            metrics: Arc::clone(&metrics),
            registry: reg.clone(),
            hello_ok: proto::encode_server_hello(
                proto::HELLO_OK,
                sample_len as u32,
                output_len as u32,
            ),
            hello_busy: proto::encode_server_hello(
                proto::HELLO_BUSY,
                sample_len as u32,
                output_len as u32,
            ),
            sample_len,
            cfg,
            draining: false,
            drain_deadline: None,
            accept_retry_at: None,
        };
        let event_loop = std::thread::Builder::new()
            .name("rpc-eventloop".into())
            .spawn(move || el.run())?;
        Ok(Self {
            local_addr,
            stop,
            drain,
            waker,
            event_loop: Some(event_loop),
            metrics,
        })
    }

    /// The bound address (resolves `:0` to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Whether some client sent [`proto::REQ_DRAIN`]. The owner polls this
    /// and calls [`RpcServer::shutdown`] — the drain frame requests, it
    /// does not force.
    pub fn drain_requested(&self) -> bool {
        self.drain.load(Ordering::SeqCst)
    }

    /// The `rpc.*` metrics handles.
    pub fn metrics(&self) -> Arc<RpcMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Graceful drain: stop accepting, answer in-flight frames, send
    /// [`proto::RESP_SHUTDOWN`] on every live connection, flush, close,
    /// and join the loop. Bounded by `DRAIN_GRACE` plus the in-flight
    /// work — a stalled peer cannot wedge it.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(t) = self.event_loop.take() {
            let _ = t.join();
        }
    }
}

impl Drop for RpcServer {
    fn drop(&mut self) {
        // Belt and suspenders for the no-shutdown path: the wake reaches
        // the loop immediately; joining is shutdown()'s job.
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
    }
}

/// A response finished by the micro-batcher, waiting for the loop to
/// append it to its connection's write buffer.
struct Completion {
    conn: u64,
    /// The fully encoded response frame (header + payload).
    frame: Vec<u8>,
    /// When the request frame was decoded, for `rpc.frame_seconds`.
    t0: Instant,
}

/// Connection lifecycle. `Hello` = our hello is sent/queued, the
/// client's hasn't arrived; `Open` = handshake complete, frames flow;
/// `Closing` = flush the write buffer, then tear down.
#[derive(PartialEq, Clone, Copy)]
enum ConnState {
    Hello,
    Open,
    Closing,
}

/// One multiplexed connection: socket + buffers + state machine.
struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// Unparsed inbound bytes (`rstart..` is live).
    rbuf: Vec<u8>,
    rstart: usize,
    /// Queued outbound bytes (`wstart..` is unwritten).
    wbuf: Vec<u8>,
    wstart: usize,
    /// Responses the micro-batcher still owes this connection.
    inflight: usize,
    /// Peer half-closed cleanly; close once the last response flushes.
    got_eof: bool,
    /// When the current write stall began (pending bytes + WouldBlock).
    stalled_since: Option<Instant>,
    /// Lifetime trace span; ends when the connection is dropped.
    _span: Option<obs::trace::Span>,
}

impl Conn {
    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wstart
    }

    fn queue(&mut self, bytes: &[u8]) {
        self.wbuf.extend_from_slice(bytes);
    }
}

struct EventLoop {
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    poll: PollSet,
    wake_rx: WakePipe,
    waker: Waker,
    completions: Arc<Mutex<Vec<Completion>>>,
    bridge: serve::Client<f32>,
    stop: Arc<AtomicBool>,
    drain: Arc<AtomicBool>,
    metrics: Arc<RpcMetrics>,
    /// What a `FRAME_STATS` scrape snapshots.
    registry: obs::Registry,
    hello_ok: [u8; proto::SERVER_HELLO_LEN],
    hello_busy: [u8; proto::SERVER_HELLO_LEN],
    sample_len: usize,
    cfg: RpcConfig,
    draining: bool,
    drain_deadline: Option<Instant>,
    /// Back-off after a non-WouldBlock accept error (e.g. EMFILE), so
    /// the loop doesn't spin on a listener that keeps failing.
    accept_retry_at: Option<Instant>,
}

/// How long to keep the listener quiet after an accept error.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

impl EventLoop {
    fn run(&mut self) {
        loop {
            if self.stop.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            if self.draining {
                let deadline = self.drain_deadline.expect("set by begin_drain");
                if self.conns.is_empty() || Instant::now() >= deadline {
                    return; // dropping conns closes the sockets
                }
            }

            let (listener_slot, conn_slots, wake_slot) = self.build_poll_set();
            let timeout = self.next_timeout();
            if self.poll.wait(timeout).is_err() {
                // poll(2) only fails on EINVAL/ENOMEM here; treat as fatal.
                return;
            }
            self.metrics.loop_wakeups.inc();
            let iter_t0 = Instant::now();
            if self.poll.readable(wake_slot) {
                self.wake_rx.drain();
            }
            self.apply_completions();
            if let Some(slot) = listener_slot {
                if self.poll.readable(slot) {
                    self.accept_ready();
                }
            } else if !self.draining && self.accept_retry_at.is_some_and(|at| Instant::now() >= at)
            {
                self.accept_retry_at = None;
                self.accept_ready();
            }
            for (id, slot) in conn_slots {
                self.service_conn(id, slot);
            }
            self.reap_closing();
            // Work time only — the poll sleep is idleness, not latency.
            self.metrics
                .loop_iter_seconds
                .observe(iter_t0.elapsed().as_secs_f64());
        }
    }

    /// Register every fd of interest for this iteration. Returns the
    /// listener slot (if accepting), per-connection slots, and the
    /// waker slot.
    #[allow(clippy::type_complexity)]
    fn build_poll_set(&mut self) -> (Option<usize>, Vec<(u64, Option<usize>)>, usize) {
        self.poll.clear();
        let accepting = !self.draining && self.accept_retry_at.is_none() && self.listener.is_some();
        let listener_slot = if accepting {
            let fd = self.listener.as_ref().expect("checked").as_raw_fd();
            Some(self.poll.push(fd, true, false))
        } else {
            None
        };
        let wake_slot = self.poll.push(self.wake_rx.fd(), true, false);
        let mut conn_slots = Vec::with_capacity(self.conns.len());
        let (mut hello, mut open, mut closing) = (0u64, 0u64, 0u64);
        for (&id, c) in &self.conns {
            match c.state {
                ConnState::Hello => hello += 1,
                ConnState::Open => open += 1,
                ConnState::Closing => closing += 1,
            }
            let want_read = !self.draining
                && !c.got_eof
                && c.state != ConnState::Closing
                && c.pending_write() < MAX_WBUF;
            let want_write = c.pending_write() > 0;
            let slot = if want_read || want_write {
                Some(self.poll.push(c.stream.as_raw_fd(), want_read, want_write))
            } else {
                // Parked: waiting on in-flight completions only.
                None
            };
            conn_slots.push((id, slot));
        }
        self.metrics.conns_hello.set(hello as f64);
        self.metrics.conns_open.set(open as f64);
        self.metrics.conns_closing.set(closing as f64);
        (listener_slot, conn_slots, wake_slot)
    }

    /// The earliest deadline the loop must wake for, if any. An idle
    /// server has none and sleeps indefinitely.
    fn next_timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        let mut deadline: Option<Instant> = self.drain_deadline;
        if let Some(at) = self.accept_retry_at {
            deadline = Some(deadline.map_or(at, |d| d.min(at)));
        }
        for c in self.conns.values() {
            if let Some(since) = c.stalled_since {
                let at = since + WRITE_TIMEOUT;
                deadline = Some(deadline.map_or(at, |d| d.min(at)));
            }
        }
        deadline.map(|d| d.saturating_duration_since(now))
    }

    /// Stop accepting and queue the shutdown goodbye on every
    /// connection with no responses outstanding.
    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_deadline = Some(Instant::now() + DRAIN_GRACE);
        self.listener = None;
        let m = Arc::clone(&self.metrics);
        for c in self.conns.values_mut() {
            if c.state != ConnState::Closing && c.inflight == 0 {
                let frame = encode_frame(proto::RESP_SHUTDOWN, 0, 0, &[]);
                m.frames_out.inc();
                m.frames_total.inc();
                m.bytes_out.add(frame.len() as u64);
                c.queue(&frame);
                c.state = ConnState::Closing;
            }
        }
    }

    /// Move finished micro-batch responses into their connections'
    /// write buffers.
    fn apply_completions(&mut self) {
        let batch = {
            let mut q = self.completions.lock().unwrap_or_else(|p| p.into_inner());
            std::mem::take(&mut *q)
        };
        for comp in batch {
            let Some(c) = self.conns.get_mut(&comp.conn) else {
                continue; // connection died while the batch ran
            };
            c.inflight -= 1;
            self.metrics.frames_out.inc();
            self.metrics.frames_total.inc();
            self.metrics.bytes_out.add(comp.frame.len() as u64);
            self.metrics
                .frame_seconds
                .observe(comp.t0.elapsed().as_secs_f64());
            c.queue(&comp.frame);
            if c.inflight == 0 && c.state != ConnState::Closing && (self.draining || c.got_eof) {
                if self.draining {
                    let frame = encode_frame(proto::RESP_SHUTDOWN, 0, 0, &[]);
                    self.metrics.frames_out.inc();
                    self.metrics.frames_total.inc();
                    self.metrics.bytes_out.add(frame.len() as u64);
                    c.queue(&frame);
                }
                c.state = ConnState::Closing;
            }
        }
    }

    /// Accept until the listener would block. Admission is decided
    /// against the live-connection count *before* the hello goes out.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.metrics.connections.inc();
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    if self.conns.len() >= self.cfg.max_connections {
                        // Over the cap: the hello carries the verdict, so
                        // the client backs off instead of discovering a
                        // dead connection one frame later. A fresh socket
                        // buffer always takes 16 bytes.
                        self.metrics.rejected_connections.inc();
                        let _ = (&stream).write(&self.hello_busy);
                        let _ = stream.shutdown(Shutdown::Both);
                        continue;
                    }
                    let id = self.next_conn;
                    self.next_conn += 1;
                    self.metrics.active_connections.add(1.0);
                    self.metrics.bytes_out.add(self.hello_ok.len() as u64);
                    let mut conn = Conn {
                        stream,
                        state: ConnState::Hello,
                        rbuf: Vec::new(),
                        rstart: 0,
                        wbuf: Vec::new(),
                        wstart: 0,
                        inflight: 0,
                        got_eof: false,
                        stalled_since: None,
                        _span: obs::trace::span("conn", "rpc"),
                    };
                    conn.queue(&self.hello_ok);
                    self.conns.insert(id, conn);
                    // Flush the hello now — the common case writes it in
                    // one call and the client's handshake completes
                    // without waiting for another loop turn.
                    self.service_conn(id, None);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    // Transient accept failure (EMFILE, aborted peer):
                    // leave the listener out of the poll set briefly so
                    // a persistent error can't spin the loop.
                    self.accept_retry_at = Some(Instant::now() + ACCEPT_ERROR_BACKOFF);
                    return;
                }
            }
        }
    }

    /// Run one connection's read/parse/dispatch/write turn; a panic
    /// poisons only this connection.
    fn service_conn(&mut self, id: u64, slot: Option<usize>) {
        if !self.conns.contains_key(&id) {
            return;
        }
        let readable = slot.is_some_and(|s| self.poll.readable(s));
        let alive = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut ok = true;
            if readable {
                ok = self.conn_read(id);
            }
            if ok {
                ok = self.conn_flush(id);
            }
            if ok {
                // Flushing may have freed write-buffer headroom; parse
                // any requests flow control had left in the read buffer.
                ok = self.parse_ready(id) || self.conn_flush(id);
            }
            ok
        }));
        match alive {
            Ok(true) => {}
            Ok(false) => self.kill_conn(id),
            Err(_) => {
                self.metrics.handler_panics.inc();
                self.kill_conn(id);
            }
        }
    }

    /// Drop a connection immediately (fatal I/O error or panic).
    fn kill_conn(&mut self, id: u64) {
        if self.conns.remove(&id).is_some() {
            self.metrics.active_connections.add(-1.0);
        }
    }

    /// Closing connections with nothing left to write are done; so are
    /// stalled writers past their budget (checked here so a timeout
    /// fires even when poll reported no events for the socket).
    fn reap_closing(&mut self) {
        let now = Instant::now();
        let mut dead = Vec::new();
        for (&id, c) in &self.conns {
            if c.state == ConnState::Closing && c.pending_write() == 0 {
                dead.push((id, false));
            } else if c
                .stalled_since
                .is_some_and(|s| now.duration_since(s) >= WRITE_TIMEOUT)
            {
                dead.push((id, true));
            }
        }
        for (id, timed_out) in dead {
            if timed_out {
                // Stall watchdog: the peer refused our bytes for the whole
                // WRITE_TIMEOUT budget.
                self.metrics.io_errors.inc();
                self.metrics.stalled_conns_reaped.inc();
            }
            if let Some(c) = self.conns.remove(&id) {
                let _ = c.stream.shutdown(Shutdown::Both);
                self.metrics.active_connections.add(-1.0);
            }
        }
    }

    /// Read whatever the socket has, then parse complete hello/frames
    /// out of the buffer. Returns `false` if the connection must die
    /// without flushing (mid-frame disconnect, I/O error).
    fn conn_read(&mut self, id: u64) -> bool {
        let mut scratch = [0u8; 16 * 1024];
        loop {
            let c = self.conns.get_mut(&id).expect("caller holds a live id");
            match c.stream.read(&mut scratch) {
                Ok(0) => {
                    let partial = c.rstart < c.rbuf.len();
                    if partial {
                        // EOF inside a hello/header/payload: stream
                        // corruption, nothing more to answer.
                        self.metrics.decode_errors.inc();
                        return false;
                    }
                    c.got_eof = true;
                    if c.inflight == 0 && c.state != ConnState::Closing {
                        // Clean goodbye: flush anything queued and close.
                        c.state = ConnState::Closing;
                    }
                    return true;
                }
                Ok(n) => {
                    self.metrics.bytes_in.add(n as u64);
                    c.rbuf.extend_from_slice(&scratch[..n]);
                    if !self.parse_ready(id) {
                        return true; // parse error queued a goodbye; flush it
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.metrics.io_errors.inc();
                    return false;
                }
            }
        }
    }

    /// Parse every complete message in the read buffer. Returns `false`
    /// once the connection has entered `Closing` (fatal decode error or
    /// drain ack) — remaining input is discarded.
    fn parse_ready(&mut self, id: u64) -> bool {
        loop {
            let c = self.conns.get_mut(&id).expect("caller holds a live id");
            if c.state == ConnState::Closing || c.pending_write() >= MAX_WBUF {
                // Flow control: stop decoding while the peer isn't
                // draining responses; unread requests stay in rbuf.
                break;
            }
            let avail = c.rbuf.len() - c.rstart;
            match c.state {
                ConnState::Hello => {
                    if avail < proto::CLIENT_HELLO_LEN {
                        break;
                    }
                    let hb = &c.rbuf[c.rstart..c.rstart + proto::CLIENT_HELLO_LEN];
                    match proto::decode_client_hello(hb.try_into().expect("sized slice")) {
                        Ok(()) => {
                            c.rstart += proto::CLIENT_HELLO_LEN;
                            c.state = ConnState::Open;
                        }
                        Err(e) => {
                            self.fatal_frame_error(id, 0, &e.to_string());
                            break;
                        }
                    }
                }
                ConnState::Open => {
                    if avail < proto::FRAME_HEADER_LEN {
                        break;
                    }
                    let hb = &c.rbuf[c.rstart..c.rstart + proto::FRAME_HEADER_LEN];
                    let header = match proto::decode_header(hb.try_into().expect("sized slice")) {
                        Ok(h) => h,
                        Err(e) => {
                            // No trustworthy payload_len to resync on.
                            self.fatal_frame_error(id, 0, &e.to_string());
                            break;
                        }
                    };
                    if header.payload_len > proto::MAX_PAYLOAD {
                        // Reject before buffering a byte of it.
                        let e = DecodeError::Oversize {
                            len: header.payload_len,
                            max: proto::MAX_PAYLOAD,
                        };
                        self.fatal_frame_error(id, header.id, &e.to_string());
                        break;
                    }
                    let frame_len = proto::FRAME_HEADER_LEN + header.payload_len as usize;
                    if avail < frame_len {
                        break;
                    }
                    self.metrics.frames_in.inc();
                    self.metrics.frames_total.inc();
                    let _frame_span = obs::trace::span("frame", "rpc");
                    let payload_at = c.rstart + proto::FRAME_HEADER_LEN;
                    let payload: Vec<u8> =
                        c.rbuf[payload_at..payload_at + header.payload_len as usize].to_vec();
                    c.rstart += frame_len;
                    self.dispatch(id, header, &payload);
                }
                ConnState::Closing => break,
            }
        }
        // Compact the consumed prefix so the buffer doesn't grow forever.
        let c = self.conns.get_mut(&id).expect("caller holds a live id");
        if c.rstart > 0 {
            c.rbuf.drain(..c.rstart);
            c.rstart = 0;
        }
        c.state != ConnState::Closing
    }

    /// Decode failure that poisons the connection: count it, explain it,
    /// start closing.
    fn fatal_frame_error(&mut self, id: u64, frame_id: u64, msg: &str) {
        self.metrics.decode_errors.inc();
        self.queue_response(id, proto::RESP_ERROR, frame_id, 0, msg.as_bytes());
        if let Some(c) = self.conns.get_mut(&id) {
            c.state = ConnState::Closing;
        }
    }

    /// Append an encoded response frame to a connection's write buffer.
    fn queue_response(&mut self, id: u64, kind: u8, frame_id: u64, aux: u32, payload: &[u8]) {
        let frame = encode_frame(kind, frame_id, aux, payload);
        self.metrics.frames_out.inc();
        self.metrics.frames_total.inc();
        self.metrics.bytes_out.add(frame.len() as u64);
        if let Some(c) = self.conns.get_mut(&id) {
            c.queue(&frame);
        }
    }

    /// Act on one complete, CRC-valid frame.
    fn dispatch(&mut self, id: u64, header: proto::FrameHeader, payload: &[u8]) {
        let m = &self.metrics;
        let sample_bytes = self.sample_len * std::mem::size_of::<f32>();
        match header.kind {
            proto::REQ_DRAIN => {
                // Surface the request to the owner (who decides to
                // stop); acknowledge so the drainer can hang up.
                self.drain.store(true, Ordering::SeqCst);
                self.queue_response(id, proto::RESP_SHUTDOWN, header.id, 0, &[]);
            }
            proto::FRAME_STATS => {
                // Read-only registry scrape, answered synchronously on the
                // loop (a snapshot is a few atomic loads per metric — no
                // compute, no serve-tier round trip, so in-flight requests
                // are undisturbed). The snapshot is of the registry this
                // server was started with: the process-global one under
                // `cgdnn infer`, where it is what `--metrics`
                // would export.
                let bytes = self.registry.snapshot().to_bytes();
                let _: Result<(), std::convert::Infallible> =
                    proto::write_run(bytes.len(), |aux, part| {
                        self.queue_response(id, proto::FRAME_STATS, header.id, aux, &bytes[part]);
                        Ok(())
                    });
            }
            proto::REQ_INFER if payload.len() != sample_bytes => {
                m.decode_errors.inc();
                let msg = format!(
                    "infer payload is {} bytes, sample shape needs {sample_bytes}",
                    payload.len()
                );
                self.queue_response(id, proto::RESP_ERROR, header.id, 0, msg.as_bytes());
            }
            proto::REQ_INFER => {
                let sample = proto::read_f32s(payload).expect("length checked above");
                self.submit_sample(id, header.id, sample, header.aux);
            }
            k => {
                m.decode_errors.inc();
                let msg = format!("unknown request kind {k}");
                self.queue_response(id, proto::RESP_ERROR, header.id, 0, msg.as_bytes());
            }
        }
    }

    /// Hand one sample to the micro-batcher. The completion callback —
    /// run on a serve worker — encodes the response frame, queues it,
    /// and wakes the loop. Synchronous verdicts (queue full, serve tier
    /// closed) are answered in place.
    fn submit_sample(&mut self, id: u64, frame_id: u64, sample: Vec<f32>, budget: u32) {
        let deadline = (budget > 0).then(|| Instant::now() + Duration::from_micros(budget.into()));
        let t0 = Instant::now();
        let comps = Arc::clone(&self.completions);
        let waker = self.waker.clone();
        let metrics = Arc::clone(&self.metrics);
        let res = self.bridge.submit_async(sample, deadline, move |r| {
            let frame = match r {
                Ok(out) => {
                    let mut p = Vec::new();
                    proto::write_f32s(&mut p, &out);
                    metrics.completed.inc();
                    encode_frame(proto::RESP_PROBS, frame_id, 0, &p)
                }
                Err(serve::ServeError::Rejected) => {
                    metrics.rejected.inc();
                    encode_frame(proto::RESP_REJECTED, frame_id, 0, &[])
                }
                Err(serve::ServeError::TimedOut) => {
                    metrics.timed_out.inc();
                    encode_frame(proto::RESP_TIMED_OUT, frame_id, 0, &[])
                }
                // A replica's failure answers this request only; the
                // connection and the server stay up.
                Err(e) => encode_frame(proto::RESP_ERROR, frame_id, 0, e.to_string().as_bytes()),
            };
            let mut q = comps.lock().unwrap_or_else(|p| p.into_inner());
            q.push(Completion {
                conn: id,
                frame,
                t0,
            });
            drop(q);
            waker.wake();
        });
        match res {
            Ok(()) => {
                if let Some(c) = self.conns.get_mut(&id) {
                    c.inflight += 1;
                }
            }
            Err(serve::ServeError::Rejected) => {
                self.metrics.rejected.inc();
                self.queue_response(id, proto::RESP_REJECTED, frame_id, 0, &[]);
                self.metrics
                    .frame_seconds
                    .observe(t0.elapsed().as_secs_f64());
            }
            Err(serve::ServeError::Closed) => {
                self.queue_response(id, proto::RESP_SHUTDOWN, frame_id, 0, &[]);
                if let Some(c) = self.conns.get_mut(&id) {
                    c.state = ConnState::Closing;
                }
            }
            Err(e) => {
                // BadInput is pre-checked; anything else is surfaced.
                self.queue_response(id, proto::RESP_ERROR, frame_id, 0, e.to_string().as_bytes());
            }
        }
    }

    /// Push pending bytes at the socket. Returns `false` on a fatal
    /// write error.
    fn conn_flush(&mut self, id: u64) -> bool {
        let c = self.conns.get_mut(&id).expect("caller holds a live id");
        while c.wstart < c.wbuf.len() {
            match c.stream.write(&c.wbuf[c.wstart..]) {
                Ok(0) => {
                    self.metrics.io_errors.inc();
                    return false;
                }
                Ok(n) => {
                    c.wstart += n;
                    c.stalled_since = None;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let since = *c.stalled_since.get_or_insert_with(Instant::now);
                    if since.elapsed() >= WRITE_TIMEOUT {
                        self.metrics.io_errors.inc();
                        return false;
                    }
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.metrics.io_errors.inc();
                    return false;
                }
            }
        }
        if c.wstart == c.wbuf.len() {
            c.wbuf.clear();
            c.wstart = 0;
            c.stalled_since = None;
        } else if c.wstart > 32 * 1024 {
            c.wbuf.drain(..c.wstart);
            c.wstart = 0;
        }
        true
    }
}
