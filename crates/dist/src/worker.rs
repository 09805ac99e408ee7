//! The worker: a stateless compute loop over its shard of each batch.
//!
//! Workers never apply updates and never advance a solver — per step they
//! receive the broadcast parameters, run `step::shard_gradient` on their
//! shard net and ship the gradient plus the local loss back.
//!
//! Because no worker state outlives a step — parameters arrive with every
//! broadcast and the data cursor is seated from the step number — a worker
//! that comes back to a running coordinator joins exactly like a new one:
//! `FRAME_JOIN` carries the rank out, `FRAME_WELCOME` the run shape back,
//! and the next broadcast supplies everything else. So a respawned process
//! needs no flag, and a surviving process that loses the coordinator link
//! reconnects itself with capped exponential backoff, up to
//! [`WorkerConfig::max_rejoins`] times.

use crate::frames::{
    decode_welcome, done_to_err, encode_trace_events, expect_frame, recv_frame, recv_tensor,
    send_blob, send_frame, send_tensor, WELCOME_FLAG_TRACING,
};
use crate::step::shard_gradient;
use crate::DistError;
use net::Net;
use rpc::proto;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Worker-side configuration.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator address (`host:port`).
    pub addr: String,
    /// This worker's rank in `0..world`.
    pub rank: usize,
    /// Per-read/-write socket timeout.
    pub io_timeout: Duration,
    /// Reconnect-and-rejoin attempts after a lost coordinator link before
    /// giving up. `0` is the fail-stop behaviour: the first link loss is
    /// the worker's final error.
    pub max_rejoins: u32,
    /// Test hook: abandon the run (dropping the connection mid-step,
    /// before the gradient is sent) after this many completed steps —
    /// simulates a worker crash without a process kill. Fires once.
    pub fail_after_steps: Option<u64>,
}

impl WorkerConfig {
    /// Config with the standard timeouts.
    pub fn new(addr: impl Into<String>, rank: usize) -> Self {
        Self {
            addr: addr.into(),
            rank,
            io_timeout: Duration::from_secs(30),
            max_rejoins: 0,
            fail_after_steps: None,
        }
    }
}

/// What a finished worker observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerReport {
    /// Steps completed (gradient sent and accepted), across all sessions.
    pub steps: u64,
    /// Successful reconnect-and-rejoin cycles.
    pub rejoins: u32,
}

/// Total budget for the initial connect (the coordinator may still be
/// binding when a self-spawned worker starts).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

fn connect(cfg: &WorkerConfig) -> Result<TcpStream, DistError> {
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    loop {
        match TcpStream::connect(&cfg.addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(DistError::Io(format!("connect to {}: {e}", cfg.addr)));
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

/// One connection's worth of work: handshake, then the step loop until the
/// coordinator ends the run or the link fails.
struct Session<'a> {
    cfg: &'a WorkerConfig,
    num_params: usize,
    /// Steps completed across *all* sessions (survives rejoins).
    steps: u64,
    /// One-shot crash injection; taken when it fires so a rejoined session
    /// does not crash again on the same count.
    fail_after: Option<u64>,
    steps_metric: obs::Counter,
    /// Registry state at worker start; the teardown flush ships the delta
    /// against this, so the coordinator merges only what *this run* did.
    baseline: obs::Snapshot,
    /// `coordinator_clock − local_clock` in µs, pinned at each welcome.
    /// Added to every trace timestamp at flush so worker events land on
    /// the coordinator's timeline (the error is bounded by the one-way
    /// delivery delay of the welcome frame).
    clock_offset_us: f64,
}

impl Session<'_> {
    /// Connect and run until clean `FRAME_DONE` (→ `Ok`) or failure.
    fn run(&mut self, net: &mut Net<f32>) -> Result<(), DistError> {
        let cfg = self.cfg;
        let rank = cfg.rank;
        let mut stream = connect(cfg)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(cfg.io_timeout))?;
        stream.set_write_timeout(Some(cfg.io_timeout))?;

        // Handshake: hello exchange, then JOIN(rank) out and WELCOME back,
        // at the start of the run and on every return alike.
        let mut hello = [0u8; proto::SERVER_HELLO_LEN];
        stream
            .read_exact(&mut hello)
            .map_err(|e| DistError::CoordinatorLost(format!("reading hello: {e}")))?;
        let h = proto::decode_server_hello(&hello)?;
        if h.status != proto::HELLO_OK {
            return Err(DistError::Protocol(format!(
                "coordinator hello status {}",
                h.status
            )));
        }
        if h.sample_len as usize != self.num_params {
            return Err(DistError::Config(format!(
                "coordinator has {} parameters, this worker's net has {} — spec mismatch",
                h.sample_len, self.num_params
            )));
        }
        stream.write_all(&proto::encode_client_hello())?;
        send_frame(
            &mut stream,
            proto::FRAME_JOIN,
            rank as u64,
            rank as u32,
            &[],
        )?;
        let ack = expect_frame(&mut stream, proto::FRAME_WELCOME, None).map_err(lost_if_io)?;
        let welcome = decode_welcome(&ack.payload)?;
        // Observability handshake: pin the clock offset against the
        // coordinator's stamp, and mirror its tracing switch so worker
        // spans exist to flush at teardown.
        self.clock_offset_us = welcome.coord_clock_us as f64 - obs::trace::now_us();
        if welcome.flags & WELCOME_FLAG_TRACING != 0 {
            obs::trace::set_enabled(true);
        }
        let world = welcome.world as usize;
        if rank >= world {
            return Err(DistError::Config(format!(
                "rank {rank} outside world {world}"
            )));
        }
        let local_batch = welcome.effective_batch as usize / world;

        let rank_fault = format!("dist.worker.step.r{rank}");
        loop {
            let frame = recv_frame(&mut stream).map_err(lost_if_io)?;
            match frame.kind {
                proto::FRAME_DONE => {
                    if frame.aux == 0 {
                        // Clean end of run: flush observability state to
                        // the coordinator before closing. Best-effort —
                        // the run's correctness does not depend on it, and
                        // the coordinator reads with a timeout.
                        let _ = self.flush_observability(&mut stream);
                        return Ok(());
                    }
                    return Err(done_to_err(&frame));
                }
                proto::FRAME_PARAMS => {
                    let _span = obs::trace::span("dist_worker_step", "dist");
                    let step = frame.id;
                    let params = recv_tensor(
                        &mut stream,
                        proto::FRAME_PARAMS,
                        step,
                        self.num_params,
                        Some(frame),
                    )
                    .map_err(lost_if_io)?;
                    expect_frame(&mut stream, proto::FRAME_STEP, Some(step)).map_err(lost_if_io)?;
                    let (grad, loss) = shard_gradient(net, &params, step, local_batch)?;
                    // Crash-injection window: the gradient is computed but
                    // not yet sent — the coordinator is left waiting at
                    // the barrier, the worst place to lose a worker.
                    net::faults::hit(&rank_fault)?;
                    if self.fail_after == Some(self.steps) {
                        self.fail_after = None;
                        return Err(DistError::Io(
                            "injected worker failure (fail_after_steps)".into(),
                        ));
                    }
                    send_tensor(&mut stream, proto::FRAME_GRAD, step, &grad)?;
                    let mut loss_payload = Vec::with_capacity(4);
                    proto::write_f32s(&mut loss_payload, &[loss]);
                    send_frame(&mut stream, proto::FRAME_LOSS, step, 0, &loss_payload)?;
                    self.steps += 1;
                    self.steps_metric.inc();
                }
                k => {
                    return Err(DistError::Protocol(format!(
                        "unexpected frame kind {k} while waiting for parameters"
                    )))
                }
            }
        }
    }

    /// Ship this run's metric delta and (clock-shifted) trace buffer to
    /// the coordinator: one `FRAME_STATS` blob, then one `FRAME_TRACE`
    /// blob, both carrying the rank in `id`. Always sends both — an empty
    /// trace still ships as an empty event list, so the coordinator can
    /// read unconditionally.
    fn flush_observability(&self, stream: &mut TcpStream) -> Result<(), DistError> {
        let delta = obs::registry::global().snapshot().delta(&self.baseline);
        let rank = self.cfg.rank as u64;
        send_blob(stream, proto::FRAME_STATS, rank, &delta.to_bytes())?;
        let mut events = obs::trace::take_events();
        for e in &mut events {
            e.ts_us += self.clock_offset_us;
        }
        send_blob(
            stream,
            proto::FRAME_TRACE,
            rank,
            &encode_trace_events(&events),
        )?;
        stream.flush().map_err(|e| DistError::Io(e.to_string()))
    }
}

/// A failure a worker can outlive by reconnecting: the link (or the peer
/// process behind it) broke, as opposed to the coordinator deliberately
/// ending the run (`Remote`) or a configuration/protocol bug.
fn retryable(e: &DistError) -> bool {
    matches!(
        e,
        DistError::CoordinatorLost(_) | DistError::Io(_) | DistError::Decode(_)
    )
}

/// Run the worker loop on `net` (already built with the *local* batch and
/// this rank's `ShardedSource`) until the coordinator ends the run.
///
/// The shard runs on one thread with one canonical reduction slot
/// (`step::shard_gradient` pins both): the bitwise claim depends on it.
///
/// With [`WorkerConfig::max_rejoins`] > 0, a lost coordinator link is
/// retried: sleep with capped exponential backoff, reconnect, and join
/// again.
pub fn run_worker(net: &mut Net<f32>, cfg: &WorkerConfig) -> Result<WorkerReport, DistError> {
    let reg = obs::registry::global();
    // Every trace event this process records from here on carries the
    // rank's process identity — its own track in the merged Chrome trace.
    obs::trace::set_pid(cfg.rank as u64 + 2);
    let mut session = Session {
        cfg,
        num_params: net.num_params(),
        steps: 0,
        fail_after: cfg.fail_after_steps,
        steps_metric: reg.counter("dist.worker_steps"),
        baseline: reg.snapshot(),
        clock_offset_us: 0.0,
    };
    let rejoins_metric = reg.counter("dist.worker_rejoins");
    let mut rejoins = 0u32;
    loop {
        match session.run(net) {
            Ok(()) => {
                return Ok(WorkerReport {
                    steps: session.steps,
                    rejoins,
                })
            }
            Err(e) => {
                if !retryable(&e) || rejoins >= cfg.max_rejoins {
                    return Err(e);
                }
                rejoins += 1;
                rejoins_metric.inc();
                // 50ms, 100ms, … capped at 2s.
                let backoff = Duration::from_millis((50u64 << (rejoins - 1).min(5)).min(2000));
                eprintln!(
                    "worker {}: coordinator link lost ({e}); rejoin attempt {rejoins} in {backoff:?}",
                    cfg.rank
                );
                std::thread::sleep(backoff);
            }
        }
    }
}

/// On the worker, a socket-level failure talking to the coordinator means
/// the coordinator (or the link) is gone.
fn lost_if_io(e: DistError) -> DistError {
    e.or_peer_lost(DistError::CoordinatorLost)
}
