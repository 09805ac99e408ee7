//! The coordinator: owner of the parameters, the solver, and the data
//! cursor — the only process that mutates training state.
//!
//! Per step it broadcasts the current parameters, releases the step
//! barrier, collects one gradient per worker *in fixed rank order* and
//! runs the one fold-and-update (`crate::step`) on them, so a checkpoint
//! taken from its net + solver is bit-identical to a single-process
//! checkpoint at the same iteration.
//!
//! # Elastic recovery
//!
//! [`run_coordinator`] is fail-stop (a dead worker ends the run with a
//! typed error — the PR 6 contract). [`run_coordinator_elastic`] instead
//! *survives* worker loss without giving up bit-identity:
//!
//! - A rank whose connection fails mid-step is marked **dead**; its
//!   contribution is computed here instead, by the function the worker
//!   runs (`step::shard_gradient`) on that rank's shard net, into the
//!   *same slot* of the rank-order fold. Only wall-clock and the `dist.*`
//!   recovery counters can tell the runs apart.
//! - Each death draws on a sliding-window restart budget (the
//!   `serve::SupervisorPolicy` shape). Within budget, [`ElasticHooks`]
//!   may respawn the worker process; over budget the run either aborts
//!   with [`DistError::RestartBudgetExhausted`] (default — the PR 6
//!   bounded teardown) or, with `degraded_ok`, continues degraded with
//!   respawning stood down.
//! - At every step boundary the coordinator polls its listener for
//!   `FRAME_REJOIN` handshakes: a restarted worker presents its rank, is
//!   acked with the resume step + run shape, and is seated back into its
//!   slot before the next broadcast (no rank state outlives a step).

use crate::frames::{
    decode_trace_events, encode_welcome, expect_frame, flatten_params, recv_blob, recv_frame,
    recv_tensor, send_blob, send_frame, send_tensor, Frame, Welcome, WELCOME_FLAG_TRACING,
};
use crate::step::{fold_and_update, shard_gradient};
use crate::{DistConfig, DistError};
use net::Net;
use rpc::proto;
use solvers::Solver;
use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Coordinator-side configuration: the shared [`DistConfig`] plus how
/// long to wait for the full worker complement to join.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// The shared run shape (validated before any worker is admitted).
    pub dist: DistConfig,
    /// How long to wait for all `world` workers to connect and join.
    pub join_timeout: Duration,
}

/// Sliding-window restart budget for elastic runs — the same shape as
/// `serve`'s replica supervisor: at most `max_restarts` worker deaths per
/// `restart_window`, after which the run aborts (or stands down respawning
/// and continues degraded, when `degraded_ok`).
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Worker deaths tolerated per sliding window before the budget is
    /// exhausted.
    pub max_restarts: usize,
    /// Width of the sliding window.
    pub restart_window: Duration,
    /// On budget exhaustion: `false` aborts with
    /// [`DistError::RestartBudgetExhausted`]; `true` keeps training with
    /// every remaining dead rank recomputed locally, respawning stopped.
    pub degraded_ok: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            max_restarts: 5,
            restart_window: Duration::from_secs(30),
            degraded_ok: false,
        }
    }
}

/// What the embedding process supplies for elastic recovery. The
/// coordinator crate knows nothing about process spawning or net specs —
/// the CLI (or a test harness) implements both hooks.
pub trait ElasticHooks {
    /// Build rank `rank`'s worker net: the *local* batch (`B/W`) and that
    /// rank's `ShardedSource` — exactly the net the live worker runs. Used
    /// to recompute a dead rank's gradient on the coordinator. Called at
    /// most once per rank; the net is cached and re-seeded from the
    /// broadcast parameters on every recompute.
    fn shard_net(&mut self, rank: usize) -> Result<Net<f32>, DistError>;

    /// Restart worker `rank`'s process. Return `Ok(false)` when respawn is
    /// not available (externally managed workers reconnect on their own
    /// with `FRAME_REJOIN`); a respawn *error* is reported but does not
    /// end the run — the rank simply stays dead until something rejoins.
    fn respawn(&mut self, rank: usize) -> Result<bool, DistError>;
}

/// Cached `dist.*` metric handles.
pub(crate) struct Metrics {
    pub(crate) steps: obs::Counter,
    grad_bytes: obs::Counter,
    param_bytes: obs::Counter,
    worker_deaths: obs::Counter,
    recoveries: obs::Counter,
    degraded_steps: obs::Counter,
    rejoins: obs::Counter,
    step_seconds: obs::Histogram,
    pub(crate) reduce_seconds: obs::Histogram,
    pub(crate) last_loss: obs::Gauge,
}

impl Metrics {
    pub(crate) fn new() -> Self {
        let reg = obs::registry::global();
        Self {
            steps: reg.counter("dist.steps"),
            grad_bytes: reg.counter("dist.grad_bytes"),
            param_bytes: reg.counter("dist.param_bytes"),
            worker_deaths: reg.counter("dist.worker_deaths"),
            recoveries: reg.counter("dist.recoveries"),
            degraded_steps: reg.counter("dist.degraded_steps"),
            rejoins: reg.counter("dist.rejoins"),
            step_seconds: reg.histogram("dist.step_seconds", &obs::registry::DURATION_BOUNDS_SECS),
            reduce_seconds: reg
                .histogram("dist.reduce_seconds", &obs::registry::DURATION_BOUNDS_SECS),
            last_loss: reg.gauge("dist.last_loss"),
        }
    }
}

/// The welcome / rejoin-ack payload for this run, stamped with the
/// observability handshake: the tracing flag (workers mirror it) and the
/// coordinator's trace clock, sampled *now* so the worker's offset
/// computation sees the freshest possible reference.
fn welcome_payload(cfg: &CoordinatorConfig) -> [u8; 24] {
    let flags = if obs::trace::enabled() {
        WELCOME_FLAG_TRACING
    } else {
        0
    };
    encode_welcome(&Welcome {
        world: cfg.dist.world as u32,
        effective_batch: cfg.dist.effective_batch as u32,
        iters: cfg.dist.iters as u32,
        flags,
        coord_clock_us: obs::trace::now_us() as u64,
    })
}

/// Open one accepted connection: blocking, `io_timeout` on every read and
/// write, hello exchange, then the peer's first frame. The server speaks
/// first, advertising the flat parameter count and the world size so a
/// mismatched worker fails before training starts.
fn handshake(
    stream: &mut TcpStream,
    cfg: &CoordinatorConfig,
    num_params: usize,
) -> Result<Frame, DistError> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(cfg.dist.io_timeout))?;
    stream.set_write_timeout(Some(cfg.dist.io_timeout))?;
    let hello =
        proto::encode_server_hello(proto::HELLO_OK, num_params as u32, cfg.dist.world as u32);
    io::Write::write_all(stream, &hello)
        .map_err(|e| DistError::Io(format!("writing hello: {e}")))?;
    let mut hello = [0u8; proto::CLIENT_HELLO_LEN];
    io::Read::read_exact(stream, &mut hello)
        .map_err(|e| DistError::Io(format!("reading client hello: {e}")))?;
    proto::decode_client_hello(&hello)?;
    recv_frame(stream)
}

/// Accept and admit `world` workers: [`handshake`], `FRAME_JOIN` with the
/// rank in `aux`, `FRAME_WELCOME` reply. Returns the slots, every one live.
/// Leaves the listener nonblocking — the elastic step loop keeps polling
/// it for rejoins.
fn admit_workers(
    listener: &TcpListener,
    cfg: &CoordinatorConfig,
    num_params: usize,
) -> Result<Vec<Option<TcpStream>>, DistError> {
    let _span = obs::trace::span("dist_admit", "dist");
    listener.set_nonblocking(true)?;
    let deadline = Instant::now() + cfg.join_timeout;
    let world = cfg.dist.world;
    let mut streams: Vec<Option<TcpStream>> = (0..world).map(|_| None).collect();
    let mut joined = 0usize;
    while joined < world {
        let mut stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(DistError::JoinTimeout { joined, world });
                }
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
            Err(e) => return Err(e.into()),
        };
        let join = handshake(&mut stream, cfg, num_params)?;
        if join.kind != proto::FRAME_JOIN {
            return Err(DistError::Protocol(format!(
                "expected FRAME_JOIN, got kind {}",
                join.kind
            )));
        }
        let rank = join.aux as usize;
        if rank >= world {
            return Err(DistError::Protocol(format!(
                "worker joined with rank {rank}, world is {world}"
            )));
        }
        if streams[rank].is_some() {
            return Err(DistError::Protocol(format!("duplicate rank {rank}")));
        }
        let welcome = welcome_payload(cfg);
        send_frame(&mut stream, proto::FRAME_WELCOME, 0, rank as u32, &welcome)?;
        streams[rank] = Some(stream);
        joined += 1;
    }
    Ok(streams)
}

/// Elastic-mode state: the budget, the embedder's hooks, and the cached
/// per-rank shard nets used to recompute a dead rank's contribution.
struct Elastic<'h> {
    policy: RecoveryPolicy,
    hooks: &'h mut dyn ElasticHooks,
    /// Timestamps of deaths inside the sliding window.
    deaths: VecDeque<Instant>,
    /// Budget exhausted under `degraded_ok`: stop respawning, keep going.
    respawn_stopped: bool,
    shard_nets: Vec<Option<Net<f32>>>,
}

impl Elastic<'_> {
    /// Rank `rank`'s step-`step` contribution, computed here by the
    /// function the worker runs, on that rank's (cached) shard net —
    /// bitwise what the dead worker would have sent.
    fn recompute(
        &mut self,
        rank: usize,
        step: u64,
        params: &[f32],
        local_batch: usize,
    ) -> Result<(Vec<f32>, f32), DistError> {
        let _span = obs::trace::span("dist_recover", "dist");
        let slot = &mut self.shard_nets[rank];
        if slot.is_none() {
            *slot = Some(self.hooks.shard_net(rank)?);
        }
        let net = slot.as_mut().expect("seated just above");
        shard_gradient(net, params, step, local_batch)
    }
}

/// The `on_step` hook, as the step loop holds it.
type OnStep<'a> = &'a mut dyn FnMut(u64, f32, &mut Net<f32>, &mut Solver<f32>) -> io::Result<()>;

/// The per-run state bundle the step loop mutates.
struct StepLoop<'a, 'h> {
    listener: TcpListener,
    net: &'a mut Net<f32>,
    solver: &'a mut Solver<f32>,
    cfg: &'a CoordinatorConfig,
    metrics: Metrics,
    /// Per-rank connection; `None` = dead, awaiting respawn/rejoin.
    slots: Vec<Option<TcpStream>>,
    elastic: Option<Elastic<'h>>,
    on_step: OnStep<'a>,
    num_params: usize,
}

impl StepLoop<'_, '_> {
    /// One synchronous step; returns its global loss.
    fn step(&mut self) -> Result<f32, DistError> {
        let _span = obs::trace::span("dist_step", "dist");
        let t0 = Instant::now();
        let step = self.solver.iteration();
        let world = self.cfg.dist.world;
        let local_batch = self.cfg.dist.local_batch();

        self.poll_control(step);

        let params = flatten_params(self.net);
        {
            let _span = obs::trace::span("dist_broadcast", "dist");
            let mut sent = 0usize;
            for rank in 0..world {
                let Some(s) = self.slots[rank].as_mut() else {
                    continue;
                };
                let r = send_tensor(s, proto::FRAME_PARAMS, step, &params)
                    .and_then(|()| send_frame(s, proto::FRAME_STEP, step, 0, &[]));
                match r {
                    Ok(()) => sent += 1,
                    Err(e) => self.handle_rank_error(rank, e)?,
                }
            }
            self.metrics
                .param_bytes
                .add((params.len() * 4 * sent) as u64);
        }

        // Collect from every live rank in rank order. Workers compute
        // concurrently; rank r+1's frames sit in kernel buffers (or its
        // sends block) until rank r is drained — order on the reduction,
        // not on the computation.
        let mut collected: Vec<Option<(Vec<f32>, f32)>> = (0..world).map(|_| None).collect();
        {
            let _span = obs::trace::span("dist_collect", "dist");
            for (rank, slot) in collected.iter_mut().enumerate() {
                let Some(s) = self.slots[rank].as_mut() else {
                    continue;
                };
                match collect_one(s, step, self.num_params) {
                    Ok(c) => {
                        self.metrics.grad_bytes.add((c.0.len() * 4) as u64);
                        *slot = Some(c);
                    }
                    Err(e) => self.handle_rank_error(rank, e)?,
                }
            }
        }

        // Any hole left is a dead rank: recompute its contribution here on
        // its own shard, into its own slot — the fold below is then the
        // fold the healthy run would have performed, bit for bit.
        if collected.iter().any(Option::is_none) {
            self.metrics.degraded_steps.inc();
        }
        let mut contribs = Vec::with_capacity(world);
        for (rank, c) in collected.into_iter().enumerate() {
            contribs.push(match c {
                Some(c) => c,
                None => self
                    .elastic
                    .as_mut()
                    .expect("dead ranks survive only in elastic mode")
                    .recompute(rank, step, &params, local_batch)?,
            });
        }

        let loss = fold_and_update(
            self.net,
            self.solver,
            &self.cfg.dist,
            &contribs,
            &self.metrics,
        )?;
        self.metrics
            .step_seconds
            .observe(t0.elapsed().as_secs_f64());
        (self.on_step)(self.solver.iteration(), loss, self.net, self.solver)
            .map_err(|e| DistError::Io(format!("on_step hook: {e}")))?;
        Ok(loss)
    }

    /// A failure talking to `rank` — at socket level, that worker dying.
    /// Fail-stop mode returns the PR 6 typed error; elastic mode marks the
    /// rank dead, charges the restart budget, and asks the hooks to respawn.
    fn handle_rank_error(&mut self, rank: usize, e: DistError) -> Result<(), DistError> {
        let e = e.or_peer_lost(|detail| DistError::WorkerDied { rank, detail });
        let Some(el) = self.elastic.as_mut() else {
            return Err(e);
        };
        self.slots[rank] = None;
        self.metrics.worker_deaths.inc();
        eprintln!("coordinator: worker {rank} lost mid-step ({e}); recovering on its shard");
        let now = Instant::now();
        while el
            .deaths
            .front()
            .is_some_and(|t| now.duration_since(*t) > el.policy.restart_window)
        {
            el.deaths.pop_front();
        }
        if el.deaths.len() >= el.policy.max_restarts {
            if !el.policy.degraded_ok {
                return Err(DistError::RestartBudgetExhausted {
                    rank,
                    deaths: el.deaths.len() + 1,
                });
            }
            if !el.respawn_stopped {
                el.respawn_stopped = true;
                eprintln!(
                    "coordinator: restart budget exhausted ({} deaths in {:?}) — \
                     continuing degraded, respawn stood down",
                    el.deaths.len() + 1,
                    el.policy.restart_window
                );
            }
            self.metrics.recoveries.inc();
            return Ok(());
        }
        el.deaths.push_back(now);
        self.metrics.recoveries.inc();
        if !el.respawn_stopped {
            match el.hooks.respawn(rank) {
                Ok(true) => eprintln!("coordinator: respawned worker {rank}"),
                // Externally managed workers reconnect on their own.
                Ok(false) => {}
                Err(re) => eprintln!("coordinator: respawn of worker {rank} failed: {re}"),
            }
        }
        Ok(())
    }

    /// Drain the (nonblocking) listener of control connections — rejoin
    /// attempts and live `FRAME_STATS` scrapes — at a step boundary. Never
    /// fatal to the run: a bad peer is rejected and dropped.
    fn poll_control(&mut self, resume_step: u64) {
        loop {
            let stream = match self.listener.accept() {
                Ok((s, _)) => s,
                Err(_) => return,
            };
            if let Err(e) = self.serve_control(stream, resume_step) {
                eprintln!("coordinator: control connection rejected: {e}");
            }
        }
    }

    /// One bounded control connection: [`handshake`], then dispatch on the
    /// first frame — `FRAME_STATS` is answered with a chunked registry
    /// snapshot (any mode; `cgdnn stats --connect` against a training
    /// coordinator), `FRAME_REJOIN(rank)` is acked with
    /// `(resume_step, run shape)` and seated (elastic mode only). Every
    /// read/write is under `io_timeout`.
    fn serve_control(&mut self, mut stream: TcpStream, resume_step: u64) -> Result<(), DistError> {
        let world = self.cfg.dist.world;
        let req = handshake(&mut stream, self.cfg, self.num_params)?;
        match req.kind {
            proto::FRAME_STATS => {
                let bytes = obs::registry::global().snapshot().to_bytes();
                send_blob(&mut stream, proto::FRAME_STATS, req.id, &bytes)?;
                return Ok(());
            }
            proto::FRAME_REJOIN => {}
            k => {
                return Err(DistError::Protocol(format!(
                    "expected FRAME_REJOIN or FRAME_STATS, got kind {k}"
                )))
            }
        }
        let _span = obs::trace::span("dist_rejoin", "dist");
        let rank = req.aux as usize;
        let refusal = if self.elastic.is_none() {
            Some("run is not elastic")
        } else if rank >= world {
            Some("rank outside world")
        } else if self.slots[rank].is_some() {
            Some("rank is healthy")
        } else {
            None
        };
        if let Some(why) = refusal {
            let _ = send_frame(&mut stream, proto::FRAME_DONE, 0, 1, why.as_bytes());
            return Err(DistError::Protocol(format!(
                "rejoin of rank {rank} (world {world}) refused: {why}"
            )));
        }
        let ack = welcome_payload(self.cfg);
        send_frame(
            &mut stream,
            proto::FRAME_REJOIN,
            resume_step,
            rank as u32,
            &ack,
        )?;
        self.slots[rank] = Some(stream);
        self.metrics.rejoins.inc();
        eprintln!("coordinator: worker {rank} rejoined at step {resume_step}");
        Ok(())
    }

    /// After the clean `FRAME_DONE` broadcast, every live worker flushes a
    /// metric delta (`FRAME_STATS`) and its clock-shifted trace buffer
    /// (`FRAME_TRACE`) before closing. Read both per live rank in rank
    /// order — each read bounded by `io_timeout`, each rank best-effort —
    /// merging metrics under the `r{rank}.` prefix and folding the events
    /// into this process's trace store, so the coordinator's `--metrics` /
    /// `--trace` exports carry every rank. A name that already carries a
    /// rank prefix is not the rank's own: an in-process worker shares this
    /// registry and ships back what earlier sessions folded into it, and
    /// nesting that (`r1.r0.*`) would multiply the registry every session.
    fn collect_observability(&mut self) {
        let reg = obs::registry::global();
        for rank in 0..self.cfg.dist.world {
            let Some(s) = self.slots[rank].as_mut() else {
                continue;
            };
            let got = recv_blob(s, proto::FRAME_STATS, rank as u64, None)
                .and_then(|b| obs::Snapshot::from_bytes(&b).map_err(DistError::Protocol))
                .and_then(|mut snap| {
                    snap.retain(|name| !rank_prefixed(name));
                    reg.merge(&snap, &format!("r{rank}."))
                        .map_err(DistError::Protocol)
                })
                .and_then(|()| recv_blob(s, proto::FRAME_TRACE, rank as u64, None))
                .and_then(|b| decode_trace_events(&b));
            match got {
                Ok(events) => obs::trace::inject_events(events),
                Err(e) => {
                    eprintln!("coordinator: rank {rank} observability flush not collected: {e}")
                }
            }
        }
    }

    /// Broadcast `FRAME_DONE` to every live worker, best-effort (a send to
    /// an already-dead worker is ignored — teardown must not fail
    /// teardown).
    fn broadcast_done(&mut self, aux: u32, reason: &str) {
        for s in self.slots.iter_mut().flatten() {
            let _ = send_frame(s, proto::FRAME_DONE, 0, aux, reason.as_bytes());
        }
    }
}

/// Whether `name` starts with an `r<digits>.` rank prefix.
fn rank_prefixed(name: &str) -> bool {
    name.strip_prefix('r')
        .and_then(|rest| rest.split_once('.'))
        .is_some_and(|(rank, _)| !rank.is_empty() && rank.bytes().all(|b| b.is_ascii_digit()))
}

/// Receive one rank's `(gradient, local loss)` for `step`.
fn collect_one(
    s: &mut TcpStream,
    step: u64,
    num_params: usize,
) -> Result<(Vec<f32>, f32), DistError> {
    let grad = recv_tensor(s, proto::FRAME_GRAD, step, num_params, None)?;
    let loss_frame = expect_frame(s, proto::FRAME_LOSS, Some(step))?;
    match proto::read_f32s(&loss_frame.payload).as_deref() {
        Ok([local_loss]) => Ok((grad, *local_loss)),
        _ => Err(DistError::Protocol(
            "FRAME_LOSS payload is not one f32".into(),
        )),
    }
}

/// Run the coordinator over an already-bound listener: admit `world`
/// workers, then drive `iters` synchronous steps. Returns the loss
/// trajectory — bit-identical to the single-process reference (see the
/// crate docs for the argument).
///
/// `on_step(iteration_completed, loss, net, solver)` fires after each
/// applied update, with the iteration counter already advanced — the hook
/// where the CLI writes loss logs and checkpoints.
///
/// This entry point is **fail-stop**: on a worker failure the remaining
/// workers receive `FRAME_DONE(error)` before the typed error returns, so
/// nothing is left blocked on the barrier; every wait is bounded by
/// `io_timeout` regardless. See [`run_coordinator_elastic`] for the
/// recovering variant.
pub fn run_coordinator<F>(
    listener: TcpListener,
    net: &mut Net<f32>,
    solver: &mut Solver<f32>,
    cfg: &CoordinatorConfig,
    mut on_step: F,
) -> Result<Vec<f32>, DistError>
where
    F: FnMut(u64, f32, &mut Net<f32>, &mut Solver<f32>) -> io::Result<()>,
{
    drive(listener, net, solver, cfg, None, &mut on_step)
}

/// [`run_coordinator`], but surviving worker death: dead ranks are
/// recomputed locally (bit-identity preserved — see the module docs),
/// respawned within `policy`'s sliding-window budget via `hooks`, and
/// reseated through the `FRAME_REJOIN` handshake at step boundaries.
pub fn run_coordinator_elastic<F>(
    listener: TcpListener,
    net: &mut Net<f32>,
    solver: &mut Solver<f32>,
    cfg: &CoordinatorConfig,
    policy: RecoveryPolicy,
    hooks: &mut dyn ElasticHooks,
    mut on_step: F,
) -> Result<Vec<f32>, DistError>
where
    F: FnMut(u64, f32, &mut Net<f32>, &mut Solver<f32>) -> io::Result<()>,
{
    let elastic = Elastic {
        policy,
        hooks,
        deaths: VecDeque::new(),
        respawn_stopped: false,
        shard_nets: (0..cfg.dist.world).map(|_| None).collect(),
    };
    drive(listener, net, solver, cfg, Some(elastic), &mut on_step)
}

fn drive(
    listener: TcpListener,
    net: &mut Net<f32>,
    solver: &mut Solver<f32>,
    cfg: &CoordinatorConfig,
    elastic: Option<Elastic<'_>>,
    on_step: OnStep<'_>,
) -> Result<Vec<f32>, DistError> {
    cfg.dist.validate()?;
    let num_params = net.num_params();
    let slots = admit_workers(&listener, cfg, num_params)?;
    let mut sl = StepLoop {
        listener,
        net,
        solver,
        cfg,
        metrics: Metrics::new(),
        slots,
        elastic,
        on_step,
        num_params,
    };
    match (0..cfg.dist.iters).map(|_| sl.step()).collect() {
        Ok(losses) => {
            sl.broadcast_done(0, "training complete");
            sl.collect_observability();
            Ok(losses)
        }
        Err(e) => {
            if matches!(e, DistError::WorkerDied { .. }) {
                sl.metrics.worker_deaths.inc();
            }
            sl.broadcast_done(1, &e.to_string());
            Err(e)
        }
    }
}
