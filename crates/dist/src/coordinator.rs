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
//! typed error). [`run_coordinator_elastic`] instead *survives* worker
//! loss without giving up bit-identity:
//!
//! - A rank whose connection fails mid-step is marked **dead**; its
//!   contribution is computed here instead, by the function the worker
//!   runs (`step::shard_gradient`) on that rank's shard net, into the
//!   *same slot* of the rank-order fold. Only wall-clock and the `dist.*`
//!   recovery counters can tell the runs apart.
//! - Each death charges the one sliding-window [`serve::RestartBudget`]
//!   (serving charges it per replica restart). Within budget,
//!   [`ElasticHooks`] may respawn the worker process; over budget the run
//!   either aborts with [`DistError::RestartBudgetExhausted`] (default —
//!   the fail-stop teardown) or, with `degraded_ok`, continues degraded
//!   with respawning stood down.
//! - There is one join handshake. Admission runs it until every slot is
//!   seated, and every step boundary runs it again on whatever waits on
//!   the listener: a `FRAME_JOIN(rank)` into an empty slot is welcomed
//!   with the step its first broadcast will carry and seated before that
//!   broadcast. No rank state outlives a step, so a returning worker joins
//!   exactly like a new one.

use crate::frames::{
    decode_trace_events, encode_welcome, expect_frame, flatten_params, recv_blob, recv_frame,
    recv_tensor, send_blob, send_frame, send_tensor, Frame, Welcome, WELCOME_FLAG_TRACING,
};
use crate::step::{fold_and_update, shard_gradient};
use crate::{DistConfig, DistError};
use net::Net;
use rpc::proto;
use serve::RestartBudget;
use solvers::Solver;
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

/// How an elastic run absorbs worker deaths: each one charges `budget`;
/// when a charge is refused the run aborts (or stands down respawning and
/// continues degraded, when `degraded_ok`).
#[derive(Debug, Clone, Default)]
pub struct RecoveryPolicy {
    /// Worker deaths tolerated per sliding window.
    pub budget: RestartBudget,
    /// On budget exhaustion: `false` aborts with
    /// [`DistError::RestartBudgetExhausted`]; `true` keeps training with
    /// every remaining dead rank recomputed locally, respawning stopped.
    pub degraded_ok: bool,
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
    /// with `FRAME_JOIN`); a respawn *error* is reported but does not end
    /// the run — the rank simply stays dead until something joins it.
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

/// The `FRAME_WELCOME` payload for this run, stamped with the
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

/// Elastic-mode state: the budget, the embedder's hooks, and the cached
/// per-rank shard nets used to recompute a dead rank's contribution.
struct Elastic<'h> {
    policy: RecoveryPolicy,
    hooks: &'h mut dyn ElasticHooks,
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
    /// Per-rank connection; `None` = not joined yet, or dead and awaiting
    /// a join.
    slots: Vec<Option<TcpStream>>,
    elastic: Option<Elastic<'h>>,
    on_step: OnStep<'a>,
    num_params: usize,
    /// The iteration the run stops at: the solver's at the start plus
    /// `iters`.
    end: u64,
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
        if !el.policy.budget.try_charge(Instant::now()) {
            // A refused charge means the window holds `max_restarts`
            // deaths already; this one makes one more.
            let deaths = el.policy.budget.max_restarts + 1;
            if !el.policy.degraded_ok {
                return Err(DistError::RestartBudgetExhausted { rank, deaths });
            }
            if !el.respawn_stopped {
                el.respawn_stopped = true;
                eprintln!(
                    "coordinator: restart budget exhausted ({deaths} deaths in {:?}) — \
                     continuing degraded, respawn stood down",
                    el.policy.budget.restart_window
                );
            }
            self.metrics.recoveries.inc();
            return Ok(());
        }
        self.metrics.recoveries.inc();
        // A respawned worker is seated at a later step boundary. The run's
        // last step has none: the new process would find the run over and
        // exit with an error, so the shard is recomputed here instead.
        if self.solver.iteration() + 1 >= self.end {
            eprintln!("coordinator: worker {rank} lost in the last step; not respawned");
        } else if !el.respawn_stopped {
            match el.hooks.respawn(rank) {
                Ok(true) => eprintln!("coordinator: respawned worker {rank}"),
                // Externally managed workers reconnect on their own.
                Ok(false) => {}
                Err(re) => eprintln!("coordinator: respawn of worker {rank} failed: {re}"),
            }
        }
        Ok(())
    }

    /// Admit the run's workers: poll the nonblocking listener every 10 ms
    /// and [`StepLoop::join`] each connection until every slot is seated,
    /// or fail with `JoinTimeout` at `join_timeout`. A refused peer or a
    /// stats scrape does not end admission.
    fn admit(&mut self) -> Result<(), DistError> {
        let _span = obs::trace::span("dist_admit", "dist");
        self.listener.set_nonblocking(true)?;
        let deadline = Instant::now() + self.cfg.join_timeout;
        let world = self.cfg.dist.world;
        let step = self.solver.iteration();
        loop {
            let joined = self.slots.iter().flatten().count();
            if joined == world {
                return Ok(());
            }
            let stream = match self.listener.accept() {
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
            if let Err(e) = self.join(stream, step) {
                eprintln!("coordinator: connection refused during admission: {e}");
            }
        }
    }

    /// At a step boundary, [`StepLoop::join`] every connection waiting on
    /// the (nonblocking) listener. Never fatal to the run: a bad peer is
    /// refused and dropped.
    fn poll_control(&mut self, step: u64) {
        while let Ok((stream, _)) = self.listener.accept() {
            match self.join(stream, step) {
                Ok(Some(rank)) => {
                    self.metrics.rejoins.inc();
                    eprintln!("coordinator: worker {rank} joined at step {step}");
                }
                Ok(None) => {}
                Err(e) => eprintln!("coordinator: control connection refused: {e}"),
            }
        }
    }

    /// The one join handshake, at admission and at every step boundary:
    /// [`handshake`], then dispatch on the peer's first frame.
    /// `FRAME_JOIN(rank)` into an empty slot is welcomed — `FRAME_WELCOME`
    /// with `step` in `id` — and seated; `FRAME_STATS` is answered with a
    /// registry snapshot (`cgdnn stats --connect`). Anything else — a rank
    /// outside the world or already seated, any other kind — is refused
    /// with `FRAME_DONE(error)`. Returns the seated rank, if any. Every
    /// read and write is under `io_timeout`.
    fn join(&mut self, mut stream: TcpStream, step: u64) -> Result<Option<usize>, DistError> {
        let world = self.cfg.dist.world;
        let req = handshake(&mut stream, self.cfg, self.num_params)?;
        let rank = req.aux as usize;
        let why = match req.kind {
            proto::FRAME_STATS => {
                let bytes = obs::registry::global().snapshot().to_bytes();
                send_blob(&mut stream, proto::FRAME_STATS, req.id, &bytes)?;
                return Ok(None);
            }
            proto::FRAME_JOIN if rank >= world => format!("rank {rank} is outside world {world}"),
            proto::FRAME_JOIN if self.slots[rank].is_some() => format!("rank {rank} is seated"),
            proto::FRAME_JOIN => {
                let welcome = welcome_payload(self.cfg);
                send_frame(
                    &mut stream,
                    proto::FRAME_WELCOME,
                    step,
                    rank as u32,
                    &welcome,
                )?;
                self.slots[rank] = Some(stream);
                return Ok(Some(rank));
            }
            k => format!("expected FRAME_JOIN or FRAME_STATS, got kind {k}"),
        };
        let _ = send_frame(&mut stream, proto::FRAME_DONE, 0, 1, why.as_bytes());
        Err(DistError::Protocol(format!("join refused: {why}")))
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
/// seated again through the join handshake at step boundaries.
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
    let end = solver.iteration() + cfg.dist.iters as u64;
    let mut sl = StepLoop {
        listener,
        net,
        solver,
        cfg,
        metrics: Metrics::new(),
        slots: (0..cfg.dist.world).map(|_| None).collect(),
        elastic,
        on_step,
        num_params,
        end,
    };
    sl.admit()?;
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
