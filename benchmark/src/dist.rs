//! `dist_lenet`: synchronous data-parallel LeNet — `dist::run_coordinator`
//! on the calling thread, `dist::run_worker` on one thread per rank, real
//! loopback TCP between them — and the probe of the same session.

use crate::corpus::NetKind;
use crate::harness::{run_rounds, E2e, Round, Tally, TracePlan};
use crate::schema::{Metrics, Workload};
use crate::tracing::traced;
use crate::{stats, train};
use cgdnn::prelude::*;
use dist::{run_coordinator, run_worker, CoordinatorConfig, DistConfig, WorkerConfig};
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// Worker ranks; each computes half of every 64-sample batch on one thread.
const WORLD: usize = 2;
/// Steps of a session that count as set-up (connections warm, pages in).
const WARMUP_STEPS: usize = 10;
/// Steps of the single-process reference the session must reproduce.
const REFERENCE_STEPS: usize = 20;
const IO_TIMEOUT: Duration = Duration::from_secs(30);

const EFFECTIVE_BATCH: usize = NetKind::Lenet.batch();

/// Rank `rank`'s net: LeNet at the local batch over that rank's shard.
fn shard_net(seed: u64, rank: usize) -> Result<Net<f32>, String> {
    let mut spec = cgdnn::nets::lenet_spec();
    let data = spec
        .layers
        .iter_mut()
        .find(|l| l.layer_type == "Data")
        .ok_or("LeNet spec has no Data layer")?;
    data.params
        .insert("batch".to_string(), (EFFECTIVE_BATCH / WORLD).to_string());
    let source =
        datasets::ShardedSource::new(Box::new(train::mnist(seed)), rank, WORLD, EFFECTIVE_BATCH);
    Net::from_spec(&spec, Some(Box::new(source))).map_err(|e| format!("shard net: {e}"))
}

/// What one coordinator + workers session measured.
struct Session {
    /// Session start (before bind) to the end of the last warm-up step.
    setup_s: f64,
    /// `on_step` intervals after the warm-up.
    step_ms: Vec<f64>,
    wall_s: f64,
    /// Every loss of the session, warm-up included.
    losses: Vec<f32>,
}

/// Run one whole session of `WARMUP_STEPS + steps` iterations.
fn session(seed: u64, steps: usize) -> Result<Session, String> {
    let start = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("dist bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let iters = WARMUP_STEPS + steps;
    let mut stamps = Vec::with_capacity(iters);
    let (outcome, workers) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORLD)
            .map(|rank| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut net = shard_net(seed, rank)?;
                    let mut cfg = WorkerConfig::new(addr, rank);
                    cfg.io_timeout = IO_TIMEOUT;
                    run_worker(&mut net, &cfg).map_err(|e| format!("worker {rank}: {e}"))
                })
            })
            .collect();
        let mut net = train::build_net(NetKind::Lenet, seed);
        let mut solver = Solver::<f32>::new(SolverConfig::lenet());
        let cfg = CoordinatorConfig {
            dist: DistConfig {
                world: WORLD,
                effective_batch: EFFECTIVE_BATCH,
                num_samples: train::num_samples(NetKind::Lenet),
                iters,
                io_timeout: IO_TIMEOUT,
            },
            join_timeout: IO_TIMEOUT,
        };
        let outcome = run_coordinator(listener, &mut net, &mut solver, &cfg, |_, _, _, _| {
            stamps.push(Instant::now());
            Ok(())
        });
        let workers: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
        (outcome, workers)
    });
    let losses = outcome.map_err(|e| format!("coordinator: {e}"))?;
    for w in workers {
        let report = w?;
        if report.steps != iters as u64 {
            return Err(format!("a worker ran {} of {iters} steps", report.steps));
        }
    }
    let measured = &stamps[WARMUP_STEPS - 1..];
    Ok(Session {
        setup_s: (measured[0] - start).as_secs_f64(),
        step_ms: measured
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
            .collect(),
        wall_s: (measured[measured.len() - 1] - measured[0]).as_secs_f64(),
        losses,
    })
}

/// The single-process run the distributed trajectory must equal bit for
/// bit: one thread, canonical reduction in `WORLD` groups.
fn reference_losses(seed: u64) -> Vec<f32> {
    let mut net = train::build_net(NetKind::Lenet, seed);
    let team = ThreadTeam::new(1);
    let run = RunConfig {
        reduction: ReductionMode::Canonical { groups: WORLD },
        ..RunConfig::default()
    };
    Solver::<f32>::new(SolverConfig::lenet()).train(&mut net, &team, &run, REFERENCE_STEPS)
}

/// Steps that fill `seconds` at `step_ms` per step.
fn steps_for(seconds: f64, step_ms: f64) -> usize {
    ((seconds * 1e3 / step_ms).ceil() as usize).max(2)
}

/// The untraced end-to-end run. A session's length is fixed when it
/// starts, so each round sizes its session from the step time of the round
/// before; the first from the reference pass (one thread computing both
/// halves of the batch).
pub fn run(seed: u64, seconds: f64) -> Result<E2e, String> {
    let t0 = Instant::now();
    let reference = reference_losses(seed);
    let mut step_ms = t0.elapsed().as_secs_f64() * 1e3 / REFERENCE_STEPS as f64 * 0.6;
    run_rounds(seconds, |window| {
        let s = session(seed, steps_for(window.as_secs_f64(), step_ms))?;
        step_ms = stats::median(&s.step_ms);
        Ok(Round {
            setup_s: s.setup_s,
            work: (s.step_ms.len() * EFFECTIVE_BATCH) as f64,
            wall_s: s.wall_s,
            latencies_ms: s.step_ms,
            tally: Tally {
                attempted: s.losses.len() as u64,
                failed: train::failed_steps(&reference, &s.losses, train::Match::Bitwise, true),
            },
        })
    })
}

/// Median milliseconds of one rank's forward + backward on its shard,
/// alone on the machine: the compute under every distributed step.
fn worker_compute_ms(seed: u64) -> Result<f64, String> {
    let mut net = shard_net(seed, 0)?;
    let team = ThreadTeam::new(1);
    let run = RunConfig {
        reduction: ReductionMode::Canonical { groups: 1 },
        ..RunConfig::default()
    };
    let ms: Vec<f64> = (0..10)
        .map(|_| {
            let t0 = Instant::now();
            net.zero_param_diffs();
            std::hint::black_box(net.forward(&team, &run));
            net.backward(&team, &run);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    Ok(stats::median(&ms[2..]))
}

/// The traced probe of a distributed session.
pub fn probe(
    seed: u64,
    plan: &TracePlan,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let workload = Workload::DistLenet;
    let reference = reference_losses(seed);
    let compute_ms = worker_compute_ms(seed)?;
    // Compute plus a quarter for the wire sizes the window well enough.
    let steps = steps_for(plan.window(workload).as_secs_f64(), compute_ms * 1.25);
    let untraced = plan
        .is_focus(workload)
        .then(|| session(seed, steps))
        .transpose()?;

    let reg = obs::registry::global();
    let param_bytes = reg.counter("dist.param_bytes");
    let grad_bytes = reg.counter("dist.grad_bytes");
    let reduce = reg.histogram("dist.reduce_seconds", &obs::registry::DURATION_BOUNDS_SECS);
    let (params0, grads0, reduce_n0, reduce_s0) = (
        param_bytes.get(),
        grad_bytes.get(),
        reduce.count(),
        reduce.sum(),
    );
    let (s, trace) = traced(|| session(seed, steps));
    let s = s?;
    let iters = s.losses.len() as f64;

    let step_p50_ms = stats::median(&s.step_ms);
    let per_step_ms = |span: &str| trace.total_us(span) / 1e3 / iters;
    let reduce_ms = (reduce.sum() - reduce_s0) * 1e3 / (reduce.count() - reduce_n0).max(1) as f64;
    let (broadcast_ms, collect_ms, update_ms) = (
        per_step_ms("dist_broadcast"),
        per_step_ms("dist_collect"),
        per_step_ms("dist_update"),
    );
    let attributed = (broadcast_ms + collect_ms + reduce_ms + update_ms) / per_step_ms("dist_step");
    m.insert(
        "dist.param_bytes_per_step".into(),
        (param_bytes.get() - params0) as f64 / iters,
    );
    m.insert(
        "dist.grad_bytes_per_step".into(),
        (grad_bytes.get() - grads0) as f64 / iters,
    );
    m.insert("dist.broadcast_ms".into(), broadcast_ms);
    m.insert("dist.collect_ms".into(), collect_ms);
    m.insert("dist.reduce_ms_mean".into(), reduce_ms);
    m.insert("dist.update_ms".into(), update_ms);
    m.insert("dist.worker_compute_ms".into(), compute_ms);
    m.insert(
        "dist.step_ms_p90".into(),
        stats::percentile(&s.step_ms, 0.90),
    );
    m.insert("dist.comm_share".into(), 1.0 - compute_ms / step_p50_ms);
    m.insert("dist.attributed_share".into(), attributed);

    for s in untraced.iter().chain([&s]) {
        tally.add(
            s.losses.len() as u64,
            train::failed_steps(&reference, &s.losses, train::Match::Bitwise, true),
        );
    }
    if let Some(untraced) = &untraced {
        trace.report_focus(workload, &s.step_ms, &untraced.step_ms, m)?;
    }
    Ok(())
}
