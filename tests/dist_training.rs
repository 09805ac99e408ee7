//! The dist subsystem's headline claims, proven end-to-end over real
//! loopback TCP: a multi-process-shaped run (coordinator + worker threads,
//! full CGRP wire protocol) produces a loss trajectory and final
//! parameters **bit-identical** to single-process training with
//! `Canonical {{ groups: world }}` on one thread, and so does the same
//! step with every rank in-process (`dist::train_local`) — from iteration
//! 0 or picking up a trajectory mid-way — and a worker death surfaces as a
//! typed error on every participant, with no hang.

use cgdnn::prelude::*;
use datasets::ShardedSource;
use dist::{run_coordinator, run_worker, CoordinatorConfig, DistConfig, DistError, WorkerConfig};
use std::net::TcpListener;
use std::time::{Duration, Instant};

fn spec(batch: usize) -> NetSpec {
    NetSpec::parse(&format!(
        r#"
name: micro
layer {{
  name: d
  type: Data
  batch: {batch}
  top: data
  top: label
}}
layer {{
  name: ip
  type: InnerProduct
  bottom: data
  top: ip
  num_output: 3
  seed: 17
}}
layer {{
  name: loss
  type: SoftmaxWithLoss
  bottom: ip
  bottom: label
  top: loss
}}
"#
    ))
    .unwrap()
}

/// 16 deterministic samples of shape [4]: enough for two global batches of
/// 8, so the run crosses an epoch boundary and exercises cursor wrap.
struct Ramp;
impl BatchSource<f32> for Ramp {
    fn num_samples(&self) -> usize {
        16
    }
    fn sample_shape(&self) -> Shape {
        Shape::from([4usize])
    }
    fn fill(&self, index: usize, out: &mut [f32]) -> f32 {
        mmblas::set(0.1 * (index + 1) as f32, out);
        (index % 3) as f32
    }
}

fn flat_params(net: &Net<f32>) -> Vec<f32> {
    net.learnable_params()
        .iter()
        .flat_map(|p| p.data().iter().copied())
        .collect()
}

/// The full-batch net and solver after `head` single-process steps — one
/// thread, canonical reduction with `world` groups: the configuration the
/// distributed run must reproduce bitwise — and those steps' losses.
fn single_process(head: usize, world: usize) -> (Net<f32>, Solver<f32>, Vec<f32>) {
    let mut net = Net::from_spec(&spec(8), Some(Box::new(Ramp))).unwrap();
    let team = ThreadTeam::new(1);
    let run = RunConfig {
        reduction: ReductionMode::Canonical { groups: world },
        ..RunConfig::default()
    };
    let mut solver = Solver::<f32>::new(SolverConfig::lenet());
    let losses = solver.train(&mut net, &team, &run, head);
    (net, solver, losses)
}

/// Single-process reference: all `iters` steps in one process.
fn reference_run(iters: usize, world: usize) -> (Vec<f32>, Vec<f32>) {
    let (net, _, losses) = single_process(iters, world);
    (losses, flat_params(&net))
}

/// Rank `rank`'s net: the local batch over that rank's shard.
fn shard_net(rank: usize, world: usize) -> Net<f32> {
    let sharded = ShardedSource::new(Box::new(Ramp), rank, world, 8);
    Net::from_spec(&spec(8 / world), Some(Box::new(sharded))).unwrap()
}

fn dist_config(iters: usize, world: usize) -> DistConfig {
    DistConfig {
        world,
        effective_batch: 8,
        num_samples: 16,
        iters,
        io_timeout: Duration::from_secs(10),
    }
}

type Outcome = (
    Result<Vec<f32>, DistError>,
    Vec<f32>,
    Vec<Result<dist::WorkerReport, DistError>>,
);

/// Coordinator on this thread, `world` workers on their own threads, all
/// talking CGRP over loopback TCP — the process topology without the
/// process-spawn cost. `fail` injects `fail_after_steps` into one rank.
/// The first `head` of the `iters` steps run single-process before anyone
/// is admitted, so freshly joined workers meet a coordinator that is
/// already at step `head`.
fn dist_run(iters: usize, world: usize, fail: Option<(usize, u64)>, head: usize) -> Outcome {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handles: Vec<_> = (0..world)
        .map(|rank| {
            let fail_after = fail.and_then(|(r, k)| (r == rank).then_some(k));
            std::thread::spawn(move || {
                let mut net = shard_net(rank, world);
                let mut cfg = WorkerConfig::new(addr.to_string(), rank);
                cfg.io_timeout = Duration::from_secs(10);
                cfg.fail_after_steps = fail_after;
                run_worker(&mut net, &cfg)
            })
        })
        .collect();

    let (mut net, mut solver, mut losses) = single_process(head, world);
    let cfg = CoordinatorConfig {
        dist: dist_config(iters - head, world),
        join_timeout: Duration::from_secs(10),
    };
    let result = run_coordinator(listener, &mut net, &mut solver, &cfg, |_, _, _, _| Ok(()));
    let reports = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let result = result.map(|tail| {
        losses.extend(tail);
        losses
    });
    (result, flat_params(&net), reports)
}

/// The same step with every rank in this process and no socket:
/// `(losses, final params)`.
fn local_run(iters: usize, world: usize, head: usize) -> (Vec<f32>, Vec<f32>) {
    let (mut net, mut solver, mut losses) = single_process(head, world);
    let mut shards: Vec<_> = (0..world).map(|rank| shard_net(rank, world)).collect();
    let cfg = dist_config(iters - head, world);
    losses.extend(dist::train_local(&mut net, &mut solver, &mut shards, &cfg).unwrap());
    (losses, flat_params(&net))
}

/// Single-process, TCP and in-process runs of `iters` steps, the last two
/// taking over from the first after `head` steps, agree bit for bit.
fn assert_every_seat_bit_identical(iters: usize, world: usize, head: usize) {
    let (ref_losses, ref_params) = reference_run(iters, world);
    assert!(ref_losses.iter().all(|l| l.is_finite()));
    let (result, dist_params, reports) = dist_run(iters, world, None, head);
    let dist_losses = result.expect("distributed run failed");
    // Vec<f32> equality is bitwise for finite values — no tolerance.
    assert_eq!(ref_losses, dist_losses, "loss trajectory diverged");
    assert_eq!(ref_params, dist_params, "final parameters diverged");
    for (rank, r) in reports.into_iter().enumerate() {
        assert_eq!(
            r.unwrap().steps,
            (iters - head) as u64,
            "rank {rank} step count"
        );
    }
    let (local_losses, local_params) = local_run(iters, world, head);
    assert_eq!(ref_losses, local_losses, "in-process trajectory diverged");
    assert_eq!(ref_params, local_params, "in-process parameters diverged");
}

#[test]
fn one_worker_run_is_bit_identical_to_single_process() {
    assert_every_seat_bit_identical(5, 1, 0);
}

#[test]
fn two_worker_run_is_bit_identical_to_single_process() {
    assert_every_seat_bit_identical(5, 2, 0);
}

#[test]
fn four_worker_run_is_bit_identical_to_single_process() {
    assert_every_seat_bit_identical(4, 4, 0);
}

/// A worker that joins a coordinator already `head` steps in must compute
/// step `head`'s shard, not step 0's: the shard is seated from the step
/// number, not from what the worker has seen. 16 samples in batches of 8
/// put an odd `head` mid-epoch.
#[test]
fn joining_mid_trajectory_continues_the_single_process_run() {
    assert_every_seat_bit_identical(5, 2, 1);
    assert_every_seat_bit_identical(6, 4, 3);
}

#[test]
fn worker_death_is_typed_on_every_participant_and_bounded() {
    let t0 = Instant::now();
    // Rank 1 abandons the run mid-step after 2 completed steps — the
    // gradient is computed but never sent, leaving the coordinator at the
    // collection barrier (the worst place to lose a worker).
    let (result, _, reports) = dist_run(5, 2, Some((1, 2)), 0);
    match result {
        Err(DistError::WorkerDied { rank, .. }) => assert_eq!(rank, 1),
        other => panic!("expected WorkerDied{{rank: 1}}, got {other:?}"),
    }
    // The survivor was told why (FRAME_DONE carrying the error), the dead
    // rank kept its own injected error — nobody hung, nobody panicked.
    assert!(
        matches!(reports[0], Err(DistError::Remote(_))),
        "rank 0 got {:?}",
        reports[0]
    );
    assert!(
        matches!(reports[1], Err(DistError::Io(_))),
        "rank 1 got {:?}",
        reports[1]
    );
    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "teardown took {:?} — barrier not released",
        t0.elapsed()
    );
}
