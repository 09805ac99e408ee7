//! Elastic recovery, proven end-to-end over real loopback TCP: a worker
//! lost mid-step is recomputed on its exact shard (loss trajectory and
//! final parameters stay **bit-identical** to the single-process
//! reference), a respawned worker joins again like a new one, the
//! sliding-window restart budget turns a death storm into a typed error,
//! and every failure — join timeout, mid-chunk disconnect in either
//! direction — is typed and bounded by `io_timeout`, never a hang.

use cgdnn::prelude::*;
use datasets::ShardedSource;
use dist::{
    frames, run_coordinator, run_coordinator_elastic, run_worker, CoordinatorConfig, DistConfig,
    DistError, ElasticHooks, RecoveryPolicy, WorkerConfig, WorkerReport,
};
use rpc::proto;
use serve::RestartBudget;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
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

/// 16 deterministic samples of shape [4] — two global batches of 8, so
/// runs cross an epoch boundary and recovery must reproduce cursor wrap.
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

/// Single-process reference: one thread, canonical reduction with `world`
/// groups — what every elastic run below must reproduce bitwise.
fn reference_run(iters: usize, world: usize) -> (Vec<f32>, Vec<f32>) {
    let mut net = Net::from_spec(&spec(8), Some(Box::new(Ramp))).unwrap();
    let team = ThreadTeam::new(1);
    let run = RunConfig {
        reduction: ReductionMode::Canonical { groups: world },
        ..RunConfig::default()
    };
    let mut solver = Solver::<f32>::new(SolverConfig::lenet());
    let losses = solver.train(&mut net, &team, &run, iters);
    (losses, flat_params(&net))
}

fn worker_net(rank: usize, world: usize) -> Net<f32> {
    let sharded = ShardedSource::new(Box::new(Ramp), rank, world, 8);
    Net::from_spec(&spec(8 / world), Some(Box::new(sharded))).unwrap()
}

/// Test hooks: shard nets from the shared micro spec; respawn either
/// starts a fresh worker thread or reports "externally managed"
/// (`Ok(false)`).
struct TestHooks {
    addr: String,
    world: usize,
    respawn_threads: bool,
    spawned: Vec<JoinHandle<Result<WorkerReport, DistError>>>,
}

impl ElasticHooks for TestHooks {
    fn shard_net(&mut self, rank: usize) -> Result<Net<f32>, DistError> {
        Ok(worker_net(rank, self.world))
    }

    fn respawn(&mut self, rank: usize) -> Result<bool, DistError> {
        if !self.respawn_threads {
            return Ok(false);
        }
        let addr = self.addr.clone();
        let world = self.world;
        self.spawned.push(std::thread::spawn(move || {
            let mut net = worker_net(rank, world);
            let mut cfg = WorkerConfig::new(addr, rank);
            cfg.io_timeout = Duration::from_secs(10);
            run_worker(&mut net, &cfg)
        }));
        Ok(true)
    }
}

struct Outcome {
    result: Result<Vec<f32>, DistError>,
    params: Vec<f32>,
    reports: Vec<Result<WorkerReport, DistError>>,
    respawned: Vec<Result<WorkerReport, DistError>>,
}

/// Elastic coordinator on this thread, `world` workers on threads, CGRP
/// over loopback TCP. `fails` injects `fail_after_steps` per rank;
/// `step_delay` slows the step loop so respawned workers have time to
/// reconnect before the run ends.
fn elastic_run(
    iters: usize,
    world: usize,
    fails: &[(usize, u64)],
    policy: RecoveryPolicy,
    respawn_threads: bool,
    step_delay: Duration,
) -> Outcome {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handles: Vec<_> = (0..world)
        .map(|rank| {
            let fail_after = fails.iter().find(|(r, _)| *r == rank).map(|(_, k)| *k);
            std::thread::spawn(move || {
                let mut net = worker_net(rank, world);
                let mut cfg = WorkerConfig::new(addr.to_string(), rank);
                cfg.io_timeout = Duration::from_secs(10);
                cfg.fail_after_steps = fail_after;
                run_worker(&mut net, &cfg)
            })
        })
        .collect();

    let mut net = Net::from_spec(&spec(8), Some(Box::new(Ramp))).unwrap();
    let mut solver = Solver::<f32>::new(SolverConfig::lenet());
    let cfg = CoordinatorConfig {
        dist: DistConfig {
            world,
            effective_batch: 8,
            num_samples: 16,
            iters,
            io_timeout: Duration::from_secs(10),
        },
        join_timeout: Duration::from_secs(10),
    };
    let mut hooks = TestHooks {
        addr: addr.to_string(),
        world,
        respawn_threads,
        spawned: Vec::new(),
    };
    let result = run_coordinator_elastic(
        listener,
        &mut net,
        &mut solver,
        &cfg,
        policy,
        &mut hooks,
        |_, _, _, _| {
            std::thread::sleep(step_delay);
            Ok(())
        },
    );
    let reports = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let respawned = hooks
        .spawned
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();
    Outcome {
        result,
        params: flat_params(&net),
        reports,
        respawned,
    }
}

#[test]
fn degraded_run_stays_bit_identical() {
    let (ref_losses, ref_params) = reference_run(5, 2);
    // Rank 1 dies mid-step at step 2 and nothing respawns it: the
    // coordinator recomputes its shard for the remaining steps.
    let out = elastic_run(
        5,
        2,
        &[(1, 2)],
        RecoveryPolicy::default(),
        false,
        Duration::ZERO,
    );
    let losses = out.result.expect("degraded run should complete");
    assert_eq!(ref_losses, losses, "loss trajectory diverged");
    assert_eq!(ref_params, out.params, "final parameters diverged");
    assert_eq!(
        out.reports[0].as_ref().map(|r| r.steps),
        Ok(5),
        "the survivor ran every step: {:?}",
        out.reports[0]
    );
    assert!(
        matches!(out.reports[1], Err(DistError::Io(_))),
        "rank 1 kept its injected error: {:?}",
        out.reports[1]
    );
}

#[test]
fn respawned_worker_rejoins_and_run_stays_bit_identical() {
    let (ref_losses, ref_params) = reference_run(6, 2);
    // Rank 1 dies at step 1; the hooks respawn it as a fresh thread that
    // joins with FRAME_JOIN like a new worker. The step delay gives the
    // respawn time to land, so later steps are served by the rejoined
    // worker, not by recompute.
    let out = elastic_run(
        6,
        2,
        &[(1, 1)],
        RecoveryPolicy::default(),
        true,
        Duration::from_millis(50),
    );
    let losses = out.result.expect("elastic run should complete");
    assert_eq!(ref_losses, losses, "loss trajectory diverged");
    assert_eq!(ref_params, out.params, "final parameters diverged");
    assert_eq!(out.respawned.len(), 1, "exactly one respawn");
    let report = out.respawned[0]
        .as_ref()
        .expect("respawned worker should end cleanly");
    assert!(
        report.steps >= 1,
        "rejoined worker served steps, got {report:?}"
    );
}

#[test]
fn a_worker_lost_in_the_last_step_is_not_respawned() {
    let iters = 4;
    let (ref_losses, ref_params) = reference_run(iters, 2);
    // Rank 1 dies in the last step: no later step boundary could seat a
    // replacement, so none is started, and the coordinator recomputes the
    // shard.
    let last = iters as u64 - 1;
    let out = elastic_run(
        iters,
        2,
        &[(1, last)],
        RecoveryPolicy::default(),
        true,
        Duration::ZERO,
    );
    let losses = out.result.expect("elastic run should complete");
    assert_eq!(ref_losses, losses, "loss trajectory diverged");
    assert_eq!(ref_params, out.params, "final parameters diverged");
    assert_eq!(out.respawned.len(), 0, "a worker respawned after the run");

    // One step earlier the replacement still has a boundary to join at.
    let out = elastic_run(
        iters,
        2,
        &[(1, last - 1)],
        RecoveryPolicy::default(),
        true,
        Duration::from_millis(50),
    );
    let losses = out.result.expect("elastic run should complete");
    assert_eq!(ref_losses, losses, "loss trajectory diverged");
    assert_eq!(ref_params, out.params, "final parameters diverged");
    assert_eq!(out.respawned.len(), 1, "exactly one respawn");
}

#[test]
fn restart_budget_exhaustion_is_typed_and_bounded() {
    let t0 = Instant::now();
    // Budget of one death: rank 1's death at step 1 is absorbed, rank 0's
    // at step 2 exhausts the window.
    let policy = RecoveryPolicy {
        budget: RestartBudget::new(1, Duration::from_secs(60)),
        degraded_ok: false,
    };
    let out = elastic_run(5, 2, &[(1, 1), (0, 2)], policy, false, Duration::ZERO);
    match out.result {
        Err(DistError::RestartBudgetExhausted { rank, deaths }) => {
            assert_eq!(rank, 0);
            assert_eq!(deaths, 2);
        }
        other => panic!("expected RestartBudgetExhausted, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "teardown took {:?} — barrier not released",
        t0.elapsed()
    );
}

#[test]
fn degraded_ok_survives_budget_exhaustion_bit_identically() {
    let (ref_losses, ref_params) = reference_run(5, 2);
    // Same death storm, but degraded_ok: after the budget runs dry the
    // coordinator stops respawning and finishes every remaining step by
    // recomputing both shards locally.
    let policy = RecoveryPolicy {
        budget: RestartBudget::new(1, Duration::from_secs(60)),
        degraded_ok: true,
    };
    let out = elastic_run(5, 2, &[(1, 1), (0, 2)], policy, false, Duration::ZERO);
    let losses = out.result.expect("degraded_ok run should complete");
    assert_eq!(ref_losses, losses, "loss trajectory diverged");
    assert_eq!(ref_params, out.params, "final parameters diverged");
}

#[test]
fn join_timeout_is_typed_and_bounded() {
    let t0 = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // One of two workers shows up; the other seat stays empty.
    let worker = std::thread::spawn(move || {
        let mut net = worker_net(0, 2);
        let mut cfg = WorkerConfig::new(addr.to_string(), 0);
        cfg.io_timeout = Duration::from_secs(2);
        run_worker(&mut net, &cfg)
    });
    let mut net = Net::from_spec(&spec(8), Some(Box::new(Ramp))).unwrap();
    let mut solver = Solver::<f32>::new(SolverConfig::lenet());
    let cfg = CoordinatorConfig {
        dist: DistConfig {
            world: 2,
            effective_batch: 8,
            num_samples: 16,
            iters: 3,
            io_timeout: Duration::from_secs(2),
        },
        join_timeout: Duration::from_millis(300),
    };
    let result = run_coordinator(listener, &mut net, &mut solver, &cfg, |_, _, _, _| Ok(()));
    match result {
        Err(DistError::JoinTimeout { joined, world }) => {
            assert_eq!((joined, world), (1, 2));
        }
        other => panic!("expected JoinTimeout, got {other:?}"),
    }
    // The admitted worker is not left hanging: the listener and its stream
    // drop with the coordinator, so it sees a typed lost-link error.
    let report = worker.join().unwrap();
    assert!(
        matches!(report, Err(DistError::CoordinatorLost(_))),
        "admitted worker got {report:?}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "join timeout took {:?}",
        t0.elapsed()
    );
}

/// ~100k parameters — more than one `FRAME_PARAMS` chunk
/// (`proto::MAX_CHUNK_F32S` = 65 536 f32s), so a peer can vanish
/// mid-tensor, the worst spot for a disconnect.
fn big_spec(batch: usize) -> NetSpec {
    NetSpec::parse(&format!(
        r#"
name: wide
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
  num_output: 20000
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

#[test]
fn mid_chunk_params_disconnect_is_typed_on_the_coordinator() {
    let t0 = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // A protocol-correct worker that joins, reads exactly one parameter
    // chunk of the first broadcast, and vanishes with the rest in flight.
    let fake = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut hello = [0u8; proto::SERVER_HELLO_LEN];
        s.read_exact(&mut hello).unwrap();
        s.write_all(&proto::encode_client_hello()).unwrap();
        frames::send_frame(&mut s, proto::FRAME_JOIN, 0, 0, &[]).unwrap();
        let welcome = frames::recv_frame(&mut s).unwrap();
        assert_eq!(welcome.kind, proto::FRAME_WELCOME);
        let first = frames::recv_frame(&mut s).unwrap();
        assert_eq!(first.kind, proto::FRAME_PARAMS);
        drop(s);
    });
    let mut net = Net::from_spec(&big_spec(8), Some(Box::new(Ramp))).unwrap();
    let mut solver = Solver::<f32>::new(SolverConfig::lenet());
    let cfg = CoordinatorConfig {
        dist: DistConfig {
            world: 1,
            effective_batch: 8,
            num_samples: 16,
            iters: 3,
            io_timeout: Duration::from_secs(3),
        },
        join_timeout: Duration::from_secs(5),
    };
    let result = run_coordinator(listener, &mut net, &mut solver, &cfg, |_, _, _, _| Ok(()));
    match result {
        Err(DistError::WorkerDied { rank, .. }) => assert_eq!(rank, 0),
        other => panic!("expected WorkerDied, got {other:?}"),
    }
    fake.join().unwrap();
    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "mid-chunk death took {:?} — not bounded by io_timeout",
        t0.elapsed()
    );
}

#[test]
fn mid_chunk_params_disconnect_is_typed_on_the_worker() {
    let t0 = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let sharded = ShardedSource::new(Box::new(Ramp), 0, 1, 8);
    let mut wnet = Net::from_spec(&big_spec(8), Some(Box::new(sharded))).unwrap();
    let num_params = wnet.num_params();
    let worker = std::thread::spawn(move || {
        let mut cfg = WorkerConfig::new(addr.to_string(), 0);
        cfg.io_timeout = Duration::from_secs(2);
        run_worker(&mut wnet, &cfg)
    });
    // A protocol-correct coordinator that admits the worker, announces a
    // two-chunk parameter tensor, sends only the first chunk, and hangs
    // up mid-tensor.
    let (mut s, _) = listener.accept().unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(&proto::encode_server_hello(
        proto::HELLO_OK,
        num_params as u32,
        1,
    ))
    .unwrap();
    let mut hello = [0u8; proto::CLIENT_HELLO_LEN];
    s.read_exact(&mut hello).unwrap();
    let join = frames::recv_frame(&mut s).unwrap();
    assert_eq!(join.kind, proto::FRAME_JOIN);
    frames::send_frame(
        &mut s,
        proto::FRAME_WELCOME,
        0,
        0,
        &frames::encode_welcome(&frames::Welcome {
            world: 1,
            effective_batch: 8,
            iters: 3,
            flags: 0,
            coord_clock_us: 0,
        }),
    )
    .unwrap();
    let chunk = vec![0.0f32; proto::MAX_CHUNK_F32S];
    let mut payload = Vec::new();
    proto::write_f32s(&mut payload, &chunk);
    frames::send_frame(
        &mut s,
        proto::FRAME_PARAMS,
        0,
        proto::encode_chunk_aux(0, 2),
        &payload,
    )
    .unwrap();
    drop(s);

    let report = worker.join().unwrap();
    assert!(
        matches!(report, Err(DistError::CoordinatorLost(_))),
        "worker got {report:?}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "mid-chunk loss took {:?} — not bounded by io_timeout",
        t0.elapsed()
    );
}

/// The same steps with every rank in-process and no socket
/// (`dist::train_local`): what a run with a misbehaving peer on the
/// listener must still reproduce bit for bit.
fn local_run(iters: usize, world: usize) -> (Vec<f32>, Vec<f32>) {
    let mut net = Net::from_spec(&spec(8), Some(Box::new(Ramp))).unwrap();
    let mut solver = Solver::<f32>::new(SolverConfig::lenet());
    let mut shards: Vec<_> = (0..world).map(|r| worker_net(r, world)).collect();
    let losses = dist::train_local(
        &mut net,
        &mut solver,
        &mut shards,
        &micro_cfg(iters, world).dist,
    )
    .unwrap();
    (losses, flat_params(&net))
}

fn micro_cfg(iters: usize, world: usize) -> CoordinatorConfig {
    CoordinatorConfig {
        dist: DistConfig {
            world,
            effective_batch: 8,
            num_samples: 16,
            iters,
            io_timeout: Duration::from_secs(10),
        },
        join_timeout: Duration::from_secs(10),
    }
}

fn spawn_worker(addr: String, rank: usize) -> JoinHandle<Result<WorkerReport, DistError>> {
    std::thread::spawn(move || {
        let mut net = worker_net(rank, 2);
        let mut cfg = WorkerConfig::new(addr, rank);
        cfg.io_timeout = Duration::from_secs(10);
        run_worker(&mut net, &cfg)
    })
}

/// Admission runs the one join handshake: a second worker presenting a
/// seated rank is refused and dropped, and a stats scrape (`cgdnn stats
/// --connect`) is answered — neither ends the run.
#[test]
fn admission_refuses_a_duplicate_rank_and_answers_a_scrape() {
    let (ref_losses, ref_params) = local_run(4, 2);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peers = std::thread::spawn(move || {
        let twins = [0, 0].map(|rank| spawn_worker(addr.to_string(), rank));
        // Rank 1 has not connected, so admission is still open.
        let scrape = rpc::fetch_stats(addr, Duration::from_secs(10));
        let rank1 = spawn_worker(addr.to_string(), 1);
        let twins = twins.map(|h| h.join().unwrap());
        (scrape, twins, rank1.join().unwrap())
    });
    let mut net = Net::from_spec(&spec(8), Some(Box::new(Ramp))).unwrap();
    let mut solver = Solver::<f32>::new(SolverConfig::lenet());
    let result = run_coordinator(
        listener,
        &mut net,
        &mut solver,
        &micro_cfg(4, 2),
        |_, _, _, _| Ok(()),
    );
    let (scrape, twins, rank1) = peers.join().unwrap();
    assert_eq!(result.expect("the run completes"), ref_losses);
    assert_eq!(flat_params(&net), ref_params, "final parameters diverged");
    assert!(scrape.is_ok(), "scrape during admission: {scrape:?}");
    assert_eq!(rank1.map(|r| r.steps), Ok(4));
    let seated = twins
        .iter()
        .filter(|r| r.as_ref().is_ok_and(|r| r.steps == 4));
    assert_eq!(seated.count(), 1, "one of the twins ran: {twins:?}");
    assert!(
        twins
            .iter()
            .any(|r| matches!(r, Err(DistError::Remote(m)) if m.contains("rank 0 is seated"))),
        "the other was refused: {twins:?}"
    );
}

/// Kind 23 was a second, rejoin-only handshake; it is no join now. A peer
/// opening with it mid-run is refused with `FRAME_DONE(error)` at the
/// next step boundary, and the run goes on undisturbed.
#[test]
fn retired_kind_23_is_refused_mid_run() {
    let (ref_losses, ref_params) = local_run(4, 2);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let workers: Vec<_> = (0..2).map(|r| spawn_worker(addr.to_string(), r)).collect();
    let mut net = Net::from_spec(&spec(8), Some(Box::new(Ramp))).unwrap();
    let mut solver = Solver::<f32>::new(SolverConfig::lenet());
    let mut peer = None;
    let result = run_coordinator(
        listener,
        &mut net,
        &mut solver,
        &micro_cfg(4, 2),
        |it, _, _, _| {
            if it == 2 {
                // Both hellos and the frame fit in the socket buffers, so
                // this does not wait for the coordinator to accept.
                let mut s = TcpStream::connect(addr)?;
                s.set_read_timeout(Some(Duration::from_secs(10)))?;
                s.write_all(&proto::encode_client_hello())?;
                frames::send_frame(&mut s, 23, 2, 1, &[]).map_err(std::io::Error::other)?;
                peer = Some(s);
            }
            Ok(())
        },
    );
    assert_eq!(result.expect("the run completes"), ref_losses);
    assert_eq!(flat_params(&net), ref_params, "final parameters diverged");
    for w in workers {
        assert_eq!(w.join().unwrap().map(|r| r.steps), Ok(4));
    }
    let mut s = peer.expect("the peer connected at step 2");
    let mut hello = [0u8; proto::SERVER_HELLO_LEN];
    s.read_exact(&mut hello).unwrap();
    let refusal = frames::recv_frame(&mut s).unwrap();
    assert_eq!((refusal.kind, refusal.aux), (proto::FRAME_DONE, 1));
    let why = String::from_utf8_lossy(&refusal.payload);
    assert!(why.contains("got kind 23"), "refusal: {why}");
}
