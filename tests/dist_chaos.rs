//! Network chaos harness for the distributed layer: a seeded storm of
//! injected faults — socket errors, wire corruption (CRC-breaking byte
//! flips), and delays — thrown at the dist frame paths and the worker step
//! loop of a live elastic run. The run must complete, and the loss
//! trajectory and final parameters must stay **bit-identical** to the
//! single-process reference: chaos may cost wall-clock and recovery
//! counters, never a single bit of the trajectory.
//!
//! Gated behind `fault-inject` because the injection registry is
//! process-global state:
//!
//! ```text
//! cargo test --features fault-inject --test dist_chaos
//! ```
//!
//! Kill faults (process exit) are exercised by the CI chaos smoke over
//! real processes; in-process they would take the whole test runner down.

#![cfg(feature = "fault-inject")]

use cgdnn::prelude::*;
use datasets::ShardedSource;
use dist::{
    run_coordinator_elastic, run_worker, CoordinatorConfig, DistConfig, DistError, ElasticHooks,
    RecoveryPolicy, WorkerConfig, WorkerReport,
};
use net::faults::{arm, disarm_all, FaultMode};
use serve::RestartBudget;
use std::net::TcpListener;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

// The fault registry is process-global; these tests must not interleave.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn guard() -> MutexGuard<'static, ()> {
    let g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    disarm_all();
    g
}

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

/// Workers manage their own rejoins in these runs; the hooks only supply
/// shard nets for recompute.
struct RecomputeOnly {
    world: usize,
}

impl ElasticHooks for RecomputeOnly {
    fn shard_net(&mut self, rank: usize) -> Result<Net<f32>, DistError> {
        Ok(worker_net(rank, self.world))
    }
    fn respawn(&mut self, _rank: usize) -> Result<bool, DistError> {
        Ok(false)
    }
}

/// Elastic run under whatever faults are currently armed: workers carry a
/// self-rejoin budget, the coordinator recomputes whatever is dead, and a
/// small per-step delay leaves room for reconnects to land.
fn chaotic_run(iters: usize, world: usize) -> (Result<Vec<f32>, DistError>, Vec<f32>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handles: Vec<_> = (0..world)
        .map(|rank| {
            std::thread::spawn(move || {
                let mut net = worker_net(rank, world);
                let mut cfg = WorkerConfig::new(addr.to_string(), rank);
                cfg.io_timeout = Duration::from_secs(10);
                cfg.max_rejoins = 6;
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
    let policy = RecoveryPolicy {
        budget: RestartBudget::new(32, Duration::from_secs(120)),
        degraded_ok: false,
    };
    let mut hooks = RecomputeOnly { world };
    let result = run_coordinator_elastic(
        listener,
        &mut net,
        &mut solver,
        &cfg,
        policy,
        &mut hooks,
        |_, _, _, _| {
            std::thread::sleep(Duration::from_millis(20));
            Ok(())
        },
    );
    // A worker that burned through its rejoin budget ends with a typed
    // error; the run is still expected to finish via recompute.
    let _reports: Vec<Result<WorkerReport, DistError>> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    (result, flat_params(&net))
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Arm `n` seeded faults across the dist chaos points. Skip counts start
/// past the join handshake (~4 frame sends/recvs for a 2-worker run), so
/// the storm lands on the step loop.
fn arm_storm(seed: u64, n: usize) {
    let points = [
        "dist.frame.send",
        "dist.frame.recv",
        "dist.worker.step.r0",
        "dist.worker.step.r1",
    ];
    let mut s = seed.max(1);
    for _ in 0..n {
        let point = points[(xorshift(&mut s) % points.len() as u64) as usize];
        let mode = match xorshift(&mut s) % 3 {
            0 => FaultMode::Error,
            1 => FaultMode::Delay(5 + xorshift(&mut s) % 20),
            _ => FaultMode::Corrupt,
        };
        let skip = 6 + (xorshift(&mut s) % 8) as u32;
        arm(point, mode, skip);
    }
}

#[test]
fn seeded_fault_storm_stays_bit_identical() {
    let _g = guard();
    let (ref_losses, ref_params) = reference_run(8, 2);
    for seed in [11u64, 42, 1977] {
        arm_storm(seed, 4);
        let (result, params) = chaotic_run(8, 2);
        disarm_all();
        let losses = result.unwrap_or_else(|e| panic!("seed {seed}: chaotic run failed: {e}"));
        assert_eq!(ref_losses, losses, "seed {seed}: loss trajectory diverged");
        assert_eq!(ref_params, params, "seed {seed}: final parameters diverged");
        assert!(losses.iter().all(|l| l.is_finite()));
    }
}

#[test]
fn wire_corruption_is_survived_and_counted() {
    let _g = guard();
    let (ref_losses, ref_params) = reference_run(6, 2);
    let reg = obs::registry::global();
    let deaths_before = reg.counter("dist.worker_deaths").get();
    let recoveries_before = reg.counter("dist.recoveries").get();
    // Corrupt one gradient frame on the wire mid-run: the coordinator must
    // see BadCrc, declare the rank dead, recompute, and stay bit-exact.
    arm("dist.frame.send", FaultMode::Corrupt, 8);
    let (result, params) = chaotic_run(6, 2);
    disarm_all();
    let losses = result.expect("corruption should be absorbed");
    assert_eq!(ref_losses, losses, "loss trajectory diverged");
    assert_eq!(ref_params, params, "final parameters diverged");
    assert!(
        reg.counter("dist.worker_deaths").get() > deaths_before,
        "the corrupted frame should have cost its sender the connection"
    );
    assert!(
        reg.counter("dist.recoveries").get() > recoveries_before,
        "the dead rank should have been recovered"
    );
}

#[test]
fn injected_step_error_triggers_recovery_and_rejoin() {
    let _g = guard();
    let (ref_losses, ref_params) = reference_run(6, 2);
    let reg = obs::registry::global();
    let recoveries_before = reg.counter("dist.recoveries").get();
    let rejoins_before = reg.counter("dist.worker_rejoins").get();
    // Rank 1's step loop errors once mid-run; the worker reconnects and
    // joins again while the coordinator recomputes the gap.
    arm("dist.worker.step.r1", FaultMode::Error, 1);
    let (result, params) = chaotic_run(6, 2);
    disarm_all();
    let losses = result.expect("step error should be absorbed");
    assert_eq!(ref_losses, losses, "loss trajectory diverged");
    assert_eq!(ref_params, params, "final parameters diverged");
    assert!(
        reg.counter("dist.recoveries").get() > recoveries_before,
        "the lost step should have been recovered"
    );
    assert!(
        reg.counter("dist.worker_rejoins").get() > rejoins_before,
        "the worker should have rejoined itself"
    );
}
