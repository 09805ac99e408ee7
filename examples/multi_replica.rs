//! The paper's multi-GPU compatibility claim, executed: one logical batch
//! sharded across model replicas ("devices"), gradients folded in replica
//! order, one update — the trajectory is the single-model one *bit for
//! bit*, unlike the conventional halve-the-batch multi-GPU scheme. The
//! replicas run `dist::train_local`: the distributed coordinator's step
//! with every rank in this process and no socket.
//!
//! ```text
//! cargo run --release --example multi_replica [replicas] [iterations]
//! ```

use cgdnn::prelude::*;
use datasets::ShardedSource;
use dist::DistConfig;

const LOGICAL_BATCH: usize = 64;
const SAMPLES: usize = 4096;

/// LeNet over `source` with `batch` baked into the data layer.
fn lenet(batch: usize, source: Box<dyn BatchSource<f32>>) -> Net<f32> {
    let text = cgdnn::nets::LENET_SPEC.replace("batch: 64", &format!("batch: {batch}"));
    let spec = NetSpec::parse(&text).expect("patched spec parses");
    Net::from_spec(&spec, Some(source)).expect("LeNet builds")
}

fn mnist() -> Box<dyn BatchSource<f32>> {
    Box::new(SyntheticMnist::new(SAMPLES, 17))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let replicas: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(2);
    let iters: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(6);
    let cfg = DistConfig {
        world: replicas,
        effective_batch: LOGICAL_BATCH,
        num_samples: SAMPLES,
        iters,
        io_timeout: std::time::Duration::ZERO, // no socket is opened
    };
    // Bit-equality needs the exact 1/replicas rescale: a power of two.
    cfg.validate().unwrap_or_else(|e| panic!("{e}"));
    let local_batch = cfg.local_batch();
    println!("== synchronous data parallelism: {replicas} replicas x batch {local_batch}");

    // Reference: one model, the full logical batch, one reduction slot per
    // replica-sized chunk (any team size gives the same bits).
    let mut net = lenet(LOGICAL_BATCH, mnist());
    let team = ThreadTeam::new(2);
    let run = RunConfig {
        reduction: ReductionMode::Canonical { groups: replicas },
        ..RunConfig::default()
    };
    let single = Solver::<f32>::new(SolverConfig::lenet()).train(&mut net, &team, &run, iters);

    // Data-parallel: `replicas` models, each on its shard of the same stream.
    let mut shards: Vec<Net<f32>> = (0..replicas)
        .map(|r| {
            let shard = ShardedSource::new(mnist(), r, replicas, LOGICAL_BATCH);
            lenet(local_batch, Box::new(shard))
        })
        .collect();
    let mut master = lenet(LOGICAL_BATCH, mnist());
    let mut solver = Solver::<f32>::new(SolverConfig::lenet());
    let sharded = dist::train_local(&mut master, &mut solver, &mut shards, &cfg).unwrap();

    println!(
        "\n{:<6}{:>16}{:>16}{:>12}",
        "iter", "single-model", "data-parallel", "|delta|"
    );
    let mut max_delta = 0.0f32;
    for (i, (a, b)) in single.iter().zip(&sharded).enumerate() {
        let d = (a - b).abs();
        max_delta = max_delta.max(d);
        println!("{:<6}{:>16.6}{:>16.6}{:>12.2e}", i + 1, a, b, d);
    }
    println!(
        "\nmax loss deviation: {max_delta} — the data-parallel run *is* the \
         single-model trajectory\n(no training parameter changed, unlike \
         batch-splitting multi-GPU)."
    );
    assert!(max_delta == 0.0, "convergence altered!");
}
