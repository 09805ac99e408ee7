//! The *network-agnostic* property in action, two ways:
//!
//! 1. A brand-new layer type (`Swish`, which postdates the paper) defined in
//!    ~15 lines outside the framework. Because the coarse-grain drivers are
//!    generic over the per-segment kernel, the new layer gets batch-level
//!    parallelism and the determinism guarantees for free —
//!    no "GPU port" or parallel-specific code, which is the paper's core
//!    argument.
//! 2. A novel network topology (a sigmoid/tanh/dropout MLP that exists in
//!    neither paper figure) declared as an inline spec string and trained
//!    with the same trainer.
//!
//! ```text
//! cargo run --release --example custom_network
//! ```

use cgdnn::prelude::*;
use layers::activation::{Activation, ActivationLayer};
use layers::Layer;

/// Swish: `f(x) = x * sigmoid(x)` — a post-2016 activation the paper's
/// authors never saw. One trait impl is the entire "port".
struct Swish;

impl Activation for Swish {
    const TYPE: &'static str = "Swish";
    const FWD_FLOPS_PER_ELEM: f64 = 5.0;
    const BWD_FLOPS_PER_ELEM: f64 = 6.0;

    fn f<S: mmblas::Scalar>(x: S) -> S {
        let half = S::from_f64(0.5);
        let sig = half * (half * x).tanh() + half;
        x * sig
    }

    fn df<S: mmblas::Scalar>(x: S, y: S) -> S {
        // d/dx x*sig(x) = sig(x) + x*sig(x)*(1-sig(x)) = sig + y - y*sig
        let half = S::from_f64(0.5);
        let sig = half * (half * x).tanh() + half;
        sig + y - y * sig
    }
}

fn demo_custom_layer() {
    println!("-- 1. custom Swish layer under the coarse-grain drivers --");
    let mut layer: ActivationLayer<Swish> = ActivationLayer::new("swish1");
    let data: Vec<f32> = (0..4 * 8 * 10 * 10)
        .map(|i| ((i % 37) as f32) * 0.1 - 1.8)
        .collect();
    let bottom: Blob<f32> = Blob::from_data([4usize, 8, 10, 10], data);
    let shapes = layer.setup(&[&bottom]);

    let run = |threads: usize| {
        let team = ThreadTeam::new(threads);
        let ws = layers::Workspace::<f32>::empty();
        let ctx = ExecCtx::new(&team, &ws);
        let mut tops = vec![Blob::new(shapes[0].clone())];
        let mut l: ActivationLayer<Swish> = ActivationLayer::new("swish1");
        l.setup(&[&bottom]);
        l.forward(&ctx, &[&bottom], &mut tops);
        tops[0].data().to_vec()
    };
    let seq = run(1);
    let par = run(4);
    println!(
        "   parallel output bitwise-matches sequential: {}",
        seq == par
    );
    assert_eq!(seq, par);
}

const MLP_SPEC: &str = r#"
name: custom_mlp
layer {
  name: data
  type: Data
  batch: 32
  top: data
  top: label
}
layer {
  name: flat
  type: Flatten
  bottom: data
  top: flat
}
layer {
  name: fc1
  type: InnerProduct
  bottom: flat
  top: fc1
  num_output: 128
  seed: 11
}
layer {
  name: act1
  type: Sigmoid
  bottom: fc1
  top: act1
}
layer {
  name: drop1
  type: Dropout
  bottom: act1
  top: drop1
  dropout_ratio: 0.2
  seed: 5
}
layer {
  name: fc2
  type: InnerProduct
  bottom: drop1
  top: fc2
  num_output: 64
  seed: 12
}
layer {
  name: act2
  type: TanH
  bottom: fc2
  top: act2
}
layer {
  name: fc3
  type: InnerProduct
  bottom: act2
  top: fc3
  num_output: 10
  seed: 13
}
layer {
  name: loss
  type: SoftmaxWithLoss
  bottom: fc3
  bottom: label
  top: loss
}
"#;

fn demo_custom_topology() {
    println!("\n-- 2. novel MLP topology from an inline spec --");
    let spec = NetSpec::parse(MLP_SPEC).expect("spec parses");
    let net = Net::<f32>::from_spec(&spec, Some(Box::new(SyntheticMnist::new(2048, 9)))).unwrap();
    let solver_cfg = SolverConfig {
        base_lr: 0.05,
        ..SolverConfig::lenet()
    };
    let mut trainer = CoarseGrainTrainer::new(net, solver_cfg, 4)
        .with_reduction(ReductionMode::Canonical { groups: 16 });
    let losses = trainer.train(30);
    println!(
        "   {} layers, loss {:.4} -> {:.4} over {} iterations",
        trainer.net().num_layers(),
        losses[0],
        losses.last().unwrap(),
        losses.len()
    );
    assert!(losses.last().unwrap() < &losses[0]);
}

fn main() {
    println!("== network-agnostic coarse-grain parallelization ==\n");
    demo_custom_layer();
    demo_custom_topology();
    println!("\nno layer was given any parallel-specific code.");
}
