//! Integration test for the layer types neither paper network uses
//! (Flatten, Sigmoid, TanH) and for data fan-out: a branching network built
//! from a spec — a topology neither paper network has — must train, stay
//! deterministic across thread counts, and pass a finite-difference check
//! end to end.

mod common;

use cgdnn::prelude::*;
use common::TinySource;

/// data and label feed two heads: flatten -> ip+sigmoid -> ip+tanh -> ip ->
/// loss, and ip -> loss. Only data blobs fan out; the net sums both losses.
const BRANCHY: &str = r#"
name: branchy
layer {
  name: data
  type: Data
  batch: 6
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
  name: fc_a
  type: InnerProduct
  bottom: flat
  top: fc_a
  num_output: 16
  seed: 41
}
layer {
  name: act_a
  type: Sigmoid
  bottom: fc_a
  top: act_a
}
layer {
  name: fc_b
  type: InnerProduct
  bottom: act_a
  top: fc_b
  num_output: 16
  seed: 42
}
layer {
  name: act_b
  type: TanH
  bottom: fc_b
  top: act_b
}
layer {
  name: fc_out
  type: InnerProduct
  bottom: act_b
  top: fc_out
  num_output: 10
  seed: 44
}
layer {
  name: loss
  type: SoftmaxWithLoss
  bottom: fc_out
  bottom: label
  top: loss
}
layer {
  name: fc_c
  type: InnerProduct
  bottom: data
  top: fc_c
  num_output: 10
  seed: 43
}
layer {
  name: loss_c
  type: SoftmaxWithLoss
  bottom: fc_c
  bottom: label
  top: loss_c
}
"#;

fn branchy_net(seed: u64) -> Net<f32> {
    let spec = NetSpec::parse(BRANCHY).expect("branchy spec parses");
    Net::from_spec(&spec, Some(Box::new(TinySource { n: 48, seed }))).expect("branchy builds")
}

#[test]
fn branchy_network_builds_with_expected_shapes() {
    let net = branchy_net(1);
    assert_eq!(net.num_layers(), 10);
    assert_eq!(net.blob("flat").unwrap().shape().dims(), &[6, 144]);
    assert_eq!(net.blob("act_a").unwrap().shape().dims(), &[6, 16]);
    assert_eq!(net.blob("act_b").unwrap().shape().dims(), &[6, 16]);
    assert_eq!(net.blob("fc_out").unwrap().shape().dims(), &[6, 10]);
    assert_eq!(net.blob("fc_c").unwrap().shape().dims(), &[6, 10]);
    let summary = net.summary();
    assert!(summary.contains("Sigmoid"));
    assert!(summary.contains("TanH"));
    assert!(summary.contains("total: 10 layers"));
    assert!(net.num_params() > 0);
}

#[test]
fn branchy_network_trains_and_is_thread_invariant() {
    let train = |threads: usize| -> Vec<f32> {
        let mut net = branchy_net(3);
        let team = ThreadTeam::new(threads);
        let run = RunConfig {
            reduction: ReductionMode::Canonical { groups: 16 },
            ..RunConfig::default()
        };
        let cfg = SolverConfig {
            base_lr: 0.05,
            ..SolverConfig::lenet()
        };
        let mut solver: Solver<f32> = Solver::new(cfg);
        solver.train(&mut net, &team, &run, 15)
    };
    let l1 = train(1);
    let l3 = train(3);
    assert_eq!(l1, l3, "branchy net not thread-invariant");
    assert!(
        l1.last().unwrap() < &l1[0],
        "branchy net failed to learn: {l1:?}"
    );
}

#[test]
fn branchy_gradient_check_spot() {
    // End-to-end finite differences through flatten/sigmoid/tanh and
    // both heads.
    let analytic = {
        let mut net = branchy_net(9);
        let team = ThreadTeam::new(2);
        let run = RunConfig::default();
        net.zero_param_diffs();
        net.forward(&team, &run);
        net.backward(&team, &run);
        net.learnable_params()
            .iter()
            .map(|p| p.diff().to_vec())
            .collect::<Vec<_>>()
    };
    let loss_with = |pi: usize, ei: usize, delta: f32| -> f64 {
        let mut net = branchy_net(9);
        net.learnable_params_mut()[pi].data_mut()[ei] += delta;
        let team = ThreadTeam::new(1);
        net.forward(&team, &RunConfig::default()) as f64
    };
    let eps = 2e-3f32;
    for (pi, g) in analytic.iter().enumerate().step_by(2) {
        let ei = g.len() / 2;
        let lp = loss_with(pi, ei, eps);
        let lm = loss_with(pi, ei, -eps);
        let num = (lp - lm) / (2.0 * eps as f64);
        let ana = g[ei] as f64;
        assert!(
            (num - ana).abs() < 1e-2 * (1.0 + num.abs().max(ana.abs())),
            "param {pi} elem {ei}: numeric {num:.6} vs analytic {ana:.6}"
        );
    }
}
