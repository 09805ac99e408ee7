//! End-to-end training tests: the full stack (datasets -> net -> layers ->
//! omprt -> mmblas -> solvers) must genuinely learn.

mod common;

use cgdnn::prelude::*;
use common::tiny_net;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "40-iteration training loop; run with --release"
)]
fn tiny_convnet_learns_the_synthetic_classes() {
    let mut net = tiny_net(1);
    let team = ThreadTeam::new(2);
    let run = RunConfig::default();
    let mut solver: Solver<f32> = Solver::new(SolverConfig {
        base_lr: 0.05,
        ..SolverConfig::lenet()
    });
    let losses = solver.train(&mut net, &team, &run, 40);
    let first = losses[..4].iter().sum::<f32>() / 4.0;
    let last = losses[losses.len() - 4..].iter().sum::<f32>() / 4.0;
    assert!(
        last < first * 0.8,
        "expected clear learning: first ~{first}, last ~{last}"
    );
    assert!(losses.iter().all(|l| l.is_finite()));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full-size LeNet iteration; run with --release"
)]
fn lenet_full_size_one_iteration_runs() {
    // One full-size LeNet iteration (batch 64, 28x28) through the real
    // parallel path.
    let mut trainer =
        CoarseGrainTrainer::<f32>::lenet(Box::new(SyntheticMnist::new(128, 1)), 3).unwrap();
    let loss = trainer.step();
    assert!(loss.is_finite());
    assert!(loss > 1.0 && loss < 4.0, "initial loss ~ln(10): {loss}");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full-size CIFAR iteration; run with --release"
)]
fn cifar_full_size_one_iteration_runs() {
    let mut trainer =
        CoarseGrainTrainer::<f32>::cifar10_full(Box::new(SyntheticCifar::new(128, 1)), 3).unwrap();
    let loss = trainer.step();
    assert!(loss.is_finite());
    assert!(loss > 1.0 && loss < 4.0, "initial loss ~ln(10): {loss}");
}

/// Every convolution and inner product of the paper's nets learns a weight
/// at Caffe's `lr_mult` 1 and a bias at 2, and every bias starts at zero.
#[test]
fn paper_nets_learn_a_weight_at_lr_1_and_a_zero_bias_at_lr_2() {
    let nets = [
        nets::lenet::<f32>(Box::new(SyntheticMnist::new(8, 1))).unwrap(),
        nets::cifar10_full::<f32>(Box::new(SyntheticCifar::new(8, 1))).unwrap(),
    ];
    for net in nets {
        let learnable = net
            .profiles()
            .iter()
            .filter(|p| matches!(p.layer_type.as_str(), "Convolution" | "InnerProduct"))
            .count();
        assert_eq!(learnable, 4, "{}", net.name());
        assert_eq!(
            net.param_lr_mults(),
            [1.0, 2.0].repeat(learnable),
            "{}",
            net.name()
        );
        let params = net.learnable_params();
        for (i, pair) in params.chunks(2).enumerate() {
            assert!(
                pair[0].data().iter().any(|&w| w != 0.0),
                "{} weight {i}",
                net.name()
            );
            assert!(
                pair[1].data().iter().all(|&b| b == 0.0),
                "{} bias {i}",
                net.name()
            );
        }
    }
}

#[test]
fn per_layer_timing_is_recorded() {
    let mut net = tiny_net(4);
    let team = ThreadTeam::new(1);
    let run = RunConfig::default();
    net.forward(&team, &run);
    net.backward(&team, &run);
    let f = net.last_forward_seconds();
    let b = net.last_backward_seconds();
    assert_eq!(f.len(), net.num_layers());
    // Every layer's forward took measurable (>= 0) time; data layer bwd = 0.
    assert!(f.iter().all(|&t| t >= 0.0));
    assert_eq!(b[0], 0.0, "data layer has no backward");
    assert!(f.iter().sum::<f64>() > 0.0);
}

#[test]
fn test_phase_does_not_touch_parameters() {
    let mut net = tiny_net(8);
    let team = ThreadTeam::new(2);
    let before: Vec<Vec<f32>> = net
        .learnable_params()
        .iter()
        .map(|p| p.data().to_vec())
        .collect();
    let run = RunConfig {
        phase: Phase::Test,
        ..RunConfig::default()
    };
    net.forward(&team, &run);
    let after: Vec<Vec<f32>> = net
        .learnable_params()
        .iter()
        .map(|p| p.data().to_vec())
        .collect();
    assert_eq!(before, after);
}
