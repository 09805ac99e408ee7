//! Evaluation-path tests: the test-phase loss of `solvers::evaluate`,
//! argmax accuracy over the score and label blobs it leaves on the net, and
//! real learned accuracy on the synthetic MNIST classes.

mod common;

use cgdnn::prelude::*;
use common::{argmax_hits, TinySource};

/// Tiny MLP: class scores in `ip2`, labels in the data layer's `label`.
const EVAL_SPEC: &str = r#"
name: eval_net
layer {
  name: data
  type: Data
  batch: 16
  top: data
  top: label
}
layer {
  name: ip1
  type: InnerProduct
  bottom: data
  top: ip1
  num_output: 48
  seed: 61
}
layer {
  name: relu1
  type: ReLU
  bottom: ip1
  top: relu1
}
layer {
  name: ip2
  type: InnerProduct
  bottom: relu1
  top: ip2
  num_output: 10
  seed: 62
}
layer {
  name: loss
  type: SoftmaxWithLoss
  bottom: ip2
  bottom: label
  top: loss
}
"#;

fn eval_net(seed: u64) -> Net<f32> {
    let spec = NetSpec::parse(EVAL_SPEC).unwrap();
    Net::from_spec(&spec, Some(Box::new(TinySource { n: 128, seed }))).unwrap()
}

/// Argmax accuracy over `batches` fresh test-phase batches.
fn accuracy(net: &mut Net<f32>, team: &ThreadTeam, batches: usize) -> f64 {
    let (mut hits, mut total) = (0, 0);
    for _ in 0..batches {
        solvers::evaluate(net, team, &RunConfig::default(), 1);
        let (h, t) = argmax_hits(net, "ip2");
        hits += h;
        total += t;
    }
    hits as f64 / total as f64
}

#[test]
fn evaluate_reports_loss_and_accuracy() {
    let mut net = eval_net(4);
    let team = ThreadTeam::new(2);
    let loss = solvers::evaluate(&mut net, &team, &RunConfig::default(), 2);
    assert!(loss.is_finite() && loss > 0.0);
    // The mean of two test-phase forwards over the same batches.
    let mut twin = eval_net(4);
    let test = RunConfig {
        phase: Phase::Test,
        ..RunConfig::default()
    };
    let (l0, l1) = (twin.forward(&team, &test), twin.forward(&team, &test));
    assert_eq!(loss, (l0 + l1) / 2.0);
    let (hits, total) = argmax_hits(&net, "ip2");
    assert_eq!(total, 16);
    assert!(hits <= total);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavy training loop; run with --release")]
fn accuracy_improves_with_training() {
    let mut net = eval_net(7);
    let team = ThreadTeam::new(2);
    let run = RunConfig::default();
    let b = accuracy(&mut net, &team, 4);
    let mut solver: Solver<f32> = Solver::new(SolverConfig {
        base_lr: 0.1,
        ..SolverConfig::lenet()
    });
    solver.train(&mut net, &team, &run, 60);
    let a = accuracy(&mut net, &team, 4);
    assert!(
        a > b + 0.2,
        "accuracy should improve substantially: {b:.2} -> {a:.2}"
    );
    assert!(a > 0.5, "trained accuracy too low: {a:.2}");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full-size LeNet training; run with --release"
)]
fn lenet_learns_synthetic_mnist_to_high_accuracy() {
    // The full-size LeNet on the synthetic digit glyphs: after 40 batch-64
    // iterations it must classify well above chance (the quickstart example
    // reaches ~90%+).
    let mut trainer =
        CoarseGrainTrainer::<f32>::lenet(Box::new(SyntheticMnist::new(2048, 5)), 2).unwrap();
    trainer.train(40);
    let (mut correct, mut total) = (0, 0);
    for _ in 0..3 {
        trainer.evaluate(1);
        let (h, t) = argmax_hits(trainer.net(), "ip2");
        correct += h;
        total += t;
    }
    let acc = correct as f64 / total as f64;
    assert!(acc > 0.6, "LeNet reached only {acc:.2} accuracy");
}

#[test]
fn loss_is_scalar_and_scores_align_with_labels() {
    let mut net = eval_net(1);
    let team = ThreadTeam::new(1);
    net.forward(&team, &RunConfig::default());
    assert_eq!(net.blob("loss").unwrap().count(), 1);
    assert_eq!(net.blob("ip2").unwrap().shape().dims(), &[16, 10]);
    assert_eq!(net.blob("label").unwrap().shape().dims(), &[16]);
}
