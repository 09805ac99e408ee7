//! Shared helpers for the figure-regeneration binaries (`src/bin/fig*.rs`,
//! `src/bin/e*.rs`). Timing measurements live in `benchmark/`.
//!
//! Each binary regenerates one table/figure of the paper; `EXPERIMENTS.md`
//! records the paper-reported vs. simulated/measured values.

use datasets::{SyntheticCifar, SyntheticMnist};
use layers::profile::LayerProfile;
use machine::report::NetworkSim;
use net::Net;

/// Thread counts the paper evaluates.
pub const PAPER_THREADS: [usize; 6] = [1, 2, 4, 8, 12, 16];

/// Build the LeNet/MNIST network on the synthetic dataset.
pub fn mnist_net() -> Net<f32> {
    cgdnn::nets::lenet(Box::new(SyntheticMnist::new(4096, 1))).expect("LeNet builds")
}

/// Build the CIFAR-10 full network on the synthetic dataset.
pub fn cifar_net() -> Net<f32> {
    cgdnn::nets::cifar10_full(Box::new(SyntheticCifar::new(4096, 1))).expect("CIFAR builds")
}

/// Simulate the paper's machine over a network's real work profiles.
pub fn simulate(net: &Net<f32>) -> (Vec<LayerProfile>, NetworkSim) {
    let profiles = net.profiles();
    let sim = NetworkSim::paper_machine(&profiles);
    (profiles, sim)
}

/// Print a paper-vs-ours comparison row.
pub fn compare(label: &str, paper: f64, ours: f64) {
    let ratio = if paper > 0.0 { ours / paper } else { f64::NAN };
    println!("  {label:<34} paper {paper:>7.2}   ours {ours:>7.2}   (x{ratio:.2})");
}

/// Banner for an experiment binary.
pub fn banner(id: &str, what: &str) {
    println!("================================================================");
    println!("{id}: {what}");
    println!("================================================================");
}
