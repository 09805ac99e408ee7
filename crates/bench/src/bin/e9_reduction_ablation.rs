//! **E9 (§3.2.1 ablation)** — gradient reduction strategies.
//!
//! The paper chooses the `ordered` construct over an unordered reduction
//! because only it reproduces the sequential update value ("developers
//! prefer to keep the sequential update... during tuning and debugging").
//! Both modes here keep that order; they differ in the slot count: one per
//! thread (`Ordered`) or a pinned 16 (`Canonical`). This binary measures,
//! with real training iterations:
//!   * repeatability: does repeating a 4-thread run give the same losses
//!     and final parameters, bit for bit?
//!   * thread-count invariance: does the 4-thread run equal the 1-thread
//!     run in losses and final parameters, bit for bit?
//!   * cost: wall-clock per iteration for each mode.

use cgdnn_bench::banner;
use datasets::SyntheticMnist;
use layers::ReductionMode;
use net::RunConfig;
use omprt::ThreadTeam;
use solvers::{Solver, SolverConfig};
use std::time::Instant;

/// Losses, final parameter bits and seconds per iteration.
fn train(mode: ReductionMode, threads: usize, iters: usize) -> (Vec<f32>, Vec<u32>, f64) {
    let mut net = cgdnn::nets::lenet::<f32>(Box::new(SyntheticMnist::new(256, 11))).unwrap();
    let team = ThreadTeam::new(threads);
    let run = RunConfig {
        reduction: mode,
        ..RunConfig::default()
    };
    let mut solver: Solver<f32> = Solver::new(SolverConfig::lenet());
    let t0 = Instant::now();
    let l = solver.train(&mut net, &team, &run, iters);
    let secs = t0.elapsed().as_secs_f64() / iters as f64;
    let params = net
        .learnable_params()
        .iter()
        .flat_map(|b| b.data().iter().map(|v| v.to_bits()))
        .collect();
    (l, params, secs)
}

fn main() {
    banner(
        "E9",
        "reduction-mode ablation: Ordered vs Canonical (measured)",
    );
    let iters = 3;
    let threads = 4;
    println!("losses and final parameters, bitwise, of a {threads}-thread run:");
    println!(
        "{:<28}{:>12}{:>14}{:>16}{:>14}",
        "mode", "sec/iter", "= repeat", "= 1 thread", "final loss"
    );
    for (label, mode) in [
        ("Ordered (paper)", ReductionMode::Ordered),
        (
            "Canonical-16 (ours)",
            ReductionMode::Canonical { groups: 16 },
        ),
    ] {
        let (l_a, p_a, secs) = train(mode, threads, iters);
        let (l_b, p_b, _) = train(mode, threads, iters);
        let (l_1, p_1, _) = train(mode, 1, iters);
        let repeat = l_a == l_b && p_a == p_b;
        let tinv = l_a == l_1 && p_a == p_1;
        println!(
            "{:<28}{:>12.4}{:>14}{:>16}{:>14.6}",
            label,
            secs,
            repeat,
            tinv,
            l_a.last().unwrap()
        );
    }
    println!(
        "\nexpected: both modes repeatable per fixed T; only Canonical is\n\
         invariant across thread counts (bitwise); Ordered's T threads\n\
         equal 1 thread under canonical:T instead."
    );
}
