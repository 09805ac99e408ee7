//! **E10 (§3.2.1 / §4.3 ablation)** — loop coalescing vs. plain batch loop.
//!
//! The paper coalesces the outer `(sample, segment...)` loops so that the
//! minimal work unit under static scheduling shrinks, fixing the work
//! unbalance of heavy per-sample iterations (notably at 12 threads, where
//! 64 samples split 6/6/6/6/5/5/... ). This binary computes the analytic
//! imbalance for every layer of both networks, with and without
//! coalescing, plus the simulated end-to-end impact.

use cgdnn_bench::{banner, cifar_net, mnist_net, PAPER_THREADS};
use layers::profile::LayerProfile;
use machine::{simulate_cpu, CpuModel};
use omprt::analytic_distribution;

fn imbalance_table(name: &str, profiles: &[LayerProfile]) {
    println!("--- {name}: max/mean work imbalance under static scheduling ---");
    println!(
        "{:<10}{:>6}{}",
        "layer",
        "segs",
        PAPER_THREADS[1..]
            .iter()
            .map(|t| format!("{t:>9}T c/u"))
            .collect::<String>()
    );
    for p in profiles {
        if p.forward.coalesced_iters == 0 || p.batch == 0 {
            continue;
        }
        let per_sample = (p.forward.coalesced_iters / p.batch).max(1);
        print!("{:<10}{:>6}", p.name, per_sample);
        for &t in &PAPER_THREADS[1..] {
            // Coalesced: iters light units; uncoalesced: batch heavy units.
            let c = analytic_distribution(p.forward.coalesced_iters, t, 1).imbalance_factor;
            let u = analytic_distribution(p.batch, t, per_sample).imbalance_factor;
            print!("{c:>6.2}/{u:<5.2}");
        }
        println!();
    }
    println!();
}

/// Simulated end-to-end slowdown if every layer kept the plain batch loop
/// (its imbalance factor applied to the parallel part).
fn simulated_impact(profiles: &[LayerProfile], threads: usize) -> (f64, f64) {
    let model = CpuModel::xeon_e5_2667v2();
    let coalesced: f64 = simulate_cpu(profiles, &model, threads)
        .iter()
        .map(|l| l.total())
        .sum();
    // Uncoalesced variant: replace each pass's trip count with the batch
    // count, scaling per-iteration work to keep total work identical.
    let unc: Vec<LayerProfile> = profiles
        .iter()
        .map(|p| {
            let mut p = p.clone();
            for pass in [&mut p.forward, &mut p.backward] {
                if pass.coalesced_iters > p.batch && p.batch > 0 {
                    let ratio = pass.coalesced_iters as f64 / p.batch as f64;
                    pass.coalesced_iters = p.batch;
                    pass.flops_per_iter *= ratio;
                    pass.bytes_in_per_iter *= ratio;
                    pass.bytes_out_per_iter *= ratio;
                }
            }
            p
        })
        .collect();
    let uncoalesced: f64 = simulate_cpu(&unc, &model, threads)
        .iter()
        .map(|l| l.total())
        .sum();
    (coalesced, uncoalesced)
}

fn main() {
    banner("E10", "loop-coalescing ablation (analytic + simulated)");
    for (name, net) in [("MNIST/LeNet", mnist_net()), ("CIFAR-10", cifar_net())] {
        let profiles = net.profiles();
        imbalance_table(name, &profiles);
        for &t in &[12usize, 16] {
            let (c, u) = simulated_impact(&profiles, t);
            println!(
                "{name} simulated iteration time @{t}T: coalesced {:.2} ms, \
                 plain batch loop {:.2} ms ({:+.1}%)",
                c * 1e3,
                u * 1e3,
                100.0 * (u - c) / c
            );
        }
        println!();
    }
    println!(
        "expected: imbalance factor up to 64/60 ~ 1.07x at 12 threads for\n\
         batch-64 layers (the paper's motivating case) and 100/96 at 16\n\
         threads for batch-100; coalescing flattens both to ~1.00."
    );
}
