//! **E13 (§3.1 / §3.3 ablation)** — coarse-grain (batch-level) vs
//! fine-grain (BLAS-level) CPU parallelization.
//!
//! The paper enumerates three sources of parallelism (§3.1): BLAS-level,
//! blob-level and batch-level, and argues batch-level wins on CPUs because
//! its work units stay coarse everywhere while per-call parallelism
//! collapses in the small, deep layers. The comparison below quantifies
//! this on both networks with `machine`'s two execution models: both sides
//! are simulated, there is no executable fine-grain kernel in the workspace.

use cgdnn_bench::{banner, cifar_net, mnist_net, PAPER_THREADS};
use machine::report::total_time;
use machine::{simulate_cpu, simulate_cpu_fine_grain, CpuModel};

fn main() {
    banner(
        "E13",
        "coarse-grain vs fine-grain (BLAS-level) CPU parallelization",
    );
    let model = CpuModel::xeon_e5_2667v2();
    for (name, net) in [("MNIST/LeNet", mnist_net()), ("CIFAR-10", cifar_net())] {
        let profiles = net.profiles();
        let serial = total_time(&simulate_cpu(&profiles, &model, 1));
        println!("--- {name}: overall speedup vs serial ---");
        println!(
            "{:<10}{:>14}{:>14}",
            "threads", "coarse-grain", "fine-grain"
        );
        for &t in &PAPER_THREADS[1..] {
            let coarse = serial / total_time(&simulate_cpu(&profiles, &model, t));
            let fine = serial / total_time(&simulate_cpu_fine_grain(&profiles, &model, t));
            println!("{t:<10}{coarse:>13.2}x{fine:>13.2}x");
        }
        // Per-layer view at 16T: where does fine-grain collapse?
        let coarse16 = simulate_cpu(&profiles, &model, 16);
        let fine16 = simulate_cpu_fine_grain(&profiles, &model, 16);
        let serial_l = simulate_cpu(&profiles, &model, 1);
        println!("\nper-layer fwd speedup @16T (coarse / fine):");
        for ((s, c), f) in serial_l.iter().zip(&coarse16).zip(&fine16) {
            if s.fwd <= 0.0 {
                continue;
            }
            println!(
                "  {:<8} {:>6.2}x / {:>6.2}x",
                s.name,
                s.fwd / c.fwd,
                s.fwd / f.fwd
            );
        }
        println!();
    }
    println!(
        "expected: fine-grain tracks coarse-grain on the big convolutions\n\
         but collapses on pooling/relu/ip layers whose per-call work is\n\
         tiny, dragging its end-to-end speedup well below batch-level —\n\
         the paper's core argument for coarse-grain on CPUs."
    );
}
