//! **Figure 8** — CIFAR-10: per-layer scalability at 2-16 threads.
//!
//! Paper anchors reproduced in shape: conv1 ~5.9x @8T, which the paper
//! limits past 8 by Caffe's one-thread data layer + NUMA (here the data
//! layer fills on the team, so conv1 keeps scaling to ~11x @16T against the
//! paper's ~9x); pool1/relu1 scale further (paper 11x / 13x @16T); norm1
//! changes the data-thread distribution, which caps conv2; the centre
//! layers (pool3, ip1, loss) form the u-shape floor.

use cgdnn_bench::{banner, cifar_net, compare, simulate, PAPER_THREADS};
use machine::report::per_layer_speedups;

fn main() {
    banner(
        "Figure 8",
        "CIFAR-10 per-layer scalability (speedup over serial)",
    );
    let net = cifar_net();
    let (_p, sim) = simulate(&net);
    let serial = sim.serial().to_vec();

    println!(
        "{:<10}{}",
        "layer",
        PAPER_THREADS[1..]
            .iter()
            .map(|t| format!("{t:>14}T(f/b)"))
            .collect::<String>()
    );
    for (i, l) in serial.iter().enumerate() {
        print!("{:<10}", l.name);
        for &t in &PAPER_THREADS[1..] {
            let sp = per_layer_speedups(&serial, sim.cpu_at(t).unwrap());
            print!("{:>8.2}/{:<7.2}", sp[i].1, sp[i].2);
        }
        println!();
    }

    let sp8 = per_layer_speedups(&serial, sim.cpu_at(8).unwrap());
    let sp16 = per_layer_speedups(&serial, sim.cpu_at(16).unwrap());
    let find = |v: &[(String, f64, f64)], n: &str| v.iter().find(|s| s.0 == n).unwrap().1;
    println!("\npaper anchor points (forward):");
    compare("conv1 @8T", 5.87, find(&sp8, "conv1"));
    compare("conv1 @16T", 9.0, find(&sp16, "conv1"));
    compare("pool1 @8T", 6.5, find(&sp8, "pool1"));
    compare("pool1 @16T", 11.0, find(&sp16, "pool1"));
    compare("relu1 @8T", 7.0, find(&sp8, "relu1"));
    compare("relu1 @16T", 13.0, find(&sp16, "relu1"));
    compare("norm1 @8T", 4.6, find(&sp8, "norm1"));
    compare("norm1 @16T", 10.8, find(&sp16, "norm1"));
    compare("conv2 @16T (capped by norm1)", 8.25, find(&sp16, "conv2"));
    println!(
        "\nordering check (conv2 fwd capped below conv3 fwd by norm producer): {}",
        find(&sp16, "conv2") < find(&sp16, "conv3")
    );
}
