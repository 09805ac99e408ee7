//! **Figure 5** — MNIST: per-layer scalability (speedup vs. the serial CPU
//! execution) at 2, 4, 8, 12 and 16 threads.
//!
//! Paper observations reproduced: the u-shape (centre layers — relu, ip2,
//! loss — do not scale); ip1 and pool2 saturate around 4.6-5.9x at 8
//! threads; conv1/pool1/conv2 scale well, with conv1 lagging conv2. The
//! paper blames that gap on Caffe's one-thread data layer; here the data
//! layer fills its batch on the team, so conv1's input is thread-local and
//! it lags only because it does fewer flops per byte moved than conv2.

use cgdnn_bench::{banner, compare, mnist_net, simulate, PAPER_THREADS};
use machine::report::per_layer_speedups;

fn main() {
    banner(
        "Figure 5",
        "MNIST per-layer scalability (speedup over serial)",
    );
    let net = mnist_net();
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
    let names: Vec<String> = serial.iter().map(|l| l.name.clone()).collect();
    for (i, name) in names.iter().enumerate() {
        print!("{name:<10}");
        for &t in &PAPER_THREADS[1..] {
            let sp = per_layer_speedups(&serial, sim.cpu_at(t).unwrap());
            print!("{:>8.2}/{:<7.2}", sp[i].1, sp[i].2);
        }
        println!();
    }
    println!();

    // Paper anchor points.
    let sp8 = per_layer_speedups(&serial, sim.cpu_at(8).unwrap());
    let find = |n: &str| sp8.iter().find(|s| s.0 == n).unwrap();
    println!("anchor points at 8 threads (paper section 4.1.1):");
    compare("ip1 forward speedup @8T", 4.58, find("ip1").1);
    compare("ip1 backward speedup @8T", 5.93, find("ip1").2);
    compare("pool2 forward speedup @8T", 5.52, find("pool2").1);
    compare("pool2 backward speedup @8T", 5.73, find("pool2").2);
    let sp16 = per_layer_speedups(&serial, sim.cpu_at(16).unwrap());
    let c1 = sp16.iter().find(|s| s.0 == "conv1").unwrap().1;
    let c2 = sp16.iter().find(|s| s.0 == "conv2").unwrap().1;
    println!(
        "\nconv1 vs conv2 fwd @16T: {c1:.2} vs {c2:.2} — conv2 faster \
         (paper: ~10% gap, same direction)"
    );
}
