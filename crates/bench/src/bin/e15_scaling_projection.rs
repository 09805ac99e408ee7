//! **E15 (conclusion extension)** — scaling projection beyond 16 cores.
//!
//! The paper's related-work section argues "a coarse-grain approach has the
//! potential of scaling up to a greater number of cores [than single-node
//! GPU setups] due to the fact that the limitations regarding the fitting
//! of the data model are less strict". This experiment projects both
//! networks onto hypothetical 4- and 8-socket nodes and reports where the
//! approach runs out of steam — and which mechanism (batch size vs memory
//! system vs reduction) is responsible.

use cgdnn_bench::{banner, cifar_net, mnist_net};
use machine::report::total_time;
use machine::{simulate_cpu, CpuModel};

fn main() {
    banner(
        "E15",
        "coarse-grain scaling projection beyond the paper's 16 cores",
    );
    for (name, net) in [
        ("MNIST/LeNet (batch 64)", mnist_net()),
        ("CIFAR-10 (batch 100)", cifar_net()),
    ] {
        let profiles = net.profiles();
        println!("--- {name} ---");
        println!("{:<26}{:>10}{:>12}", "node", "threads", "speedup");
        let base = total_time(&simulate_cpu(&profiles, &CpuModel::xeon_e5_2667v2(), 1));
        for (label, sockets, cps, threads) in [
            ("paper node (2s x 8c)", 2usize, 8usize, 16usize),
            ("4 sockets x 8 cores", 4, 8, 32),
            ("8 sockets x 8 cores", 8, 8, 64),
            ("8 sockets x 16 cores", 8, 16, 128),
        ] {
            let model = CpuModel::scaled_node(sockets, cps);
            let t = total_time(&simulate_cpu(&profiles, &model, threads));
            println!("{label:<26}{threads:>10}{:>11.2}x", base / t);
        }
        println!();
    }
    println!(
        "reading: the batch is the hard ceiling — 64/100 coalesced\n\
         iterations cannot feed 128 threads, and the serialized ordered\n\
         reduction grows linearly with the thread count. Scaling further\n\
         requires larger batches (which the convergence-invariance property\n\
         forbids changing unilaterally) or the sharded data parallelism\n\
         of the `dist` crate, which multiplies parallelism without\n\
         touching the tuned batch size."
    );
}
