//! **E7 (§3.2.1)** — privatization memory overhead.
//!
//! Paper: the batch-level parallelization needs extra memory only for the
//! per-thread privatized gradients (plus per-thread column buffers), bounded
//! by the layer with the most coefficients — which for *Caffe* is the
//! convolutional layers: ≤640 KB (MNIST) and ≤1250 KB (CIFAR-10) at 16
//! threads, ~5% of the 8 MB / 36 MB sequential footprints.
//!
//! As in Caffe, our InnerProduct computes `dW` as GEMMs over disjoint rows
//! of `dW` and privatizes nothing, so the slot is sized by the largest
//! convolution (LeNet's conv2, not its 400 K-coefficient `ip1`). The
//! per-layer list shows every parameter gradient, the slot line which one
//! sizes the slot.

use cgdnn_bench::{banner, cifar_net, compare, mnist_net};
use layers::ReductionMode;
use net::Net;

fn per_layer_breakdown(name: &str, net: &Net<f32>) {
    println!("--- {name}: per-layer parameter gradients ---");
    for p in net.profiles() {
        let elems = p.backward.reduction_elems;
        if elems == 0 {
            continue;
        }
        let kb = (elems * 4) as f64 / 1024.0;
        println!("  {:<8}{:>10.1} KB  ({})", p.name, kb, p.layer_type);
    }
}

fn main() {
    banner(
        "E7",
        "privatization memory overhead (measured, not simulated)",
    );
    for (name, mut net, paper_overhead_kb, paper_seq_mb) in [
        ("MNIST/LeNet", mnist_net(), 640.0, 8.0),
        ("CIFAR-10", cifar_net(), 1250.0, 36.0),
    ] {
        per_layer_breakdown(name, &net);
        net.ensure_workspace(16, ReductionMode::Ordered);
        let report = net.memory_report();
        println!("\n{name} @16 threads:\n{report}\n");
        let privatized = (report.slots * report.slot_bytes) as f64;
        compare(
            "privatization @16T (KB)",
            paper_overhead_kb,
            privatized / 1024.0,
        );
        compare(
            "sequential footprint (MB)",
            paper_seq_mb,
            report.sequential_bytes() as f64 / (1024.0 * 1024.0),
        );
        let pct = 100.0 * privatized / report.sequential_bytes() as f64;
        compare("privatization overhead %", 5.0, pct);
        println!();
    }
    println!(
        "note: the overhead line adds the 15 extra column buffers to the\n\
         privatized slots. Our blob footprint is larger than Caffe's because\n\
         in-place layers are not supported and every blob carries an\n\
         eagerly-allocated diff buffer."
    );
}
