//! The machine simulator must reproduce the *shape* of every figure in the
//! paper's evaluation: who wins, by roughly what factor, where the
//! crossovers fall. These assertions are the executable form of
//! EXPERIMENTS.md.

use datasets::{SyntheticCifar, SyntheticMnist};
use machine::report::{per_layer_speedups, total_time, NetworkSim};

fn mnist_sim() -> NetworkSim {
    let net = cgdnn::nets::lenet::<f32>(Box::new(SyntheticMnist::new(256, 1))).unwrap();
    NetworkSim::paper_machine(&net.profiles())
}

fn cifar_sim() -> NetworkSim {
    let net = cgdnn::nets::cifar10_full::<f32>(Box::new(SyntheticCifar::new(256, 1))).unwrap();
    NetworkSim::paper_machine(&net.profiles())
}

fn fwd(sp: &[(String, f64, f64)], name: &str) -> f64 {
    sp.iter().find(|s| s.0 == name).unwrap().1
}

// ---------------- Figure 4 ----------------

#[test]
fn fig4_conv_and_pool_dominate_mnist() {
    let sim = mnist_sim();
    for (i, times) in sim.cpu.iter().enumerate() {
        let total = total_time(times);
        let convpool: f64 = times
            .iter()
            .filter(|l| l.layer_type == "Convolution" || l.layer_type == "Pooling")
            .map(|l| l.total())
            .sum();
        let share = convpool / total;
        assert!(
            share > 0.55,
            "conv+pool share at {}T is {share:.2}, paper ~0.8",
            sim.thread_counts[i]
        );
    }
}

#[test]
fn fig4_conv2_is_the_heaviest_layer() {
    let sim = mnist_sim();
    let serial = sim.serial();
    let conv2 = serial.iter().find(|l| l.name == "conv2").unwrap().total();
    for l in serial {
        assert!(l.total() <= conv2, "{} heavier than conv2", l.name);
    }
}

// ---------------- Figure 5 ----------------

#[test]
fn fig5_u_shape_centre_layers_do_not_scale() {
    let sim = mnist_sim();
    let sp = per_layer_speedups(sim.serial(), sim.cpu_at(16).unwrap());
    // Centre of the network: tiny layers scale poorly (< 4x at 16T)...
    for name in ["relu1", "loss"] {
        assert!(
            fwd(&sp, name) < 4.0,
            "{name} should not scale: {:.2}",
            fwd(&sp, name)
        );
    }
    // ...while the flanks scale well (> 5x at 16T).
    for name in ["conv1", "conv2"] {
        assert!(
            fwd(&sp, name) > 5.0,
            "{name} should scale: {:.2}",
            fwd(&sp, name)
        );
    }
}

#[test]
fn fig5_ip1_and_pool2_saturate_around_8_threads() {
    let sim = mnist_sim();
    let sp8 = per_layer_speedups(sim.serial(), sim.cpu_at(8).unwrap());
    for name in ["ip1", "pool2"] {
        let s8 = fwd(&sp8, name);
        // Paper: 4.58 (ip1) and 5.52 (pool2) at 8 threads.
        assert!(
            (3.0..7.0).contains(&s8),
            "{name} @8T = {s8:.2}, paper ~4.6-5.5"
        );
    }
}

/// The data layer fills on the team like every layer, so conv1's input is
/// thread-local; conv1 still lags because it does ≈ 3.5 flops per byte
/// moved against conv2's ≈ 11, and bandwidth per thread falls with the
/// thread count.
#[test]
fn fig5_conv1_lags_conv2_because_it_moves_more_bytes_per_flop() {
    let sim = mnist_sim();
    let sp16 = per_layer_speedups(sim.serial(), sim.cpu_at(16).unwrap());
    assert!(fwd(&sp16, "conv1") < fwd(&sp16, "conv2"));
}

// ---------------- Figure 6 ----------------

#[test]
fn fig6_mnist_overall_speedups_in_paper_bands() {
    let sim = mnist_sim();
    let s8 = sim.cpu_speedup(8).unwrap();
    let s16 = sim.cpu_speedup(16).unwrap();
    assert!((4.5..7.5).contains(&s8), "MNIST @8T {s8:.2}, paper ~6");
    assert!((6.5..10.0).contains(&s16), "MNIST @16T {s16:.2}, paper ~8");
    assert!(s16 > s8);
    let plain = sim.gpu_plain_speedup();
    let cudnn = sim.gpu_cudnn_speedup();
    assert!(
        (1.0..4.5).contains(&plain),
        "plain-GPU {plain:.2}, paper ~2"
    );
    assert!((9.0..24.0).contains(&cudnn), "cuDNN {cudnn:.2}, paper ~12");
    // Ordering: plain-GPU < coarse-grain@16 < cuDNN (the paper's headline).
    assert!(plain < s16 && s16 < cudnn);
}

#[test]
fn fig6_gpu_per_layer_orderings() {
    let sim = mnist_sim();
    let plain = per_layer_speedups(sim.serial(), &sim.gpu_plain);
    let cudnn = per_layer_speedups(sim.serial(), &sim.gpu_cudnn);
    // Plain pooling is spectacular, plain conv is poor.
    assert!(fwd(&plain, "pool1") > 15.0);
    assert!(fwd(&plain, "conv1") < 3.0);
    // cuDNN lifts conv dramatically...
    assert!(fwd(&cudnn, "conv1") > 5.0 * fwd(&plain, "conv1"));
    // ...but drops pooling (paper: pool2 62x -> 27x).
    assert!(fwd(&cudnn, "pool2") < fwd(&plain, "pool2"));
}

/// The GPU model keeps the data layer on the host at one core's rate, so
/// no GPU column of Figs 6/9 moves with the CPU data layer's schedule. The
/// pinned bits are `batch × sample / 6e9` seconds (LeNet 64 × 784, CIFAR
/// 100 × 3 072), as the model charged when the CPU fill was one thread.
#[test]
fn fig6_fig9_gpu_data_rows_stay_host_side() {
    for (sim, bits) in [
        (mnist_sim(), 0x3ee1_89ac_27a7_a5b8_u64),
        (cifar_sim(), 0x3f0a_d7f2_9abc_af48),
    ] {
        for data in [&sim.gpu_plain[0], &sim.gpu_cudnn[0]] {
            assert_eq!(data.layer_type, "Data");
            assert_eq!(data.fwd.to_bits(), bits, "{}: {:e} s", data.name, data.fwd);
            assert_eq!(data.bwd, 0.0);
        }
    }
}

// ---------------- Figure 7 ----------------

#[test]
fn fig7_conv_pool_norm_dominate_cifar() {
    let sim = cifar_sim();
    for (i, times) in sim.cpu.iter().enumerate() {
        let total = total_time(times);
        let dom: f64 = times
            .iter()
            .filter(|l| matches!(l.layer_type.as_str(), "Convolution" | "Pooling" | "LRN"))
            .map(|l| l.total())
            .sum();
        assert!(
            dom / total > 0.8,
            "dominant share at {}T = {:.2}, paper ~0.85",
            sim.thread_counts[i],
            dom / total
        );
    }
}

// ---------------- Figure 8 ----------------

#[test]
fn fig8_cifar_layer_anchors() {
    let sim = cifar_sim();
    let sp8 = per_layer_speedups(sim.serial(), sim.cpu_at(8).unwrap());
    let sp16 = per_layer_speedups(sim.serial(), sim.cpu_at(16).unwrap());
    // conv1 ~5.9 @8T (paper 5.87), then NUMA bites.
    assert!((4.0..7.5).contains(&fwd(&sp8, "conv1")));
    // pool1 keeps scaling to 16T (paper 11x).
    assert!(fwd(&sp16, "pool1") > fwd(&sp8, "pool1"));
    // norm1 changes the distribution; conv2 is capped below conv3.
    assert!(fwd(&sp16, "conv2") < fwd(&sp16, "conv3"));
}

// ---------------- Figure 9 ----------------

#[test]
fn fig9_cifar_overall_speedups_in_paper_bands() {
    let sim = cifar_sim();
    let s8 = sim.cpu_speedup(8).unwrap();
    let s16 = sim.cpu_speedup(16).unwrap();
    assert!((4.5..7.5).contains(&s8), "CIFAR @8T {s8:.2}, paper ~6");
    assert!(
        (7.0..11.0).contains(&s16),
        "CIFAR @16T {s16:.2}, paper 8.83"
    );
    let plain = sim.gpu_plain_speedup();
    let cudnn = sim.gpu_cudnn_speedup();
    assert!((3.0..8.0).contains(&plain), "plain {plain:.2}, paper ~6");
    assert!((18.0..34.0).contains(&cudnn), "cuDNN {cudnn:.2}, paper ~27");
    // CIFAR orderings: coarse-grain@16 beats plain-GPU (paper: 8.83 vs ~6);
    // cuDNN beats everything.
    assert!(plain < s16);
    assert!(cudnn > s16);
}

#[test]
fn fig9_cifar_gpu_per_layer_orderings() {
    let sim = cifar_sim();
    let plain = per_layer_speedups(sim.serial(), &sim.gpu_plain);
    let cudnn = per_layer_speedups(sim.serial(), &sim.gpu_cudnn);
    // Plain convs are the bottleneck (paper 1.8x-6x).
    for c in ["conv1", "conv2", "conv3"] {
        assert!(
            (1.0..10.0).contains(&fwd(&plain, c)),
            "{c}: {}",
            fwd(&plain, c)
        );
    }
    // LRN is strong on the GPU (paper ~40x).
    assert!(fwd(&plain, "norm1") > 20.0);
    // cuDNN drops small-map pooling (paper pool3 42x -> 11.75x).
    assert!(fwd(&cudnn, "pool3") < fwd(&plain, "pool3"));
}

// ---------------- cross-figure sanity ----------------

#[test]
fn speedups_monotone_in_threads_overall() {
    for sim in [mnist_sim(), cifar_sim()] {
        let mut prev = 0.0;
        for &t in &sim.thread_counts {
            let s = sim.cpu_speedup(t).unwrap();
            assert!(s >= prev * 0.98, "overall speedup dipped at {t}T");
            prev = s;
        }
    }
}

#[test]
fn serial_simulation_matches_serial_definition() {
    let sim = mnist_sim();
    assert!((sim.cpu_speedup(1).unwrap() - 1.0).abs() < 1e-12);
}
