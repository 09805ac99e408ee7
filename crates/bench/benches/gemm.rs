//! The one GEMM kernel against the naive test oracle, at the matrix shapes
//! the two networks actually use (conv-layer `W x col` products).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmblas::{gemm, gemm_naive, Transpose};
use std::hint::black_box;

fn fill(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = mmblas::Pcg32::seeded(seed);
    (0..n)
        .map(|_| rng.uniform_range(-1.0, 1.0) as f32)
        .collect()
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    group.sample_size(10);
    // (m, n, k): LeNet conv1 (20 x 576 x 25), LeNet conv2 (50 x 64 x 500),
    // CIFAR conv2 (32 x 256 x 800).
    for &(name, m, n, k) in &[
        ("lenet_conv1", 20usize, 576usize, 25usize),
        ("lenet_conv2", 50, 64, 500),
        ("cifar_conv2", 32, 256, 800),
    ] {
        let a = fill(m * k, 1);
        let b = fill(k * n, 2);
        let mut cbuf = vec![0.0f32; m * n];
        group.bench_with_input(BenchmarkId::new("naive", name), &(), |bench, _| {
            bench.iter(|| {
                gemm_naive(
                    Transpose::No,
                    Transpose::No,
                    m,
                    n,
                    k,
                    1.0f32,
                    black_box(&a),
                    k,
                    black_box(&b),
                    n,
                    0.0,
                    &mut cbuf,
                    n,
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("gemm", name), &(), |bench, _| {
            bench.iter(|| {
                gemm(
                    Transpose::No,
                    Transpose::No,
                    m,
                    n,
                    k,
                    1.0f32,
                    black_box(&a),
                    k,
                    black_box(&b),
                    n,
                    0.0,
                    &mut cbuf,
                    n,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gemm);
criterion_main!(benches);
