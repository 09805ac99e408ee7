#!/usr/bin/env bash
# Regenerate every table/figure of the paper plus all extension experiments.
# Outputs go to results/ (text reports + plot-ready CSV).
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release -p cgdnn-bench

mkdir -p results
BINS=(
  fig4_mnist_layer_time
  fig5_mnist_layer_scalability
  fig6_mnist_overall
  fig7_cifar_layer_time
  fig8_cifar_layer_scalability
  fig9_cifar_overall
  e7_memory_overhead
  e8_convergence_invariance
  e9_reduction_ablation
  e10_coalescing_ablation
  e12_model_ablation
  e14_batch_sweep
  e16_serving_throughput
  calibrate
)
for b in "${BINS[@]}"; do
  echo "== $b"
  ./target/release/"$b" | tee "results/$b.txt"
done
./target/release/export_csv
echo "all experiment outputs are under results/"
