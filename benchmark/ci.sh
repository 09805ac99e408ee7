#!/usr/bin/env bash
# Gate for the benchmark package: lint, build, unit tests (schema against
# BENCHMARK.json, oracles, compare), then every workload for one second in
# both modes — each run checks its own output against BENCHMARK.json and
# its own correctness oracles. Not wired into .github/ yet.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --release --offline --all-targets -- -D warnings
cargo test --release --offline

run() { cargo run --release --offline --quiet -- "$@" | tail -n 1 | grep -q '"correct": true'; }
for w in train_lenet train_cifar serve_unary serve_pipelined dist_lenet; do
    run --workload "$w" --seed 1 --seconds 1 --trace 0
done
run --workload serve_unary --seed 1 --seconds 1 --trace 1
echo "benchmark/ci.sh: ok"
