#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, full test suite.
# Run from the repository root. Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy (-D clippy::too_many_arguments)"
cargo clippy --workspace --all-targets -- -D clippy::too_many_arguments

echo "==> cargo doc (-D warnings: no dangling or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> argo-lint (static analysis: unsafe/SAFETY, no-panic, no-instant, sampler-scratch, feature-gather)"
cargo run -q -p argo-check --bin argo-lint

echo "==> cargo test -q -p argo-check --features check (lock-order sanitizer + happens-before race detector: both seeded-bug corpora, zero-report train/serve runs; mini-loom)"
cargo test -q -p argo-check --features check

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> micro_kernels quick perf gate (blocked must not lose to serial; simd must not lose to the tier below)"
ARGO_BENCH_QUICK=1 cargo bench -q -p argo-bench --bench micro_kernels

echo "==> cargo test -q -p argo-tensor with SIMD force-disabled (scalar fallback path)"
ARGO_SIMD=off cargo test -q -p argo-tensor

echo "==> micro_sampling quick perf gate (scratch sampler must not lose to the pre-scratch reference; a batch's spans cost <= 5% of the batch; loader drain with and without the prologue recorded, ungated)"
ARGO_BENCH_QUICK=1 cargo bench -q -p argo-bench --bench micro_sampling

echo "==> micro_serving quick perf gate (tuned p99 must not lose to the library default; warm result-cache hit rate > 0.9)"
ARGO_BENCH_QUICK=1 cargo bench -q -p argo-bench --bench micro_serving

echo "==> benchmark/ builds against the public API and runs the three training workloads — train_neighbor_sage (block batches, loader prologue uncached), train_ddp_cached (two ranks, prologue through the cache), train_shadow_gcn (subgraph batches) — and both serving workloads: serve_unique (forward_gathered_view over arena views) and serve_zipf (result-cache hits answered at admission; the only run whose cache_hits_match_first_response and responses_match_recompute checks cover that path) (quick: checks the outputs, enforces no bounds)"
cargo build --release --quiet --manifest-path benchmark/Cargo.toml
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- --workload train_neighbor_sage --quick
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- --workload train_ddp_cached --quick
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- --workload train_shadow_gcn --quick
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- --workload serve_unique --quick
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- --workload serve_zipf --quick

echo "==> cargo test -q -p argo-sample"
cargo test -q -p argo-sample

echo "==> cargo test -q -p argo-sample with SIMD force-disabled (arena assembly + gather on the scalar path)"
ARGO_SIMD=off cargo test -q -p argo-sample

echo "==> cargo test -q -p argo-nn with SIMD force-disabled (the needed-row cascade's bitwise pins on the scalar path)"
ARGO_SIMD=off cargo test -q -p argo-nn

echo "==> cargo test -q -p argo-engine with SIMD force-disabled (the loader-side aggregation and the model-side step must agree bitwise on the scalar tier too)"
ARGO_SIMD=off cargo test -q -p argo-engine

echo "==> cargo test -q -p argo-serve"
cargo test -q -p argo-serve

echo "==> cargo test -q (tier 1: default-members is the whole workspace)"
cargo test -q

echo "CI OK"
