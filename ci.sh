#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, full test suite.
# Run from the repository root. Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings; the source rules: no-panic = the panic lints denied at the rt/sample/engine/tensor/serve/cli roots, each sanctioned site an #[expect]; unsafe-safety = undocumented_unsafe_blocks + missing_safety_doc; simd-isolation = forbid/deny(unsafe_code) and the tensor tier tokens; no-instant = disallowed-methods Instant::now in clippy.toml)"
cargo clippy --workspace --all-targets -- -D warnings -D clippy::undocumented_unsafe_blocks

echo "==> cargo doc (-D warnings: no dangling or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo test -q -p argo-check --features check (lock-order sanitizer + mini-loom: the seeded-bug corpus, zero-violation train/serve runs)"
cargo test -q -p argo-check --features check

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> CLI round trip: argo train writes --metrics-out/--trace-out and --save, argo report --metrics reads the JSONL back, argo train --load trains ShaDow on the saved dataset"
cli_dir="$(mktemp -d)"
target/release/argo train --scale 0.002 --epochs 3 --n-search 2 --save "$cli_dir/d.bin" \
    --metrics-out "$cli_dir/run.jsonl" --trace-out "$cli_dir/trace.json" >/dev/null
target/release/argo train --load "$cli_dir/d.bin" --sampler shadow --layers 3 --epochs 1 \
    --n-search 1 >/dev/null
target/release/argo report --metrics "$cli_dir/run.jsonl" >"$cli_dir/report.txt"
if ! grep -q "tuner convergence" "$cli_dir/report.txt"; then
    cat "$cli_dir/report.txt"
    echo "CLI round trip: the report of the written JSONL has no tuner convergence section" >&2
    exit 1
fi
rm -rf "$cli_dir"

echo "==> micro_kernels quick perf gate (blocked must not lose to serial; simd — the host's widest tier, avx512f or avx2+fma, named in the header — must not lose to the tier below, on the training step's own GEMM / dW / dX shapes too, on SAGE layer 0's fused forward (bias + ReLU) and stacked [dW_self; dW_neigh] and on two serving-size SAGE forwards (m = 9, 150), and the SpMM row kernel must reach 0.95x the scalar row step on spmm and spmm_transpose; the loader's layer-0 prologue, gather + aggregate vs one pass over the feature table, recorded, ungated)"
ARGO_BENCH_QUICK=1 cargo bench -q -p argo-bench --bench micro_kernels

echo "==> cargo test -q -p argo-tensor with SIMD force-disabled (scalar fallback path; the AVX-512 ≡ AVX2 bitwise pin still runs where the host has avx512f)"
ARGO_SIMD=off cargo test -q -p argo-tensor

echo "==> micro_sampling quick perf gate (scratch sampler must not lose to the pre-scratch reference; a batch's spans cost <= 5% of the batch; loader drain with and without the prologue — one pass over the feature table, no gathered copy — recorded, ungated)"
ARGO_BENCH_QUICK=1 cargo bench -q -p argo-bench --bench micro_sampling

echo "==> benchmark/ builds against the public API and runs the three training workloads — train_neighbor_sage (block batches, the loader's prologue), train_ddp_cached (two ranks; its with_cache_rows does nothing since the feature cache was deleted), train_shadow_gcn (subgraph batches) — and both serving workloads: serve_unique (the loader's prologue and forward_prepared over arena views) and serve_zipf (result-cache hits answered at admission; the only run whose cache_hits_match_first_response and responses_match_recompute checks cover that path) (quick: checks the outputs, enforces no bounds)"
cargo build --release --quiet --manifest-path benchmark/Cargo.toml
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- --workload train_neighbor_sage --quick
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- --workload train_ddp_cached --quick
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- --workload train_shadow_gcn --quick
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- --workload serve_unique --quick
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- --workload serve_zipf --quick

echo "==> cargo test -q -p argo-sample with SIMD force-disabled (arena assembly + gather on the scalar path)"
ARGO_SIMD=off cargo test -q -p argo-sample

echo "==> cargo test -q -p argo-nn with SIMD force-disabled (the needed-row cascade's bitwise pins on the scalar path)"
ARGO_SIMD=off cargo test -q -p argo-nn

echo "==> cargo test -q -p argo-engine with SIMD force-disabled (the loader-side aggregation and the model-side step must agree bitwise on the scalar tier too)"
ARGO_SIMD=off cargo test -q -p argo-engine

echo "==> cargo test -q (tier 1: default-members is the whole workspace; it runs the hot-path scan, argo-check's tests/hot_paths.rs: sampler-scratch, kernel-dispatch, feature-gather)"
cargo test -q

echo "CI OK"
