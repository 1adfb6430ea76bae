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

echo "==> micro_kernels quick perf gate (the scalar column must not lose to serial where it times different code: the fused SAGE forward vs concat + matmul, and the transposed SpMM gather vs the scatter at 0.95x; the GEMM, dW and dX rows have no scalar column, since the scalar tier is the reference loops serial times; simd — the host's widest tier, avx512f or avx2+fma, named in the header — must not lose to the tier below, on the training step's own GEMM / dW / dX shapes too (dX is the GEMM tile over the transposed weight), on the ShaDow-GCN classifier's narrow dX (m x 7 -> 128) and 128 x 7 dW, on SAGE layer 0's fused forward (bias + ReLU) and stacked [dW_self; dW_neigh] and on two serving-size SAGE forwards (m = 9, 150), and the SpMM row kernel must reach 0.95x the scalar row step on spmm and spmm_transpose; simd must beat serial by at most 20x on the 1024x256x128 GEMM and the 4544x64x128 dW, which holds only while the scalar tier's row forms run FMA (a row form's closure out of line makes every mul_add a libm call: ~160x); the loader's layer-0 prologue, gather + aggregate vs one pass over the feature table, recorded, ungated)"
ARGO_BENCH_QUICK=1 cargo bench -q -p argo-bench --bench micro_kernels

echo "==> cargo test -q -p argo-tensor with SIMD force-disabled (the scalar tier is the reference row forms, which spell the vector tiles' sequence with mul_add, compiled for the host's fma: the GEMM and dW run reference::gemm_rows_into / transpose_self_rows_into over the pool's output row windows (dW's rows, straddling the SAGE operand boundary), bitwise equal to the whole-matrix loops serial and pooled at 2, 3 and 4 workers, and dX is the row-form GEMM over the transposed weight, bitwise equal to reference::matmul over the explicit transpose for the full width and both SAGE windows, serial and pooled; a NaN or an inf behind an exact zero reaches the output; every_tier_equals_reference_bitwise pins the scalar tier and each vector tier the host has to the reference on the GEMM (one and two operands, each epilogue), dW (narrow columns, windows straddling the SAGE boundary) and dX, and the AVX-512 ≡ AVX2 bitwise pin still runs where the host has avx512f)"
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

echo "==> cargo test -q -p argo-nn with SIMD force-disabled (the needed-row cascade's bitwise pins on the scalar path; a loader-prepared ShaDow step — layer 0, cascade and transposes built on the worker from the feature table — equals train_step_gathered, the adapter that builds them from gathered rows in the model's ring, at 1, 2 and 4 workers; every_tier_trains_the_same_bits, whose two policies both run the scalar tier here; every entry point runs the values the sampler fused, and refuses a batch fused with another normalization)"
ARGO_SIMD=off cargo test -q -p argo-nn

echo "==> cargo test -q -p argo-engine with SIMD force-disabled (the engine's epoch, whose layer 0 the loader's prologue reads from the feature table, and the replay through train_step_gathered, which aggregates gathered rows in the model's ring, must agree bitwise on the scalar tier too, and n_samp_and_n_train_change_no_trained_bit runs on the scalar tier: two epochs at Config(1,1,1), (1,2,1), (1,1,2), (1,1,3) give equal losses and parameters bit for bit, SAGE/Neighbor and GCN/ShaDow; the scalar tier trains the vector tiers' bits, so these are the bits of the default run too; evaluate_accuracy samples with the model's fused normalization, runs the serving recipe (PreparedInput::prepare + forward_prepared) and keeps its recorded bits)"
ARGO_SIMD=off cargo test -q -p argo-engine

echo "==> cargo test -q --test allocations with SIMD force-disabled (the counting allocator's pins on the scalar tier: a warm sample_into, prologue with its ShaDow[10,5]x3 cascade, the loader's transpose build, training step — prepared, over a batch arena it has not seen, and through the train_step_gathered and forward_gathered_view adapters — and dispatch kernel allocate nothing; two warm loader epochs on one InputRing, of N and 2N batches, make the same allocations over every thread: the workers sample into the arenas the consumer hands back and send them, and copy no batch out)"
ARGO_SIMD=off cargo test -q --test allocations

echo "==> cargo test -q (tier 1: default-members is the whole workspace; it runs the hot-path scan, argo-check's tests/hot_paths.rs: sampler-scratch (the cascade's file too), kernel-dispatch, feature-gather, carried-transposes, carried-batch (no .to_owned() in the loader, nn, engine or serve: the step runs the arena the loader's worker sent); and the allocation pins, tests/allocations.rs: zero allocations in a warm sample_into, PreparedInput::prepare with its ShaDow[10,5]x3 cascade, the loader's transpose build, prepare_for_training, train_step_prepared, the train_step_gathered and forward_gathered_view adapters (both tasks, both tiers) and the five dispatch kernels, four named ones per serve query, and as many allocations in a warm loader epoch of 2N batches as in one of N (counted over every thread); tests/allocations_pooled.rs counts a warm pooled weight gradient on every thread: no allocation grows with k x n, and it makes exactly a warm pooled GEMM's allocations; the n_train bitwise pin, engine's n_samp_and_n_train_change_no_trained_bit: two epochs at n_samp 1-2 and n_train 1-3 train the same bits; the DDP rerun pin, engine's three_and_four_rank_reruns_train_the_same_bits: the all-reduce sums each element in ascending total_cmp order, so two epochs at Config(3,1,1) and (4,1,1) rerun bit for bit; the tier pin, nn's every_tier_trains_the_same_bits: four prepared steps + Adam on the vector tier and the scalar tier train the same losses and parameters, SAGE/Neighbor and GCN/ShaDow at depths 2-3; tests/allocations_epoch.rs prints a warm engine epoch's allocations per batch by source, the carried cascades and transposes among them)"
cargo test -q

echo "CI OK"
