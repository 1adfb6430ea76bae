//! Micro-benchmarks of the training kernels: the naive oracle vs the two
//! tiers vs the pool for every matmul/SpMM flavor, the loader's layer-0
//! prologue on a Reddit x0.1 batch (gather + aggregate vs one pass over the
//! feature table), plus the end-to-end `train_step_gathered` on a 4096-row
//! neighbor batch (serial vs pool) and on a ShaDow[10,5] subgraph batch
//! under a 3-layer GCN (all three reported, never gated).
//!
//! Emits machine-readable `BENCH_kernels.json` at the repository root
//! (GFLOP/s and speedup-vs-serial per kernel and shape, and its
//! provenance: commit, rustc, CPU model, vCPUs, date) so future PRs can diff
//! kernel performance against this baseline. Columns: `serial` is
//! `argo_tensor::reference` (the naive loops), `scalar` the scalar tier
//! (`force_scalar()`), `simd` the default tier run inline (AVX-512 or
//! AVX2+FMA on hosts that have it, scalar otherwise; `simd_tier` in the JSON
//! names which), and `pool` the default policy
//! handed a pool of one worker per hardware thread (`pool_workers` in the
//! header and the provenance) — what production routes. A row whose shape
//! the dispatch constants keep inline has no `pool` column: it would time
//! the `simd` kernel a second time. The scalar tier's GEMM, weight gradient
//! and input gradient (the GEMM over `Wᵀ`) *are* the reference loops, so
//! the `gemm`, `grad_weights`, `grad_input` and `sage_grad_weights` rows
//! have no `scalar` column: it would time `serial` again. The rows that
//! keep it time different code: the fused SAGE GEMM (windowed GEMM vs
//! concat + matmul) and the transposed SpMM (a gather vs the scatter).
//!
//! `ARGO_BENCH_QUICK=1` switches to a fast CI mode: a smaller train-step
//! batch, and a sanity perf gate — the process exits non-zero if a gated
//! scalar column is slower than its naive serial counterpart (generous 1.0×
//! threshold; 0.95× for the transposed SpMM), or if a SIMD kernel loses to
//! the tier below it (1.0× floor for the GEMM family, [`GATHER_SIMD_FLOOR`]
//! for the memory-bound SpMM gathers; pool speedups are *recorded* but never
//! gated, since CI may have a single core), or if `simd` beats `serial` by
//! more than [`FMA_SERIAL_CEILING`] on the GEMM and dW rows that carry it.
//! A row that reads under a floor is timed a second time before it fails
//! ([`time_gated`]).

use std::hint::black_box;
use std::time::Instant;

use argo_graph::features::Features;
use argo_graph::generators::power_law;
use argo_nn::{Arch, Gnn};
use argo_rt::json::Json;
use argo_rt::{SeedSequence, ThreadPool};
use argo_sample::batch::Normalization;
use argo_sample::{NeighborSampler, SampleRun, Sampler, SamplerScratch, ShadowSampler};
use argo_tensor::{reference, DispatchPolicy, Epilogue, Matrix, SparseMatrix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// [`time_min`] of each closure, run round-robin: every round times each
/// variant once. The quick-mode gates compare the variants of one row, and
/// on a shared host a burst of noise then costs each variant one sample
/// instead of costing one variant all of them.
fn time_min_each<const N: usize>(samples: usize, fs: &mut [&mut dyn FnMut(); N]) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for round in 0..=samples {
        for (f, best) in fs.iter_mut().zip(&mut best) {
            let t = Instant::now();
            f();
            // Round 0 is the warmup.
            if round > 0 {
                *best = best.min(t.elapsed().as_secs_f64());
            }
        }
    }
    best
}

/// SIMD-vs-scalar floor of the two SpMM gather rows. It was 0.80 while the
/// vector row step loaded and stored the output row once per entry: that
/// step ran 0.88–1.3x the scalar one depending on where the allocator put
/// the output (a 32-byte-aligned row or a straddling one). The row kernel
/// now holds a 64-column block of the output row in registers across the
/// row's entries and stores it once, and read 1.81–2.13x (spmm) and
/// 1.82–2.29x (spmm_transpose) over five quick runs on a 2-vCPU AVX-512
/// Xeon, so the floor is back at 0.95: parity at worst, as for any tier.
const GATHER_SIMD_FLOOR: f64 = 0.95;

/// Quick-mode ceiling on `simd`'s speedup over `serial` for the
/// 1024×256×128 GEMM and the 4544×64×128 weight gradient. `serial` is the
/// reference row form, the scalar tier's own code: its `mul_add`s are
/// compiled for the host's FMA inside `simd::with_fma`, which holds only
/// while the row form's closure is `#[inline(always)]`. Those rows read
/// about 6.9× and 5.0× when it is; a build whose closure went out of line,
/// where every `mul_add` is a libm call, read about 160×. Not re-timed: a
/// disturbed sample only lowers the ratio by slowing `simd`, and it takes
/// a tripled `serial` minimum to cross the ceiling.
const FMA_SERIAL_CEILING: f64 = 20.0;

/// [`time_min_each`] for a gated row: variant `i` must reach `floors[i]`
/// times the speed of variant `i - 1`. Noise only ever adds time, so a
/// reading under a floor is either a slower kernel or a disturbed sample. A
/// sub-floor row is therefore timed once more, with four times the
/// interleaved samples, both readings are printed, and the gate judges the
/// per-variant minimum of the two: a real regression is still under its floor
/// there, a disturbed sample is not.
fn time_gated<const N: usize>(
    name: &str,
    samples: usize,
    mut fs: [&mut dyn FnMut(); N],
    floors: [Option<f64>; N],
) -> [f64; N] {
    let under = |t: &[f64; N]| (1..N).any(|i| floors[i].is_some_and(|f| t[i - 1] / t[i] < f));
    let first = time_min_each(samples, &mut fs);
    if !under(&first) {
        return first;
    }
    let second = time_min_each(4 * samples, &mut fs);
    let ms = |t: &[f64; N]| t.map(|s| format!("{:.3}", s * 1e3)).join(" / ");
    eprintln!(
        "re-timed {name}: first reading {} ms was under a gate floor, second reading {} ms",
        ms(&first),
        ms(&second)
    );
    std::array::from_fn(|i| first[i].min(second[i]))
}

/// Minimum wall-clock seconds across `samples` runs (after one warmup).
fn time_min<R>(samples: usize, mut f: impl FnMut() -> R) -> f64 {
    let [best] = time_min_each(samples, &mut [&mut || drop(black_box(f()))]);
    best
}

fn random_csr(rows: usize, cols: usize, nnz_per_row: usize) -> SparseMatrix {
    let mut indptr = vec![0u32];
    let mut indices = Vec::new();
    let mut vals = Vec::new();
    for i in 0..rows {
        for k in 0..nnz_per_row {
            indices.push(((i * 31 + k * 97) % cols) as u32);
            vals.push(((i + k) % 7) as f32 * 0.2 + 0.1);
        }
        indptr.push(indices.len() as u32);
    }
    SparseMatrix::new(rows, cols, indptr, indices, Some(vals))
}

struct KernelRow {
    name: &'static str,
    shape: String,
    flops: f64,
    serial_s: f64,
    /// The scalar tier, on the rows where it runs different code from
    /// `serial`.
    scalar_s: Option<f64>,
    simd_s: Option<f64>,
    /// `None` when the dispatch constants keep this shape off the pool.
    pool_s: Option<f64>,
    /// Quick-mode perf-gate floor for scalar-vs-serial speedup, when
    /// gated: 1.0 for the fused SAGE GEMM, 0.95 for the CSC transpose,
    /// which is parity-by-design on one core (its win is parallelizability)
    /// and only needs to not regress.
    scalar_gate_min: Option<f64>,
    /// Quick-mode floor for SIMD vs the tier directly below it (scalar
    /// when the row has it, else serial): 1.0 for the FMA GEMM family,
    /// [`GATHER_SIMD_FLOOR`] for the memory-bound SpMM gathers.
    simd_gate_min: Option<f64>,
    /// Quick-mode ceiling on SIMD vs serial: [`FMA_SERIAL_CEILING`] where
    /// gated.
    serial_gate_max: Option<f64>,
}

impl KernelRow {
    /// The tier the SIMD column is gated against: the scalar column when
    /// the row has one, naive serial otherwise.
    fn simd_baseline_s(&self) -> f64 {
        self.scalar_s.unwrap_or(self.serial_s)
    }

    fn to_json(&self) -> Json {
        let gflops = |s: f64| self.flops / s / 1e9;
        let mut fields = vec![
            ("name", Json::str(self.name)),
            ("shape", Json::str(&self.shape)),
            ("flops", Json::Num(self.flops)),
            ("serial_ms", Json::Num(self.serial_s * 1e3)),
            ("serial_gflops", Json::Num(gflops(self.serial_s))),
        ];
        if let Some(p) = self.pool_s {
            fields.push(("pool_ms", Json::Num(p * 1e3)));
            fields.push(("pool_gflops", Json::Num(gflops(p))));
            fields.push(("speedup_pool", Json::Num(self.serial_s / p)));
        }
        if let Some(c) = self.scalar_s {
            fields.push(("scalar_ms", Json::Num(c * 1e3)));
            fields.push(("scalar_gflops", Json::Num(gflops(c))));
            fields.push(("speedup_scalar", Json::Num(self.serial_s / c)));
        }
        if let Some(s) = self.simd_s {
            fields.push(("simd_ms", Json::Num(s * 1e3)));
            fields.push(("simd_gflops", Json::Num(gflops(s))));
            fields.push(("speedup_simd", Json::Num(self.serial_s / s)));
        }
        Json::obj(fields.iter().map(|(k, v)| (*k, v.clone())).collect())
    }
}

/// Builds a 2-layer neighbor-sampled batch with `n_seeds` destination rows
/// and synthetic 64-dim features, for the end-to-end train-step benchmark.
fn train_fixture(
    n_seeds: usize,
) -> (
    argo_sample::batch::SampledBatch,
    Matrix,
    Vec<u32>,
    usize, // feature dim
) {
    let nodes = (n_seeds * 4).max(8_192);
    let graph = power_law(nodes, nodes * 10, 0.8, 5);
    let seeds: Vec<u32> = (0..n_seeds as u32).collect();
    let sampler = NeighborSampler::new(vec![10, 5]);
    let rng = &mut SmallRng::seed_from_u64(3);
    let batch = sampler.sample(&graph, &seeds, Normalization::Mean, rng);
    let dim = 64usize;
    let mut rng = SmallRng::seed_from_u64(4);
    let feats = Features::new(
        (0..nodes * dim).map(|_| rng.gen::<f32>() - 0.5).collect(),
        dim,
    );
    let input_ids = batch.input_nodes().to_vec();
    let gathered = feats.gather(&input_ids);
    let input = Matrix::from_vec(input_ids.len(), dim, gathered.data().to_vec());
    let labels: Vec<u32> = (0..nodes).map(|_| rng.gen_range(0..8)).collect();
    (batch, input, labels, dim)
}

fn main() {
    let quick = std::env::var("ARGO_BENCH_QUICK").is_ok_and(|v| v == "1");
    // Every gated kernel runs a few ms at most, so a single noisy scheduler
    // quantum can double one sample; min-of-2 is not enough to reject that
    // on a shared CI core, and more samples cost almost nothing.
    let samples = if quick { 8 } else { 5 };
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = ThreadPool::new("bench", host_threads);
    // `policy` is the dispatch default (what production routes), `scalar`
    // pins the scalar tier for the scalar column.
    let policy = DispatchPolicy::default();
    let scalar = policy.force_scalar();
    // The pool column of a dense / sparse row, when the policy uses the pool
    // at that shape.
    let dense_pool = |rows: usize| policy.goes_parallel(rows, Some(&pool)).then_some(&pool);
    let sparse_pool = |rows: usize, work: usize| {
        policy
            .sparse_goes_parallel(rows, work, Some(&pool))
            .then_some(&pool)
    };
    let mut rows: Vec<KernelRow> = Vec::new();

    // -- GEMM: small and large shapes, and the training step's forward GEMM
    // (layer 1 of `train_neighbor_sage`). The floor: simd vs serial, which
    // is the scalar tier's loop. --
    for (m, k, n, simd_gate_min, serial_gate_max) in [
        (256, 64, 32, None, None),
        (1024, 256, 128, Some(1.0), Some(FMA_SERIAL_CEILING)),
        (4566, 64, 128, Some(1.0), None),
    ] {
        let a = Matrix::xavier(m, k, 1);
        let b = Matrix::xavier(k, n, 2);
        let [serial, simd] = time_gated(
            "gemm",
            samples,
            [
                &mut || drop(black_box(reference::matmul(&a, &b))),
                &mut || drop(black_box(policy.gemm(&a, &b, None))),
            ],
            [None, simd_gate_min],
        );
        let pooled = dense_pool(m).map(|p| time_min(samples, || policy.gemm(&a, &b, Some(p))));
        rows.push(KernelRow {
            name: "gemm",
            shape: format!("{m}x{k}x{n}"),
            flops: 2.0 * (m * k * n) as f64,
            serial_s: serial,
            scalar_s: None,
            simd_s: Some(simd),
            pool_s: pooled,
            scalar_gate_min: None,
            simd_gate_min,
            serial_gate_max,
        });
    }

    // -- Weight gradient dW = Xᵀ dY: a reduction over 4096 rows, the
    // training step's over 4544, and the ShaDow-GCN classifier's narrow
    // 128 × 7 over a 1751-row subgraph. --
    for (m, k, n, serial_gate_max) in [
        (4096, 64, 32, None),
        (4544, 64, 128, Some(FMA_SERIAL_CEILING)),
        (1751, 128, 7, None),
    ] {
        let x = Matrix::xavier(m, k, 3);
        let g = Matrix::xavier(m, n, 4);
        let [serial, simd] = time_gated(
            "grad_weights",
            samples,
            [
                &mut || drop(black_box(reference::matmul_transpose_self(&x, &g))),
                &mut || drop(black_box(policy.grad_weights(&x, &g, None))),
            ],
            [None, Some(1.0)],
        );
        let pooled =
            dense_pool(m).map(|p| time_min(samples, || policy.grad_weights(&x, &g, Some(p))));
        rows.push(KernelRow {
            name: "grad_weights",
            shape: format!("{m}x{k}x{n}"),
            flops: 2.0 * (m * k * n) as f64,
            serial_s: serial,
            scalar_s: None,
            simd_s: Some(simd),
            pool_s: pooled,
            scalar_gate_min: None,
            simd_gate_min: Some(1.0),
            serial_gate_max,
        });
    }

    // -- Input gradient dX = dY Wᵀ, the training step's, and the ShaDow-GCN
    // classifier's (m × 7 → 128): serial is the GEMM over the explicit
    // transpose, made outside the timed region. --
    for (m, k, n) in [(4096, 64, 32), (1751, 128, 128), (1751, 128, 7)] {
        let g = Matrix::xavier(m, n, 5);
        let w = Matrix::xavier(k, n, 6);
        let wt = w.transpose();
        let [serial, simd] = time_gated(
            "grad_input",
            samples,
            [
                &mut || drop(black_box(reference::matmul(&g, &wt))),
                &mut || drop(black_box(policy.grad_input(&g, &w, 0..k, None))),
            ],
            [None, Some(1.0)],
        );
        let pooled =
            dense_pool(m).map(|p| time_min(samples, || policy.grad_input(&g, &w, 0..k, Some(p))));
        rows.push(KernelRow {
            name: "grad_input",
            shape: format!("{m}x{n}x{k}"),
            flops: 2.0 * (m * k * n) as f64,
            serial_s: serial,
            scalar_s: None,
            simd_s: Some(simd),
            pool_s: pooled,
            scalar_gate_min: None,
            simd_gate_min: Some(1.0),
            serial_gate_max: None,
        });
    }

    // -- SpMM (forward aggregation): the scalar row step is the serial
    // column. --
    let adj = random_csr(4096, 4096, 16);
    // 4096 x 16 x 64 ≈ 4.2 M multiply-adds: below the sparse work constant,
    // so neither SpMM row has a pool column.
    let spmm_pool = sparse_pool(4096, adj.nnz() * 64);
    {
        let h = Matrix::xavier(4096, 64, 7);
        // Serial baseline is the gather with the scalar row step; the simd
        // column is the same gather with the vectorized one. Both write a
        // buffer made once, as a training step's do: a fresh 1 MB output per
        // call adds what the allocator's state at that moment makes it cost.
        let (mut out_scalar, mut out_simd) = (Matrix::zeros(4096, 64), Matrix::zeros(4096, 64));
        let [serial, simd] = time_gated(
            "spmm",
            samples,
            [
                &mut || scalar.aggregate_into(&adj, &h, None, black_box(&mut out_scalar)),
                &mut || policy.aggregate_into(&adj, &h, None, black_box(&mut out_simd)),
            ],
            [None, Some(GATHER_SIMD_FLOOR)],
        );
        let pooled = spmm_pool.map(|p| time_min(samples, || policy.aggregate(&adj, &h, Some(p))));
        rows.push(KernelRow {
            name: "spmm",
            shape: "4096x4096_nnz16_d64".to_string(),
            flops: 2.0 * (adj.nnz() * 64) as f64,
            serial_s: serial,
            scalar_s: None,
            simd_s: Some(simd),
            pool_s: pooled,
            scalar_gate_min: None,
            simd_gate_min: Some(GATHER_SIMD_FLOOR),
            serial_gate_max: None,
        });
    }

    // -- Transposed SpMM: naive scatter vs the gather over the transpose. --
    {
        let g = Matrix::xavier(4096, 64, 8);
        // Build the transpose once, outside the timed region: the rows time
        // the gather over it, not the counting sort.
        let mut adj_t = SparseMatrix::default();
        adj.transpose_into(&mut adj_t);
        let (mut out_scalar, mut out_simd) = (Matrix::zeros(4096, 64), Matrix::zeros(4096, 64));
        let [serial, csc, simd] = time_gated(
            "spmm_transpose",
            samples,
            [
                &mut || drop(black_box(reference::spmm_transpose(&adj, &g))),
                &mut || scalar.aggregate_into(&adj_t, &g, None, black_box(&mut out_scalar)),
                &mut || policy.aggregate_into(&adj_t, &g, None, black_box(&mut out_simd)),
            ],
            [None, Some(0.95), Some(GATHER_SIMD_FLOOR)],
        );
        let pooled = spmm_pool.map(|p| time_min(samples, || policy.aggregate(&adj_t, &g, Some(p))));
        rows.push(KernelRow {
            name: "spmm_transpose",
            shape: "4096x4096_nnz16_d64".to_string(),
            flops: 2.0 * (adj.nnz() * 64) as f64,
            serial_s: serial,
            scalar_s: Some(csc),
            simd_s: Some(simd),
            pool_s: pooled,
            scalar_gate_min: Some(0.95),
            simd_gate_min: Some(GATHER_SIMD_FLOOR),
            serial_gate_max: None,
        });
    }

    // -- The loader's layer-0 prologue on a `train_neighbor_sage` batch:
    // Neighbor[15,10] from 512 shuffled seeds of Reddit x0.1, mean-normalized,
    // F = 64.
    // Two ways to `Â₀·X[input_nodes]`: gather the input rows into a buffer,
    // then aggregate it (the reference, `PreparedInput::aggregate`), or one
    // pass over the feature table through the ids (what the loader does).
    // Reported, never gated. --
    let reddit = argo_graph::datasets::REDDIT.synthesize(0.1, 1);
    let layer0 = {
        // A batch of the shuffled train nodes, as the engine draws them.
        let mut seeds =
            argo_graph::partition::random_partition(&reddit.train_nodes, 1, 7).remove(0);
        seeds.truncate(512);
        let mut scratch = SamplerScratch::new();
        let run = SampleRun::new(SeedSequence::new(3), &mut scratch).with_norm(Normalization::Mean);
        NeighborSampler::new(vec![15, 10])
            .sample_into(&reddit.graph, &seeds, run)
            .to_owned()
    };
    let (adj0, ids0, f0) = (layer0.layer_adj(0), layer0.input_nodes(), reddit.feat_dim());
    let mut gathered0 = Matrix::zeros(ids0.len(), f0);
    let (mut agg_gathered, mut agg_table) = (
        Matrix::zeros(adj0.rows(), f0),
        Matrix::zeros(adj0.rows(), f0),
    );
    let [gather_then_aggregate_s, table_pass_s] = time_min_each(
        samples,
        &mut [
            &mut || {
                reddit.features.gather_into(ids0, gathered0.data_mut());
                policy.aggregate_into(adj0, &gathered0, None, black_box(&mut agg_gathered));
            },
            &mut || {
                let (table, out) = (reddit.features.data(), black_box(&mut agg_table));
                policy.aggregate_table_into(&adj0.view(), table, ids0, None, out);
            },
        ],
    );
    let layer0_shape = format!("{}x{}_nnz{}_d{f0}", adj0.rows(), adj0.cols(), adj0.nnz());

    // -- Fused GraphSAGE GEMM (self rows and aggregation against the stacked
    // weight, bias + ReLU) vs the materialized concat reference: the
    // 4096-row shape, `train_neighbor_sage`'s layer 0 (4600 rows, 64‖64 ->
    // 128) and two serving-size batches at its widths. Scalar vs serial is
    // gated at the first shape only. --
    for (n_dst, f, o, gate_min) in [
        (4096, 64, 32, Some(1.0)),
        (4600, 64, 128, None),
        (150, 64, 128, None),
        (9, 64, 128, None),
    ] {
        let h = Matrix::xavier(n_dst + 1024, f, 9);
        let agg = Matrix::xavier(n_dst, f, 10);
        let w = Matrix::xavier(2 * f, o, 11);
        let bias = vec![0.01f32; o];
        let ids: Vec<u32> = (0..n_dst as u32).collect();
        let epi = Epilogue::bias_relu(&bias);
        let [serial, scalar_s, simd] = time_gated(
            "sage_fused_gemm",
            samples,
            [
                &mut || {
                    // Reference path: gather dst rows, concat, GEMM, then
                    // bias+ReLU.
                    let mut z = reference::matmul(&h.gather_rows(&ids).concat_cols(&agg), &w);
                    argo_tensor::ops::add_bias(&mut z, &bias);
                    black_box(argo_tensor::ops::relu_inplace(&mut z));
                },
                &mut || {
                    let mut out = Matrix::zeros(n_dst, o);
                    scalar.sage_gemm_into(&h, &agg, &w, epi, None, &mut out);
                    black_box(out);
                },
                &mut || {
                    let mut out = Matrix::zeros(n_dst, o);
                    policy.sage_gemm_into(&h, &agg, &w, epi, None, &mut out);
                    black_box(out);
                },
            ],
            [None, gate_min, Some(1.0)],
        );
        let pooled = dense_pool(n_dst).map(|p| {
            time_min(samples, || {
                let mut out = Matrix::zeros(n_dst, o);
                policy.sage_gemm_into(&h, &agg, &w, epi, Some(p), &mut out)
            })
        });
        rows.push(KernelRow {
            name: "sage_fused_gemm",
            shape: format!("{n_dst}x{}x{o}", 2 * f),
            flops: 2.0 * (n_dst * 2 * f * o) as f64,
            serial_s: serial,
            scalar_s: Some(scalar_s),
            simd_s: Some(simd),
            pool_s: pooled,
            scalar_gate_min: gate_min,
            simd_gate_min: Some(1.0),
            serial_gate_max: None,
        });
    }

    // -- The stacked GraphSAGE weight gradient `[dW_self; dW_neigh]` of
    // `train_neighbor_sage`'s layer 0 vs the concat reference (the scalar
    // tier runs the same loops over the two operands in turn). --
    {
        let (n_dst, f, o) = (4600, 64, 128);
        let h = Matrix::xavier(n_dst + 1024, f, 12);
        let agg = Matrix::xavier(n_dst, f, 13);
        let g = Matrix::xavier(n_dst, o, 14);
        let ids: Vec<u32> = (0..n_dst as u32).collect();
        let mut dw_simd = Matrix::zeros(2 * f, o);
        let [serial, simd] = time_gated(
            "sage_grad_weights",
            samples,
            [
                &mut || {
                    let cat = h.gather_rows(&ids).concat_cols(&agg);
                    black_box(reference::matmul_transpose_self(&cat, &g));
                },
                &mut || policy.grad_weights_into(&[&h, &agg], &g, None, black_box(&mut dw_simd)),
            ],
            [None, Some(1.0)],
        );
        let mut dw_pool = Matrix::zeros(2 * f, o);
        let pooled = dense_pool(n_dst).map(|p| {
            time_min(samples, || {
                policy.grad_weights_into(&[&h, &agg], &g, Some(p), &mut dw_pool)
            })
        });
        rows.push(KernelRow {
            name: "sage_grad_weights",
            shape: format!("{n_dst}x{}x{o}", 2 * f),
            flops: 2.0 * (n_dst * 2 * f * o) as f64,
            serial_s: serial,
            scalar_s: None,
            simd_s: Some(simd),
            pool_s: pooled,
            scalar_gate_min: None,
            simd_gate_min: Some(1.0),
            serial_gate_max: None,
        });
    }

    // -- End-to-end: train_step_gathered, serial vs the pool. --
    let step_rows = if quick { 1024 } else { 4096 };
    let (batch, input, labels, dim) = train_fixture(step_rows);
    let step_samples = if quick { 2 } else { 3 };
    let mut model = Gnn::new(Arch::Sage, dim, 32, 8, 2, 1);
    let serial_step = time_min(step_samples, || {
        model.train_step_gathered(&batch, input.clone(), &labels, None)
    });
    let pool_step = time_min(step_samples, || {
        model.train_step_gathered(&batch, input.clone(), &labels, Some(&pool))
    });
    let step_speedup = serial_step / pool_step;

    // -- The referee's `train_shadow_gcn` step: ShaDow[10,5] subgraph of 256
    // seeds on Flickr x0.1, 3-layer GCN-128, normalization fused by the
    // sampler as the engine's loader does. Reported only. --
    let flickr = argo_graph::datasets::FLICKR.synthesize(0.1, 1);
    let seeds: Vec<u32> = flickr.train_nodes.iter().copied().take(256).collect();
    let mut scratch = SamplerScratch::new();
    let run = SampleRun::new(SeedSequence::new(3), &mut scratch).with_norm(Normalization::Gcn);
    let shadow = ShadowSampler::new(vec![10, 5], 3)
        .sample_into(&flickr.graph, &seeds, run)
        .to_owned();
    let ids = shadow.input_nodes();
    let mut shadow_input = Matrix::zeros(ids.len(), flickr.feat_dim());
    flickr.features.gather_into(ids, shadow_input.data_mut());
    let mut gcn = Gnn::new(Arch::Gcn, flickr.feat_dim(), 128, flickr.num_classes, 3, 1);
    let shadow_step = time_min(step_samples, || {
        gcn.train_step_gathered(&shadow, &shadow_input, &flickr.labels, None)
    });

    // -- Report. --
    let tier = argo_tensor::simd_tier();
    println!(
        "=== micro_kernels (quick={quick}, host_threads={host_threads}, \
         pool_workers={host_threads}, simd tier {tier}) ===\n"
    );
    println!(
        "{:<18} {:<22} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8}",
        "kernel", "shape", "serial ms", "scalar", "simd", "pool", "scal x", "simd x", "pool x"
    );
    for r in &rows {
        println!(
            "{:<18} {:<22} {:>10.3} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8}",
            r.name,
            r.shape,
            r.serial_s * 1e3,
            r.scalar_s
                .map_or("-".to_string(), |c| format!("{:.3}", c * 1e3)),
            r.simd_s
                .map_or("-".to_string(), |s| format!("{:.3}", s * 1e3)),
            r.pool_s
                .map_or("-".to_string(), |p| format!("{:.3}", p * 1e3)),
            r.scalar_s
                .map_or("-".to_string(), |c| format!("{:.2}", r.serial_s / c)),
            r.simd_s
                .map_or("-".to_string(), |s| format!("{:.2}", r.serial_s / s)),
            r.pool_s
                .map_or("-".to_string(), |p| format!("{:.2}", r.serial_s / p)),
        );
    }
    println!(
        "\nloader layer 0 ({layer0_shape}): gather + aggregate {:.3} ms, \
         one pass over the feature table {:.3} ms ({:.2}x)",
        gather_then_aggregate_s * 1e3,
        table_pass_s * 1e3,
        gather_then_aggregate_s / table_pass_s
    );
    println!(
        "train_step_gathered ({step_rows} seeds, 2-layer SAGE): \
         serial {:.1} ms, {host_threads}-worker pool {:.1} ms ({step_speedup:.2}x)",
        serial_step * 1e3,
        pool_step * 1e3
    );
    println!(
        "train_step_gathered ({} seeds in a {}-node ShaDow[10,5] subgraph, 3-layer GCN-128): \
         serial {:.1} ms",
        seeds.len(),
        ids.len(),
        shadow_step * 1e3
    );

    let mut provenance = argo_bench::provenance(host_threads);
    if let Json::Obj(fields) = &mut provenance {
        fields.insert("pool_workers".into(), Json::Num(host_threads as f64));
    }
    let json = Json::obj(vec![
        ("provenance", provenance),
        ("host_threads", Json::Num(host_threads as f64)),
        ("quick", Json::Bool(quick)),
        ("simd_tier", Json::str(tier)),
        ("pool_workers", Json::Num(host_threads as f64)),
        (
            "kernels",
            Json::Arr(rows.iter().map(KernelRow::to_json).collect()),
        ),
        (
            "loader_layer0",
            Json::obj(vec![
                ("shape", Json::str(&layer0_shape)),
                (
                    "gather_aggregate_ms",
                    Json::Num(gather_then_aggregate_s * 1e3),
                ),
                ("table_pass_ms", Json::Num(table_pass_s * 1e3)),
                (
                    "speedup_table_pass",
                    Json::Num(gather_then_aggregate_s / table_pass_s),
                ),
            ]),
        ),
        (
            "train_step_gathered",
            Json::obj(vec![
                ("seed_rows", Json::Num(step_rows as f64)),
                ("serial_ms", Json::Num(serial_step * 1e3)),
                ("pool_ms", Json::Num(pool_step * 1e3)),
                ("speedup_pool", Json::Num(step_speedup)),
            ]),
        ),
        (
            "train_step_gathered_shadow_gcn",
            Json::obj(vec![
                ("seed_rows", Json::Num(seeds.len() as f64)),
                ("subgraph_rows", Json::Num(ids.len() as f64)),
                ("serial_ms", Json::Num(shadow_step * 1e3)),
            ]),
        ),
    ]);
    // Quick (CI) runs land in target/ so they never dirty the committed
    // full-mode baseline at the repository root.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out_path = if quick {
        root.join("target/BENCH_kernels.quick.json")
    } else {
        root.join("BENCH_kernels.json")
    };
    match std::fs::write(&out_path, json.encode() + "\n") {
        Ok(()) => println!("\nbaseline written to {}", out_path.display()),
        Err(e) => eprintln!("\nfailed to write {}: {e}", out_path.display()),
    }

    // -- Quick-mode perf gate: a gated scalar column must not lose to naive
    // serial, and SIMD must not lose to the tier directly below it. The SIMD gate only
    // bites on hosts where a SIMD tier is actually live; on scalar
    // fallback hosts both sides run the same kernels and sit at ~1.0x.
    if quick {
        let mut failed = false;
        for r in &rows {
            if let (Some(floor), Some(c)) = (r.scalar_gate_min, r.scalar_s) {
                let speedup = r.serial_s / c;
                if speedup < floor {
                    eprintln!(
                        "PERF GATE: {} @ {} scalar is slower than serial \
                         ({speedup:.2}x < required {floor:.2}x)",
                        r.name, r.shape
                    );
                    failed = true;
                }
            }
            if let (Some(floor), Some(s)) = (r.simd_gate_min, r.simd_s) {
                let vs_below = r.simd_baseline_s() / s;
                if vs_below < floor {
                    eprintln!(
                        "PERF GATE: {} @ {} simd is slower than the tier below \
                         ({vs_below:.2}x < required {floor:.2}x)",
                        r.name, r.shape
                    );
                    failed = true;
                }
            }
            if let (Some(ceiling), Some(s)) = (r.serial_gate_max, r.simd_s) {
                let vs_serial = r.serial_s / s;
                if vs_serial > ceiling {
                    eprintln!(
                        "PERF GATE: {} @ {} serial, the scalar tier's row form, is \
                         {vs_serial:.1}x slower than simd (> {ceiling:.0}x): its mul_add \
                         is no longer compiled for FMA",
                        r.name, r.shape
                    );
                    failed = true;
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "perf gate OK: no gated scalar kernel regresses against serial, \
             no simd kernel regresses against the tier below, \
             the scalar tier's GEMM and dW run FMA"
        );
    }
}
