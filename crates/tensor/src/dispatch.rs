//! The kernel dispatch policy: the one place that decides serial vs
//! pool-parallel and scalar vs SIMD, and the only way model-side code
//! reaches a kernel.
//!
//! [`DispatchPolicy`] exposes the *semantic* operations a GNN layer needs —
//! `gemm`, `aggregate`, `grad_weights`, … — so callers in `nn`/`engine`
//! never touch a kernel directly (enforced by the `kernel-dispatch`
//! argo-lint rule). Each operation has exactly one implementation:
//!
//! * **Two tiers.** AVX2+FMA (`simd.rs`) and the blocked scalar
//!   kernels it falls back to (`kernels.rs`); [`mod@crate::reference`]
//!   holds the naive oracles tests and benches compare against, which are
//!   not a tier.
//! * **One runner.** Forward GEMM, input gradients and the CSR gather
//!   partition **output rows**: each is one closure handed to
//!   [`ThreadPool::parallel_chunks_mut`], which owns the raw-pointer row
//!   window and its race-detector annotation, and runs the closure inline
//!   when the decision below says serial. Weight gradients (`dW = Xᵀ dY`,
//!   a reduction over rows) are the one other strategy: per-worker partial
//!   accumulators folded **in range order** on the caller via
//!   [`ThreadPool::parallel_map_reduce`], deterministic for a fixed pool
//!   size.
//! * **One gather.** Forward aggregation over an owned or a borrowed
//!   adjacency and transposed aggregation over the cached transpose are the
//!   same call ([`crate::sparse`]).
//! * **Two constants.** `ROW_THRESHOLD` and `SPARSE_WORK_THRESHOLD` decide
//!   serial vs pool; nothing sets them.

use std::ops::Range;

use argo_rt::ThreadPool;

use crate::dense::Matrix;
use crate::kernels;
use crate::simd;
use crate::sparse::{self, SparseMatrix, SparseView};

/// Minimum number of output rows before a kernel goes pool-parallel —
/// below this the fork/join overhead outweighs the work.
const ROW_THRESHOLD: usize = 64;

/// Minimum *sparse work* (stored entries × dense columns, i.e.
/// multiply-adds) before an aggregation goes pool-parallel, on top of
/// [`ROW_THRESHOLD`]. Sparse gathers are memory-bound: at the benched
/// 4096-row / nnz≈16 / 64-feature shape (~4.2 M madds) the pool ran at
/// 0.86× serial, so the crossover sits above that — rows alone are not a
/// predictor for SpMM the way they are for GEMM.
///
/// Both are constants rather than settings because nothing ever set them:
/// no caller, no benchmark workload, and forcing the pool below them loses
/// (`micro_kernels` with both forced to 1 read `train_step_gathered` 0.86×
/// and `spmm_transpose` 0.81× of serial on the 2-vCPU reference host).
const SPARSE_WORK_THRESHOLD: usize = 8 * 1024 * 1024;

/// What a GEMM does to its output as it is written back: nothing, a bias
/// add, or bias + ReLU.
#[derive(Clone, Copy, Debug)]
pub struct Epilogue<'a> {
    bias: Option<&'a [f32]>,
    relu: bool,
}

impl<'a> Epilogue<'a> {
    /// Plain GEMM write-back.
    pub fn none() -> Epilogue<'static> {
        Epilogue {
            bias: None,
            relu: false,
        }
    }

    /// Adds `bias` to every output row.
    pub fn bias(bias: &'a [f32]) -> Self {
        Epilogue {
            bias: Some(bias),
            relu: false,
        }
    }

    /// Adds `bias`, then clamps negatives. The output is `z if z > 0 else
    /// 0`, so the activation mask backward needs is `out > 0` exactly
    /// ([`crate::ops::relu_backward_from_output`]); none is recorded.
    pub fn bias_relu(bias: &'a [f32]) -> Self {
        Epilogue {
            bias: Some(bias),
            relu: true,
        }
    }
}

/// Serial-vs-parallel and scalar-vs-SIMD dispatch for the training
/// kernels. The SIMD tier is orthogonal to the pool: each worker (or the
/// serial path) independently runs the vectorized kernels when the policy
/// allows it and the host supports AVX2+FMA.
///
/// The only switch is [`DispatchPolicy::force_scalar`], for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatchPolicy {
    simd: bool,
}

impl Default for DispatchPolicy {
    /// SIMD tier enabled (used when the host has it).
    fn default() -> Self {
        Self { simd: true }
    }
}

impl DispatchPolicy {
    /// This policy with the SIMD tier disabled: every kernel runs the
    /// scalar blocked implementation even on AVX2+FMA hosts. The scalar
    /// tier is the bitwise reference the SIMD contract is tested against.
    pub fn force_scalar(self) -> Self {
        Self { simd: false }
    }

    /// Whether this policy's kernels actually run the SIMD tier: the
    /// policy allows it *and* the host supports it (AVX2+FMA, not disabled
    /// via `ARGO_SIMD=off`).
    pub fn simd_enabled(&self) -> bool {
        self.simd && simd::available()
    }

    /// Whether an operation over `rows` output rows runs on the pool: a
    /// multi-worker pool is available and `rows` reaches the row threshold.
    pub fn goes_parallel(&self, rows: usize, pool: Option<&ThreadPool>) -> bool {
        self.pool_for(rows, pool).is_some()
    }

    /// Whether a sparse operation over `rows` output rows performing
    /// `work` multiply-adds (nnz × dense columns) runs on the pool: both
    /// the row threshold and the sparse work threshold must be met.
    pub fn sparse_goes_parallel(
        &self,
        rows: usize,
        work: usize,
        pool: Option<&ThreadPool>,
    ) -> bool {
        self.sparse_pool_for(rows, work, pool).is_some()
    }

    /// The decision function: the pool an operation over `rows` rows runs
    /// on, or `None` for inline.
    fn pool_for<'p>(&self, rows: usize, pool: Option<&'p ThreadPool>) -> Option<&'p ThreadPool> {
        pool.filter(|p| p.size() > 1 && rows >= ROW_THRESHOLD)
    }

    fn sparse_pool_for<'p>(
        &self,
        rows: usize,
        work: usize,
        pool: Option<&'p ThreadPool>,
    ) -> Option<&'p ThreadPool> {
        self.pool_for(rows, pool)
            .filter(|_| work >= SPARSE_WORK_THRESHOLD)
    }

    /// GEMM kernel of the active tier.
    fn run_gemm(
        &self,
        a: &Matrix,
        rows: Range<usize>,
        b: &Matrix,
        b_row_offset: usize,
        dst: &mut [f32],
        accumulate: bool,
    ) {
        if self.simd {
            simd::gemm_into(a, rows, b, b_row_offset, dst, accumulate);
        } else {
            kernels::gemm_into(a, rows, b, b_row_offset, dst, accumulate);
        }
    }

    /// Bias/ReLU epilogue of the active tier (bitwise-equal either way).
    fn run_epilogue(&self, dst: &mut [f32], epi: Epilogue<'_>) {
        let Some(bias) = epi.bias else { return };
        if self.simd {
            simd::epilogue_bias_relu(dst, bias, epi.relu);
        } else {
            kernels::epilogue_bias_relu(dst, bias, epi.relu);
        }
    }

    /// Blocked GEMM `a @ b`, no epilogue.
    pub fn gemm(&self, a: &Matrix, b: &Matrix, pool: Option<&ThreadPool>) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        self.gemm_into(a, b, Epilogue::none(), pool, &mut out);
        out
    }

    /// Blocked GEMM `out = a @ b` with the epilogue fused into each
    /// worker's write-back.
    pub fn gemm_into(
        &self,
        a: &Matrix,
        b: &Matrix,
        epi: Epilogue<'_>,
        pool: Option<&ThreadPool>,
        out: &mut Matrix,
    ) {
        assert_eq!(a.cols(), b.rows(), "gemm shape mismatch");
        assert_eq!((out.rows(), out.cols()), (a.rows(), b.cols()), "gemm out");
        ThreadPool::parallel_chunks_mut(
            self.pool_for(a.rows(), pool),
            out.data_mut(),
            b.cols(),
            "tensor.gemm_into",
            |rows, dst| {
                self.run_gemm(a, rows, b, 0, dst, false);
                self.run_epilogue(dst, epi);
            },
        );
    }

    /// Fused GraphSAGE GEMM: `out = h[0..n_dst] @ w[0..f] + agg @ w[f..2f]`
    /// plus the epilogue — the `[h ‖ agg]` concatenation is never built.
    /// `w` stores `W_self` stacked above `W_neigh` (`2f × o`), `agg` is
    /// `n_dst × f`, and `h` supplies self features in its first `n_dst` rows.
    pub fn sage_gemm_into(
        &self,
        h: &Matrix,
        agg: &Matrix,
        w: &Matrix,
        epi: Epilogue<'_>,
        pool: Option<&ThreadPool>,
        out: &mut Matrix,
    ) {
        let f = h.cols();
        let n_dst = agg.rows();
        assert_eq!(agg.cols(), f, "sage_gemm agg width");
        assert_eq!(w.rows(), 2 * f, "sage_gemm weight rows");
        assert!(h.rows() >= n_dst, "sage_gemm h rows");
        assert_eq!((out.rows(), out.cols()), (n_dst, w.cols()), "sage out");
        ThreadPool::parallel_chunks_mut(
            self.pool_for(n_dst, pool),
            out.data_mut(),
            w.cols(),
            "tensor.sage_gemm_into",
            |rows, dst| {
                self.run_gemm(h, rows.clone(), w, 0, dst, false);
                self.run_gemm(agg, rows, w, f, dst, true);
                self.run_epilogue(dst, epi);
            },
        );
    }

    /// The CSR gather `out = adj @ dense` under this policy's routing.
    fn gather(
        &self,
        adj: SparseView<'_>,
        dense: &Matrix,
        pool: Option<&ThreadPool>,
        region: &'static str,
        out: &mut Matrix,
    ) {
        let work = adj.nnz().saturating_mul(dense.cols());
        let pool = self.sparse_pool_for(adj.rows(), work, pool);
        sparse::gather_into(adj, dense, pool, region, self.simd, out);
    }

    /// Feature aggregation `adj @ h` (SpMM).
    pub fn aggregate(&self, adj: &SparseMatrix, h: &Matrix, pool: Option<&ThreadPool>) -> Matrix {
        let mut out = Matrix::zeros(adj.rows(), h.cols());
        self.aggregate_into(adj, h, pool, &mut out);
        out
    }

    /// [`DispatchPolicy::aggregate`] into a caller-provided matrix.
    pub fn aggregate_into(
        &self,
        adj: &SparseMatrix,
        h: &Matrix,
        pool: Option<&ThreadPool>,
        out: &mut Matrix,
    ) {
        self.gather(adj.view(), h, pool, "tensor.spmm_pool", out);
    }

    /// [`DispatchPolicy::aggregate_into`] over a **borrowed** adjacency —
    /// in practice one still sitting in the sampler's batch arena.
    pub fn aggregate_view_into(
        &self,
        adj: &SparseView<'_>,
        h: &Matrix,
        pool: Option<&ThreadPool>,
        out: &mut Matrix,
    ) {
        self.gather(*adj, h, pool, "tensor.spmm_view_pool", out);
    }

    /// Backward of aggregation: `adjᵀ @ grad`.
    pub fn aggregate_transpose(
        &self,
        adj: &SparseMatrix,
        grad: &Matrix,
        pool: Option<&ThreadPool>,
    ) -> Matrix {
        let mut out = Matrix::zeros(adj.cols(), grad.cols());
        self.aggregate_transpose_into(adj, grad, pool, &mut out);
        out
    }

    /// [`DispatchPolicy::aggregate_transpose`] into a caller-provided
    /// matrix: the gather over `adj`'s transpose, which the first call
    /// builds and caches on `adj`.
    pub fn aggregate_transpose_into(
        &self,
        adj: &SparseMatrix,
        grad: &Matrix,
        pool: Option<&ThreadPool>,
        out: &mut Matrix,
    ) {
        let region = "tensor.spmm_transpose_csc_pool";
        self.gather(adj.csc().view(), grad, pool, region, out);
    }

    /// Weight gradient `dst[dst_row_offset..][..] = x[x_rows]ᵀ @ grad` —
    /// the reduction-over-rows GEMM of the backward pass. The row offset
    /// lets fused GraphSAGE write the `W_self` and `W_neigh` halves of one
    /// stacked gradient without concatenating inputs.
    ///
    /// Parallelized with per-worker partial accumulators reduced in range
    /// order (deterministic for a fixed pool size, tolerance-level equal to
    /// serial).
    pub fn grad_weights_into(
        &self,
        x: &Matrix,
        x_rows: Range<usize>,
        grad: &Matrix,
        pool: Option<&ThreadPool>,
        dst: &mut Matrix,
        dst_row_offset: usize,
    ) {
        let k = x.cols();
        let n = grad.cols();
        assert_eq!(dst.cols(), n, "grad_weights dst cols");
        assert!(dst_row_offset + k <= dst.rows(), "grad_weights dst rows");
        assert!(x_rows.end <= x.rows(), "grad_weights x range");
        assert_eq!(x_rows.len(), grad.rows(), "grad_weights reduction len");
        let m = x_rows.len();
        let lo = dst_row_offset * n;
        let region = &mut dst.data_mut()[lo..lo + k * n];
        match self.pool_for(m, pool) {
            Some(p) => {
                let partial = p.parallel_map_reduce(
                    m,
                    |r| {
                        let mut buf = vec![0.0f32; k * n];
                        // grad row r.start corresponds to x row
                        // x_rows.start + r.start: slide both windows.
                        self.run_transpose_self(x, grad, r, x_rows.start, &mut buf, false);
                        buf
                    },
                    |mut a, b| {
                        for (av, bv) in a.iter_mut().zip(&b) {
                            *av += bv;
                        }
                        a
                    },
                );
                match partial {
                    Some(buf) => region.copy_from_slice(&buf),
                    None => region.fill(0.0),
                }
            }
            None => {
                self.run_transpose_self(x, grad, 0..m, x_rows.start, region, false);
            }
        }
    }

    /// Weight-gradient kernel of the active tier.
    fn run_transpose_self(
        &self,
        a: &Matrix,
        b: &Matrix,
        rows: Range<usize>,
        a_row_offset: usize,
        dst: &mut [f32],
        accumulate: bool,
    ) {
        if self.simd {
            simd::transpose_self_into(a, b, rows, a_row_offset, dst, accumulate);
        } else {
            kernels::transpose_self_into(a, b, rows, a_row_offset, dst, accumulate);
        }
    }

    /// Convenience allocating form of [`DispatchPolicy::grad_weights_into`]
    /// over all rows: `xᵀ @ grad`.
    pub fn grad_weights(&self, x: &Matrix, grad: &Matrix, pool: Option<&ThreadPool>) -> Matrix {
        let mut out = Matrix::zeros(x.cols(), grad.cols());
        self.grad_weights_into(x, 0..x.rows(), grad, pool, &mut out, 0);
        out
    }

    /// Input gradient `grad @ w[w_rows]ᵀ`: every output element is a dot of
    /// a `grad` row with a `w` row. The row window lets fused GraphSAGE
    /// pull `d_self` / `d_neigh` out of the stacked weight without
    /// splitting it.
    pub fn grad_input(
        &self,
        grad: &Matrix,
        w: &Matrix,
        w_rows: Range<usize>,
        pool: Option<&ThreadPool>,
    ) -> Matrix {
        let mut out = Matrix::zeros(grad.rows(), w_rows.len());
        self.grad_input_into(grad, w, w_rows, pool, &mut out);
        out
    }

    /// [`DispatchPolicy::grad_input`] into a caller-provided matrix.
    pub fn grad_input_into(
        &self,
        grad: &Matrix,
        w: &Matrix,
        w_rows: Range<usize>,
        pool: Option<&ThreadPool>,
        out: &mut Matrix,
    ) {
        assert_eq!(grad.cols(), w.cols(), "grad_input inner dim");
        assert!(w_rows.end <= w.rows(), "grad_input w range");
        let m = grad.rows();
        let n = w_rows.len();
        assert_eq!((out.rows(), out.cols()), (m, n), "grad_input out");
        ThreadPool::parallel_chunks_mut(
            self.pool_for(m, pool),
            out.data_mut(),
            n,
            "tensor.grad_input_into",
            |rows, dst| {
                if self.simd {
                    simd::transpose_other_into(grad, rows, w, w_rows.clone(), dst);
                } else {
                    kernels::transpose_other_into(grad, rows, w, w_rows.clone(), dst);
                }
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn pool2() -> ThreadPool {
        ThreadPool::new("t", 2)
    }

    #[test]
    fn threshold_boundary_63_64_65() {
        let policy = DispatchPolicy::default();
        let pool = pool2();
        assert!(!policy.goes_parallel(63, Some(&pool)));
        assert!(policy.goes_parallel(64, Some(&pool)));
        assert!(policy.goes_parallel(65, Some(&pool)));
    }

    #[test]
    fn no_pool_or_single_worker_stays_serial() {
        let policy = DispatchPolicy::default();
        assert!(!policy.goes_parallel(1_000_000, None));
        let single = ThreadPool::new("t", 1);
        assert!(!policy.goes_parallel(1_000_000, Some(&single)));
    }

    #[test]
    fn gemm_serial_and_parallel_match_naive() {
        // Scalar tier: bitwise contract against the naive kernel.
        let pool = pool2();
        let policy = DispatchPolicy::default().force_scalar();
        let a = Matrix::xavier(70, 17, 1);
        let b = Matrix::xavier(17, 11, 2);
        assert!(policy.goes_parallel(a.rows(), Some(&pool)));
        let naive = reference::matmul(&a, &b);
        let serial = policy.gemm(&a, &b, None);
        let par = policy.gemm(&a, &b, Some(&pool));
        assert_eq!(naive.data(), serial.data());
        assert_eq!(naive.data(), par.data());
    }

    #[test]
    fn simd_gemm_matches_scalar_within_tolerance_and_partition_invariant() {
        let pool = pool2();
        let a = Matrix::xavier(70, 17, 1);
        let b = Matrix::xavier(17, 11, 2);
        let scalar = DispatchPolicy::default().force_scalar().gemm(&a, &b, None);
        let simd_serial = DispatchPolicy::default().gemm(&a, &b, None);
        let simd_par = DispatchPolicy::default().gemm(&a, &b, Some(&pool));
        // FMA reassociates each k-step's rounding: tolerance contract.
        for (s, v) in scalar.data().iter().zip(simd_serial.data()) {
            assert!((s - v).abs() <= 1e-5 * 1.0f32.max(s.abs()));
        }
        // But the SIMD tier itself is partition-invariant: pool == serial
        // bitwise, because per-element FMA order ignores the row split.
        assert_eq!(simd_serial.data(), simd_par.data());
    }

    #[test]
    fn simd_enabled_reflects_policy_and_host() {
        assert!(!DispatchPolicy::default().force_scalar().simd_enabled());
        // With the tier allowed, enablement equals host support.
        assert_eq!(
            DispatchPolicy::default().simd_enabled(),
            crate::simd::available()
        );
    }

    #[test]
    fn gemm_epilogue_fuses_bias_and_relu() {
        let pool = pool2();
        for use_pool in [false, true] {
            let policy = DispatchPolicy::default().force_scalar();
            let a = Matrix::xavier(80, 8, 3);
            let b = Matrix::xavier(8, 6, 4);
            let bias: Vec<f32> = (0..6).map(|i| (i as f32) * 0.3 - 0.8).collect();
            let p = use_pool.then_some(&pool);
            let mut out = Matrix::zeros(80, 6);
            policy.gemm_into(&a, &b, Epilogue::bias_relu(&bias), p, &mut out);
            // Reference: unfused ops. The output is positive exactly where
            // the pre-activation is — the mask backward derives from it.
            let mut want = reference::matmul(&a, &b);
            for r in 0..want.rows() {
                for (c, &bc) in bias.iter().enumerate() {
                    let z = want.get(r, c) + bc;
                    assert_eq!(out.get(r, c) > 0.0, z > 0.0, "mask at {r},{c}");
                    want.set(r, c, if z > 0.0 { z } else { 0.0 });
                }
            }
            assert_eq!(out.data(), want.data(), "pool={use_pool}");
        }
    }

    #[test]
    fn sage_gemm_equals_concat_reference() {
        let pool = pool2();
        let f = 5;
        let o = 4;
        let n_dst = 70;
        let h = Matrix::xavier(90, f, 5); // more src rows than dst
        let agg = Matrix::xavier(n_dst, f, 6);
        let w = Matrix::xavier(2 * f, o, 7);
        let bias: Vec<f32> = (0..o).map(|i| 0.1 * i as f32 - 0.15).collect();
        // Reference: materialize cat = [h_dst | agg] and one GEMM.
        let h_dst = h.gather_rows(&(0..n_dst as u32).collect::<Vec<_>>());
        let mut want = reference::matmul(&h_dst.concat_cols(&agg), &w);
        for r in 0..n_dst {
            for (c, &bc) in bias.iter().enumerate() {
                let z = want.get(r, c) + bc;
                want.set(r, c, if z > 0.0 { z } else { 0.0 });
            }
        }
        for (use_pool, use_simd) in [(false, false), (true, false), (false, true), (true, true)] {
            let mut policy = DispatchPolicy::default();
            if !use_simd {
                policy = policy.force_scalar();
            }
            let p = use_pool.then_some(&pool);
            let mut out = Matrix::zeros(n_dst, o);
            policy.sage_gemm_into(&h, &agg, &w, Epilogue::bias_relu(&bias), p, &mut out);
            for (g, w_) in out.data().iter().zip(want.data()) {
                assert!((g - w_).abs() <= 1e-5, "pool={use_pool} simd={use_simd}");
            }
        }
    }

    fn ragged_adj() -> SparseMatrix {
        let rows = 70;
        let cols = 40;
        let mut indptr = vec![0u32];
        let mut indices = Vec::new();
        let mut vals = Vec::new();
        for i in 0..rows {
            for j in 0..cols {
                if (i * 3 + j * 7) % 11 == 0 {
                    indices.push(j as u32);
                    vals.push(((i + 2 * j) % 5) as f32 * 0.4 - 0.6);
                }
            }
            indptr.push(indices.len() as u32);
        }
        SparseMatrix::new(rows, cols, indptr, indices, Some(vals))
    }

    /// A square `n x n` adjacency with 16 entries per row: aggregating
    /// `width` features over it is `n * 16 * width` multiply-adds, so
    /// `n = 4096` sits exactly on the sparse work constant at width 128.
    fn wide_adj(n: usize) -> SparseMatrix {
        let mut indptr = vec![0u32];
        let mut indices = Vec::new();
        let mut vals = Vec::new();
        for i in 0..n {
            for t in 0..16 {
                indices.push(((i * 3 + t * 257) % n) as u32);
                vals.push(((i + t) % 7) as f32 * 0.25 - 0.6);
            }
            indptr.push(indices.len() as u32);
        }
        SparseMatrix::new(n, n, indptr, indices, Some(vals))
    }

    #[test]
    fn aggregate_and_transpose_match_naive() {
        let pool = pool2();
        let ragged = ragged_adj();
        let wide = wide_adj(4096);
        // (adjacency, width, whether the default policy sends it to the pool)
        for (adj, width, pooled) in [(&ragged, 9, false), (&wide, 127, false), (&wide, 128, true)] {
            let h = Matrix::xavier(adj.cols(), width, 8);
            let grad = Matrix::xavier(adj.rows(), width, 9);
            let work = adj.nnz() * width;
            let want_back = reference::spmm_transpose(adj, &grad);
            // Forward oracle: the dense product where that is affordable,
            // the serial scalar gather (itself pinned on the small fixture)
            // elsewhere.
            let want_fwd = if adj.rows() <= 100 {
                reference::matmul(&adj.to_dense(), &h)
            } else {
                DispatchPolicy::default()
                    .force_scalar()
                    .aggregate(adj, &h, None)
            };
            for policy in [
                DispatchPolicy::default(),
                DispatchPolicy::default().force_scalar(),
            ] {
                assert_eq!(
                    policy.sparse_goes_parallel(adj.rows(), work, Some(&pool)),
                    pooled
                );
                for p in [None, Some(&pool)] {
                    // The gather is bitwise across tiers (mul+add lanes) and
                    // across partitions (each row sums in stored order).
                    let back = policy.aggregate_transpose(adj, &grad, p);
                    assert_eq!(back.data(), want_back.data(), "transpose, width {width}");
                    let fwd = policy.aggregate(adj, &h, p);
                    assert_eq!(fwd.data(), want_fwd.data(), "forward, width {width}");
                }
            }
        }
    }

    #[test]
    fn aggregate_view_bitwise_matches_owned_across_tiers() {
        let pool = pool2();
        let ragged = ragged_adj();
        let wide = wide_adj(4096);
        for (adj, width) in [(&ragged, 9), (&wide, 128)] {
            // A view over arrays of its own, as the sampler's arena hands out.
            let (indptr, indices) = (adj.indptr().to_vec(), adj.indices().to_vec());
            let values = adj.values().map(<[f32]>::to_vec);
            let view =
                SparseView::new(adj.rows(), adj.cols(), &indptr, &indices, values.as_deref());
            let h = Matrix::xavier(adj.cols(), width, 8);
            for policy in [
                DispatchPolicy::default(),
                DispatchPolicy::default().force_scalar(),
            ] {
                for p in [None, Some(&pool)] {
                    let owned = policy.aggregate(adj, &h, p);
                    let mut got = Matrix::zeros(adj.rows(), h.cols());
                    policy.aggregate_view_into(&view, &h, p, &mut got);
                    assert_eq!(got.data(), owned.data(), "view diverged from owned path");
                }
            }
        }
    }

    #[test]
    fn sparse_work_threshold_boundary() {
        let pool = pool2();
        let policy = DispatchPolicy::default();
        let t = SPARSE_WORK_THRESHOLD;
        assert_eq!(t, 8 * 1024 * 1024);
        // Row threshold satisfied; work decides.
        assert!(!policy.sparse_goes_parallel(100, t - 1, Some(&pool)));
        assert!(policy.sparse_goes_parallel(100, t, Some(&pool)));
        assert!(policy.sparse_goes_parallel(100, t + 1, Some(&pool)));
        // Both thresholds must hold.
        assert!(!policy.sparse_goes_parallel(63, t, Some(&pool)));
        assert!(!policy.sparse_goes_parallel(100, t, None));
        // The benched spmm shape (4096 rows, nnz≈16/row, 64 features) sat
        // at 0.86× serial: it must stay serial.
        let benched_work = 4096 * 16 * 64;
        assert!(benched_work < t, "crossover sits above the benched shape");
        assert!(!policy.sparse_goes_parallel(4096, benched_work, Some(&pool)));
    }

    #[test]
    fn grad_weights_serial_exact_parallel_tolerance() {
        let pool = pool2();
        let x = Matrix::xavier(90, 7, 10);
        let grad = Matrix::xavier(90, 5, 11);
        let naive = reference::matmul_transpose_self(&x, &grad);
        let serial = DispatchPolicy::default()
            .force_scalar()
            .grad_weights(&x, &grad, None);
        assert_eq!(naive.data(), serial.data());
        let par = DispatchPolicy::default().grad_weights(&x, &grad, Some(&pool));
        for (a, b) in naive.data().iter().zip(par.data()) {
            assert!((a - b).abs() <= 1e-5);
        }
    }

    #[test]
    fn grad_weights_row_offset_writes_stacked_halves() {
        // The fused-SAGE layout: dW is 2f x o; the top half comes from
        // h_dst, the bottom from agg, with no concatenation.
        let f = 4;
        let o = 3;
        let n_dst = 20;
        let policy = DispatchPolicy::default();
        let h = Matrix::xavier(35, f, 12);
        let agg = Matrix::xavier(n_dst, f, 13);
        let grad = Matrix::xavier(n_dst, o, 14);
        let mut dw = Matrix::zeros(2 * f, o);
        policy.grad_weights_into(&h, 0..n_dst, &grad, None, &mut dw, 0);
        policy.grad_weights_into(&agg, 0..n_dst, &grad, None, &mut dw, f);
        let h_dst = h.gather_rows(&(0..n_dst as u32).collect::<Vec<_>>());
        let want = reference::matmul_transpose_self(&h_dst.concat_cols(&agg), &grad);
        for (a, b) in dw.data().iter().zip(want.data()) {
            assert!((a - b).abs() <= 1e-5);
        }
    }

    #[test]
    fn grad_input_window_equals_split_reference() {
        let pool = pool2();
        let f = 4;
        let o = 3;
        let grad = Matrix::xavier(80, o, 15);
        let w = Matrix::xavier(2 * f, o, 16);
        let naive_full = reference::matmul_transpose_other(&grad, &w);
        let policy = DispatchPolicy::default().force_scalar();
        for p in [None, Some(&pool)] {
            let full = policy.grad_input(&grad, &w, 0..2 * f, p);
            assert_eq!(full.data(), naive_full.data());
            // Row windows = columns of the split reference.
            let d_self = policy.grad_input(&grad, &w, 0..f, p);
            let d_neigh = policy.grad_input(&grad, &w, f..2 * f, p);
            let (want_self, want_neigh) = naive_full.split_cols(f);
            assert_eq!(d_self.data(), want_self.data());
            assert_eq!(d_neigh.data(), want_neigh.data());
        }
    }
}
