//! The kernel dispatch policy: the one place that decides serial vs
//! pool-parallel and scalar vs SIMD, and the only way model-side code
//! reaches a kernel.
//!
//! [`DispatchPolicy`] exposes the *semantic* operations a GNN layer needs —
//! `gemm`, `aggregate`, `grad_weights`, … — so callers in `nn`/`engine`
//! never touch a kernel directly (enforced by the `kernel-dispatch` rule of
//! `crates/check/tests/hot_paths.rs`). Each operation has exactly one
//! implementation:
//!
//! * **Two tiers, one sequence.** SIMD (`simd.rs`: the dense kernels at
//!   the host's vector width, AVX-512 or AVX2+FMA) and the scalar tier it
//!   falls back to, which for the dense kernels is the row forms of
//!   [`mod@crate::reference`] — the same per-element sequence, so every
//!   tier gives equal bits. Each kernel takes the policy's `use_simd` and
//!   picks its tier once.
//! * **One runner.** Forward GEMM, input gradients (the same GEMM, over
//!   the transposed weight window), weight gradients (`dW = Xᵀ dY`, each
//!   worker reducing over every row into its window of `dW`'s rows) and
//!   the CSR gather partition **output rows**: each is one closure handed
//!   to [`ThreadPool::parallel_chunks_mut`], which carves the output into
//!   one `&mut` row window per worker, and runs the closure inline when the
//!   decision below says serial. Every output element sees one operation
//!   sequence whatever the window, so pooled ≡ serial, bitwise, at every
//!   pool size.
//! * **One gather.** Forward aggregation over an owned or a borrowed
//!   adjacency and transposed aggregation over the adjacency's transpose
//!   are the same call ([`crate::sparse`]).
//! * **Two constants.** `ROW_THRESHOLD` and `SPARSE_WORK_THRESHOLD` decide
//!   serial vs pool; nothing sets them.

use std::ops::Range;

use argo_rt::ThreadPool;

use crate::dense::Matrix;
use crate::simd;
use crate::sparse::{self, SparseMatrix, SparseView};
use crate::workspace;

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
    pub(crate) bias: Option<&'a [f32]>,
    pub(crate) relu: bool,
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
/// allows it and the host supports AVX2+FMA (the dense kernels run at
/// AVX-512 width, bitwise equal, where the host has `avx512f`).
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
    /// scalar tier even on AVX2+FMA hosts — for the dense kernels the
    /// reference row forms ([`crate::reference::gemm_rows_into`],
    /// [`crate::reference::transpose_self_rows_into`]), for SpMM the scalar
    /// row step. The SIMD contract is tested against it.
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

    /// GEMM `a @ b`, no epilogue.
    pub fn gemm(&self, a: &Matrix, b: &Matrix, pool: Option<&ThreadPool>) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        self.gemm_into(a, b, Epilogue::none(), pool, &mut out);
        out
    }

    /// GEMM `out = a @ b` with the epilogue fused into each
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
            |rows, dst| simd::gemm_into(&[(a, 0)], rows, b, epi, self.simd, dst),
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
            |rows, dst| simd::gemm_into(&[(h, 0), (agg, f)], rows, w, epi, self.simd, dst),
        );
    }

    /// The CSR gather `out = adj @ dense` under this policy's routing.
    fn gather(
        &self,
        adj: SparseView<'_>,
        dense: &Matrix,
        pool: Option<&ThreadPool>,
        out: &mut Matrix,
    ) {
        assert_eq!(adj.cols(), dense.rows(), "spmm shape mismatch");
        assert_eq!(out.cols(), dense.cols(), "spmm output columns");
        self.gather_table(adj, dense.data(), None, pool, out);
    }

    /// [`DispatchPolicy::gather`] over a row-major table, read through
    /// `ids` when given.
    fn gather_table(
        &self,
        adj: SparseView<'_>,
        table: &[f32],
        ids: Option<&[u32]>,
        pool: Option<&ThreadPool>,
        out: &mut Matrix,
    ) {
        let work = adj.nnz().saturating_mul(out.cols());
        let pool = self.sparse_pool_for(adj.rows(), work, pool);
        sparse::gather_into(adj, table, ids, pool, self.simd, out);
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
        self.gather(adj.view(), h, pool, out);
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
        self.gather(*adj, h, pool, out);
    }

    /// [`DispatchPolicy::aggregate_view_into`] with the source rows read
    /// straight out of a row-major feature `table` (`out.cols()` columns):
    /// column `j` of `adj` reads table row `ids[j]`. Bitwise equal to
    /// gathering `table[ids]` and aggregating that, without the gathered
    /// copy. A stored column whose table row is out of range panics.
    pub fn aggregate_table_into(
        &self,
        adj: &SparseView<'_>,
        table: &[f32],
        ids: &[u32],
        pool: Option<&ThreadPool>,
        out: &mut Matrix,
    ) {
        self.gather_table(*adj, table, Some(ids), pool, out);
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
    /// matrix: `adj` is transposed into this thread's transpose buffer
    /// ([`SparseMatrix::transpose_into`]), then
    /// [`DispatchPolicy::aggregate_transposed_into`] gathers over it.
    pub fn aggregate_transpose_into(
        &self,
        adj: &SparseMatrix,
        grad: &Matrix,
        pool: Option<&ThreadPool>,
        out: &mut Matrix,
    ) {
        workspace::with_transpose_buffer(|t| {
            adj.transpose_into(t);
            self.aggregate_transposed_into(t, grad, pool, out);
        });
    }

    /// `adjᵀ @ grad` over a transpose built beforehand: `adj_t` is
    /// [`SparseMatrix::transpose_into`]'s output for `adj`, and the gather
    /// over it is bitwise [`DispatchPolicy::aggregate_transpose_into`]. A
    /// training step gathers over the transposes its loader built.
    pub fn aggregate_transposed_into(
        &self,
        adj_t: &SparseMatrix,
        grad: &Matrix,
        pool: Option<&ThreadPool>,
        out: &mut Matrix,
    ) {
        self.gather(adj_t.view(), grad, pool, out);
    }

    /// Weight gradient of a layer whose GEMM read `xs`: `dst = [x_0ᵀ; x_1ᵀ;
    /// …] @ grad` — the reduction-over-rows GEMM of the backward pass, over
    /// the first `grad.rows()` rows of every `x_o`. Fused GraphSAGE passes
    /// its self rows and its aggregation and gets the stacked `[dW_self;
    /// dW_neigh]` in one pass over `grad`, without concatenating inputs.
    ///
    /// The pool splits `dst`'s rows, the way the GEMM splits its output's:
    /// each worker reduces over all `m` rows into its own row window, which
    /// may straddle the operands' boundary, so every element is the serial
    /// sum, bitwise, at every pool size. Whether it goes to the pool is
    /// decided on `m`.
    pub fn grad_weights_into(
        &self,
        xs: &[&Matrix],
        grad: &Matrix,
        pool: Option<&ThreadPool>,
        dst: &mut Matrix,
    ) {
        let m = grad.rows();
        let n = grad.cols();
        let k: usize = xs.iter().map(|x| x.cols()).sum();
        assert_eq!((dst.rows(), dst.cols()), (k, n), "grad_weights dst");
        assert!(xs.iter().all(|x| x.rows() >= m), "grad_weights x rows");
        ThreadPool::parallel_chunks_mut(
            self.pool_for(m, pool),
            dst.data_mut(),
            n,
            |rows, window| simd::grad_weights_into(xs, grad, rows, self.simd, window),
        );
    }

    /// Convenience allocating form of [`DispatchPolicy::grad_weights_into`]
    /// over all rows: `xᵀ @ grad`. `x` and `grad` must have equal row
    /// counts.
    pub fn grad_weights(&self, x: &Matrix, grad: &Matrix, pool: Option<&ThreadPool>) -> Matrix {
        assert_eq!(x.rows(), grad.rows(), "grad_weights reduction len");
        let mut out = Matrix::zeros(x.cols(), grad.cols());
        self.grad_weights_into(&[x], grad, pool, &mut out);
        out
    }

    /// Input gradient `grad @ w[w_rows]ᵀ`: the GEMM of `grad` by the
    /// transposed weight window. The row window lets fused GraphSAGE pull
    /// `d_self` / `d_neigh` out of the stacked weight without splitting it.
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

    /// [`DispatchPolicy::grad_input`] into a caller-provided matrix:
    /// `w[w_rows]ᵀ` is transposed once, on the calling thread, into its
    /// transposed-weight buffer ([`crate::workspace`]), and the output rows
    /// run the forward's GEMM over it, with no epilogue: bitwise
    /// [`crate::reference::matmul`] over the explicit transpose, on every
    /// tier.
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
        workspace::with_transposed_rows(w, w_rows, |wt| {
            ThreadPool::parallel_chunks_mut(
                self.pool_for(m, pool),
                out.data_mut(),
                n,
                |rows, dst| {
                    simd::gemm_into(&[(grad, 0)], rows, wt, Epilogue::none(), self.simd, dst)
                },
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn pool2() -> ThreadPool {
        ThreadPool::new("t", 2)
    }

    /// Pool sizes the kernel pins run at: 70 or 80 rows split evenly over
    /// 2 and 4 workers, raggedly over 3 (70 rows: 24/24/22).
    const POOL_SIZES: [usize; 3] = [2, 3, 4];

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

    fn both_tiers() -> [DispatchPolicy; 2] {
        [
            DispatchPolicy::default(),
            DispatchPolicy::default().force_scalar(),
        ]
    }

    #[test]
    fn gemm_serial_and_parallel_match_naive() {
        // Both tiers: bitwise against the naive kernel, at pool sizes whose
        // row windows are even (2, 4) and ragged (3: 24/24/22).
        let a = Matrix::xavier(70, 17, 1);
        let b = Matrix::xavier(17, 11, 2);
        let naive = reference::matmul(&a, &b);
        for policy in both_tiers() {
            let simd = policy.simd_enabled();
            assert_eq!(
                naive.data(),
                policy.gemm(&a, &b, None).data(),
                "simd {simd}"
            );
            for size in POOL_SIZES {
                let pool = ThreadPool::new("t", size);
                assert!(policy.goes_parallel(a.rows(), Some(&pool)));
                let par = policy.gemm(&a, &b, Some(&pool));
                assert_eq!(naive.data(), par.data(), "pool size {size}, simd {simd}");
            }
        }
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
        for (use_pool, policy) in [false, true]
            .into_iter()
            .flat_map(|p| both_tiers().map(|policy| (p, policy)))
        {
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
            assert_eq!(out.data(), want.data(), "pool={use_pool} {policy:?}");
        }
    }

    /// A tolerance, not bits: the fused GEMM adds the self rows' block sum
    /// and then the aggregation's, where the concatenated reference runs one
    /// FMA chain over both.
    #[test]
    fn sage_gemm_equals_concat_reference() {
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
        for size in POOL_SIZES {
            let pool = ThreadPool::new("t", size);
            for (use_pool, use_simd) in [(false, false), (true, false), (false, true), (true, true)]
            {
                let mut policy = DispatchPolicy::default();
                if !use_simd {
                    policy = policy.force_scalar();
                }
                let p = use_pool.then_some(&pool);
                let mut out = Matrix::zeros(n_dst, o);
                policy.sage_gemm_into(&h, &agg, &w, Epilogue::bias_relu(&bias), p, &mut out);
                for (g, w_) in out.data().iter().zip(want.data()) {
                    let at = format!("pool={use_pool} size={size} simd={use_simd}");
                    assert!((g - w_).abs() <= 1e-5, "{at}");
                }
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
        let pools = POOL_SIZES.map(|size| ThreadPool::new("t", size));
        let ragged = ragged_adj();
        let wide = wide_adj(4096);
        // (adjacency, width, whether the default policy sends it to the pool)
        for (adj, width, pooled) in [(&ragged, 9, false), (&wide, 127, false), (&wide, 128, true)] {
            let h = Matrix::xavier(adj.cols(), width, 8);
            let grad = Matrix::xavier(adj.rows(), width, 9);
            let work = adj.nnz() * width;
            let want_back = reference::spmm_transpose(adj, &grad);
            // Forward oracle: on the small fixture, whose rows' columns
            // ascend, the scatter over the transpose, which adds each
            // output element's terms in the gather's order (the dense
            // product fuses them); the serial scalar gather (pinned by that)
            // elsewhere.
            let want_fwd = if adj.rows() <= 100 {
                let mut adj_t = SparseMatrix::default();
                adj.transpose_into(&mut adj_t);
                reference::spmm_transpose(&adj_t, &h)
            } else {
                DispatchPolicy::default()
                    .force_scalar()
                    .aggregate(adj, &h, None)
            };
            for policy in both_tiers() {
                for p in std::iter::once(None).chain(pools.iter().map(Some)) {
                    if let Some(pool) = p {
                        assert_eq!(
                            policy.sparse_goes_parallel(adj.rows(), work, Some(pool)),
                            pooled
                        );
                    }
                    // The gather is bitwise across tiers (mul+add lanes) and
                    // across partitions (each row sums in stored order).
                    let at = format!("width {width}, pool size {:?}", p.map(ThreadPool::size));
                    let back = policy.aggregate_transpose(adj, &grad, p);
                    assert_eq!(back.data(), want_back.data(), "transpose, {at}");
                    let fwd = policy.aggregate(adj, &h, p);
                    assert_eq!(fwd.data(), want_fwd.data(), "forward, {at}");
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
            for policy in both_tiers() {
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

    /// The weight gradient partitions its output rows: on both tiers, at
    /// every pool size, pooled ≡ serial ≡ the naive `[h | agg]ᵀ · dY`
    /// bitwise. Over SAGE's stacked operands, `f
    /// = 11` puts the 3-worker windows at 8/8/6 rows with the middle one
    /// straddling the operands' boundary (4 workers: 6/6/6/4, the second
    /// straddling), and the widths `o` cover an all-narrow output (7), a
    /// vector block plus a narrow tail (13) and two vector blocks (40).
    #[test]
    fn grad_weights_pooled_equals_serial_bitwise() {
        let (m, f) = (70, 11usize);
        let chunk = (2 * f).div_ceil(3);
        assert!((chunk..2 * chunk).contains(&f) && (2 * f) % chunk != 0);
        let pools = POOL_SIZES.map(|size| ThreadPool::new("t", size));
        let (h, agg) = (Matrix::xavier(m + 5, f, 20), Matrix::xavier(m, f, 21));
        let h_dst = h.gather_rows(&(0..m as u32).collect::<Vec<_>>());
        for o in [7, 13, 40] {
            let grad = Matrix::xavier(m, o, 22 + o as u64);
            let naive = reference::matmul_transpose_self(&h_dst.concat_cols(&agg), &grad);
            for policy in both_tiers() {
                let simd = policy.simd_enabled();
                let mut serial = Matrix::zeros(2 * f, o);
                policy.grad_weights_into(&[&h, &agg], &grad, None, &mut serial);
                assert_eq!(serial.data(), naive.data(), "o={o}, simd {simd} serial");
                for pool in &pools {
                    assert!(policy.goes_parallel(m, Some(pool)));
                    let mut got = Matrix::from_vec(2 * f, o, vec![f32::NAN; 2 * f * o]);
                    policy.grad_weights_into(&[&h, &agg], &grad, Some(pool), &mut got);
                    let at = format!("o={o}, pool size {}, simd {simd}", pool.size());
                    assert_eq!(got.data(), serial.data(), "{at}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "grad_weights reduction len")]
    fn grad_weights_rejects_a_taller_x() {
        let x = Matrix::xavier(12, 3, 10);
        let grad = Matrix::xavier(10, 2, 11);
        DispatchPolicy::default().grad_weights(&x, &grad, None);
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
        policy.grad_weights_into(&[&h, &agg], &grad, None, &mut dw);
        let h_dst = h.gather_rows(&(0..n_dst as u32).collect::<Vec<_>>());
        let want = reference::matmul_transpose_self(&h_dst.concat_cols(&agg), &grad);
        assert_eq!(dw.data(), want.data());
    }

    /// The input gradient, the GEMM over the transposed window, equals the
    /// GEMM over the explicit transpose bitwise on both tiers: over the full
    /// stacked weight and SAGE's two windows of it, inline and on every pool
    /// size, at depths `o` from a toy 3 through the classifier's 7 and a
    /// hidden layer's 128 to 300 (two `KC` blocks).
    #[test]
    fn grad_input_window_equals_split_reference() {
        let pools = POOL_SIZES.map(|size| ThreadPool::new("t", size));
        let cases = [(4, 3), (21, 7), (21, 128), (21, 300)];
        for ((f, o), policy) in cases.into_iter().flat_map(|c| both_tiers().map(|p| (c, p))) {
            let grad = Matrix::xavier(80, o, 15 + o as u64);
            let w = Matrix::xavier(2 * f, o, 16 + o as u64);
            let naive_full = reference::matmul(&grad, &w.transpose());
            // Row windows = columns of the split reference.
            let (want_self, want_neigh) = naive_full.split_cols(f);
            for p in std::iter::once(None).chain(pools.iter().map(Some)) {
                let at = format!("o={o}, pool size {:?}, {policy:?}", p.map(ThreadPool::size));
                let full = policy.grad_input(&grad, &w, 0..2 * f, p);
                assert_eq!(full.data(), naive_full.data(), "{at}");
                let d_self = policy.grad_input(&grad, &w, 0..f, p);
                let d_neigh = policy.grad_input(&grad, &w, f..2 * f, p);
                assert_eq!(d_self.data(), want_self.data(), "{at}");
                assert_eq!(d_neigh.data(), want_neigh.data(), "{at}");
            }
        }
    }
}
