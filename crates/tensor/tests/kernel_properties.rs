//! Property tests pinning the scalar and SIMD kernels to the naive
//! references.
//!
//! The scalar tier's dense kernels are the row forms of
//! `argo_tensor::reference` itself, and the transposed aggregation (a
//! gather over the adjacency's transpose) adds each output element's
//! contributions in the order of the naive scatter — so through the
//! dispatch, with its row ranges and workspace buffers, the strongest
//! possible property holds: **bitwise equality** with the whole-matrix
//! oracles (`KC` blocks of ascending `k` for the GEMM and for the input
//! gradient, which is the GEMM over the explicit transpose; ascending row
//! within column for the weight gradient and the transposed aggregation),
//! across ragged shapes (1×1, primes, tall-skinny, rows below the pool's
//! 64-row constant), inline and pooled: every pooled kernel, the weight
//! gradient too, splits output rows and leaves each element's sequence as
//! it is. No tier skips a zero term: a NaN or an ∞ behind an exact zero
//! reaches the output on both.
//!
//! The SIMD tier equals the scalar tier (`DispatchPolicy::force_scalar`)
//! **bitwise**: the GEMM and both gradients run the reference's `mul_add`
//! sequence, and the SpMM gathers and the bias/ReLU epilogue vectorize the
//! feature dimension with separate mul+add in scalar lane order.

use argo_rt::ThreadPool;
use argo_tensor::{reference, DispatchPolicy, Epilogue, Matrix, SparseMatrix};
use proptest::prelude::*;

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// A deterministic ragged sparse matrix with controllable density and
/// optionally explicit (non-unit) values.
fn sparse(rows: usize, cols: usize, density_mod: usize, valued: bool, salt: usize) -> SparseMatrix {
    let mut indptr = vec![0u32];
    let mut indices = Vec::new();
    let mut vals = Vec::new();
    for i in 0..rows {
        for j in 0..cols {
            if (i * 7 + j * 13 + salt).is_multiple_of(density_mod) {
                indices.push(j as u32);
                vals.push(((i * 5 + j * 3 + salt) % 9) as f32 * 0.35 - 1.2);
            }
        }
        indptr.push(indices.len() as u32);
    }
    SparseMatrix::new(rows, cols, indptr, indices, valued.then_some(vals))
}

/// Degenerate, prime and pool-boundary (63 / 64 / 65 rows) dimensions.
const EDGE_DIMS: &[usize] = &[1, 2, 3, 5, 7, 31, 63, 64, 65, 127, 130];

#[test]
fn blocked_gemm_bitwise_equals_naive_at_edge_shapes() {
    let scalar = DispatchPolicy::default().force_scalar();
    for (s, &m) in EDGE_DIMS.iter().enumerate() {
        let k = EDGE_DIMS[(s + 3) % EDGE_DIMS.len()];
        let n = EDGE_DIMS[(s + 7) % EDGE_DIMS.len()];
        let a = Matrix::xavier(m, k, s as u64);
        let b = Matrix::xavier(k, n, s as u64 + 100);
        assert_eq!(
            scalar.gemm(&a, &b, None).data(),
            reference::matmul(&a, &b).data(),
            "gemm {m}x{k}x{n}"
        );
        let b2 = Matrix::xavier(m, n, s as u64 + 150);
        assert_eq!(
            scalar.grad_weights(&a, &b2, None).data(),
            reference::matmul_transpose_self(&a, &b2).data(),
            "AtB {m}x{k}x{n}"
        );
        let bt = Matrix::xavier(n, k, s as u64 + 200);
        assert_eq!(
            scalar.grad_input(&a, &bt, 0..n, None).data(),
            reference::matmul(&a, &bt.transpose()).data(),
            "ABt {m}x{k}x{n}"
        );
    }
}

/// `m` × `cols` Xavier values with column `zero` set to an exact `0.0`:
/// ReLU's zeros.
fn with_zero_col(m: usize, cols: usize, zero: usize, seed: u64) -> Matrix {
    let mut x = Matrix::xavier(m, cols, seed);
    for i in 0..m {
        x.set(i, zero, 0.0);
    }
    x
}

/// The columns of `out` that hold a NaN in every row, and whether every
/// other entry is finite.
fn nan_columns(out: &Matrix) -> (Vec<usize>, bool) {
    let nan = (0..out.cols())
        .filter(|&j| (0..out.rows()).all(|i| out.get(i, j).is_nan()))
        .collect::<Vec<_>>();
    let rest_finite = (0..out.rows())
        .all(|i| (0..out.cols()).all(|j| nan.contains(&j) || out.get(i, j).is_finite()));
    (nan, rest_finite)
}

/// A NaN or an ∞ in `B` (or in the gradient) behind an exact-zero `A`
/// entry reaches the output, on both tiers, inline and on a 2-worker pool:
/// `0 · NaN` and `0 · ∞` are NaN and no kernel skips a zero term. Every
/// hidden layer reads ReLU output, whose zeros are exact, so a kernel that
/// skipped them would hide a diverged weight or gradient.
#[test]
fn nonfinite_behind_an_exact_zero_reaches_the_output() {
    let two = ThreadPool::new("nonfinite", 2);
    let (m, f, o) = (70, 5, 6);
    assert!(DispatchPolicy::default().goes_parallel(m, Some(&two)));
    for bad in [f32::NAN, f32::INFINITY] {
        for policy in [
            DispatchPolicy::default(),
            DispatchPolicy::default().force_scalar(),
        ] {
            for pool in [None, Some(&two)] {
                let what = format!(
                    "{bad} simd={} pool={}",
                    policy.simd_enabled(),
                    pool.is_some()
                );
                let bias = vec![0.5f32; o];

                // GEMM: column 2 of `A` is zero, `B[2][3]` is bad.
                let a = with_zero_col(m, f, 2, 1);
                let mut b = Matrix::xavier(f, o, 2);
                b.set(2, 3, bad);
                let mut out = Matrix::zeros(m, o);
                policy.gemm_into(&a, &b, Epilogue::bias(&bias), pool, &mut out);
                assert_eq!(nan_columns(&out), (vec![3], true), "gemm_into {what}");

                // Fused SAGE: `h`'s column 0 against `W_self[0][4]`, `agg`'s
                // column 1 against `W_neigh[1][1]`.
                let h = with_zero_col(m + 3, f, 0, 3);
                let agg = with_zero_col(m, f, 1, 4);
                let mut w = Matrix::xavier(2 * f, o, 5);
                w.set(0, 4, bad);
                w.set(f + 1, 1, bad);
                policy.sage_gemm_into(&h, &agg, &w, Epilogue::bias(&bias), pool, &mut out);
                assert_eq!(
                    nan_columns(&out),
                    (vec![1, 4], true),
                    "sage_gemm_into {what}"
                );

                // Weight gradient: row 9 of both operands is zero, the
                // gradient's `[9][3]` is bad, so column 3 of both stacked
                // gradients is NaN.
                let (mut x, mut x2) = (Matrix::xavier(m, f, 6), Matrix::xavier(m, f, 7));
                x.row_mut(9).fill(0.0);
                x2.row_mut(9).fill(0.0);
                let mut g = Matrix::xavier(m, o, 8);
                g.set(9, 3, bad);
                let mut dw = Matrix::zeros(2 * f, o);
                policy.grad_weights_into(&[&x, &x2], &g, pool, &mut dw);
                assert_eq!(
                    nan_columns(&dw),
                    (vec![3], true),
                    "grad_weights_into {what}"
                );

                // Input gradient over the window `W[f..2f]`: column 2 of the
                // gradient is zero, `W[f + 4][2]` is bad, so output column 4
                // is NaN.
                let g = with_zero_col(m, o, 2, 9);
                let mut w = Matrix::xavier(2 * f, o, 10);
                w.set(f + 4, 2, bad);
                let mut dx = Matrix::zeros(m, f);
                policy.grad_input_into(&g, &w, f..2 * f, pool, &mut dx);
                assert_eq!(nan_columns(&dx), (vec![4], true), "grad_input_into {what}");
            }
        }
    }
}

#[test]
fn csc_spmm_bitwise_equals_scatter_at_edge_shapes() {
    for (s, &rows) in EDGE_DIMS.iter().enumerate() {
        let cols = EDGE_DIMS[(s + 5) % EDGE_DIMS.len()];
        for valued in [false, true] {
            let adj = sparse(rows, cols, 3 + s % 5, valued, s);
            let grad = Matrix::xavier(rows, 9, s as u64 + 300);
            assert_eq!(
                DispatchPolicy::default()
                    .aggregate_transpose(&adj, &grad, None)
                    .data(),
                reference::spmm_transpose(&adj, &grad).data(),
                "rows={rows} cols={cols} values={valued}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scalar-tier GEMM == naive GEMM, bitwise, over random ragged shapes
    /// (tall-skinny, short-wide, sub-block) and seeds.
    #[test]
    fn blocked_gemm_matches_naive(
        m in 1usize..140,
        k in 1usize..70,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let a = Matrix::xavier(m, k, seed);
        let b = Matrix::xavier(k, n, seed ^ 0x5EED);
        let scalar = DispatchPolicy::default().force_scalar();
        prop_assert_eq!(
            scalar.gemm(&a, &b, None).data(),
            reference::matmul(&a, &b).data()
        );
    }

    /// Both transpose flavors == naive, bitwise, over random shapes.
    #[test]
    fn blocked_transposes_match_naive(
        m in 1usize..140,
        k in 1usize..24,
        n in 1usize..24,
        seed in 0u64..1000,
    ) {
        let scalar = DispatchPolicy::default().force_scalar();
        let a = Matrix::xavier(m, k, seed);
        let b = Matrix::xavier(m, n, seed ^ 0xA11);
        prop_assert_eq!(
            scalar.grad_weights(&a, &b, None).data(),
            reference::matmul_transpose_self(&a, &b).data()
        );
        let c = Matrix::xavier(n, k, seed ^ 0xB22);
        prop_assert_eq!(
            scalar.grad_input(&a, &c, 0..n, None).data(),
            reference::matmul(&a, &c.transpose()).data()
        );
    }

    /// CSC-gather transposed SpMM == naive scatter, bitwise, with and
    /// without explicit values, over random sparsity patterns.
    #[test]
    fn csc_spmm_matches_scatter(
        rows in 1usize..120,
        cols in 1usize..90,
        density_mod in 2usize..12,
        dim in 1usize..12,
        valued in any::<bool>(),
        salt in 0usize..64,
    ) {
        let adj = sparse(rows, cols, density_mod, valued, salt);
        let grad = Matrix::xavier(rows, dim, salt as u64);
        prop_assert_eq!(
            DispatchPolicy::default()
                .aggregate_transpose(&adj, &grad, None)
                .data(),
            reference::spmm_transpose(&adj, &grad).data()
        );
    }

    /// `select_rows` is a row-by-row copy — any order, repeats allowed, with
    /// and without values — the identity on `0..rows`, and on a prefix the
    /// owned twin of the free `row_prefix` view.
    #[test]
    fn select_rows_is_a_row_by_row_copy(
        rows in 1usize..60,
        cols in 1usize..40,
        density_mod in 2usize..9,
        valued in any::<bool>(),
        salt in 0usize..64,
        picks in prop::collection::vec(0usize..1000, 0..50),
        prefix in 0usize..1000,
    ) {
        let adj = sparse(rows, cols, density_mod, valued, salt);
        let picks: Vec<usize> = picks.iter().map(|p| p % rows).collect();
        let (mut indptr, mut indices, mut vals) = (vec![0u32], Vec::new(), Vec::new());
        for &r in &picks {
            indices.extend_from_slice(&adj.indices()[adj.row_range(r)]);
            if let Some(v) = adj.values() {
                vals.extend_from_slice(&v[adj.row_range(r)]);
            }
            indptr.push(indices.len() as u32);
        }
        let want = SparseMatrix::new(picks.len(), cols, indptr, indices, valued.then_some(vals));
        prop_assert_eq!(adj.select_rows(&picks), want);

        let all: Vec<usize> = (0..rows).collect();
        prop_assert_eq!(&adj.select_rows(&all), &adj);
        let n = prefix % (rows + 1);
        prop_assert_eq!(adj.view().row_prefix(n).to_owned(), adj.select_rows(&all[..n]));
    }

    /// What lets a model run its last layer on the seed rows only: for an
    /// **ascending** row set `S`, aggregation over `select_rows(S)` is rows
    /// `S` of the full aggregation, and transposed aggregation of a gradient
    /// over `select_rows(S)` is the full transposed aggregation of that
    /// gradient zero-padded to every row — bitwise, on both tiers.
    #[test]
    fn row_selection_commutes_with_both_aggregations(
        rows in 1usize..120,
        cols in 1usize..90,
        density_mod in 2usize..12,
        dim in 1usize..20,
        valued in any::<bool>(),
        salt in 0usize..64,
        keep_mod in 1usize..6,
    ) {
        let adj = sparse(rows, cols, density_mod, valued, salt);
        let kept: Vec<usize> = (0..rows).filter(|i| (i * 3 + salt) % keep_mod == 0).collect();
        let slice = adj.select_rows(&kept);
        let h = Matrix::xavier(cols, dim, salt as u64 ^ 0x77);
        let grad = Matrix::xavier(kept.len(), dim, salt as u64 ^ 0x88);
        let mut padded = Matrix::zeros(rows, dim);
        for (i, &r) in kept.iter().enumerate() {
            padded.row_mut(r).copy_from_slice(grad.row(i));
        }
        for policy in [DispatchPolicy::default(), DispatchPolicy::default().force_scalar()] {
            let full = policy.aggregate(&adj, &h, None);
            let got = policy.aggregate(&slice, &h, None);
            for (i, &r) in kept.iter().enumerate() {
                prop_assert_eq!(got.row(i), full.row(r));
            }
            let got = policy.aggregate_transpose(&slice, &grad, None);
            let want = policy.aggregate_transpose(&adj, &padded, None);
            prop_assert_eq!(bits(got.data()), bits(want.data()));
        }
    }

    /// What lets a model run *every* layer on the rows the next one reads:
    /// select an ascending row set `R`, then renumber the slice's columns to
    /// their ranks in an ascending superset `C` of the columns it names.
    /// Aggregating `h`'s rows `C` over the result is rows `R` of the full
    /// aggregation, and the transposed aggregation of a gradient is rows `C`
    /// of the full one over that gradient zero-padded to every row — bitwise,
    /// on both tiers: the rank map is monotone, so no row of the slice or of
    /// its transpose changes its entry order.
    #[test]
    fn ranked_columns_commute_with_both_aggregations(
        rows in 1usize..120,
        cols in 1usize..90,
        density_mod in 2usize..12,
        dim in 1usize..20,
        valued in any::<bool>(),
        salt in 0usize..64,
        keep_mod in 1usize..6,
        extra_mod in 1usize..5,
    ) {
        let adj = sparse(rows, cols, density_mod, valued, salt);
        let kept: Vec<usize> = (0..rows).filter(|i| (i * 3 + salt) % keep_mod == 0).collect();
        let mut slice = adj.select_rows(&kept);
        // `C`: every named column plus some that nothing names.
        let mut rank = vec![u32::MAX; cols];
        for &c in slice.indices() {
            rank[c as usize] = 0;
        }
        for c in (0..cols).filter(|c| (c + salt) % extra_mod == 0) {
            rank[c] = 0;
        }
        let named: Vec<usize> = (0..cols).filter(|&c| rank[c] == 0).collect();
        for (k, &c) in named.iter().enumerate() {
            rank[c] = k as u32;
        }
        slice.rank_columns(&rank, named.len());
        prop_assert_eq!((slice.rows(), slice.cols()), (kept.len(), named.len()));

        let h = Matrix::xavier(cols, dim, salt as u64 ^ 0x77);
        let mut h_named = Matrix::zeros(named.len(), dim);
        for (k, &c) in named.iter().enumerate() {
            h_named.row_mut(k).copy_from_slice(h.row(c));
        }
        let grad = Matrix::xavier(kept.len(), dim, salt as u64 ^ 0x88);
        let mut padded = Matrix::zeros(rows, dim);
        for (i, &r) in kept.iter().enumerate() {
            padded.row_mut(r).copy_from_slice(grad.row(i));
        }
        for policy in [DispatchPolicy::default(), DispatchPolicy::default().force_scalar()] {
            let full = policy.aggregate(&adj, &h, None);
            let got = policy.aggregate(&slice, &h_named, None);
            for (i, &r) in kept.iter().enumerate() {
                prop_assert_eq!(bits(got.row(i)), bits(full.row(r)));
            }
            let full = policy.aggregate_transpose(&adj, &padded, None);
            let got = policy.aggregate_transpose(&slice, &grad, None);
            for (k, &c) in named.iter().enumerate() {
                prop_assert_eq!(bits(got.row(k)), bits(full.row(c)));
            }
            // What `C` leaves out, nothing kept names: its gradient is zero.
            for c in (0..cols).filter(|&c| rank[c] == u32::MAX) {
                prop_assert!(full.row(c).iter().all(|x| *x == 0.0));
            }
        }
    }

    /// Pool-parallel dispatch on the scalar tier (row counts from the
    /// 64-row constant up, so the pool really runs): every kernel splits its
    /// output rows (the weight gradient: `dW`'s rows, each worker reducing
    /// over all `m`), so each stays bitwise equal to its naive loop.
    #[test]
    fn pooled_dispatch_matches_naive(
        m in 64usize..190,
        k in 1usize..16,
        n in 1usize..12,
        seed in 0u64..1000,
    ) {
        let pool = ThreadPool::new("prop", 3);
        let policy = DispatchPolicy::default().force_scalar();
        prop_assert!(policy.goes_parallel(m, Some(&pool)));
        let a = Matrix::xavier(m, k, seed);
        let b = Matrix::xavier(k, n, seed ^ 0x33);
        prop_assert_eq!(
            policy.gemm(&a, &b, Some(&pool)).data(),
            reference::matmul(&a, &b).data()
        );
        let g = Matrix::xavier(m, n, seed ^ 0x44);
        prop_assert_eq!(
            policy.grad_input(&g, &b, 0..k, Some(&pool)).data(),
            reference::matmul(&g, &b.transpose()).data()
        );
        prop_assert_eq!(
            policy.grad_weights(&a, &g, Some(&pool)).data(),
            reference::matmul_transpose_self(&a, &g).data()
        );
    }

    /// SIMD tier vs forced-scalar fallback, dense kernels: bitwise, the
    /// fused bias epilogue included. Shapes span 1..130 across every
    /// register-tile boundary. On hosts without AVX2+FMA both policies run
    /// the identical scalar tier and the properties hold trivially.
    #[test]
    fn simd_dispatch_matches_scalar_within_contract(
        m in 1usize..130,
        k in 1usize..130,
        n in 1usize..36,
        seed in 0u64..1000,
    ) {
        let scalar = DispatchPolicy::default().force_scalar();
        let simd = DispatchPolicy::default();
        let a = Matrix::xavier(m, k, seed);
        let b = Matrix::xavier(k, n, seed ^ 0x77);
        let bias: Vec<f32> = (0..n).map(|i| (i as f32) * 0.11 - 0.4).collect();
        let mut got = Matrix::zeros(m, n);
        simd.gemm_into(&a, &b, Epilogue::bias(&bias), None, &mut got);
        let mut want = Matrix::zeros(m, n);
        scalar.gemm_into(&a, &b, Epilogue::bias(&bias), None, &mut want);
        prop_assert_eq!(bits(got.data()), bits(want.data()), "gemm+bias");
        let g = Matrix::xavier(m, n, seed ^ 0x88);
        let (dw_s, dw_c) = (simd.grad_weights(&a, &g, None), scalar.grad_weights(&a, &g, None));
        prop_assert_eq!(bits(dw_s.data()), bits(dw_c.data()), "dw");
        let (di_s, di_c) = (simd.grad_input(&g, &b, 0..k, None), scalar.grad_input(&g, &b, 0..k, None));
        prop_assert_eq!(bits(di_s.data()), bits(di_c.data()), "di");
    }

    /// SIMD tier vs forced-scalar fallback, sparse kernels: the vectorized
    /// row gather uses separate mul+add in scalar lane order, so both SpMM
    /// directions are **bitwise** equal to the fallback.
    #[test]
    fn simd_spmm_bitwise_equals_scalar(
        rows in 1usize..130,
        cols in 1usize..90,
        density_mod in 2usize..12,
        dim in 1usize..20,
        valued in any::<bool>(),
        salt in 0usize..64,
    ) {
        let scalar = DispatchPolicy::default().force_scalar();
        let simd = DispatchPolicy::default();
        let adj = sparse(rows, cols, density_mod, valued, salt);
        let h = Matrix::xavier(cols, dim, salt as u64 ^ 0x99);
        prop_assert_eq!(
            simd.aggregate(&adj, &h, None).data(),
            scalar.aggregate(&adj, &h, None).data()
        );
        let grad = Matrix::xavier(rows, dim, salt as u64 ^ 0xAA);
        prop_assert_eq!(
            simd.aggregate_transpose(&adj, &grad, None).data(),
            scalar.aggregate_transpose(&adj, &grad, None).data()
        );
    }
}
