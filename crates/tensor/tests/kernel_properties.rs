//! Property tests pinning the blocked and SIMD kernels to the naive
//! references.
//!
//! The blocked GEMM family and the transposed aggregation (a gather over
//! the adjacency's transpose) are written so their per-element accumulation
//! order matches the naive oracles in `argo_tensor::reference` exactly
//! (ascending `k` for GEMM, ascending row within column for the transpose) — so the strongest possible property holds: **bitwise
//! equality**, not just tolerance, across ragged shapes that straddle
//! every blocking boundary (1×1, primes, tall-skinny, rows below the
//! 64-row block). Pool-parallel weight gradients reduce per-worker
//! partials, which legally reorders across ranges, so those are held to
//! max-abs-error ≤ 1e-5 instead.
//!
//! The SIMD tier has a two-level contract against the scalar tier
//! (`DispatchPolicy::force_scalar`, the forced-fallback path):
//!
//! * GEMM / weight gradients / input gradients use FMA, which fuses the
//!   per-step rounding — **scaled 1e-5 tolerance**;
//! * SpMM gathers and the bias/ReLU epilogue vectorize the feature
//!   dimension with separate mul+add in scalar lane order — **bitwise**.

use argo_rt::ThreadPool;
use argo_tensor::{reference, DispatchPolicy, Epilogue, Matrix, SparseMatrix};
use proptest::prelude::*;

/// Scaled tolerance of the FMA contract.
fn fma_close(got: f32, want: f32) -> bool {
    (got - want).abs() <= 1e-5 * 1.0f32.max(want.abs())
}

/// A deterministic ragged sparse matrix with controllable density and
/// optionally explicit (non-unit) values.
fn sparse(
    rows: usize,
    cols: usize,
    density_mod: usize,
    with_values: bool,
    salt: usize,
) -> SparseMatrix {
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
    SparseMatrix::new(rows, cols, indptr, indices, with_values.then_some(vals))
}

/// Shapes that straddle the MC=64 / KC=256 / NC=512 blocking boundaries
/// plus degenerate and prime-dimension cases.
const EDGE_DIMS: &[usize] = &[1, 2, 3, 5, 7, 31, 63, 64, 65, 127, 130];

#[test]
fn blocked_gemm_bitwise_equals_naive_at_edge_shapes() {
    let blocked = DispatchPolicy::default().force_scalar();
    for (s, &m) in EDGE_DIMS.iter().enumerate() {
        let k = EDGE_DIMS[(s + 3) % EDGE_DIMS.len()];
        let n = EDGE_DIMS[(s + 7) % EDGE_DIMS.len()];
        let a = Matrix::xavier(m, k, s as u64);
        let b = Matrix::xavier(k, n, s as u64 + 100);
        assert_eq!(
            blocked.gemm(&a, &b, None).data(),
            reference::matmul(&a, &b).data(),
            "gemm {m}x{k}x{n}"
        );
        let b2 = Matrix::xavier(m, n, s as u64 + 150);
        assert_eq!(
            blocked.grad_weights(&a, &b2, None).data(),
            reference::matmul_transpose_self(&a, &b2).data(),
            "AtB {m}x{k}x{n}"
        );
        let bt = Matrix::xavier(n, k, s as u64 + 200);
        assert_eq!(
            blocked.grad_input(&a, &bt, 0..n, None).data(),
            reference::matmul_transpose_other(&a, &bt).data(),
            "ABt {m}x{k}x{n}"
        );
    }
}

#[test]
fn csc_spmm_bitwise_equals_scatter_at_edge_shapes() {
    for (s, &rows) in EDGE_DIMS.iter().enumerate() {
        let cols = EDGE_DIMS[(s + 5) % EDGE_DIMS.len()];
        for with_values in [false, true] {
            let adj = sparse(rows, cols, 3 + s % 5, with_values, s);
            let grad = Matrix::xavier(rows, 9, s as u64 + 300);
            assert_eq!(
                DispatchPolicy::default()
                    .aggregate_transpose(&adj, &grad, None)
                    .data(),
                reference::spmm_transpose(&adj, &grad).data(),
                "rows={rows} cols={cols} values={with_values}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Blocked GEMM == naive GEMM, bitwise, over random ragged shapes
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
        let blocked = DispatchPolicy::default().force_scalar();
        prop_assert_eq!(
            blocked.gemm(&a, &b, None).data(),
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
        let blocked = DispatchPolicy::default().force_scalar();
        let a = Matrix::xavier(m, k, seed);
        let b = Matrix::xavier(m, n, seed ^ 0xA11);
        prop_assert_eq!(
            blocked.grad_weights(&a, &b, None).data(),
            reference::matmul_transpose_self(&a, &b).data()
        );
        let c = Matrix::xavier(n, k, seed ^ 0xB22);
        prop_assert_eq!(
            blocked.grad_input(&a, &c, 0..n, None).data(),
            reference::matmul_transpose_other(&a, &c).data()
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
        with_values in any::<bool>(),
        salt in 0usize..64,
    ) {
        let adj = sparse(rows, cols, density_mod, with_values, salt);
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
        with_values in any::<bool>(),
        salt in 0usize..64,
        picks in prop::collection::vec(0usize..1000, 0..50),
        prefix in 0usize..1000,
    ) {
        let adj = sparse(rows, cols, density_mod, with_values, salt);
        let picks: Vec<usize> = picks.iter().map(|p| p % rows).collect();
        let (mut indptr, mut indices, mut vals) = (vec![0u32], Vec::new(), Vec::new());
        for &r in &picks {
            indices.extend_from_slice(&adj.indices()[adj.row_range(r)]);
            if let Some(v) = adj.values() {
                vals.extend_from_slice(&v[adj.row_range(r)]);
            }
            indptr.push(indices.len() as u32);
        }
        let want = SparseMatrix::new(picks.len(), cols, indptr, indices, with_values.then_some(vals));
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
        with_values in any::<bool>(),
        salt in 0usize..64,
        keep_mod in 1usize..6,
    ) {
        let adj = sparse(rows, cols, density_mod, with_values, salt);
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
            let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want));
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
        with_values in any::<bool>(),
        salt in 0usize..64,
        keep_mod in 1usize..6,
        extra_mod in 1usize..5,
    ) {
        let adj = sparse(rows, cols, density_mod, with_values, salt);
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
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
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
    /// 64-row constant up, so the pool really runs): row-partitioned kernels
    /// stay bitwise equal (disjoint writes, unchanged per-row order); the
    /// reduction-based weight gradient is tolerance-equal (≤ 1e-5).
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
            reference::matmul_transpose_other(&g, &b).data()
        );
        let dw = policy.grad_weights(&a, &g, Some(&pool));
        let want = reference::matmul_transpose_self(&a, &g);
        for (x, y) in dw.data().iter().zip(want.data()) {
            prop_assert!((x - y).abs() <= 1e-5, "dw {x} vs {y}");
        }
    }

    /// SIMD tier vs forced-scalar fallback, dense kernels: FMA paths are
    /// scaled-1e-5 equal; the fused bias/ReLU epilogue values come out of
    /// bitwise-equal lane ops on tolerance-close inputs. Shapes span
    /// 1..130 across every register-tile and blocking boundary. On hosts
    /// without AVX2+FMA both policies run the identical scalar kernels and
    /// the properties hold trivially.
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
        for (x, y) in got.data().iter().zip(want.data()) {
            prop_assert!(fma_close(*x, *y), "gemm+bias {x} vs {y}");
        }
        let g = Matrix::xavier(m, n, seed ^ 0x88);
        let dw_s = simd.grad_weights(&a, &g, None);
        let dw_c = scalar.grad_weights(&a, &g, None);
        for (x, y) in dw_s.data().iter().zip(dw_c.data()) {
            prop_assert!(fma_close(*x, *y), "dw {x} vs {y}");
        }
        let di_s = simd.grad_input(&g, &b, 0..k, None);
        let di_c = scalar.grad_input(&g, &b, 0..k, None);
        for (x, y) in di_s.data().iter().zip(di_c.data()) {
            prop_assert!(fma_close(*x, *y), "di {x} vs {y}");
        }
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
        with_values in any::<bool>(),
        salt in 0usize..64,
    ) {
        let scalar = DispatchPolicy::default().force_scalar();
        let simd = DispatchPolicy::default();
        let adj = sparse(rows, cols, density_mod, with_values, salt);
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
