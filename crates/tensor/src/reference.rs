//! Naive reference kernels — the oracles, not a tier.
//!
//! Production code has two kernel tiers: SIMD (`simd.rs`: AVX2+FMA, or
//! AVX-512 for the dense kernels) and the blocked scalar kernels it falls
//! back to (`kernels.rs`), both
//! reached only through [`crate::DispatchPolicy`]. The functions here are
//! the obvious loops those tiers are tested and benchmarked against: per
//! output element they add the contributions one at a time in ascending
//! order, which is the order the scalar tier and the CSR gather preserve —
//! so the bitwise pins in `tests/kernel_properties.rs` compare against
//! these, and the `serial` column of `micro_kernels` times them. Only tests
//! and benches call them (the `kernel-dispatch` rule of
//! `crates/check/tests/hot_paths.rs` keeps `reference::` out of model,
//! engine and serving code).

use crate::dense::Matrix;
use crate::sparse::SparseMatrix;

/// `a @ b` (ikj-ordered).
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul shape mismatch");
    let n = b.cols();
    let mut out = Matrix::zeros(a.rows(), n);
    for i in 0..a.rows() {
        let drow = &mut out.data_mut()[i * n..(i + 1) * n];
        for (k, &av) in a.row(i).iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            for (d, &bv) in drow.iter_mut().zip(b.row(k)) {
                *d += av * bv;
            }
        }
    }
    out
}

/// `aᵀ @ b` (weight gradients: `dW = Xᵀ dY`).
pub fn matmul_transpose_self(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "matmul_transpose_self shape mismatch");
    let n = b.cols();
    let mut out = Matrix::zeros(a.cols(), n);
    for k in 0..a.rows() {
        let yr = b.row(k);
        for (i, &x) in a.row(k).iter().enumerate() {
            if x == 0.0 {
                continue;
            }
            let dst = &mut out.data_mut()[i * n..(i + 1) * n];
            for (d, &y) in dst.iter_mut().zip(yr) {
                *d += x * y;
            }
        }
    }
    out
}

/// `a @ bᵀ` (input gradients: `dX = dY Wᵀ`).
pub fn matmul_transpose_other(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "matmul_transpose_other shape mismatch");
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        let ar = a.row(i);
        for j in 0..b.rows() {
            let mut acc = 0.0f32;
            for (x, y) in ar.iter().zip(b.row(j)) {
                acc += x * y;
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// `adjᵀ @ dense` as a scatter over the CSR entries in row-major order
/// (backward of aggregation: `dX = Aᵀ dY`). The production path gathers over
/// the transpose instead ([`SparseMatrix::transpose_into`]), which visits
/// each output element's contributions in this same order.
pub fn spmm_transpose(adj: &SparseMatrix, dense: &Matrix) -> Matrix {
    assert_eq!(adj.rows(), dense.rows(), "spmm_transpose shape mismatch");
    let n = dense.cols();
    let mut out = Matrix::zeros(adj.cols(), n);
    for i in 0..adj.rows() {
        let src = dense.row(i);
        for k in adj.row_range(i) {
            let j = adj.indices()[k] as usize;
            let w = adj.values().map_or(1.0, |v| v[k]);
            let drow = &mut out.data_mut()[j * n..(j + 1) * n];
            for (d, &s) in drow.iter_mut().zip(src) {
                *d += w * s;
            }
        }
    }
    out
}
