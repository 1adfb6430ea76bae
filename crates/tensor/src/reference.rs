//! The reference kernels: the obvious loops, and the scalar tier. Per
//! output element each adds every contribution, skipping none (a NaN or an
//! ∞ behind an exact zero reaches the output), one at a time in ascending
//! order, with a separate multiply and add.
//!
//! The row forms [`gemm_rows_into`] and [`transpose_self_rows_into`] *are*
//! the scalar tier's dense kernels: [`crate::DispatchPolicy`] runs them over
//! its pool's output row windows without AVX2+FMA, under `ARGO_SIMD=off`
//! and under `force_scalar`; its scalar input gradient is [`gemm_rows_into`] over the
//! transposed weight window, term for term [`matmul_transpose_other`]'s dot.
//! The whole-matrix functions are the oracles of the bitwise pins in
//! `tests/kernel_properties.rs` and the `serial` column of `micro_kernels`.
//! Model, engine and serving code reach kernels only through the dispatch:
//! the `kernel-dispatch` rule (`crates/check/src/rules.rs`) keeps
//! `reference::` out of them.

use std::ops::Range;

use crate::dense::Matrix;
use crate::sparse::SparseMatrix;

/// `a @ b`: [`gemm_rows_into`] over every row.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul shape mismatch");
    let mut out = Matrix::zeros(a.rows(), b.cols());
    gemm_rows_into(a, 0..a.rows(), b, 0, out.data_mut());
    out
}

/// `dst += A[rows] @ B[b_row_offset..b_row_offset + a.cols()]`: the GEMM
/// against a row window of `b` (GraphSAGE's two halves of one stacked
/// weight), into the row-major `rows.len() × b.cols()` `dst` (ikj-ordered).
pub fn gemm_rows_into(
    a: &Matrix,
    rows: Range<usize>,
    b: &Matrix,
    b_row_offset: usize,
    dst: &mut [f32],
) {
    let n = b.cols();
    assert!(b_row_offset + a.cols() <= b.rows(), "gemm B row window");
    assert_eq!(dst.len(), rows.len() * n, "gemm dst shape");
    for (r, i) in rows.enumerate() {
        let drow = &mut dst[r * n..(r + 1) * n];
        for (k, &av) in a.row(i).iter().enumerate() {
            for (d, &bv) in drow.iter_mut().zip(b.row(b_row_offset + k)) {
                *d += av * bv;
            }
        }
    }
}

/// `aᵀ @ b` (weight gradients: `dW = Xᵀ dY`): [`transpose_self_rows_into`]
/// into every row.
pub fn matmul_transpose_self(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "matmul_transpose_self shape mismatch");
    let mut out = Matrix::zeros(a.cols(), b.cols());
    transpose_self_rows_into(a, b, 0..a.cols(), out.data_mut());
    out
}

/// `dst = (Aᵀ @ B)[rows]`: the weight gradient's output rows `rows` (columns
/// `rows` of `a`), reduced over the first `b.rows()` rows of `a` and `b`,
/// into the row-major `rows.len() × b.cols()` `dst`, overwritten (from `+0`,
/// rows ascending).
pub fn transpose_self_rows_into(a: &Matrix, b: &Matrix, rows: Range<usize>, dst: &mut [f32]) {
    let n = b.cols();
    assert!(rows.end <= a.cols(), "transpose_self output rows");
    assert!(a.rows() >= b.rows(), "transpose_self reduction rows");
    assert_eq!(dst.len(), rows.len() * n, "transpose_self dst shape");
    dst.fill(0.0);
    for k in 0..b.rows() {
        let yr = b.row(k);
        for (i, &x) in a.row(k)[rows.clone()].iter().enumerate() {
            for (d, &y) in dst[i * n..(i + 1) * n].iter_mut().zip(yr) {
                *d += x * y;
            }
        }
    }
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
