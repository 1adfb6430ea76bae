//! The reference kernels: the obvious loops, and the scalar tier. Per
//! output element each adds every contribution, skipping none (a NaN or an
//! ∞ behind an exact zero reaches the output), in ascending order.
//!
//! The row forms [`gemm_rows_into`] and [`transpose_self_rows_into`] *are*
//! the scalar tier's dense kernels: [`crate::DispatchPolicy`] runs them over
//! its pool's output row windows without AVX2+FMA, under `ARGO_SIMD=off`
//! and under `force_scalar`; its input gradient is [`gemm_rows_into`] over
//! the transposed weight window. They spell, one element at a time, the
//! sequence the vector tiles run (`crate::simd`'s module doc) with
//! `f32::mul_add`, so every tier gives equal bits; on `x86_64` hosts with
//! `fma` they run compiled for it, elsewhere `mul_add` is software.
//! The whole-matrix functions are the oracles of the bitwise pins in
//! `tests/kernel_properties.rs` and the `serial` column of `micro_kernels`.
//! Model, engine and serving code reach kernels only through the dispatch:
//! the `kernel-dispatch` rule (`crates/check/src/rules.rs`) keeps
//! `reference::` out of them.

use std::ops::Range;

use crate::dense::Matrix;
use crate::simd::with_fma;
use crate::sparse::SparseMatrix;

/// Reduction depth of a GEMM accumulator, on every tier: each `KC` block of
/// an operand's `k` sums from `+0` before it is added to the output.
pub const KC: usize = 256;

/// Output columns of [`gemm_rows_into`]'s accumulator, a stack array.
const COLS: usize = 64;

/// `a @ b`: [`gemm_rows_into`] over every row.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul shape mismatch");
    let mut out = Matrix::zeros(a.rows(), b.cols());
    gemm_rows_into(a, 0..a.rows(), b, 0, out.data_mut());
    out
}

/// `dst += A[rows] @ B[b_row_offset..b_row_offset + a.cols()]`: the GEMM
/// against a row window of `b` (GraphSAGE's two halves of one stacked
/// weight), into the row-major `rows.len() × b.cols()` `dst`. Per element
/// and [`KC`] block of the reduction: an accumulator from `+0`, `mul_add`
/// over `k` ascending, then `dst + acc`.
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
    with_fma(
        #[inline(always)]
        || {
            for (r, i) in rows.enumerate() {
                let ar = a.row(i);
                for (jc, d) in dst[r * n..(r + 1) * n].chunks_mut(COLS).enumerate() {
                    for (kk, ak) in (0..ar.len()).step_by(KC).zip(ar.chunks(KC)) {
                        let mut acc = [0.0f32; COLS];
                        for (k, &av) in (kk..).zip(ak) {
                            let br = &b.row(b_row_offset + k)[jc * COLS..];
                            for (c, &bv) in acc.iter_mut().zip(&br[..d.len()]) {
                                *c = av.mul_add(bv, *c);
                            }
                        }
                        for (dv, &c) in d.iter_mut().zip(&acc) {
                            *dv += c;
                        }
                    }
                }
            }
        },
    )
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
/// into the row-major `rows.len() × b.cols()` `dst`, overwritten. Per
/// element: from `+0`, over the rows ascending, `mul_add` below column
/// `8·⌊n/8⌋` and a separate multiply and add past it.
pub fn transpose_self_rows_into(a: &Matrix, b: &Matrix, rows: Range<usize>, dst: &mut [f32]) {
    let n = b.cols();
    assert!(rows.end <= a.cols(), "transpose_self output rows");
    assert!(a.rows() >= b.rows(), "transpose_self reduction rows");
    assert_eq!(dst.len(), rows.len() * n, "transpose_self dst shape");
    dst.fill(0.0);
    let nv = n - n % 8;
    with_fma(
        #[inline(always)]
        || {
            for k in 0..b.rows() {
                let (yv, yn) = b.row(k).split_at(nv);
                for (i, &x) in a.row(k)[rows.clone()].iter().enumerate() {
                    let (dv, dn) = dst[i * n..(i + 1) * n].split_at_mut(nv);
                    for (d, &y) in dv.iter_mut().zip(yv) {
                        *d = x.mul_add(y, *d);
                    }
                    for (d, &y) in dn.iter_mut().zip(yn) {
                        *d += x * y;
                    }
                }
            }
        },
    )
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
