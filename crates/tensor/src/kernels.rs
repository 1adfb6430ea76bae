//! The scalar tier: cache-blocked GEMM kernels with register-tiled
//! micro-kernels — what the SIMD tier ([`crate::simd`]) falls back to, and
//! the only tier on hosts without AVX2+FMA.
//!
//! The naive loops in [`crate::reference`] stream the whole of `B` through
//! the cache once per row of `A`; past L2-sized operands that turns GEMM
//! memory-bound. The kernels here tile the `i`/`k`/`j` loops so a
//! `KC × NC` panel of `B` stays resident while an `MC`-row panel of `A`
//! is multiplied against it, and an `MR`-row micro-kernel keeps `MR`
//! output rows in registers across the `k` loop.
//!
//! Accumulation order is preserved relative to the naive `ikj` kernels:
//! for every output element the `k` contributions are added in ascending
//! order, one at a time — so the blocked results are exactly equal
//! (under `f32` `==`) to the reference implementations, not merely close.
//! The property suite in `tests/kernel_properties.rs` pins this down.
//!
//! Two products, [`gemm_into`] and [`transpose_self_into`]: the input
//! gradient `dY · Wᵀ` is [`gemm_into`] over the transposed weight window
//! (see [`crate::dispatch::DispatchPolicy::grad_input_into`]), whose `k`
//! terms per element arrive one at a time, ascending from `+0` — exactly
//! the naive dot of [`crate::reference::matmul_transpose_other`].
//!
//! All functions take explicit row ranges so the pool-parallel wrappers in
//! [`crate::dispatch`] can hand disjoint output slices to workers, and so
//! the fused GraphSAGE layer can multiply against a *row window* of the
//! weight matrix (`W_self` / `W_neigh`) without materializing the
//! `[h ‖ agg]` concatenation.

use std::ops::Range;

use crate::dense::Matrix;

/// Rows of `A` per cache block.
pub(crate) const MC: usize = 64;
/// Reduction depth per cache block (a `KC × NC` panel of `B` is ~512 KiB of
/// f32 at the defaults — sized for a shared L2).
pub(crate) const KC: usize = 256;
/// Columns of `B` per cache block.
pub(crate) const NC: usize = 512;
/// Micro-kernel row tile: output rows held live across the `k` loop.
const MR: usize = 4;

/// Computes `dst += A[rows] @ B[b_row_offset ..]`, where the `B` operand is
/// the row window `b.rows() ∈ [b_row_offset, b_row_offset + a.cols())`.
///
/// `dst` is row-major `rows.len() × b.cols()`.
pub(crate) fn gemm_into(
    a: &Matrix,
    rows: Range<usize>,
    b: &Matrix,
    b_row_offset: usize,
    dst: &mut [f32],
) {
    let k_dim = a.cols();
    let n = b.cols();
    debug_assert!(b_row_offset + k_dim <= b.rows(), "B row window in range");
    debug_assert_eq!(dst.len(), rows.len() * n, "dst shape");
    let m = rows.len();
    // k is the outermost blocked loop so that, per output element, the k
    // contributions still arrive in ascending order (exactness invariant).
    for kk in (0..k_dim).step_by(KC) {
        let k_hi = (kk + KC).min(k_dim);
        for jj in (0..n).step_by(NC) {
            let j_hi = (jj + NC).min(n);
            for ii in (0..m).step_by(MC) {
                let i_hi = (ii + MC).min(m);
                let mut i = ii;
                while i + MR <= i_hi {
                    micro_gemm_mr(
                        a,
                        rows.start + i,
                        kk..k_hi,
                        b,
                        b_row_offset,
                        jj..j_hi,
                        &mut dst[i * n..(i + MR) * n],
                        n,
                    );
                    i += MR;
                }
                for r in i..i_hi {
                    let arow = a.row(rows.start + r);
                    let drow = &mut dst[r * n + jj..r * n + j_hi];
                    for (k, &av) in arow.iter().enumerate().take(k_hi).skip(kk) {
                        let brow = &b.row(b_row_offset + k)[jj..j_hi];
                        for (d, &bv) in drow.iter_mut().zip(brow) {
                            *d += av * bv;
                        }
                    }
                }
            }
        }
    }
}

/// `MR`-row GEMM micro-kernel: `dst[0..MR] += A[a_row0..+MR][kk] @ B`
/// restricted to columns `jj`. The four output row strips stay in
/// registers/L1 across the whole `k` block; each `B` row is loaded once and
/// feeds four independent accumulation streams (the register tiling).
#[allow(clippy::too_many_arguments)] // internal micro-kernel: all args are loop indices
#[inline]
fn micro_gemm_mr(
    a: &Matrix,
    a_row0: usize,
    kk: Range<usize>,
    b: &Matrix,
    b_row_offset: usize,
    jj: Range<usize>,
    dst: &mut [f32],
    n: usize,
) {
    let (a0, a1, a2, a3) = (
        a.row(a_row0),
        a.row(a_row0 + 1),
        a.row(a_row0 + 2),
        a.row(a_row0 + 3),
    );
    let (d01, d23) = dst.split_at_mut(2 * n);
    let (d0, d1) = d01.split_at_mut(n);
    let (d2, d3) = d23.split_at_mut(n);
    let (d0, d1, d2, d3) = (
        &mut d0[jj.clone()],
        &mut d1[jj.clone()],
        &mut d2[jj.clone()],
        &mut d3[jj.clone()],
    );
    for k in kk {
        let bk = &b.row(b_row_offset + k)[jj.clone()];
        let (a0k, a1k, a2k, a3k) = (a0[k], a1[k], a2[k], a3[k]);
        let it = d0
            .iter_mut()
            .zip(d1.iter_mut())
            .zip(d2.iter_mut())
            .zip(d3.iter_mut())
            .zip(bk.iter());
        for ((((r0, r1), r2), r3), &bv) in it {
            *r0 += a0k * bv;
            *r1 += a1k * bv;
            *r2 += a2k * bv;
            *r3 += a3k * bv;
        }
    }
}

/// Computes `dst = A[rows]ᵀ @ B[rows]` where `dst` is the full `a.cols() ×
/// b.cols()` weight-gradient matrix (`dW = Xᵀ dY` restricted to a row range
/// of the reduction), overwritten. Callers parallelize by giving each worker
/// a disjoint `rows` range and a private `dst`, then reducing.
///
/// Contributions per output element arrive in ascending row order, matching
/// the naive kernel exactly when `rows` covers the whole reduction
/// serially.
pub(crate) fn transpose_self_into(a: &Matrix, b: &Matrix, rows: Range<usize>, dst: &mut [f32]) {
    let k_a = a.cols();
    let n = b.cols();
    debug_assert_eq!(dst.len(), k_a * n, "dst shape");
    dst.fill(0.0);
    let lo = rows.start;
    let m = rows.len();
    // Block the reduction (rows of A/B) and the output rows (cols of A):
    // a KC-row panel of B stays hot while MC output rows accumulate it.
    for rr in (0..m).step_by(KC) {
        let r_hi = (rr + KC).min(m);
        for ii in (0..k_a).step_by(MC) {
            let i_hi = (ii + MC).min(k_a);
            let mut r = rr;
            while r + MR <= r_hi {
                // 4-row unroll of the reduction: one pass over the dst rows
                // folds four (a_row ⊗ b_row) outer products, added
                // sequentially so accumulation order is still ascending.
                let (ar0, ar1, ar2, ar3) = (
                    a.row(lo + r),
                    a.row(lo + r + 1),
                    a.row(lo + r + 2),
                    a.row(lo + r + 3),
                );
                let (br0, br1, br2, br3) = (
                    b.row(lo + r),
                    b.row(lo + r + 1),
                    b.row(lo + r + 2),
                    b.row(lo + r + 3),
                );
                for i in ii..i_hi {
                    let (x0, x1, x2, x3) = (ar0[i], ar1[i], ar2[i], ar3[i]);
                    let drow = &mut dst[i * n..(i + 1) * n];
                    let it = drow
                        .iter_mut()
                        .zip(br0.iter())
                        .zip(br1.iter())
                        .zip(br2.iter())
                        .zip(br3.iter());
                    for ((((d, &y0), &y1), &y2), &y3) in it {
                        let mut v = *d;
                        v += x0 * y0;
                        v += x1 * y1;
                        v += x2 * y2;
                        v += x3 * y3;
                        *d = v;
                    }
                }
                r += MR;
            }
            for rem in r..r_hi {
                let ar = a.row(lo + rem);
                let br = b.row(lo + rem);
                for i in ii..i_hi {
                    let x = ar[i];
                    let drow = &mut dst[i * n..(i + 1) * n];
                    for (d, &y) in drow.iter_mut().zip(br) {
                        *d += x * y;
                    }
                }
            }
        }
    }
}

/// Fused GEMM write-back: adds `bias` to every row of `dst` and, when
/// `relu`, clamps negatives in place. No activation mask is recorded: the
/// output is `z if z > 0 else 0`, so `out > 0` *is* the mask and the
/// backward pass reads it off the layer output.
pub(crate) fn epilogue_bias_relu(dst: &mut [f32], bias: &[f32], relu: bool) {
    let n = bias.len();
    debug_assert!(dst.len().is_multiple_of(n.max(1)), "dst rows × bias len");
    for drow in dst.chunks_exact_mut(n) {
        if relu {
            for (v, &bv) in drow.iter_mut().zip(bias) {
                let z = *v + bv;
                *v = if z > 0.0 { z } else { 0.0 };
            }
        } else {
            for (v, &bv) in drow.iter_mut().zip(bias) {
                *v += bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    #[test]
    fn blocked_matmul_matches_naive_exactly() {
        for (m, k, n) in [(1, 1, 1), (7, 13, 5), (65, 300, 9), (130, 64, 520)] {
            let a = Matrix::xavier(m, k, 1);
            let b = Matrix::xavier(k, n, 2);
            let mut blocked = Matrix::zeros(m, n);
            gemm_into(&a, 0..m, &b, 0, blocked.data_mut());
            assert_eq!(
                reference::matmul(&a, &b).data(),
                blocked.data(),
                "shape {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn blocked_transpose_self_matches_naive_exactly() {
        for (rows, ka, n) in [(1, 1, 1), (300, 7, 11), (520, 65, 4)] {
            let a = Matrix::xavier(rows, ka, 3);
            let b = Matrix::xavier(rows, n, 4);
            let mut blocked = Matrix::zeros(ka, n);
            transpose_self_into(&a, &b, 0..rows, blocked.data_mut());
            assert_eq!(
                reference::matmul_transpose_self(&a, &b).data(),
                blocked.data(),
                "shape {rows}x{ka}x{n}"
            );
        }
    }

    #[test]
    fn gemm_into_row_window_of_b() {
        // Multiplying against a row window of B equals slicing B first:
        // the fused-SAGE invariant (W_self / W_neigh halves of one W).
        let a = Matrix::xavier(10, 6, 7);
        let w = Matrix::xavier(12, 8, 8); // two stacked 6x8 halves
        let mut top = Matrix::zeros(10, 8);
        gemm_into(&a, 0..10, &w, 0, top.data_mut());
        let mut bot = Matrix::zeros(10, 8);
        gemm_into(&a, 0..10, &w, 6, bot.data_mut());
        let w_top = Matrix::from_vec(6, 8, w.data()[..48].to_vec());
        let w_bot = Matrix::from_vec(6, 8, w.data()[48..].to_vec());
        assert_eq!(top.data(), reference::matmul(&a, &w_top).data());
        assert_eq!(bot.data(), reference::matmul(&a, &w_bot).data());
        // Accumulating into `dst` fuses the two halves into one output.
        let mut fused = top.clone();
        gemm_into(&a, 0..10, &w, 6, fused.data_mut());
        for (f, (t, b)) in fused.data().iter().zip(top.data().iter().zip(bot.data())) {
            assert!((f - (t + b)).abs() < 1e-5);
        }
    }

    #[test]
    fn epilogue_bias_relu_masks_and_clamps() {
        // z = [1, -1, 0.5, 0.75]: the clamped output is positive exactly
        // where z is, so `out > 0` is the activation mask.
        let mut d = vec![1.0f32, -2.0, 0.5, -0.25];
        epilogue_bias_relu(&mut d, &[0.0, 1.0], true);
        assert_eq!(d, vec![1.0, 0.0, 0.5, 0.75]);
        let mask: Vec<bool> = d.iter().map(|&v| v > 0.0).collect();
        assert_eq!(mask, vec![true, false, true, true]);
        let mut d2 = vec![1.0f32, -2.0];
        epilogue_bias_relu(&mut d2, &[0.5, 0.5], false);
        assert_eq!(d2, vec![1.5, -1.5]);
    }
}
