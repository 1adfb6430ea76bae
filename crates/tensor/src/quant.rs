//! Post-training weight quantization for inference.
//!
//! A [`QuantizedMatrix`] is built once from trained f32 weights and then
//! used as the `B` operand of inference GEMMs. Two schemes:
//!
//! * **bf16** — each value keeps the upper 16 bits of its f32 encoding
//!   (sign, exponent, 8 mantissa bits), rounded to nearest-even. Halves
//!   weight memory; relative error per value ≤ 2⁻⁸.
//! * **int8** — per-*column* affine-free quantization: each column `j`
//!   stores `round(v / scale_j)` clamped to ±127 with
//!   `scale_j = maxabs_j / 127` (columns of all zeros use scale 1.0).
//!   Per-column scales matter because GNN weight columns span very
//!   different magnitudes after training.
//!
//! Dequantization happens inside the GEMM: the SIMD path dequantizes while
//! packing `B` panels (touching each weight once per `MC`-row block), and
//! the scalar fallback below dequantizes one row at a time into a pack-
//! arena buffer. Activations stay f32 throughout — this trades weight
//! bandwidth for a bounded accuracy delta, pinned by the serve-side
//! accuracy tests.

use std::ops::Range;

use crate::dense::Matrix;
use crate::workspace;

/// Quantization scheme for inference weights.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuantKind {
    /// Truncated f32 (upper 16 bits, round-to-nearest-even).
    Bf16,
    /// Per-column symmetric int8 (`scale = maxabs / 127`).
    Int8,
}

impl QuantKind {
    /// Stable lowercase name, used in specs and reports.
    pub fn name(&self) -> &'static str {
        match self {
            QuantKind::Bf16 => "bf16",
            QuantKind::Int8 => "int8",
        }
    }
}

enum Repr {
    Bf16(Vec<u16>),
    Int8 { data: Vec<i8>, scales: Vec<f32> },
}

/// A weight matrix stored quantized, dequantized on the fly during GEMM
/// packing. Built from trained f32 weights via [`QuantizedMatrix::quantize`].
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    repr: Repr,
}

fn f32_to_bf16(v: f32) -> u16 {
    let bits = v.to_bits();
    // Round to nearest, ties to even on the truncated 16-bit boundary.
    let rounded = bits.wrapping_add(0x7FFF + ((bits >> 16) & 1));
    (rounded >> 16) as u16
}

fn bf16_to_f32(u: u16) -> f32 {
    f32::from_bits((u as u32) << 16)
}

impl QuantizedMatrix {
    /// Quantizes trained f32 weights with the given scheme.
    pub fn quantize(m: &Matrix, kind: QuantKind) -> Self {
        let (rows, cols) = (m.rows(), m.cols());
        let repr = match kind {
            QuantKind::Bf16 => Repr::Bf16(m.data().iter().map(|&v| f32_to_bf16(v)).collect()),
            QuantKind::Int8 => {
                let mut scales = vec![0.0f32; cols];
                for r in 0..rows {
                    for (s, &v) in scales.iter_mut().zip(m.row(r)) {
                        *s = s.max(v.abs());
                    }
                }
                for s in scales.iter_mut() {
                    *s = if *s == 0.0 { 1.0 } else { *s / 127.0 };
                }
                let mut data = Vec::with_capacity(rows * cols);
                for r in 0..rows {
                    for (j, &v) in m.row(r).iter().enumerate() {
                        data.push((v / scales[j]).round().clamp(-127.0, 127.0) as i8);
                    }
                }
                Repr::Int8 { data, scales }
            }
        };
        QuantizedMatrix { rows, cols, repr }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The scheme this matrix was quantized with.
    pub fn kind(&self) -> QuantKind {
        match self.repr {
            Repr::Bf16(_) => QuantKind::Bf16,
            Repr::Int8 { .. } => QuantKind::Int8,
        }
    }

    /// Quantized payload size in bytes (excluding scales), for reporting.
    pub fn payload_bytes(&self) -> usize {
        match &self.repr {
            Repr::Bf16(d) => d.len() * 2,
            Repr::Int8 { data, .. } => data.len(),
        }
    }

    /// Expands back to a dense f32 matrix (tests and offline inspection;
    /// the GEMM paths dequantize per-panel instead).
    pub fn dequantize(&self) -> Matrix {
        let mut out = Vec::with_capacity(self.rows * self.cols);
        match &self.repr {
            Repr::Bf16(d) => out.extend(d.iter().map(|&u| bf16_to_f32(u))),
            Repr::Int8 { data, scales } => {
                for r in 0..self.rows {
                    let row = &data[r * self.cols..(r + 1) * self.cols];
                    out.extend(row.iter().zip(scales).map(|(&q, &s)| q as f32 * s));
                }
            }
        }
        Matrix::from_vec(self.rows, self.cols, out)
    }

    /// Dequantizes `out.len()` consecutive values of row `r` starting at
    /// column `j0` — the panel-packing entry point.
    pub(crate) fn dequant_segment_into(&self, r: usize, j0: usize, out: &mut [f32]) {
        match &self.repr {
            Repr::Bf16(d) => {
                let seg = &d[r * self.cols + j0..r * self.cols + j0 + out.len()];
                for (o, &u) in out.iter_mut().zip(seg) {
                    *o = bf16_to_f32(u);
                }
            }
            Repr::Int8 { data, scales } => {
                let seg = &data[r * self.cols + j0..r * self.cols + j0 + out.len()];
                for ((o, &q), &s) in out.iter_mut().zip(seg).zip(&scales[j0..]) {
                    *o = q as f32 * s;
                }
            }
        }
    }
}

/// Scalar fallback GEMM against quantized weights: `dst (+)= A[rows] @
/// Q[b_row_offset..]`, dequantizing one `B` row at a time into the pack
/// arena. Mirrors the `kij` accumulation order of the naive kernels.
pub(crate) fn gemm_scalar(
    a: &Matrix,
    rows: Range<usize>,
    qb: &QuantizedMatrix,
    b_row_offset: usize,
    dst: &mut [f32],
    accumulate: bool,
) {
    let k_dim = a.cols();
    let n = qb.cols();
    let m = rows.len();
    debug_assert_eq!(dst.len(), m * n, "dst shape");
    if !accumulate {
        dst.fill(0.0);
    }
    if m == 0 || n == 0 || k_dim == 0 {
        return;
    }
    workspace::with_pack_buffers(0, n, |_, brow| {
        for k in 0..k_dim {
            qb.dequant_segment_into(b_row_offset + k, 0, brow);
            for (ir, i) in rows.clone().enumerate() {
                let av = a.row(i)[k];
                if av == 0.0 {
                    continue;
                }
                let drow = &mut dst[ir * n..(ir + 1) * n];
                for (d, &bv) in drow.iter_mut().zip(brow.iter()) {
                    *d += av * bv;
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bf16_roundtrip_is_close_and_exact_on_representables() {
        // Values with ≤ 8 mantissa bits survive exactly.
        for v in [0.0f32, 1.0, -2.5, 0.15625, 384.0] {
            let q = f32_to_bf16(v);
            assert_eq!(bf16_to_f32(q), v, "{v} should be bf16-representable");
        }
        for i in 0..1000 {
            let v = (i as f32) * 0.137 - 68.0;
            let r = bf16_to_f32(f32_to_bf16(v));
            assert!(
                (r - v).abs() <= v.abs() * (1.0 / 256.0) + f32::EPSILON,
                "{v} -> {r}"
            );
        }
    }

    #[test]
    fn int8_per_column_scales_bound_error() {
        let m = Matrix::xavier(40, 13, 42);
        let q = QuantizedMatrix::quantize(&m, QuantKind::Int8);
        let d = q.dequantize();
        // Per-column max-abs bounds the per-value error at scale/2.
        for j in 0..13 {
            let maxabs = (0..40).map(|r| m.row(r)[j].abs()).fold(0.0f32, f32::max);
            let bound = maxabs / 127.0 * 0.5 + f32::EPSILON;
            for r in 0..40 {
                let err = (d.row(r)[j] - m.row(r)[j]).abs();
                assert!(err <= bound, "({r},{j}): err {err} > {bound}");
            }
        }
    }

    #[test]
    fn zero_column_quantizes_to_zero() {
        let mut data = [0.0f32; 6];
        data[1] = 3.0;
        data[3] = -1.5;
        // Column 1 is all zeros.
        let m = Matrix::from_vec(3, 2, vec![data[0], 0.0, data[1], 0.0, data[3], 0.0]);
        let q = QuantizedMatrix::quantize(&m, QuantKind::Int8);
        let d = q.dequantize();
        for r in 0..3 {
            assert_eq!(d.row(r)[1], 0.0);
        }
    }

    #[test]
    fn scalar_quant_gemm_matches_dense_gemm_on_dequantized() {
        let a = Matrix::xavier(9, 14, 1);
        let b = Matrix::xavier(14, 6, 2);
        for kind in [QuantKind::Bf16, QuantKind::Int8] {
            let qb = QuantizedMatrix::quantize(&b, kind);
            let deq = qb.dequantize();
            let want = crate::reference::matmul(&a, &deq);
            let mut got = vec![0.0f32; 9 * 6];
            gemm_scalar(&a, 0..9, &qb, 0, &mut got, false);
            for (g, w) in got.iter().zip(want.data()) {
                assert!((g - w).abs() <= 1e-5 * 1.0f32.max(w.abs()), "{g} vs {w}");
            }
        }
    }

    #[test]
    fn payload_shrinks() {
        let m = Matrix::xavier(64, 32, 3);
        let f32_bytes = 64 * 32 * 4;
        assert_eq!(
            QuantizedMatrix::quantize(&m, QuantKind::Bf16).payload_bytes(),
            f32_bytes / 2
        );
        assert_eq!(
            QuantizedMatrix::quantize(&m, QuantKind::Int8).payload_bytes(),
            f32_bytes / 4
        );
    }
}
