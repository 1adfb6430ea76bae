//! Dense row-major matrix.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Dense `rows x cols` matrix of `f32`, row-major.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wraps existing data (`data.len() == rows * cols`).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Self { rows, cols, data }
    }

    /// Xavier/Glorot-uniform initialization, deterministic in `seed`.
    pub fn xavier(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Backing storage.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable backing storage.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its backing storage (so a
    /// [`crate::workspace::Workspace`] can recycle the allocation).
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Horizontal concatenation `[self | other]` (GraphSAGE concat, Eq. 2).
    pub fn concat_cols(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "concat_cols row mismatch");
        let cols = self.cols + other.cols;
        let mut out = Matrix::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.data[r * cols..r * cols + self.cols].copy_from_slice(self.row(r));
            out.data[r * cols + self.cols..(r + 1) * cols].copy_from_slice(other.row(r));
        }
        out
    }

    /// Splits columns at `at`: inverse of [`Matrix::concat_cols`].
    pub fn split_cols(&self, at: usize) -> (Matrix, Matrix) {
        assert!(at <= self.cols);
        let mut a = Matrix::zeros(self.rows, at);
        let mut b = Matrix::zeros(self.rows, self.cols - at);
        for r in 0..self.rows {
            a.row_mut(r).copy_from_slice(&self.row(r)[..at]);
            b.row_mut(r).copy_from_slice(&self.row(r)[at..]);
        }
        (a, b)
    }

    /// The transpose, `cols × rows`.
    pub fn transpose(&self) -> Matrix {
        let (r, c) = (self.rows, self.cols);
        let data = (0..r * c).map(|i| self.data[i % r * c + i / r]).collect();
        Matrix::from_vec(c, r, data)
    }

    /// Takes the rows listed in `ids` into a new matrix.
    pub fn gather_rows(&self, ids: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(ids.len(), self.cols);
        for (i, &v) in ids.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(v as usize));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{matmul, matmul_transpose_self};
    use crate::DispatchPolicy;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_small() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::xavier(5, 5, 1);
        let mut id = Matrix::zeros(5, 5);
        for i in 0..5 {
            id.set(i, i, 1.0);
        }
        assert_eq!(matmul(&a, &id), a);
    }

    #[test]
    #[should_panic]
    fn matmul_shape_mismatch_panics() {
        matmul(&m(2, 3, &[0.; 6]), &m(2, 2, &[0.; 4]));
    }

    /// The weight gradient is not the GEMM over the explicit transpose bit
    /// for bit: its narrow columns take a separate multiply and add where
    /// the GEMM fuses them, and it has no `KC` blocks.
    #[test]
    fn transpose_self_matches_explicit() {
        let x = Matrix::xavier(6, 4, 5);
        let y = Matrix::xavier(6, 3, 6);
        let got = matmul_transpose_self(&x, &y);
        let want = matmul(&x.transpose(), &y);
        for (a, b) in got.data().iter().zip(want.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    /// The input gradient `x · wᵀ`, on both tiers, is the GEMM over the
    /// explicit transpose, bit for bit.
    #[test]
    fn transpose_other_matches_explicit() {
        let x = Matrix::xavier(5, 4, 7);
        let w = Matrix::xavier(3, 4, 8);
        let want = matmul(&x, &w.transpose());
        for policy in [
            DispatchPolicy::default(),
            DispatchPolicy::default().force_scalar(),
        ] {
            assert_eq!(policy.grad_input(&x, &w, 0..3, None), want);
        }
    }

    #[test]
    fn concat_and_split_roundtrip() {
        let a = Matrix::xavier(4, 3, 9);
        let b = Matrix::xavier(4, 2, 10);
        let cat = a.concat_cols(&b);
        assert_eq!(cat.cols(), 5);
        let (a2, b2) = cat.split_cols(3);
        assert_eq!(a, a2);
        assert_eq!(b, b2);
    }

    #[test]
    fn gather_rows_selects() {
        let a = m(3, 2, &[0., 1., 2., 3., 4., 5.]);
        let g = a.gather_rows(&[2, 0]);
        assert_eq!(g.data(), &[4., 5., 0., 1.]);
    }

    #[test]
    fn xavier_is_bounded_and_deterministic() {
        let a = Matrix::xavier(10, 10, 4);
        let bound = (6.0f32 / 20.0).sqrt();
        assert!(a.data().iter().all(|x| x.abs() <= bound));
        assert_eq!(a, Matrix::xavier(10, 10, 4));
        assert_ne!(a, Matrix::xavier(10, 10, 5));
    }
}
