//! CSR sparse matrix with the fundamental GNN kernel, SpMM (paper
//! Section II-C).
//!
//! There is one SpMM: `gather_into`, a row gather over a [`SparseView`].
//! An owned [`SparseMatrix`] hands out a view of itself for free, a sampled
//! batch in the sampler's arena *is* a view, and transposed aggregation is
//! the same gather over the transpose ([`SparseMatrix::transpose_into`]) —
//! so forward, borrowed and backward aggregation are one loop, reached
//! through `DispatchPolicy::aggregate*`.

use std::ops::Range;

use argo_rt::ThreadPool;

use crate::dense::Matrix;
use crate::simd;

/// A `rows x cols` sparse matrix in CSR form with optional explicit values
/// (implicit value 1.0 when `values` is `None`) — exactly the shape of a
/// sampled message-passing block: rows are destination nodes, columns are
/// source nodes, values are normalization coefficients.
///
/// Row pointers are `u32`, the layout of the sampler's batch arena this is
/// copied from ([`SparseView::to_owned`]): a sampled block never has more
/// than `u32::MAX` entries, and [`SparseMatrix::new`] rejects one that does.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<u32>,
    indices: Vec<u32>,
    values: Option<Vec<f32>>,
}

impl Default for SparseMatrix {
    /// The `0 × 0` matrix — spare storage for [`SparseView::select_rows_into`]
    /// and [`SparseMatrix::transpose_into`].
    fn default() -> Self {
        Self::from_validated(0, 0, vec![0], Vec::new(), None)
    }
}

impl SparseMatrix {
    /// Builds a CSR matrix; validates the structure.
    pub fn new(
        rows: usize,
        cols: usize,
        indptr: Vec<u32>,
        indices: Vec<u32>,
        values: Option<Vec<f32>>,
    ) -> Self {
        assert_eq!(indptr.len(), rows + 1, "indptr length");
        assert_eq!(indptr[0], 0, "indptr[0]");
        assert_eq!(indptr[rows] as usize, indices.len(), "indptr end");
        assert!(indptr.windows(2).all(|w| w[0] <= w[1]), "indptr monotone");
        assert!(indices.iter().all(|&c| (c as usize) < cols), "col in range");
        if let Some(v) = &values {
            assert_eq!(v.len(), indices.len(), "values length");
        }
        Self::from_validated(rows, cols, indptr, indices, values)
    }

    /// Wraps arrays whose structure is already known to be valid — copied
    /// from a validated matrix or view, or built entry by entry from one.
    fn from_validated(
        rows: usize,
        cols: usize,
        indptr: Vec<u32>,
        indices: Vec<u32>,
        values: Option<Vec<f32>>,
    ) -> Self {
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Row pointer array.
    pub fn indptr(&self) -> &[u32] {
        &self.indptr
    }

    /// Column indices.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Explicit values, if any.
    pub fn values(&self) -> Option<&[f32]> {
        self.values.as_deref()
    }

    /// Entry positions of row `i` (indexes `indices()` / `values()`).
    #[inline]
    pub fn row_range(&self, i: usize) -> Range<usize> {
        self.indptr[i] as usize..self.indptr[i + 1] as usize
    }

    /// This matrix as a borrowed [`SparseView`] — free: same layout.
    pub fn view(&self) -> SparseView<'_> {
        SparseView {
            rows: self.rows,
            cols: self.cols,
            indptr: &self.indptr,
            indices: &self.indices,
            values: self.values.as_deref(),
        }
    }

    /// [`SparseView::select_rows`] of this matrix.
    pub fn select_rows(&self, rows: &[usize]) -> SparseMatrix {
        self.view().select_rows(rows)
    }

    /// Renumbers the columns in place: column `c` becomes `rank[c]`, of
    /// `cols`. With `rank` **increasing** over the columns this matrix names
    /// (the rank of each within an ascending superset of them) the map is
    /// monotone: no row's entry order changes, nor any row's of the transpose,
    /// so both aggregations accumulate every value exactly as before — what a
    /// model's needed-row cascade relies on.
    pub fn rank_columns(&mut self, rank: &[u32], cols: usize) {
        for c in &mut self.indices {
            *c = rank[*c as usize];
            assert!((*c as usize) < cols, "column rank in range");
        }
        self.cols = cols;
    }

    /// [`SparseView::transpose_into`] of this matrix.
    pub fn transpose_into(&self, out: &mut SparseMatrix) {
        self.view().transpose_into(out);
    }

    /// Converts to dense (for tests / tiny matrices).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for k in self.row_range(i) {
                let j = self.indices[k] as usize;
                let w = self.values.as_ref().map_or(1.0, |v| v[k]);
                out.set(i, j, out.get(i, j) + w);
            }
        }
        out
    }
}

/// **SpMM** `out = adj @ table` — the one CSR gather behind forward
/// aggregation (owned or borrowed adjacency), transposed aggregation (the
/// same call over [`SparseMatrix::transpose_into`]'s output) and the loader's aggregation
/// straight out of a feature table. `table` is row-major with `out.cols()`
/// columns; column `j` of `adj` reads its row `j`, or row `ids[j]` through
/// an id list — `adj @ table[ids]` without gathering `table[ids]`. Output
/// rows are partitioned over `pool` (already filtered by the dispatch
/// policy; `None` runs inline); each row accumulates its entries in stored
/// order, so the result is bitwise-independent of the partition. `use_simd`
/// picks the vectorized row kernel, which is bitwise-equal to the scalar
/// one ([`simd::spmm_rows`]).
pub(crate) fn gather_into(
    adj: SparseView<'_>,
    table: &[f32],
    ids: Option<&[u32]>,
    pool: Option<&ThreadPool>,
    use_simd: bool,
    out: &mut Matrix,
) {
    assert_eq!(out.rows(), adj.rows, "spmm output rows");
    if let Some(ids) = ids {
        assert_eq!(adj.cols, ids.len(), "spmm id list covers the columns");
    }
    let n = out.cols();
    ThreadPool::parallel_chunks_mut(pool, out.data_mut(), n, |rows, window| {
        simd::spmm_rows(&adj, rows, table, ids, n, use_simd, window);
    });
}

/// A **borrowed** CSR adjacency: the layout of [`SparseMatrix`] with all
/// three arrays as slices into caller-owned storage — the sampler's
/// epoch-stamped batch arena, an owned matrix ([`SparseMatrix::view`]) or
/// a transpose.
///
/// This is the operand type of the gather, and the zero-copy handoff type
/// of the fused sampling→assembly path: `nn`/`serve` aggregate straight out
/// of the arena through `DispatchPolicy::aggregate_view_into`. Crossing an
/// ownership boundary (the loader's reorder heap) materializes via
/// [`SparseView::to_owned`].
#[derive(Clone, Copy, Debug)]
pub struct SparseView<'a> {
    rows: usize,
    cols: usize,
    indptr: &'a [u32],
    indices: &'a [u32],
    values: Option<&'a [f32]>,
}

impl<'a> SparseView<'a> {
    /// Wraps borrowed CSR arrays. Cheap O(rows) structural checks run
    /// always; the O(nnz) checks that [`SparseMatrix::new`] performs are
    /// debug-only — skipping that per-batch revalidation pass is part of
    /// the point of arena assembly, and the producing sampler is
    /// property-tested bitwise-equal to the validated legacy path.
    pub fn new(
        rows: usize,
        cols: usize,
        indptr: &'a [u32],
        indices: &'a [u32],
        values: Option<&'a [f32]>,
    ) -> Self {
        assert_eq!(indptr.len(), rows + 1, "indptr length");
        assert_eq!(indptr[0], 0, "indptr[0]");
        assert_eq!(indptr[rows] as usize, indices.len(), "indptr end");
        if let Some(v) = values {
            assert_eq!(v.len(), indices.len(), "values length");
        }
        debug_assert!(indptr.windows(2).all(|w| w[0] <= w[1]), "indptr monotone");
        debug_assert!(indices.iter().all(|&c| (c as usize) < cols), "col in range");
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Row pointer array.
    pub fn indptr(&self) -> &'a [u32] {
        self.indptr
    }

    /// Column indices.
    pub fn indices(&self) -> &'a [u32] {
        self.indices
    }

    /// Explicit values, if any.
    pub fn values(&self) -> Option<&'a [f32]> {
        self.values
    }

    /// Entry positions of row `i` (indexes `indices()` / `values()`).
    #[inline]
    pub fn row_range(&self, i: usize) -> Range<usize> {
        self.indptr[i] as usize..self.indptr[i + 1] as usize
    }

    /// The first `n` rows as a view of the same storage — free: CSR rows are
    /// stored in order, so a row prefix is a prefix of all three arrays.
    pub fn row_prefix(&self, n: usize) -> SparseView<'a> {
        assert!(n <= self.rows, "row prefix within the matrix");
        let end = self.indptr[n] as usize;
        SparseView {
            rows: n,
            cols: self.cols,
            indptr: &self.indptr[..=n],
            indices: &self.indices[..end],
            values: self.values.map(|v| &v[..end]),
        }
    }

    /// The `rows.len() × cols` matrix whose row `i` is this one's row
    /// `rows[i]` — entries copied in stored order, `O(selected nnz)`. Rows may
    /// repeat and come in any order. The result is a matrix of its own: its
    /// transpose covers the selected entries only.
    pub fn select_rows(&self, rows: &[usize]) -> SparseMatrix {
        let mut out = SparseMatrix::default();
        self.select_rows_into(rows, &mut out);
        out
    }

    /// [`SparseView::select_rows`] over `out`, whose three arrays are reused
    /// (a per-step slice keeps its allocations from step to step).
    pub fn select_rows_into(&self, rows: &[usize], out: &mut SparseMatrix) {
        out.indptr.clear();
        out.indptr.push(0);
        out.indices.clear();
        let mut values = self.values.map(|_| out.values.take().unwrap_or_default());
        if let Some(v) = values.as_mut() {
            v.clear();
        }
        for &r in rows {
            let range = self.row_range(r);
            out.indices.extend_from_slice(&self.indices[range.clone()]);
            if let (Some(dst), Some(src)) = (values.as_mut(), self.values) {
                dst.extend_from_slice(&src[range]);
            }
            out.indptr.push(out.indices.len() as u32);
        }
        assert!(
            u32::try_from(out.indices.len()).is_ok(),
            "selected entries fit u32"
        );
        (out.rows, out.cols, out.values) = (rows.len(), self.cols, values);
    }

    /// Writes the transpose into `out`, whose three arrays are reused (a
    /// per-thread buffer keeps its allocations from call to call): this
    /// matrix in CSC form, held as the CSR of `selfᵀ` so that transposed
    /// aggregation is the ordinary gather over it. A counting sort,
    /// `O(nnz + cols)`.
    ///
    /// The CSR entries are visited in row-major order, so within every row
    /// of the transpose (column of `self`) the source rows appear in
    /// **ascending** order — the gather therefore accumulates each output
    /// element in exactly the order the naive scatter
    /// ([`crate::reference::spmm_transpose`]) does, and the two agree
    /// bitwise.
    pub fn transpose_into(&self, out: &mut SparseMatrix) {
        let nnz = self.nnz();
        let colptr = &mut out.indptr;
        colptr.clear();
        colptr.resize(self.cols + 1, 0);
        for &j in self.indices {
            colptr[j as usize + 1] += 1;
        }
        for c in 0..self.cols {
            colptr[c + 1] += colptr[c];
        }
        out.indices.clear();
        out.indices.resize(nnz, 0);
        let mut values = self.values.map(|_| {
            let mut v = out.values.take().unwrap_or_default();
            v.clear();
            v.resize(nnz, 0.0);
            v
        });
        // `colptr[j]` is column `j`'s cursor: it ends at column `j + 1`'s
        // start, so the shift below restores the pointers.
        for i in 0..self.rows {
            for k in self.row_range(i) {
                let j = self.indices[k] as usize;
                let slot = colptr[j] as usize;
                colptr[j] += 1;
                out.indices[slot] = i as u32;
                if let (Some(dst), Some(src)) = (values.as_mut(), self.values) {
                    dst[slot] = src[k];
                }
            }
        }
        colptr.copy_within(..self.cols, 1);
        colptr[0] = 0;
        (out.rows, out.cols, out.values) = (self.cols, self.rows, values);
    }

    /// Materializes an owned [`SparseMatrix`] — the fallback at ownership
    /// boundaries (the loader's channel handoff). Same layout
    /// and a structure validated at view construction, so this is three
    /// straight copies, not a revalidating [`SparseMatrix::new`].
    pub fn to_owned(&self) -> SparseMatrix {
        SparseMatrix::from_validated(
            self.rows,
            self.cols,
            self.indptr.to_vec(),
            self.indices.to_vec(),
            self.values.map(<[f32]>::to_vec),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    /// [[1, 0, 2], [0, 3, 0]]
    fn sample() -> SparseMatrix {
        SparseMatrix::new(
            2,
            3,
            vec![0, 2, 3],
            vec![0, 2, 1],
            Some(vec![1.0, 2.0, 3.0]),
        )
    }

    /// The gather as the dispatch policy calls it, with the pool decision
    /// already made (`pool` is used as given, whatever the shape).
    fn spmm(adj: SparseView<'_>, dense: &Matrix, pool: Option<&ThreadPool>) -> Matrix {
        let mut out = Matrix::zeros(adj.rows(), dense.cols());
        gather_into(adj, dense.data(), None, pool, simd::available(), &mut out);
        out
    }

    /// Ragged `rows x cols` fixture with values.
    fn ragged(rows: usize, cols: usize) -> SparseMatrix {
        let mut indptr = vec![0u32];
        let mut indices = Vec::new();
        let mut vals = Vec::new();
        for i in 0..rows {
            for j in 0..cols {
                if (i * 5 + j * 11) % 7 == 0 {
                    indices.push(j as u32);
                    vals.push(((i * j) % 13) as f32 * 0.37 - 1.0);
                }
            }
            indptr.push(indices.len() as u32);
        }
        SparseMatrix::new(rows, cols, indptr, indices, Some(vals))
    }

    #[test]
    fn spmm_matches_dense() {
        let s = sample();
        let d = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let got = spmm(s.view(), &d, None);
        let want = reference::matmul(&s.to_dense(), &d);
        assert_eq!(got.data(), want.data());
    }

    #[test]
    fn spmm_implicit_ones() {
        let s = SparseMatrix::new(2, 2, vec![0, 1, 2], vec![1, 0], None);
        let d = Matrix::from_vec(2, 1, vec![10., 20.]);
        let got = spmm(s.view(), &d, None);
        assert_eq!(got.data(), &[20., 10.]);
    }

    #[test]
    fn spmm_pool_matches_serial() {
        let pool = ThreadPool::new("t", 4);
        let s = ragged(50, 40);
        let d = Matrix::xavier(40, 8, 3);
        let a = spmm(s.view(), &d, None);
        let b = spmm(s.view(), &d, Some(&pool));
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn spmm_transpose_matches_dense_transpose() {
        let s = sample();
        let d = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let got = reference::spmm_transpose(&s, &d);
        let want = reference::matmul(&s.to_dense().transpose(), &d);
        assert_eq!(got.data(), want.data());
    }

    /// `s`'s transpose in a matrix of its own.
    fn transpose(s: &SparseMatrix) -> SparseMatrix {
        let mut t = SparseMatrix::default();
        s.transpose_into(&mut t);
        t
    }

    #[test]
    fn csc_gather_matches_scatter_bitwise() {
        // Ragged structure with values: gather vs scatter must agree exactly.
        let s = ragged(37, 23);
        let d = Matrix::xavier(37, 9, 11);
        assert_eq!(
            reference::spmm_transpose(&s, &d).data(),
            spmm(transpose(&s).view(), &d, None).data()
        );
    }

    #[test]
    fn csc_pool_matches_serial() {
        let pool = ThreadPool::new("t", 4);
        let s = SparseMatrix::new(3, 4, vec![0, 2, 3, 5], vec![0, 3, 1, 0, 2], None);
        let d = Matrix::xavier(3, 6, 12);
        let t = transpose(&s);
        let serial = spmm(t.view(), &d, None);
        let par = spmm(t.view(), &d, Some(&pool));
        assert_eq!(serial.data(), par.data());
    }

    #[test]
    fn csc_rows_ascend_within_columns() {
        for s in [sample(), ragged(37, 23)] {
            let csc = transpose(&s);
            assert_eq!(
                (csc.rows(), csc.cols(), csc.nnz()),
                (s.cols(), s.rows(), s.nnz())
            );
            for j in 0..s.cols() {
                let col = &csc.indices()[csc.row_range(j)];
                assert!(col.windows(2).all(|w| w[0] < w[1]), "col {j}: {col:?}");
            }
        }
    }

    #[test]
    fn transpose_into_reuses_its_buffer() {
        let (big, small) = (ragged(37, 23), sample());
        let mut t = SparseMatrix::default();
        big.transpose_into(&mut t);
        let (indptr, indices, values) = (
            t.indptr().as_ptr(),
            t.indices().as_ptr(),
            t.values().unwrap().as_ptr(),
        );
        // A smaller transpose fits the buffer's arrays: same allocations, and
        // nothing of the larger one left over.
        small.transpose_into(&mut t);
        assert_eq!(t, transpose(&small));
        assert_eq!(t.indptr().as_ptr(), indptr);
        assert_eq!(t.indices().as_ptr(), indices);
        assert_eq!(t.values().unwrap().as_ptr(), values);
        // Values follow the source, and transposing twice is the identity.
        let ones = SparseMatrix::new(2, 3, vec![0, 1, 3], vec![2, 0, 1], None);
        ones.transpose_into(&mut t);
        assert_eq!(
            t,
            SparseMatrix::new(3, 2, vec![0, 1, 2, 3], vec![1, 1, 0], None)
        );
        assert_eq!(transpose(&t), ones);
        big.transpose_into(&mut t);
        assert_eq!(transpose(&t), big);
        // No columns: a `0 × rows` transpose.
        SparseMatrix::new(2, 0, vec![0, 0, 0], vec![], None).transpose_into(&mut t);
        assert_eq!((t.rows(), t.cols(), t.indptr()), (0, 2, &[0][..]));
    }

    #[test]
    fn to_dense_roundtrip_values() {
        let s = sample();
        let d = s.to_dense();
        assert_eq!(d.get(0, 0), 1.0);
        assert_eq!(d.get(0, 2), 2.0);
        assert_eq!(d.get(1, 1), 3.0);
        assert_eq!(d.get(1, 0), 0.0);
    }

    #[test]
    #[should_panic]
    fn bad_indptr_panics() {
        SparseMatrix::new(2, 2, vec![0, 3, 2], vec![0, 1], None);
    }

    #[test]
    #[should_panic]
    fn col_out_of_range_panics() {
        SparseMatrix::new(1, 2, vec![0, 1], vec![5], None);
    }

    #[test]
    fn empty_rows_ok() {
        let s = SparseMatrix::new(3, 2, vec![0, 0, 1, 1], vec![1], None);
        let d = Matrix::from_vec(2, 1, vec![5., 7.]);
        let out = spmm(s.view(), &d, None);
        assert_eq!(out.data(), &[0., 7., 0.]);
    }

    /// Borrowed-view twin of `sample()`.
    fn sample_view_arrays() -> (Vec<u32>, Vec<u32>, Vec<f32>) {
        (vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0])
    }

    #[test]
    fn view_spmm_bitwise_matches_owned() {
        let (indptr, indices, values) = sample_view_arrays();
        let v = SparseView::new(2, 3, &indptr, &indices, Some(&values));
        let d = Matrix::xavier(3, 7, 5);
        let a = spmm(sample().view(), &d, None);
        let b = spmm(v, &d, None);
        assert_eq!(a.data(), b.data(), "view and owned SpMM must agree bitwise");
    }

    #[test]
    fn view_spmm_scalar_and_simd_agree_bitwise() {
        let (indptr, indices, values) = sample_view_arrays();
        let v = SparseView::new(2, 3, &indptr, &indices, Some(&values));
        let d = Matrix::xavier(3, 9, 6);
        let mut a = Matrix::zeros(2, 9);
        let mut b = Matrix::zeros(2, 9);
        gather_into(v, d.data(), None, None, false, &mut a);
        gather_into(v, d.data(), None, None, simd::available(), &mut b);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn view_pool_matches_serial() {
        let pool = ThreadPool::new("t", 4);
        // Ragged structure, implicit ones.
        let mut indptr = vec![0u32];
        let mut indices: Vec<u32> = Vec::new();
        for i in 0..40u32 {
            for j in 0..30u32 {
                if (i * 7 + j * 13) % 5 == 0 {
                    indices.push(j);
                }
            }
            indptr.push(indices.len() as u32);
        }
        let v = SparseView::new(40, 30, &indptr, &indices, None);
        let d = Matrix::xavier(30, 8, 3);
        let a = spmm(v, &d, None);
        let b = spmm(v, &d, Some(&pool));
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn view_to_owned_round_trips() {
        let (indptr, indices, values) = sample_view_arrays();
        let v = SparseView::new(2, 3, &indptr, &indices, Some(&values));
        let owned = v.to_owned();
        assert_eq!(owned, sample());
        // And back: an owned matrix's view is its own arrays.
        let back = owned.view();
        assert_eq!(
            (back.indptr(), back.indices(), back.values()),
            (v.indptr(), v.indices(), v.values())
        );
    }

    #[test]
    fn select_rows_copies_rows_in_the_given_order() {
        let s = sample();
        // Reordered, repeated.
        let picked = s.select_rows(&[1, 0, 1]);
        assert_eq!(
            picked,
            SparseMatrix::new(
                3,
                3,
                vec![0, 1, 3, 4],
                vec![1, 0, 2, 1],
                Some(vec![3.0, 1.0, 2.0, 3.0]),
            )
        );
        assert_eq!(transpose(&picked).rows(), 3);
        assert_eq!(s.select_rows(&[0, 1]), s);
        // Empty selection: no rows, the same columns.
        let none = s.select_rows(&[]);
        assert_eq!((none.rows(), none.cols(), none.nnz()), (0, 3, 0));
        assert_eq!(none.indptr(), &[0]);
        // Implicit ones stay implicit.
        let ones = SparseMatrix::new(3, 2, vec![0, 0, 1, 3], vec![1, 0, 1], None);
        let picked = ones.select_rows(&[2, 0]);
        assert_eq!(
            picked,
            SparseMatrix::new(2, 2, vec![0, 2, 2], vec![0, 1], None)
        );
    }

    #[test]
    fn select_rows_into_reuses_the_slot_and_drops_its_transpose() {
        let s = ragged(9, 7);
        let mut slot = SparseMatrix::default();
        assert_eq!((slot.rows(), slot.cols(), slot.nnz()), (0, 0, 0));
        s.view().select_rows_into(&[8, 2, 2], &mut slot);
        assert_eq!(slot, s.select_rows(&[8, 2, 2]));
        let (indices, values) = (slot.indices().as_ptr(), slot.values().unwrap().as_ptr());
        // A smaller selection fits the slot's arrays: same allocations.
        s.view().select_rows_into(&[2], &mut slot);
        assert_eq!(slot, s.select_rows(&[2]));
        assert_eq!(slot.indices().as_ptr(), indices);
        assert_eq!(slot.values().unwrap().as_ptr(), values);
        // Values follow the source: implicit ones stay implicit, and back.
        let ones = SparseMatrix::new(2, 7, vec![0, 1, 3], vec![6, 0, 4], None);
        ones.view().select_rows_into(&[1], &mut slot);
        assert_eq!(slot, SparseMatrix::new(1, 7, vec![0, 2], vec![0, 4], None));
        s.view().select_rows_into(&[0], &mut slot);
        assert_eq!(slot, s.select_rows(&[0]));
        // A view of a prefix only has the prefix's rows.
        assert_eq!(
            s.view().row_prefix(3).select_rows(&[1]),
            s.select_rows(&[1])
        );
    }

    #[test]
    fn rank_columns_renumbers_in_place() {
        // Rows 0 and 1 of `sample()` name columns {0, 2} and {1}; keep the
        // ascending superset {0, 2} of row 0's.
        let mut m = sample().select_rows(&[0]);
        m.rank_columns(&[0, u32::MAX, 1], 2);
        assert_eq!(
            m,
            SparseMatrix::new(1, 2, vec![0, 2], vec![0, 1], Some(vec![1.0, 2.0]))
        );
        let t = transpose(&m);
        assert_eq!((t.rows(), t.cols()), (2, 1));
        // No columns left at all: a `rows × 0` matrix.
        let mut none = SparseMatrix::new(2, 3, vec![0, 0, 0], vec![], None);
        none.rank_columns(&[u32::MAX; 3], 0);
        let t = transpose(&none);
        assert_eq!((none.rows(), none.cols(), t.rows()), (2, 0, 0));
    }

    #[test]
    #[should_panic(expected = "column rank in range")]
    fn rank_columns_rejects_an_unranked_named_column() {
        sample().rank_columns(&[0, u32::MAX, 1], 2);
    }

    #[test]
    #[should_panic]
    fn select_rows_out_of_range_panics() {
        sample().select_rows(&[2]);
    }

    #[test]
    fn row_prefix_is_a_prefix_of_the_same_storage() {
        let s = ragged(9, 7);
        let v = s.view();
        for n in [0, 1, 9] {
            let p = v.row_prefix(n);
            assert_eq!((p.rows(), p.cols()), (n, 7));
            assert_eq!(p.nnz(), s.indptr()[n] as usize);
            assert!(std::ptr::eq(p.indices().as_ptr(), s.indices().as_ptr()));
            let rows: Vec<usize> = (0..n).collect();
            assert_eq!(p.to_owned(), s.select_rows(&rows));
        }
        // Implicit ones stay implicit.
        let ones = SparseMatrix::new(2, 2, vec![0, 1, 2], vec![1, 0], None);
        assert!(ones.view().row_prefix(1).values().is_none());
    }

    #[test]
    #[should_panic]
    fn row_prefix_past_the_end_panics() {
        sample().view().row_prefix(3);
    }

    #[test]
    #[should_panic]
    fn view_bad_indptr_end_panics() {
        let indptr = vec![0u32, 3];
        let indices = vec![0u32, 1];
        SparseView::new(1, 2, &indptr, &indices, None);
    }
}
