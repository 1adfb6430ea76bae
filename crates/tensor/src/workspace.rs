//! A free-list arena for recycling matrix allocations across batches.
//!
//! Every training step allocates the same family of buffers — layer
//! activations, aggregation outputs, gradient matrices — whose shapes are
//! stable across batches of similar size. Instead of returning them to the
//! allocator (and paging fresh zero pages back in next step), a model owns a
//! [`Workspace`] and round-trips buffers through it: [`Workspace::take`]
//! hands out a zeroed matrix reusing the best-fitting retired allocation,
//! [`Workspace::put`] retires one.
//!
//! The arena is deliberately dumb: a capacity-sorted free list with
//! best-fit lookup. It is **not** thread-safe — each model keeps its own
//! (behind a `RefCell`), which is the right granularity because kernels
//! parallelize *inside* one step, never across steps of one model.
//!
//! Three kernel buffers are per thread instead: the SIMD kernels' packed
//! panels (and the weight gradient's transposed scratch), the input
//! gradient's transposed weight window and the transposed aggregation's
//! transpose. Each grows to its high-water size on first use and is reused
//! by every later kernel call on that thread.

use std::cell::RefCell;
use std::ops::Range;

use crate::dense::Matrix;
use crate::sparse::SparseMatrix;

/// Maximum retired buffers kept; beyond this the smallest is dropped.
const MAX_FREE: usize = 32;

thread_local! {
    /// Panel-packing scratch for the SIMD kernels. Pool workers each pack
    /// their own row range concurrently, so the buffer is thread-local
    /// rather than routed through a model's (single-threaded) [`Workspace`].
    static PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// The transposed weight window an input gradient multiplies by: made
    /// on the calling thread, read by the pool's workers through `&Matrix`.
    static WEIGHT_T: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// The adjacency transpose a transposed aggregation gathers over.
    static TRANSPOSE: RefCell<SparseMatrix> = RefCell::new(SparseMatrix::default());
}

/// Runs `f` with this thread's packing buffer resized to at least `len`
/// elements (contents unspecified on entry; callers overwrite before
/// reading). Not reentrant — kernels never recurse into another kernel
/// while packing.
pub(crate) fn with_pack_buffer<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    PACK.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
}

/// Runs `f` with `w[rows]ᵀ`, the `w.cols() × rows.len()` transpose of a row
/// window of `w`, built in this thread's transposed-weight buffer. Not
/// reentrant.
pub(crate) fn with_transposed_rows<R>(
    w: &Matrix,
    rows: Range<usize>,
    f: impl FnOnce(&Matrix) -> R,
) -> R {
    WEIGHT_T.with(|cell| {
        let mut buf = cell.borrow_mut();
        let (k, n) = (w.cols(), rows.len());
        let mut data = std::mem::take(&mut *buf);
        data.resize(k * n, 0.0);
        for (j, r) in rows.enumerate() {
            for (c, &v) in w.row(r).iter().enumerate() {
                data[c * n + j] = v;
            }
        }
        let wt = Matrix::from_vec(k, n, data);
        let out = f(&wt);
        *buf = wt.into_data();
        out
    })
}

/// Runs `f` with this thread's transpose buffer (contents unspecified on
/// entry; callers overwrite it with [`SparseMatrix::transpose_into`]). Not
/// reentrant, like the pack buffer: the gather over it never transposes.
pub(crate) fn with_transpose_buffer<R>(f: impl FnOnce(&mut SparseMatrix) -> R) -> R {
    TRANSPOSE.with(|cell| f(&mut cell.borrow_mut()))
}

/// A capacity-sorted free list of retired `Vec<f32>` allocations.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Retired buffers, sorted ascending by capacity (best-fit = first fit).
    free: Vec<Vec<f32>>,
}

impl Workspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a zeroed `rows × cols` matrix, reusing the smallest retired
    /// buffer whose capacity suffices, or allocating fresh.
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        self.take_buffer(rows, cols, true)
    }

    /// [`Workspace::take`] without the zero fill, for a buffer the caller
    /// overwrites in full (a gather destination): a reused buffer keeps
    /// whatever its previous user left in it.
    pub fn take_unzeroed(&mut self, rows: usize, cols: usize) -> Matrix {
        self.take_buffer(rows, cols, false)
    }

    fn take_buffer(&mut self, rows: usize, cols: usize, zero: bool) -> Matrix {
        let need = rows * cols;
        let pick = self.free.iter().position(|b| b.capacity() >= need);
        match pick {
            Some(i) => {
                let mut buf = self.free.remove(i);
                if zero {
                    buf.clear();
                }
                buf.resize(need, 0.0);
                Matrix::from_vec(rows, cols, buf)
            }
            None => Matrix::zeros(rows, cols),
        }
    }

    /// Retires a matrix's allocation into the free list.
    pub fn put(&mut self, m: Matrix) {
        let buf = m.into_data();
        if buf.capacity() == 0 {
            return;
        }
        let at = self.free.partition_point(|b| b.capacity() < buf.capacity());
        self.free.insert(at, buf);
        if self.free.len() > MAX_FREE {
            // Drop the smallest: large buffers are the expensive ones.
            self.free.remove(0);
        }
    }

    /// Buffers currently parked in the free list.
    pub fn free_len(&self) -> usize {
        self.free.len()
    }

    /// Bytes held by the parked buffers.
    pub fn parked_bytes(&self) -> usize {
        self.free.iter().map(Vec::capacity).sum::<usize>() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_even_after_reuse() {
        let mut ws = Workspace::new();
        let mut m = ws.take(3, 4);
        m.data_mut().fill(7.5);
        let buf = m.data().as_ptr();
        ws.put(m);
        let m2 = ws.take(3, 4);
        assert!(m2.data().iter().all(|&x| x == 0.0));
        assert_eq!(m2.data().as_ptr(), buf, "the retired buffer came back");
    }

    #[test]
    fn unzeroed_take_reuses_without_clearing() {
        let mut ws = Workspace::new();
        let mut m = ws.take(2, 4);
        m.data_mut().fill(7.5);
        let buf = m.data().as_ptr();
        ws.put(m);
        assert_eq!(ws.parked_bytes(), 8 * 4);
        // Shrinking keeps the stale prefix; growing within capacity zero-fills
        // only the tail (safe, and the caller overwrites everything anyway).
        let m = ws.take_unzeroed(1, 4);
        assert_eq!(m.data(), &[7.5; 4]);
        ws.put(m);
        let m = ws.take_unzeroed(2, 4);
        assert_eq!(m.data(), &[7.5, 7.5, 7.5, 7.5, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(m.data().as_ptr(), buf, "one buffer throughout");
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let mut ws = Workspace::new();
        let (large, small) = (Matrix::zeros(10, 10), Matrix::zeros(2, 3));
        let (large_at, small_at) = (large.data().as_ptr(), small.data().as_ptr());
        ws.put(large); // cap 100
        ws.put(small); // cap 6
        let m = ws.take(2, 2); // needs 4 → the 6-cap buffer
        assert_eq!(m.data().len(), 4);
        assert_eq!(m.data().as_ptr(), small_at);
        assert_eq!(ws.free_len(), 1);
        let big = ws.take(5, 10); // needs 50 → the 100-cap buffer
        assert_eq!(big.data().len(), 50);
        assert_eq!(big.data().as_ptr(), large_at);
    }

    #[test]
    fn shape_can_differ_as_long_as_capacity_fits() {
        let mut ws = Workspace::new();
        let parked = Matrix::zeros(8, 8);
        let at = parked.data().as_ptr();
        ws.put(parked);
        let m = ws.take(4, 16);
        assert_eq!((m.rows(), m.cols()), (4, 16));
        assert_eq!(m.data().as_ptr(), at);
    }

    #[test]
    fn free_list_is_capped() {
        let mut ws = Workspace::new();
        let mut largest = std::ptr::null();
        for i in 1..=(MAX_FREE + 5) {
            let m = Matrix::zeros(i, 1);
            largest = m.data().as_ptr();
            ws.put(m);
        }
        assert_eq!(ws.free_len(), MAX_FREE);
        // The survivors are the largest ones.
        let m = ws.take(MAX_FREE + 5, 1);
        assert_eq!(m.data().as_ptr(), largest);
        assert_eq!(m.data().len(), MAX_FREE + 5);
    }

    #[test]
    fn pack_buffers_grow_once_then_stabilize() {
        // On a dedicated thread, so no other test's pack use shares the
        // thread-local buffer.
        std::thread::spawn(|| {
            let at = |len: usize| {
                with_pack_buffer(len, |b| {
                    assert_eq!(b.len(), len);
                    b.fill(2.0);
                    b.as_ptr()
                })
            };
            let first = at(32);
            for _ in 0..4 {
                assert_eq!(at(32), first);
            }
            assert_eq!(at(8), first, "smaller takes must not grow");
            let grown = at(64);
            assert_eq!(at(16), grown, "a larger take grew, once");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn empty_matrices_are_not_parked() {
        let mut ws = Workspace::new();
        ws.put(Matrix::zeros(0, 5));
        assert_eq!(ws.free_len(), 0);
    }
}
