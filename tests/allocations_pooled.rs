//! A pooled kernel's allocations, counted on every thread: the pool's
//! workers allocate on their own threads, which `tests/allocations.rs`
//! (per-thread counts) cannot see. So this binary holds one test and a
//! process-wide count.
//!
//! Run it alone with `cargo test -q --test allocations_pooled`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use argo::rt::ThreadPool;
use argo::tensor::{DispatchPolicy, Epilogue, Matrix};

/// Counts every `alloc` and `realloc` of the process and the bytes each
/// asks for, then defers to the system allocator.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the count beside it is two atomic adds
// that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract (non-zero size).
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s contract on `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The fewest `(allocations, bytes)`, across all threads, of eight calls
/// of `f`: the first call warms every thread's buffers, and a per-call
/// allocation shows in every call, so in the minimum.
fn warm_allocs(mut f: impl FnMut()) -> (usize, usize) {
    (0..8)
        .map(|_| {
            let before = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
            f();
            let after = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
            (after.0 - before.0, after.1 - before.1)
        })
        .min()
        .unwrap_or((0, 0))
}

/// A warm pooled weight gradient makes the same few allocations, of the
/// same bytes, at every `k × n`, and they are exactly a warm pooled GEMM's
/// over the same `m` on the same pool: the pool's fork and join, and no
/// buffer of any size besides (a fresh `k × n` partial per worker read 6
/// allocations a call, and bytes growing with `k × n`). Over 512 rows on a
/// 2-worker pool, at a small shape, the hidden layers' 128 × 128, the
/// classifier's narrow 128 × 7 and SAGE's stacked pair.
#[test]
fn warm_pooled_weight_gradient_allocations_do_not_grow_with_k_n() {
    let pool = ThreadPool::new("alloc", 2);
    let m = 512;
    for policy in [
        DispatchPolicy::default(),
        DispatchPolicy::default().force_scalar(),
    ] {
        let tier = format!("simd {}", policy.simd_enabled());
        let per_call = |ks: &[usize], n: usize| {
            let xs: Vec<Matrix> = ks.iter().map(|&k| Matrix::xavier(m, k, 1)).collect();
            let xs: Vec<&Matrix> = xs.iter().collect();
            let grad = Matrix::xavier(m, n, 2);
            let mut dw = Matrix::zeros(ks.iter().sum(), n);
            assert!(policy.goes_parallel(m, Some(&pool)));
            warm_allocs(|| policy.grad_weights_into(&xs, &grad, Some(&pool), &mut dw))
        };
        let small = per_call(&[8], 8);
        for (ks, n) in [(&[128][..], 128), (&[128], 7), (&[64, 64], 128)] {
            let (allocs, bytes) = per_call(ks, n);
            let what = format!("{ks:?} x {n} against 8 x 8, {tier}");
            assert_eq!((allocs, bytes), small, "(allocations, bytes): {what}");
        }
        let (a, b) = (Matrix::xavier(m, 8, 3), Matrix::xavier(8, 8, 4));
        let mut out = Matrix::zeros(m, 8);
        let gemm =
            warm_allocs(|| policy.gemm_into(&a, &b, Epilogue::none(), Some(&pool), &mut out));
        assert_eq!(
            small, gemm,
            "(allocations, bytes): dW against the GEMM, {tier}"
        );
        assert!(small.0 <= 4, "{small:?} per warm pooled call, {tier}");
    }
}
