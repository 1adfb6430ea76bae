//! A fixed-size worker pool with explicit core pinning.
//!
//! ARGO separates the cores that run mini-batch sampling from the cores that
//! run model propagation (paper Section IV), so a global work-stealing pool
//! is the wrong abstraction: each stage of each process owns its own
//! [`ThreadPool`] built over an explicit [`CoreSet`].
//!
//! The pool supports `'static` task submission ([`ThreadPool::execute`]) and
//! scoped data-parallel loops ([`ThreadPool::parallel_ranges`] and the
//! row-window runner [`ThreadPool::parallel_chunks_mut`]) that block until
//! every worker finished, which makes borrowing local data sound.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Condvar, Mutex};

use crate::affinity::{bind_current_thread, CoreSet};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// What a panicking job unwound with.
type Payload = Box<dyn Any + Send + 'static>;

/// The jobs of one blocking call still running, and the first panic among
/// the finished ones.
struct Completion {
    remaining: AtomicUsize,
    panic: Mutex<Option<Payload>>,
    cv: Condvar,
}

impl Completion {
    fn new(n: usize) -> Self {
        Self {
            remaining: AtomicUsize::new(n),
            panic: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    /// Marks one job finished, keeping its panic payload if it is the first.
    fn finish_one(&self, outcome: Result<(), Payload>) {
        if let Err(payload) = outcome {
            self.panic.lock().get_or_insert(payload);
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = self.panic.lock();
            self.cv.notify_all();
        }
    }

    /// Blocks until every job finished, then resumes the first panic, if
    /// any, on the calling thread.
    fn wait(&self) {
        let mut g = self.panic.lock();
        while self.remaining.load(Ordering::Acquire) != 0 {
            self.cv.wait(&mut g);
        }
        if let Some(payload) = g.take() {
            drop(g);
            panic::resume_unwind(payload);
        }
    }
}

/// A pool of worker threads pinned to a fixed core set.
pub struct ThreadPool {
    sender: Option<Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    size: usize,
}

impl ThreadPool {
    /// Creates a pool with one worker per core in `cores`, each pinned to its
    /// core (when the OS supports it and the core exists on the host).
    pub fn pinned(name: &str, cores: &CoreSet) -> Self {
        assert!(!cores.is_empty(), "pool needs at least one core");
        Self::build(name, cores.len(), Some(cores.clone()))
    }

    /// Creates an unpinned pool with `size` workers.
    pub fn new(name: &str, size: usize) -> Self {
        assert!(size > 0, "pool needs at least one worker");
        Self::build(name, size, None)
    }

    fn build(name: &str, size: usize, cores: Option<CoreSet>) -> Self {
        let (sender, receiver) = unbounded::<Job>();
        let mut workers = Vec::with_capacity(size);
        for i in 0..size {
            let rx = receiver.clone();
            let pin = cores
                .as_ref()
                .map(|cs| CoreSet::new(vec![cs.ids()[i % cs.len()]]));
            let handle = std::thread::Builder::new()
                .name(format!("{name}-{i}"))
                .spawn(move || {
                    if let Some(cs) = pin {
                        let _ = bind_current_thread(&cs);
                    }
                    // A panicking job unwinds into here, not out of the
                    // worker: the panic hook has reported it, and the
                    // worker lives on for the next job.
                    while let Ok(job) = rx.recv() {
                        let _ = panic::catch_unwind(AssertUnwindSafe(job));
                    }
                });
            #[expect(
                clippy::expect_used,
                reason = "thread::Builder::spawn fails only on OS thread exhaustion; no meaningful recovery"
            )]
            let handle = handle.expect("spawn pool worker");
            workers.push(handle);
        }
        Self {
            sender: Some(sender),
            workers,
            size,
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Submits a fire-and-forget task.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        #[expect(
            clippy::expect_used,
            reason = "worker channels live exactly as long as the pool that owns them"
        )]
        let sender = self.sender.as_ref().expect("pool alive");
        #[expect(
            clippy::expect_used,
            reason = "completion latch is held open until every worker acks; disconnect is unreachable"
        )]
        sender.send(Box::new(job)).expect("pool workers alive");
    }

    /// Runs `f(range)` over a partition of `0..n` into roughly equal
    /// contiguous ranges, one batch per worker. Blocks until done, so `f`
    /// may borrow from the caller's stack: the (internally `unsafe`)
    /// lifetime extension below never outlives the call.
    ///
    /// If `f` panics on some range, the call still waits for every other
    /// range, then resumes the first panic on the calling thread — the
    /// contract of `std::thread::scope`. The workers survive it.
    pub fn parallel_ranges<F>(&self, n: usize, f: F)
    where
        F: Fn(std::ops::Range<usize>) + Sync,
    {
        if n == 0 {
            return;
        }
        let tasks = self.size.min(n);
        if tasks == 1 {
            f(0..n);
            return;
        }
        let completion = Arc::new(Completion::new(tasks));
        let f_static: &(dyn Fn(std::ops::Range<usize>) + Sync) = &f;
        // SAFETY: we block on `completion.wait()` before returning, so the
        // borrowed closure outlives every worker's use of it.
        let f_static: &'static (dyn Fn(std::ops::Range<usize>) + Sync) =
            unsafe { std::mem::transmute(f_static) };
        let chunk = n.div_ceil(tasks);
        for t in 0..tasks {
            let start = t * chunk;
            let end = ((t + 1) * chunk).min(n);
            if start >= end {
                completion.finish_one(Ok(()));
                continue;
            }
            let completion = Arc::clone(&completion);
            self.execute(move || {
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| f_static(start..end)));
                completion.finish_one(outcome);
            });
        }
        completion.wait();
    }

    /// The row-window runner: treats `data` as `data.len() / row_len` rows
    /// of `row_len` elements, partitions the rows over `pool` and passes
    /// each worker `(rows, window)` — its row range and the `&mut` window of
    /// `data` holding exactly those rows. With no pool, one worker or at
    /// most one row it runs `f(0..rows, data)` inline. Blocks until done.
    ///
    /// Every pooled kernel of `argo-tensor` goes through here, each over
    /// its output's rows: the GEMM, the input gradient, the weight gradient
    /// (`dW`'s rows) and the CSR gather. The windows are `chunks_mut` of
    /// `data` over the partition [`ThreadPool::parallel_ranges`] hands out,
    /// so their disjointness is the borrow checker's, not a claim.
    pub fn parallel_chunks_mut<T, F>(
        pool: Option<&ThreadPool>,
        data: &mut [T],
        row_len: usize,
        f: F,
    ) where
        T: Send,
        F: Fn(std::ops::Range<usize>, &mut [T]) + Sync,
    {
        let rows = data.len().checked_div(row_len).unwrap_or(0);
        assert_eq!(rows * row_len, data.len(), "data is a whole number of rows");
        let Some(pool) = pool.filter(|p| p.size() > 1 && rows > 1) else {
            f(0..rows, data);
            return;
        };
        // `parallel_ranges` partitions 0..rows with exactly this chunk size,
        // so window `range.start / chunk` holds exactly `range`'s rows.
        let chunk = rows.div_ceil(pool.size().min(rows));
        let windows: Mutex<Vec<Option<&mut [T]>>> =
            Mutex::new(data.chunks_mut(chunk * row_len).map(Some).collect());
        pool.parallel_ranges(rows, |range| {
            let window = windows
                .lock()
                .get_mut(range.start / chunk)
                .and_then(Option::take);
            if let Some(window) = window {
                f(range, window);
            }
        });
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        drop(self.sender.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_chunks_mut_covers_all() {
        let pool = ThreadPool::new("t", 4);
        let mut v = vec![0u32; 137];
        ThreadPool::parallel_chunks_mut(Some(&pool), &mut v, 1, |_, chunk| {
            for x in chunk {
                *x += 1;
            }
        });
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn parallel_chunks_mut_chunk_indices_are_offsets() {
        // A window starts at element `rows.start * row_len` of `data`.
        let pool = ThreadPool::new("t", 4);
        let mut v = vec![0usize; 64 * 3];
        ThreadPool::parallel_chunks_mut(Some(&pool), &mut v, 3, |rows, c| {
            for (j, x) in c.iter_mut().enumerate() {
                *x = rows.start * 3 + j;
            }
        });
        let expect: Vec<usize> = (0..64 * 3).collect();
        assert_eq!(v, expect);
    }

    #[test]
    fn parallel_chunks_mut_windows_tile_data_once_in_order() {
        let pools: Vec<Option<ThreadPool>> = [0usize, 1, 2, 3]
            .iter()
            .map(|&n| (n > 0).then(|| ThreadPool::new("t", n)))
            .collect();
        for pool in &pools {
            for rows in 0..=130usize {
                for row_len in [0usize, 1, 7] {
                    let mut data = vec![0u32; rows * row_len];
                    let seen = Mutex::new(Vec::new());
                    ThreadPool::parallel_chunks_mut(
                        pool.as_ref(),
                        &mut data,
                        row_len,
                        |r, window| {
                            assert_eq!(window.len(), r.len() * row_len);
                            for (k, x) in window.iter_mut().enumerate() {
                                // Element index = what an in-order tiling
                                // puts at this position of this window.
                                *x += (r.start * row_len + k) as u32 + 1;
                            }
                            seen.lock().push(r);
                        },
                    );
                    // Written exactly once, by the window that owns it.
                    let expect: Vec<u32> = (1..=(rows * row_len) as u32).collect();
                    assert_eq!(data, expect, "rows={rows} row_len={row_len}");
                    // The row ranges partition 0..rows (a zero-width matrix
                    // has no data, hence no rows to hand out).
                    let mut seen = seen.into_inner();
                    seen.sort_by_key(|r| r.start);
                    let mut next = 0;
                    for r in seen {
                        assert_eq!(r.start, next, "rows={rows} row_len={row_len}");
                        next = r.end;
                    }
                    assert_eq!(next, if row_len == 0 { 0 } else { rows });
                }
            }
        }
    }

    #[test]
    fn pinned_pool_runs() {
        crate::watchdog(30, || {
            let cores = CoreSet::range(0, 2);
            let pool = ThreadPool::pinned("p", &cores);
            assert_eq!(pool.size(), 2);
            let sum = Mutex::new(0usize);
            pool.parallel_ranges(10, |r| *sum.lock() += r.sum::<usize>());
            assert_eq!(sum.into_inner(), 45);
        });
    }

    #[test]
    fn execute_runs_detached_jobs() {
        let pool = ThreadPool::new("t", 2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // join workers
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    /// A range that panics on a pool worker re-panics on the caller, with
    /// its own message, once every range finished — and the pool keeps
    /// every worker: a barrier only all of them together can pass then
    /// opens. The body runs under a watchdog, so a hang fails instead of
    /// stalling the suite.
    #[test]
    fn a_panicking_range_re_panics_on_the_caller_and_the_workers_survive() {
        let (message, ran, leaders) = crate::watchdog(30, || {
            let pool = ThreadPool::new("t", 4);
            let ran = AtomicUsize::new(0);
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.parallel_ranges(4, |r| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    assert!(r.start != 2, "range {} refused", r.start);
                })
            }));
            let message = caught
                .expect_err("the range's panic reaches the caller")
                .downcast::<String>()
                .map(|m| *m)
                .ok();
            let ran = ran.load(Ordering::SeqCst);
            // Four ranges at once on four workers: only a full pool opens
            // the barrier.
            let barrier = std::sync::Barrier::new(4);
            let leaders = AtomicUsize::new(0);
            pool.parallel_ranges(4, |_| {
                if barrier.wait().is_leader() {
                    leaders.fetch_add(1, Ordering::SeqCst);
                }
            });
            (message, ran, leaders.load(Ordering::SeqCst))
        });
        assert_eq!(message.as_deref(), Some("range 2 refused"));
        assert_eq!(ran, 4, "every range ran before the caller resumed");
        assert_eq!(leaders, 1, "all four workers met at the barrier");
    }

    #[test]
    fn borrowing_local_data_is_sound() {
        let pool = ThreadPool::new("t", 4);
        let data: Vec<u64> = (0..512).collect();
        let total = Mutex::new(0u64);
        pool.parallel_ranges(data.len(), |r| {
            let local: u64 = data[r].iter().sum();
            *total.lock() += local;
        });
        assert_eq!(total.into_inner(), (0..512u64).sum::<u64>());
    }
}
