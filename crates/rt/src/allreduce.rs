//! Synchronous all-reduce across emulated processes.
//!
//! The Multi-Process Engine performs a synchronous SGD step: after every
//! iteration each process contributes its local gradient, the gradients are
//! averaged, and every process observes the same averaged result (paper
//! Section IV-B2, mirroring PyTorch DDP). [`AllReduce`] implements this with
//! a shared accumulation buffer and a two-phase barrier.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use parking_lot::Mutex;

/// Reusable average-all-reduce for a fixed group of `n` participants.
///
/// Every participant calls [`AllReduce::reduce_mean`] with its local buffer;
/// the call returns once the buffer has been overwritten with the element-wise
/// mean over all participants. The structure is reusable across rounds.
pub struct AllReduce {
    n: usize,
    accum: Mutex<Vec<f32>>,
    arrived: AtomicUsize,
    enter: Barrier,
    exit: Barrier,
}

impl AllReduce {
    /// An all-reduce group of `n` participants exchanging buffers of length
    /// `dim`.
    pub fn new(n: usize, dim: usize) -> Self {
        assert!(n > 0);
        Self {
            n,
            accum: Mutex::new(vec![0.0; dim]),
            arrived: AtomicUsize::new(0),
            enter: Barrier::new(n),
            exit: Barrier::new(n),
        }
    }

    /// Element-wise mean across all participants' `buf`s; `buf` is
    /// overwritten with the result. All `n` participants must call this the
    /// same number of times with equal-length buffers.
    pub fn reduce_mean(&self, buf: &mut [f32]) {
        if self.n == 1 {
            return; // mean of a single buffer is itself
        }
        // Phase 1: everyone adds its contribution.
        {
            let mut acc = self.accum.lock();
            assert_eq!(acc.len(), buf.len(), "all-reduce buffer length mismatch");
            for (a, b) in acc.iter_mut().zip(buf.iter()) {
                *a += *b;
            }
            self.arrived.fetch_add(1, Ordering::AcqRel);
        }
        self.enter.wait();
        // Phase 2: everyone reads the mean; last one out resets the buffer.
        {
            let acc = self.accum.lock();
            let inv = 1.0 / self.n as f32;
            for (b, a) in buf.iter_mut().zip(acc.iter()) {
                *b = *a * inv;
            }
        }
        let before = self.arrived.fetch_sub(1, Ordering::AcqRel);
        if before == 1 {
            let mut acc = self.accum.lock();
            for a in acc.iter_mut() {
                *a = 0.0;
            }
        }
        self.exit.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_participant_is_identity() {
        let ar = AllReduce::new(1, 3);
        let mut v = vec![1.0, 2.0, 3.0];
        ar.reduce_mean(&mut v);
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn mean_across_four_participants() {
        crate::watchdog(30, || {
            let n = 4;
            let ar = Arc::new(AllReduce::new(n, 8));
            let mut handles = Vec::new();
            for rank in 0..n {
                let ar = Arc::clone(&ar);
                handles.push(std::thread::spawn(move || {
                    let mut buf = vec![rank as f32; 8];
                    ar.reduce_mean(&mut buf);
                    buf
                }));
            }
            let expected = (0..n).map(|r| r as f32).sum::<f32>() / n as f32;
            for h in handles {
                let buf = h.join().unwrap();
                assert!(buf.iter().all(|&x| (x - expected).abs() < 1e-6));
            }
        });
    }

    #[test]
    fn reusable_across_rounds() {
        crate::watchdog(30, || {
            let n = 3;
            let rounds = 10;
            let ar = Arc::new(AllReduce::new(n, 4));
            let mut handles = Vec::new();
            for rank in 0..n {
                let ar = Arc::clone(&ar);
                handles.push(std::thread::spawn(move || {
                    let mut out = Vec::new();
                    for round in 0..rounds {
                        let mut buf = vec![(rank * rounds + round) as f32; 4];
                        ar.reduce_mean(&mut buf);
                        out.push(buf[0]);
                    }
                    out
                }));
            }
            let results: Vec<Vec<f32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for round in 0..rounds {
                let expected = (0..n).map(|r| (r * rounds + round) as f32).sum::<f32>() / n as f32;
                for r in &results {
                    assert!((r[round] - expected).abs() < 1e-5, "round {round}");
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "mismatch detected")]
    fn mismatched_lengths_panic() {
        crate::watchdog(30, || {
            let ar = AllReduce::new(2, 4);
            // Run both participants so we do not deadlock before the panic.
            let ar = Arc::new(ar);
            let a2 = Arc::clone(&ar);
            let h = std::thread::spawn(move || {
                let mut ok = vec![0.0; 4];
                a2.reduce_mean(&mut ok);
            });
            let mut bad = vec![0.0; 3];
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ar.reduce_mean(&mut bad);
            }));
            drop(h); // participant thread will hang; leak it (test process exits)
            if res.is_err() {
                panic!("mismatch detected");
            }
        });
    }
}
