//! Synchronous all-reduce across emulated processes.
//!
//! The Multi-Process Engine performs a synchronous SGD step: after every
//! iteration each process contributes its local gradient, the gradients are
//! averaged, and every process observes the same averaged result (paper
//! Section IV-B2, mirroring PyTorch DDP). [`AllReduce`] implements this as a
//! reduce-scatter and an all-gather between barriers.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use parking_lot::Mutex;

/// Reusable average-all-reduce for a fixed group of `n` participants.
///
/// Every participant calls [`AllReduce::reduce_mean`] with its local buffer;
/// the call returns once the buffer has been overwritten with the element-wise
/// mean over all participants. The structure is reusable across rounds.
/// Each element's `n` contributions are summed in ascending
/// [`f32::total_cmp`] order from `+0.0`, then scaled by `1/n`, whichever
/// participant arrives first: at `n = 2` that is the arrival-order sum (a
/// two-term sum commutes; the `+0.0` start keeps its signed zeros).
pub struct AllReduce {
    n: usize,
    dim: usize,
    /// A `1/n` column slice of the buffers and its contributions,
    /// element-major: element `j`'s are `[j·n..(j+1)·n]`, in this round's
    /// arrival order, and the reduction leaves their mean in the first.
    slices: Vec<(Range<usize>, Mutex<Vec<f32>>)>,
    /// Participants arrived this round: each one's arrival index is the
    /// column it writes and the slice it reduces.
    arrived: AtomicUsize,
    barrier: Barrier,
}

impl AllReduce {
    /// An all-reduce group of `n` participants exchanging buffers of length
    /// `dim`.
    pub fn new(n: usize, dim: usize) -> Self {
        assert!(n > 0);
        let slice = |k| {
            let cols = k * dim / n..(k + 1) * dim / n;
            (cols.clone(), Mutex::new(vec![0.0; cols.len() * n]))
        };
        Self {
            n,
            dim,
            slices: (0..n).map(slice).collect(),
            arrived: AtomicUsize::new(0),
            barrier: Barrier::new(n),
        }
    }

    /// Element-wise mean across all participants' `buf`s; `buf` is
    /// overwritten with the result. All `n` participants must call this the
    /// same number of times with equal-length buffers.
    pub fn reduce_mean(&self, buf: &mut [f32]) {
        let n = self.n;
        if n == 1 {
            return; // mean of a single buffer is itself
        }
        assert_eq!(buf.len(), self.dim, "all-reduce buffer length mismatch");
        // Publish this participant's contribution: a column of every slice.
        let me = self.arrived.fetch_add(1, Ordering::AcqRel);
        for (cols, slice) in &self.slices {
            let mut slice = slice.lock();
            for (vals, &x) in slice.chunks_exact_mut(n).zip(&buf[cols.clone()]) {
                vals[me] = x;
            }
        }
        if self.barrier.wait().is_leader() {
            self.arrived.store(0, Ordering::Release); // every index is taken
        }
        // Reduce slice `me`, sorting each element's contributions into the
        // one order arrival cannot change.
        let inv = 1.0 / n as f32;
        for vals in self.slices[me].1.lock().chunks_exact_mut(n) {
            vals.sort_unstable_by(f32::total_cmp);
            vals[0] = vals.iter().fold(0.0, |sum, &x| sum + x) * inv;
        }
        self.barrier.wait();
        for (cols, slice) in &self.slices {
            let slice = slice.lock();
            for (b, vals) in buf[cols.clone()].iter_mut().zip(slice.chunks_exact(n)) {
                *b = vals[0];
            }
        }
        // No one publishes the next round over a mean another has yet to read.
        self.barrier.wait();
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

    /// `bufs.len()` participants, each reducing its buffer in eight rounds
    /// on one group (arrivals fall in whatever order the threads run);
    /// returns every round's result of every participant.
    fn reduce_all(bufs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let ar = AllReduce::new(bufs.len(), bufs[0].len());
        std::thread::scope(|s| {
            let handles: Vec<_> = bufs
                .iter()
                .map(|buf| {
                    let ar = &ar;
                    s.spawn(move || {
                        (0..8)
                            .map(|_| {
                                let mut buf = buf.clone();
                                ar.reduce_mean(&mut buf);
                                buf
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        })
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Values whose sums depend on their order, signed zeros among them.
    fn awkward(r: usize) -> Vec<f32> {
        let mut v = vec![0.0, -0.0, 1e8, -1e8, 1.0, 3.0e-8, -2.5, f32::MIN_POSITIVE];
        v.rotate_left(r);
        v.extend((0..23).map(|i| ((i * 7 + r * 13) % 11) as f32 * 0.37 - 1.9));
        v
    }

    #[test]
    fn one_and_two_participants_keep_the_arrival_order_sum_bitwise() {
        crate::watchdog(30, || {
            // One participant gets its buffer back untouched (-0.0 included).
            let solo = awkward(0);
            assert_eq!(
                bits(&reduce_all(std::slice::from_ref(&solo))[0]),
                bits(&solo)
            );
            // Two: what the accumulator summed in arrival order from +0.0,
            // whichever arrives first — every pair of signed zeros included.
            let (a, b) = (awkward(0), awkward(3));
            let pairs = [(0.0f32, -0.0f32), (-0.0, 0.0), (-0.0, -0.0), (0.0, 0.0)];
            let (a, b): (Vec<f32>, Vec<f32>) = a.into_iter().zip(b).chain(pairs).unzip();
            let arrival_sum = |x: &[f32], y: &[f32]| -> Vec<u32> {
                let sums = x.iter().zip(y).map(|(x, y)| (0.0 + x + y) * 0.5);
                sums.map(f32::to_bits).collect()
            };
            let want = arrival_sum(&a, &b);
            assert_eq!(want, arrival_sum(&b, &a), "a two-term sum commutes");
            for got in reduce_all(&[a, b]) {
                assert_eq!(bits(&got), want);
            }
        });
    }

    #[test]
    fn three_and_four_participants_sum_in_one_order_whoever_arrives_first() {
        crate::watchdog(30, || {
            for n in [3, 4] {
                let bufs: Vec<Vec<f32>> = (0..n).map(awkward).collect();
                // The oracle: each element's contributions, ascending, summed
                // from +0.0, scaled by 1/n.
                let want: Vec<u32> = (0..bufs[0].len())
                    .map(|j| {
                        let mut vals: Vec<f32> = bufs.iter().map(|b| b[j]).collect();
                        vals.sort_by(f32::total_cmp);
                        (vals.iter().fold(0.0f32, |s, x| s + x) * (1.0 / n as f32)).to_bits()
                    })
                    .collect();
                for got in reduce_all(&bufs) {
                    assert_eq!(bits(&got), want, "n = {n}");
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
