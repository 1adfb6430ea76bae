//! Linearizability tests driven by the mini-loom schedule explorer.
//!
//! Each test models two logical threads as step lists and runs **every**
//! interleaving (see `argo_check::schedule`), asserting the invariant the
//! runtime relies on:
//!
//! * [`FeatureCache`] is transparent — a gather through the cache is
//!   bitwise identical to an uncached [`Features::gather`], for every
//!   interleaving of two threads sharing the cache, including schedules
//!   in which the cache fills up and freezes mid-stream.
//! * The loader's channel handoff (crossbeam channel + binary-heap
//!   reordering, as in `PipelinedLoader::next`) delivers every batch
//!   exactly once, in index order, no matter how producer completions
//!   interleave with consumer pumps.
//! * [`ThreadPool::parallel_map_reduce`]'s slot protocol — workers write
//!   per-range partials into index-addressed slots, the caller folds the
//!   slots in range order — produces a bitwise-identical reduction for
//!   every completion interleaving, which is what makes the pool-parallel
//!   weight gradients (`dW = Xᵀ dY`) deterministic for a fixed pool size.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use argo_check::schedule::explore;
use argo_graph::{Features, NodeId};
use argo_sample::FeatureCache;
use crossbeam::channel::{unbounded, Receiver, Sender};

/// Deterministic feature matrix: row v = [v*10+0, v*10+1, …].
fn features(rows: usize, dim: usize) -> Features {
    let data: Vec<f32> = (0..rows * dim)
        .map(|i| (i / dim * 10 + i % dim) as f32)
        .collect();
    Features::new(data, dim)
}

/// Expected bitwise result of gathering `ids` without any cache.
fn expected(feats: &Features, ids: &[NodeId]) -> Vec<f32> {
    ids.iter().flat_map(|&v| feats.row(v).to_vec()).collect()
}

#[test]
fn feature_cache_gathers_are_linearizable() {
    let feats = features(8, 3);
    // Overlapping id sets with a 4-row cache: interleavings mix hits and
    // misses while it fills, and gathers on either side of the freeze.
    let a_batches: Vec<Vec<NodeId>> = vec![vec![0, 1, 2], vec![2, 3, 4], vec![0, 5, 6]];
    let b_batches: Vec<Vec<NodeId>> = vec![vec![1, 2, 3], vec![6, 7, 0], vec![4, 4, 5]];

    let n = explore(
        a_batches.len(),
        b_batches.len(),
        || FeatureCache::new(4, 3),
        |cache, i| {
            let got = cache.gather_rows(&feats, &a_batches[i]);
            assert_eq!(got, expected(&feats, &a_batches[i]), "A batch {i}");
        },
        |cache, i| {
            let got = cache.gather_rows(&feats, &b_batches[i]);
            assert_eq!(got, expected(&feats, &b_batches[i]), "B batch {i}");
        },
        |cache, sched| {
            // Conservation: every lookup was either a hit or a miss, and
            // the cache filled to exactly its capacity.
            let s = cache.stats();
            let rows: u64 = (a_batches.iter().chain(&b_batches))
                .map(|b| b.len() as u64)
                .sum();
            assert_eq!(s.hits + s.misses, rows, "schedule {sched}");
            assert_eq!(s.resident_rows, s.capacity_rows, "schedule {sched}");
        },
    );
    assert_eq!(n, 20, "C(6,3) schedules explored");
}

/// Shared state for the handoff model: the channel, the consumer's reorder
/// heap and its in-order output (mirrors `PipelinedLoader::next`).
struct Handoff {
    tx: Sender<usize>,
    rx: Receiver<usize>,
    reorder: BinaryHeap<Reverse<usize>>,
    next: usize,
    delivered: Vec<usize>,
}

impl Handoff {
    fn new() -> Self {
        let (tx, rx) = unbounded();
        Self {
            tx,
            rx,
            reorder: BinaryHeap::new(),
            next: 0,
            delivered: Vec::new(),
        }
    }

    /// One consumer pump: drain whatever is in the channel into the heap,
    /// then release every batch that is next in index order.
    fn pump(&mut self) {
        while let Ok(i) = self.rx.try_recv() {
            self.reorder.push(Reverse(i));
        }
        while self.reorder.peek() == Some(&Reverse(self.next)) {
            if let Some(Reverse(i)) = self.reorder.pop() {
                self.delivered.push(i);
                self.next += 1;
            }
        }
    }
}

#[test]
fn loader_handoff_delivers_in_order_exactly_once() {
    // Producer completes batches out of order (1, 0, 3, 2) — two pipelined
    // workers finishing at different speeds — while the consumer pumps at
    // arbitrary points. Every schedule must deliver 0..4 in order.
    let completion_order = [1usize, 0, 3, 2];
    let n = explore(
        completion_order.len(),
        3, // consumer pumps interleaved anywhere among the sends
        Handoff::new,
        |h, i| h.tx.send(completion_order[i]).expect("receiver alive"),
        |h, _| h.pump(),
        |h, sched| {
            // A schedule may end before the consumer's last pump, so the
            // invariant is checked after one final drain (on a clone —
            // `check` sees the state immutably).
            let mut done = Handoff {
                tx: h.tx.clone(),
                rx: h.rx.clone(),
                reorder: h.reorder.clone(),
                next: h.next,
                delivered: h.delivered.clone(),
            };
            done.pump();
            assert_eq!(done.delivered, vec![0, 1, 2, 3], "schedule {sched}");
        },
    );
    assert_eq!(n, 35, "C(7,4) schedules explored");
}

#[test]
fn map_reduce_slot_protocol_is_schedule_independent() {
    use argo_rt::ThreadPool;

    // The per-range partials of a float sum whose value depends on
    // accumulation order (catastrophic cancellation between ranges): only
    // a fixed fold order gives a stable answer.
    let partials: [f32; 4] = [1.0e8, 3.125, -1.0e8, 2.0 - 9.75e-4];

    // Reference: what the real pool computes for the same 4 ranges. Chunk
    // size in `parallel_map_reduce` is ceil(n / workers), so n = 8 over a
    // 4-worker pool yields exactly the ranges 0..2, 2..4, 4..6, 6..8.
    let pool = ThreadPool::new("mr", 4);
    let real = pool
        .parallel_map_reduce(8, |r| partials[r.start / 2], |a, b| a + b)
        .expect("non-empty reduction");

    // Model: worker A owns slots {0, 2}, worker B owns slots {1, 3} —
    // each schedule is one order in which range results can land. The
    // fold always walks slots 0..4, exactly like the caller-side fold.
    let a_slots = [0usize, 2];
    let b_slots = [1usize, 3];
    let n = explore(
        a_slots.len(),
        b_slots.len(),
        || vec![None::<f32>; 4],
        |slots, i| slots[a_slots[i]] = Some(partials[a_slots[i]]),
        |slots, i| slots[b_slots[i]] = Some(partials[b_slots[i]]),
        |slots, sched| {
            let mut acc: Option<f32> = None;
            for s in slots {
                let Some(v) = s else { continue };
                acc = Some(match acc {
                    Some(a) => a + v,
                    None => *v,
                });
            }
            let folded = acc.expect("all slots filled");
            assert_eq!(
                folded.to_bits(),
                real.to_bits(),
                "schedule {sched}: fold {folded} != pool result {real}"
            );
        },
    );
    assert_eq!(n, 6, "C(4,2) schedules explored");
}

#[test]
fn disconnect_mid_stream_is_detected_not_lost() {
    // If the producer side is dropped with batches undelivered, the
    // consumer observes Disconnected after draining — never a silent hang
    // or a lost in-flight batch (mirrors the loader's `Err(_) => None`).
    use crossbeam::channel::TryRecvError;
    let (tx, rx) = unbounded::<usize>();
    tx.send(0).expect("receiver alive");
    tx.send(1).expect("receiver alive");
    drop(tx);
    assert_eq!(rx.try_recv(), Ok(0));
    assert_eq!(rx.try_recv(), Ok(1));
    assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
}
