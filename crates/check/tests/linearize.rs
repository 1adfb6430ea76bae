//! Linearizability tests driven by the mini-loom schedule explorer.
//!
//! Each test models two logical threads as step lists and runs **every**
//! interleaving (see `argo_check::schedule`), asserting the invariant the
//! runtime relies on:
//!
//! * The loader's channel handoff (crossbeam channel + binary-heap
//!   reordering, as in `PipelinedLoader::next`) delivers every batch
//!   exactly once, in index order, no matter how producer completions
//!   interleave with consumer pumps.
//!
//! The pool's kernels need no model here: each writes only its own
//! `chunks_mut` window of the output, so their disjointness is the borrow
//! checker's, and no result is combined across workers.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use argo_check::schedule::explore;
use crossbeam::channel::{unbounded, Receiver, Sender};

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
