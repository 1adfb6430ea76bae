//! Linearizability tests driven by the mini-loom schedule explorer.
//!
//! Each test models two logical threads as step lists and runs **every**
//! interleaving (see `argo_check::schedule`), asserting the invariant the
//! runtime relies on:
//!
//! * The loader's channel handoff (one crossbeam channel per worker, each
//!   carrying the batches its worker owns in order, and a consumer that
//!   takes batch `i` from channel `i mod n`, as in `PipelinedLoader::next`)
//!   delivers every batch exactly once, in index order, no matter how the
//!   workers' completions interleave with consumer pumps.
//!
//! The pool's kernels need no model here: each writes only its own
//! `chunks_mut` window of the output, so their disjointness is the borrow
//! checker's, and no result is combined across workers.

use argo_check::schedule::explore;
use crossbeam::channel::{unbounded, Receiver, Sender};

/// Workers in the handoff model.
const WORKERS: usize = 2;

/// Shared state for the handoff model: one channel per worker, and the
/// consumer's next index and in-order output (mirrors
/// `PipelinedLoader::next`).
struct Handoff {
    channels: Vec<(Sender<usize>, Receiver<usize>)>,
    next: usize,
    delivered: Vec<usize>,
}

impl Handoff {
    fn new() -> Self {
        Self {
            channels: (0..WORKERS).map(|_| unbounded()).collect(),
            next: 0,
            delivered: Vec::new(),
        }
    }

    /// Batch `i` is sent by the worker that owns it, on its own channel.
    fn send(&self, i: usize) {
        self.channels[i % WORKERS]
            .0
            .send(i)
            .expect("receiver alive");
    }

    /// One consumer pump: take every batch that is next in index order
    /// from the channel of the worker that owns it, as far as they have
    /// arrived.
    fn pump(&mut self) {
        while let Ok(i) = self.channels[self.next % WORKERS].1.try_recv() {
            assert_eq!(
                i, self.next,
                "a worker's channel carries its batches in order"
            );
            self.delivered.push(i);
            self.next += 1;
        }
    }
}

#[test]
fn loader_handoff_delivers_in_order_exactly_once() {
    // Two pipelined workers finish at different speeds, so their batches
    // complete out of index order (1, 0, 3, 2) — each worker's own in order
    // — while the consumer pumps at arbitrary points. Every schedule must
    // deliver 0..4 in order.
    let completion_order = [1usize, 0, 3, 2];
    let n = explore(
        completion_order.len(),
        3, // consumer pumps interleaved anywhere among the sends
        Handoff::new,
        |h, i| h.send(completion_order[i]),
        |h, _| h.pump(),
        |h, sched| {
            // A schedule may end before the consumer's last pump, so the
            // invariant is checked after one final drain (on a clone —
            // `check` sees the state immutably).
            let mut done = Handoff {
                channels: h.channels.clone(),
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
    // If a worker's sender is dropped with batches undelivered, the
    // consumer observes Disconnected after draining what it sent — never a
    // silent hang or a lost in-flight batch (the loader then joins its
    // workers and re-raises the dead one's panic).
    use crossbeam::channel::TryRecvError;
    let (tx, rx) = unbounded::<usize>();
    tx.send(0).expect("receiver alive");
    tx.send(1).expect("receiver alive");
    drop(tx);
    assert_eq!(rx.try_recv(), Ok(0));
    assert_eq!(rx.try_recv(), Ok(1));
    assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
}
