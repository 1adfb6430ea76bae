//! Exhaustive interleaving tests for the serve deadline micro-batcher,
//! driven by the mini-loom in `argo_check::schedule`.
//!
//! The batcher itself is a single-driver state machine, but the *session*
//! around it interleaves four operations whose relative order the wall
//! clock decides at runtime: admissions, result-cache hits answered at
//! admission, deadline polls, and the shutdown drain. Each test models two
//! logical drivers as step lists, enumerates every interleaving under a
//! [`ManualClock`], and asserts the invariants the serving path relies on —
//! request ids dense across hits and queued requests; no queued request
//! lost, duplicated or reordered; `Full` flushes carry exactly `max_batch`;
//! `Deadline` flushes only once the *oldest* admit has aged out. A failure
//! names the exact schedule (e.g. `ABBAB`) that broke it.

use std::sync::Arc;

use argo_check::schedule::{all_interleavings, explore};
use argo_serve::{Clock, FlushReason, ManualClock, MicroBatch, MicroBatcher};

/// Shared state for one explored schedule: the batcher, its manual clock,
/// every batch flushed so far (by either driver), and the ids handed out to
/// queued requests and to hits, each in the order they were handed out.
struct Harness {
    clock: Arc<ManualClock>,
    batcher: MicroBatcher,
    batches: Vec<MicroBatch>,
    queued: Vec<u64>,
    hits: Vec<u64>,
}

impl Harness {
    fn new(max_batch: usize, deadline_us: u64) -> Self {
        Self {
            clock: Arc::new(ManualClock::new()),
            batcher: MicroBatcher::new(max_batch, deadline_us, 64),
            batches: Vec::new(),
            queued: Vec::new(),
            hits: Vec::new(),
        }
    }

    fn admit(&mut self) {
        let now = self.clock.now_us();
        let (id, batch) = self.batcher.admit(vec![1], now).expect("under cap");
        self.queued.push(id);
        self.batches.extend(batch);
    }

    /// A request answered at admission: it must leave the queue untouched.
    fn hit(&mut self) {
        let pending = self.batcher.pending();
        let due = self.batcher.next_deadline_us();
        let batch = self.batcher.admit_hit(vec![2], self.clock.now_us());
        assert_eq!(batch.reason, FlushReason::Hit);
        assert_eq!(batch.requests.len(), 1, "a hit is a one-request batch");
        assert_eq!(
            (self.batcher.pending(), self.batcher.next_deadline_us()),
            (pending, due),
            "a hit takes no slot and moves no deadline"
        );
        self.hits.push(batch.requests[0].id);
        self.batches.push(batch);
    }

    fn poll(&mut self) {
        let batch = self.batcher.poll(self.clock.now_us());
        self.batches.extend(batch);
    }

    fn drain(&mut self) {
        while let Some(b) = self.batcher.flush(self.clock.now_us(), FlushReason::Drain) {
            self.batches.push(b);
        }
    }

    /// The invariants every schedule must uphold.
    fn check(&self, max_batch: usize, deadline_us: u64, schedule: &str) {
        for (i, b) in self.batches.iter().enumerate() {
            assert_eq!(b.id, i as u64, "batch ids sequential [{schedule}]");
            assert!(!b.requests.is_empty(), "no empty flushes [{schedule}]");
            assert!(
                b.requests.len() <= max_batch,
                "batch within max_batch [{schedule}]"
            );
            match b.reason {
                FlushReason::Full => assert_eq!(
                    b.requests.len(),
                    max_batch,
                    "Full means exactly max_batch [{schedule}]"
                ),
                FlushReason::Deadline if deadline_us > 0 => {
                    let oldest = b.requests[0].admitted_us;
                    assert!(
                        b.flushed_us >= oldest.saturating_add(deadline_us),
                        "Deadline flush before the oldest admit aged out: \
                         admitted {oldest}, flushed {} [{schedule}]",
                        b.flushed_us
                    );
                }
                FlushReason::Hit => assert_eq!(
                    b.requests[0].admitted_us, b.flushed_us,
                    "a hit never waits [{schedule}]"
                ),
                _ => {}
            }
        }
        // Request ids are dense across both kinds: every id 0..n handed out
        // exactly once, to a queued request or to a hit.
        let mut all: Vec<u64> = self.queued.iter().chain(&self.hits).copied().collect();
        all.sort_unstable();
        let dense: Vec<u64> = (0..all.len() as u64).collect();
        assert_eq!(
            all, dense,
            "request ids dense, no gap or duplicate [{schedule}]"
        );
        // Conservation + FIFO: the queue flushes from the front, so the
        // concatenated queued ids flushed so far must be exactly the first k
        // admitted, in order, with the rest still pending.
        let (hit_batches, queue_batches): (Vec<&MicroBatch>, Vec<&MicroBatch>) = self
            .batches
            .iter()
            .partition(|b| b.reason == FlushReason::Hit);
        let flushed: Vec<u64> = queue_batches
            .iter()
            .flat_map(|b| b.requests.iter().map(|r| r.id))
            .collect();
        assert_eq!(
            self.queued.get(..flushed.len()),
            Some(flushed.as_slice()),
            "no queued request lost, duplicated or reordered [{schedule}]"
        );
        assert_eq!(
            flushed.len() + self.batcher.pending(),
            self.queued.len(),
            "flushed + pending accounts for every admit [{schedule}]"
        );
        let answered: Vec<u64> = hit_batches.iter().map(|b| b.requests[0].id).collect();
        assert_eq!(answered, self.hits, "every hit answered once [{schedule}]");
    }
}

/// Flush-on-full racing flush-on-deadline: driver A admits 4 requests
/// (max_batch 3, so a `Full` flush leaves a straggler) then drains; driver
/// B advances the clock past the deadline and polls. Depending on where the
/// polls land, the same requests flush as `Full`, `Deadline`, `Drain`, or a
/// mix — every interleaving must conserve and order them.
#[test]
fn full_and_deadline_flushes_conserve_requests_in_every_interleaving() {
    let (max_batch, deadline_us) = (3, 1_000);
    let n = explore(
        5,
        2,
        || Harness::new(max_batch, deadline_us),
        |h, i| {
            if i < 4 {
                h.admit();
                h.clock.advance_us(10);
            } else {
                h.drain(); // shutdown after the last admit
            }
        },
        |h, _| {
            h.clock.advance_us(deadline_us); // age the oldest past its deadline
            h.poll();
        },
        |h, schedule| {
            assert_eq!(
                h.batcher.pending(),
                0,
                "drain left the queue empty [{schedule}]"
            );
            h.check(max_batch, deadline_us, schedule);
        },
    );
    assert_eq!(n, all_interleavings(5, 2).len());
}

/// Deadline keyed to the *oldest* admit: driver A admits at 300 µs spacing,
/// driver B polls at absolute times straddling the first request's deadline
/// (900, 999, 1 200 µs). No interleaving may flush a `Deadline` batch
/// early, and a poll that lands at/after a pending request's deadline must
/// flush it — both asserted inside the poll step, where the due time is
/// known exactly.
#[test]
fn deadline_is_keyed_to_the_oldest_admit_in_every_interleaving() {
    let (max_batch, deadline_us) = (8, 1_000);
    explore(
        4,
        3,
        || Harness::new(max_batch, deadline_us),
        |h, i| {
            if i < 3 {
                h.admit();
                h.clock.advance_us(300);
            } else {
                h.drain();
            }
        },
        |h, i| {
            let at = [900, 999, 1_200][i];
            let now = h.clock.now_us();
            if at > now {
                h.clock.advance_us(at - now);
            }
            let due = h.batcher.next_deadline_us();
            let batch = h.batcher.poll(h.clock.now_us());
            match (&batch, due) {
                (Some(b), _) => assert!(
                    h.clock.now_us() >= b.requests[0].admitted_us + deadline_us,
                    "flushed before the oldest aged out"
                ),
                (None, Some(due)) => assert!(
                    h.clock.now_us() < due,
                    "poll at {} missed a flush due at {due}",
                    h.clock.now_us()
                ),
                (None, None) => {}
            }
            h.batches.extend(batch);
        },
        |h, schedule| {
            assert_eq!(
                h.batcher.pending(),
                0,
                "drain left the queue empty [{schedule}]"
            );
            h.check(max_batch, deadline_us, schedule);
        },
    );
}

/// Hits answered at admission racing queued admits, polls and the drain:
/// driver A alternates admits and hits (max_batch 2, so some admits flush
/// `Full`) then drains; driver B ages the queue past its deadline and polls,
/// answers a hit of its own, and polls again. In every interleaving the ids
/// are dense across both kinds, batch ids stay sequential, and the queued
/// requests still flush FIFO around the hits.
#[test]
fn hits_keep_ids_dense_and_the_queue_fifo_in_every_interleaving() {
    let (max_batch, deadline_us) = (2, 1_000);
    let n = explore(
        6,
        3,
        || Harness::new(max_batch, deadline_us),
        |h, i| {
            match i {
                5 => h.drain(),
                _ if i % 2 == 0 => h.admit(),
                _ => h.hit(),
            }
            h.clock.advance_us(10);
        },
        |h, i| {
            if i == 1 {
                h.hit();
            } else {
                h.clock.advance_us(deadline_us);
                h.poll();
            }
        },
        |h, schedule| {
            assert_eq!(
                h.batcher.pending(),
                0,
                "drain left the queue empty [{schedule}]"
            );
            assert_eq!((h.queued.len(), h.hits.len()), (3, 3));
            h.check(max_batch, deadline_us, schedule);
        },
    );
    assert_eq!(n, all_interleavings(6, 3).len());
}

/// Drain racing admissions: driver B drains mid-stream (session shutdown
/// while requests still arrive). Requests admitted after the drain stay
/// pending; everything flushed is still conserved FIFO.
#[test]
fn mid_stream_drain_conserves_flushed_requests_in_every_interleaving() {
    let (max_batch, deadline_us) = (4, 10_000);
    explore(
        4,
        2,
        || Harness::new(max_batch, deadline_us),
        |h, _| {
            h.admit();
            h.clock.advance_us(50);
        },
        |h, _| h.drain(),
        |h, schedule| h.check(max_batch, deadline_us, schedule),
    );
}
