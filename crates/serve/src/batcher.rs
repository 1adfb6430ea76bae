//! The deadline-driven micro-batcher.
//!
//! Online queries arrive one at a time; executing each alone wastes the
//! sampler and GEMM throughput the training path already paid to build.
//! The batcher admits requests until either `max_batch` queries are pending
//! (flush reason [`FlushReason::Full`]) or the *oldest* pending admit has
//! aged past `deadline_us` (reason [`FlushReason::Deadline`]) — whichever
//! comes first, bounding both batch occupancy and worst-case queueing
//! delay. A request that is already answered when it arrives — a
//! result-cache hit — does not queue at all: [`MicroBatcher::admit_hit`]
//! gives it the next request and batch ids and returns it as a one-request
//! batch ([`FlushReason::Hit`]). All decisions are pure functions of
//! caller-supplied microsecond timestamps (see [`crate::clock::Clock`]), so
//! every admission edge is deterministic and unit-tested below.
//!
//! Every method that touches the queue takes `&mut self`, so one caller at
//! a time is the compiler's guarantee; the session that owns the batcher is
//! that caller.

use std::collections::VecDeque;

use argo_core::Error;
use argo_graph::NodeId;

/// Why a micro-batch left the batcher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushReason {
    /// `max_batch` requests were pending.
    Full,
    /// The oldest pending request reached its deadline.
    Deadline,
    /// The caller drained the queue (session shutdown).
    Drain,
    /// The request was answered at admission and never queued.
    Hit,
}

impl FlushReason {
    /// Wire label used in `serve_batch` events.
    pub fn label(&self) -> &'static str {
        match self {
            FlushReason::Full => "full",
            FlushReason::Deadline => "deadline",
            FlushReason::Drain => "drain",
            FlushReason::Hit => "hit",
        }
    }
}

/// One admitted request waiting for its micro-batch.
#[derive(Clone, Debug, PartialEq)]
pub struct Admitted {
    /// Session-unique id, assigned in admission order.
    pub id: u64,
    /// Seed nodes of the query, in the caller's order.
    pub seeds: Vec<NodeId>,
    /// Clock reading at admission (microseconds).
    pub admitted_us: u64,
}

/// A flushed group of requests, ready to execute together.
#[derive(Clone, Debug, PartialEq)]
pub struct MicroBatch {
    /// Session-unique micro-batch id.
    pub id: u64,
    /// What triggered the flush.
    pub reason: FlushReason,
    /// Clock reading at flush (microseconds).
    pub flushed_us: u64,
    /// The requests, oldest first.
    pub requests: Vec<Admitted>,
}

/// Deadline/batch-size admission control. Owns no threads and reads no
/// clock — the session (or a test) feeds it timestamps.
pub struct MicroBatcher {
    max_batch: usize,
    deadline_us: u64,
    queue_cap: usize,
    pending: VecDeque<Admitted>,
    next_request: u64,
    next_batch: u64,
}

impl MicroBatcher {
    /// `max_batch` is clamped to at least 1. `deadline_us == 0` means every
    /// admit flushes immediately (pure latency mode); `queue_cap` bounds
    /// pending requests beyond which admission fails with
    /// [`Error::QueueFull`].
    pub fn new(max_batch: usize, deadline_us: u64, queue_cap: usize) -> Self {
        Self {
            max_batch: max_batch.max(1),
            deadline_us,
            queue_cap: queue_cap.max(1),
            pending: VecDeque::new(),
            next_request: 0,
            next_batch: 0,
        }
    }

    /// Requests currently queued.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Clock reading at which the oldest pending request must flush, or
    /// `None` when the queue is empty. The session sleeps/polls until this.
    pub fn next_deadline_us(&self) -> Option<u64> {
        self.pending
            .front()
            .map(|r| r.admitted_us.saturating_add(self.deadline_us))
    }

    /// Admits one request at clock reading `now_us`. Returns the assigned
    /// request id plus a micro-batch if this admission triggered a flush:
    /// the queue reaching `max_batch` flushes as [`FlushReason::Full`]; a
    /// zero deadline flushes the request alone as [`FlushReason::Deadline`].
    pub fn admit(
        &mut self,
        seeds: Vec<NodeId>,
        now_us: u64,
    ) -> Result<(u64, Option<MicroBatch>), Error> {
        if self.pending.len() >= self.queue_cap {
            return Err(Error::QueueFull(format!(
                "{} requests pending (cap {})",
                self.pending.len(),
                self.queue_cap
            )));
        }
        let id = self.next_request;
        self.next_request += 1;
        self.pending.push_back(Admitted {
            id,
            seeds,
            admitted_us: now_us,
        });
        let batch = if self.pending.len() >= self.max_batch {
            self.flush(now_us, FlushReason::Full)
        } else if self.deadline_us == 0 {
            self.flush(now_us, FlushReason::Deadline)
        } else {
            None
        };
        Ok((id, batch))
    }

    /// Admits a request the caller has already answered (a result-cache
    /// hit) at clock reading `now_us`. It takes the next request id and the
    /// next batch id, so both stay dense and in admission order across hits
    /// and queued requests, but it never enters the queue: it takes no slot,
    /// so `queue_cap` does not apply, and it waits for nothing. Returns it
    /// as a one-request batch flushed at `now_us` with reason
    /// [`FlushReason::Hit`].
    pub fn admit_hit(&mut self, seeds: Vec<NodeId>, now_us: u64) -> MicroBatch {
        let id = self.next_request;
        self.next_request += 1;
        let batch = self.next_batch;
        self.next_batch += 1;
        MicroBatch {
            id: batch,
            reason: FlushReason::Hit,
            flushed_us: now_us,
            requests: vec![Admitted {
                id,
                seeds,
                admitted_us: now_us,
            }],
        }
    }

    /// Flushes the queue if the oldest pending request's deadline has
    /// passed at `now_us`. Call this on every clock tick (or at
    /// `next_deadline_us`).
    pub fn poll(&mut self, now_us: u64) -> Option<MicroBatch> {
        match self.next_deadline_us() {
            Some(at) if now_us >= at => self.flush(now_us, FlushReason::Deadline),
            _ => None,
        }
    }

    /// Unconditionally flushes up to `max_batch` pending requests.
    pub fn flush(&mut self, now_us: u64, reason: FlushReason) -> Option<MicroBatch> {
        if self.pending.is_empty() {
            return None;
        }
        let take = self.pending.len().min(self.max_batch);
        let requests: Vec<Admitted> = self.pending.drain(..take).collect();
        let id = self.next_batch;
        self.next_batch += 1;
        Some(MicroBatch {
            id,
            reason,
            flushed_us: now_us,
            requests,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds(n: u32) -> Vec<NodeId> {
        (0..n).collect()
    }

    #[test]
    fn single_request_waits_for_its_deadline() {
        let mut b = MicroBatcher::new(4, 1_000, 64);
        let (id, batch) = b.admit(seeds(2), 100).unwrap();
        assert_eq!(id, 0);
        assert!(batch.is_none(), "one request below max_batch must queue");
        assert_eq!(b.next_deadline_us(), Some(1_100));
        // One tick early: nothing.
        assert!(b.poll(1_099).is_none());
        // On the deadline: flush.
        let flushed = b.poll(1_100).expect("deadline reached");
        assert_eq!(flushed.reason, FlushReason::Deadline);
        assert_eq!(flushed.flushed_us, 1_100);
        assert_eq!(flushed.requests.len(), 1);
        assert_eq!(flushed.requests[0].id, 0);
        assert_eq!(b.pending(), 0);
        assert!(b.poll(2_000).is_none(), "empty queue never flushes");
    }

    #[test]
    fn zero_deadline_flushes_every_admit_alone() {
        let mut b = MicroBatcher::new(8, 0, 64);
        for i in 0..3u64 {
            let (id, batch) = b.admit(seeds(1), i * 10).unwrap();
            assert_eq!(id, i);
            let batch = batch.expect("zero deadline flushes immediately");
            assert_eq!(batch.reason, FlushReason::Deadline);
            assert_eq!(batch.requests.len(), 1);
            assert_eq!(batch.id, i);
        }
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn filling_max_batch_flushes_full() {
        let mut b = MicroBatcher::new(3, 10_000, 64);
        assert!(b.admit(seeds(1), 0).unwrap().1.is_none());
        assert!(b.admit(seeds(1), 1).unwrap().1.is_none());
        let batch = b.admit(seeds(1), 2).unwrap().1.expect("third fills");
        assert_eq!(batch.reason, FlushReason::Full);
        assert_eq!(batch.requests.len(), 3);
        assert_eq!(
            batch.requests.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn burst_larger_than_max_batch_splits() {
        let mut b = MicroBatcher::new(4, 10_000, 64);
        let mut flushed = Vec::new();
        for i in 0..10 {
            if let (_, Some(batch)) = b.admit(seeds(1), i).unwrap() {
                flushed.push(batch);
            }
        }
        // 10 admits, max_batch 4 → two Full flushes, two still pending.
        assert_eq!(flushed.len(), 2);
        assert!(flushed.iter().all(|f| f.reason == FlushReason::Full));
        assert!(flushed.iter().all(|f| f.requests.len() == 4));
        assert_eq!(b.pending(), 2);
        // The stragglers flush by deadline, preserving admission order.
        let tail = b.poll(u64::MAX).expect("stragglers age out");
        assert_eq!(
            tail.requests.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![8, 9]
        );
        // Batch ids are sequential across flush reasons.
        assert_eq!(tail.id, 2);
    }

    #[test]
    fn queue_cap_rejects_with_queue_full() {
        let mut b = MicroBatcher::new(64, 10_000, 2);
        b.admit(seeds(1), 0).unwrap();
        b.admit(seeds(1), 0).unwrap();
        match b.admit(seeds(1), 0) {
            Err(Error::QueueFull(_)) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        // Draining makes room again.
        assert!(b.flush(5, FlushReason::Drain).is_some());
        assert!(b.admit(seeds(1), 6).is_ok());
    }

    #[test]
    fn a_hit_takes_the_next_ids_but_no_queue_slot() {
        let mut b = MicroBatcher::new(2, 1_000, 1);
        assert_eq!(b.admit(seeds(1), 0).unwrap().0, 0);
        // The queue is at cap, but a hit takes no slot.
        let hit = b.admit_hit(seeds(2), 10);
        assert_eq!(
            (hit.id, hit.reason, hit.flushed_us),
            (0, FlushReason::Hit, 10)
        );
        assert_eq!(hit.requests.len(), 1);
        assert_eq!((hit.requests[0].id, hit.requests[0].admitted_us), (1, 10));
        assert_eq!(b.pending(), 1);
        assert_eq!(b.next_deadline_us(), Some(1_000), "a hit moves no deadline");
        // The queued request flushes next, in the next batch.
        let queued = b.poll(1_000).expect("deadline reached");
        assert_eq!((queued.id, queued.requests[0].id), (1, 0));
        assert_eq!(b.admit(seeds(1), 1_000).unwrap().0, 2);
    }

    #[test]
    fn deadline_is_keyed_to_the_oldest_admit() {
        let mut b = MicroBatcher::new(8, 1_000, 64);
        b.admit(seeds(1), 0).unwrap();
        b.admit(seeds(1), 900).unwrap();
        // The *first* request's deadline governs, not the newest.
        let batch = b.poll(1_000).expect("oldest admit aged out");
        assert_eq!(batch.requests.len(), 2);
        assert_eq!(batch.reason, FlushReason::Deadline);
    }

    #[test]
    fn max_batch_zero_is_clamped_to_one() {
        let mut b = MicroBatcher::new(0, 10_000, 64);
        let (_, batch) = b.admit(seeds(1), 0).unwrap();
        assert_eq!(
            batch.expect("cap 1 flushes at once").reason,
            FlushReason::Full
        );
    }
}
