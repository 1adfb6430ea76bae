//! Minimal std-backed stand-in for `crossbeam`, used when the real crate
//! cannot be fetched (offline build environments). Provides the
//! multi-producer **multi-consumer** [`channel`] this workspace relies on
//! (std's `mpsc::Receiver` is not `Clone`, so a shared-queue channel is
//! implemented here directly).

#![forbid(unsafe_code)]

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    struct Inner<T> {
        queue: Mutex<VecDeque<T>>,
        not_empty: Condvar,
        not_full: Condvar,
        capacity: Option<usize>,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    impl<T> Inner<T> {
        fn disconnected_for_send(&self) -> bool {
            self.receivers.load(Ordering::SeqCst) == 0
        }

        fn disconnected_for_recv(&self) -> bool {
            self.senders.load(Ordering::SeqCst) == 0
        }
    }

    /// The sending half of a channel. Cloning adds a producer.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// The receiving half of a channel. Cloning adds a consumer.
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone; the
    /// unsent value is handed back.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Channel currently empty but senders remain.
        Empty,
        /// Channel empty and all senders dropped.
        Disconnected,
    }

    /// A channel with unbounded buffering.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// A channel holding at most `cap` in-flight messages; sends block while
    /// full. A capacity of zero is rounded up to one (rendezvous semantics
    /// are not needed by this workspace).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap.max(1)))
    }

    fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.senders.fetch_add(1, Ordering::SeqCst);
            Self {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.inner.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last sender: wake receivers blocked on an empty queue (after
                // the lock, so no receiver between its check and its wait).
                drop(self.inner.queue.lock());
                self.inner.not_empty.notify_all();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.receivers.fetch_add(1, Ordering::SeqCst);
            Self {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if self.inner.receivers.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last receiver: wake senders blocked on a full queue (after
                // the lock, so no sender between its check and its wait).
                drop(self.inner.queue.lock());
                self.inner.not_full.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Blocks while the channel is full; fails once all receivers are
        /// dropped (even mid-wait).
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut queue = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if self.inner.disconnected_for_send() {
                    return Err(SendError(value));
                }
                match self.inner.capacity {
                    Some(cap) if queue.len() >= cap => {
                        queue = self
                            .inner
                            .not_full
                            .wait(queue)
                            .unwrap_or_else(|e| e.into_inner());
                    }
                    _ => break,
                }
            }
            queue.push_back(value);
            drop(queue);
            self.inner.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives; fails once the channel is empty
        /// and all senders are dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut queue = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = queue.pop_front() {
                    drop(queue);
                    self.inner.not_full.notify_one();
                    return Ok(v);
                }
                if self.inner.disconnected_for_recv() {
                    return Err(RecvError);
                }
                queue = self
                    .inner
                    .not_empty
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut queue = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(v) = queue.pop_front() {
                drop(queue);
                self.inner.not_full.notify_one();
                return Ok(v);
            }
            if self.inner.disconnected_for_recv() {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Messages currently buffered.
        pub fn len(&self) -> usize {
            self.inner
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn unbounded_fifo() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn cloned_receivers_share_stream() {
            let (tx, rx1) = unbounded();
            let rx2 = rx1.clone();
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let mut got = Vec::new();
            while let Ok(v) = rx1.try_recv() {
                got.push(v);
                if let Ok(v) = rx2.try_recv() {
                    got.push(v);
                }
            }
            got.sort_unstable();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        }

        #[test]
        fn bounded_blocks_until_consumed() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let h = std::thread::spawn(move || tx.send(2).is_ok());
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            assert!(h.join().unwrap());
        }

        #[test]
        fn dropping_receiver_unblocks_full_sender() {
            let (tx, rx) = bounded::<u32>(1);
            tx.send(1).unwrap();
            let h = std::thread::spawn(move || tx.send(2));
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(rx);
            assert!(h.join().unwrap().is_err());
        }

        #[test]
        fn send_fails_after_receiver_drop() {
            let (tx, rx) = unbounded();
            drop(rx);
            assert!(tx.send(5).is_err());
        }

        #[test]
        fn try_recv_distinguishes_empty_and_disconnected() {
            let (tx, rx) = unbounded::<u8>();
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
            drop(tx);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }
    }
}
