//! The one checker hook per lock operation.
//!
//! Every [`Mutex`](crate::Mutex) / [`RwLock`](crate::RwLock) operation
//! reports here exactly once. With the `check` feature each hook feeds both
//! detectors — the lock-order graph of [`crate::sanitizer`] and the vector
//! clocks of [`crate::race`] — and one id per lock keys both. Without it
//! the id is a zero-sized type and every hook an empty inline, so the
//! default build carries no instrumentation.

#[cfg(feature = "check")]
mod imp {
    use crate::{race, sanitizer};
    pub(crate) use sanitizer::{LockClass, LockId};

    /// Assigns a fresh id to a new lock instance.
    pub(crate) fn register() -> LockId {
        sanitizer::register()
    }

    /// Before blocking on the lock: the double-lock check (fatal) and the
    /// lock-order recording / inversion check.
    pub(crate) fn before_acquire(id: LockId, class: LockClass) {
        sanitizer::before_acquire(id, class);
    }

    /// The lock is now held (a successful `try_lock` starts here): it joins
    /// this thread's held stack, and the thread inherits the clock of the
    /// last releaser.
    pub(crate) fn acquired(id: LockId, class: LockClass) {
        sanitizer::after_acquire(id, class);
        race::lock_acquire(id);
    }

    /// The lock is about to open. Called while it is still held, so the
    /// releaser's clock is published before anyone can acquire.
    pub(crate) fn released(id: LockId) {
        sanitizer::on_release(id);
        race::lock_release(id);
    }
}

#[cfg(not(feature = "check"))]
mod imp {
    #[derive(Clone, Copy)]
    pub(crate) struct LockId;

    #[derive(Clone, Copy)]
    pub(crate) enum LockClass {
        Mutex,
        RwLock,
    }

    #[inline(always)]
    pub(crate) fn register() -> LockId {
        LockId
    }

    #[inline(always)]
    pub(crate) fn before_acquire(_: LockId, _: LockClass) {}

    #[inline(always)]
    pub(crate) fn acquired(_: LockId, _: LockClass) {}

    #[inline(always)]
    pub(crate) fn released(_: LockId) {}
}

pub(crate) use imp::*;
