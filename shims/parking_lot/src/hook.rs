//! The one checker hook per lock operation.
//!
//! Every [`Mutex`](crate::Mutex) / [`RwLock`](crate::RwLock) operation
//! reports here exactly once. With the `check` feature each hook feeds the
//! lock-order graph of [`crate::sanitizer`], keyed by one id per lock.
//! Without it the id is a zero-sized type and every hook an empty inline,
//! so the default build carries no instrumentation.

#[cfg(feature = "check")]
mod imp {
    pub(crate) use crate::sanitizer::{
        acquired, before_acquire, register, released, LockClass, LockId,
    };
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
