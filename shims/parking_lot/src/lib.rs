//! Minimal std-backed stand-in for `parking_lot`, used when the real crate
//! cannot be fetched (offline build environments). Only the surface this
//! workspace uses is provided: [`Mutex`], [`RwLock`] and [`Condvar`] with
//! parking_lot's poison-free, guard-returning API.

#![forbid(unsafe_code)]

use std::ops::{Deref, DerefMut};

mod hook;
#[cfg(feature = "check")]
pub mod sanitizer;

use hook::{LockClass, LockId};

/// Poison-free mutex: `lock()` returns the guard directly.
pub struct Mutex<T: ?Sized> {
    id: LockId,
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`]. Holds an `Option` so [`Condvar::wait`] can
/// temporarily take std's guard out and put the re-acquired one back.
pub struct MutexGuard<'a, T: ?Sized> {
    id: LockId,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Self {
            id: hook::register(),
            inner: std::sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        hook::before_acquire(self.id, LockClass::Mutex);
        let g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        hook::acquired(self.id, LockClass::Mutex);
        MutexGuard {
            id: self.id,
            inner: Some(g),
        }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let g = match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        // A successful try_lock cannot deadlock, but it still establishes a
        // hold that later blocking acquisitions must order against.
        hook::acquired(self.id, LockClass::Mutex);
        Some(MutexGuard {
            id: self.id,
            inner: Some(g),
        })
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // `Condvar::wait` takes the inner guard out and releases bookkeeping
        // itself; only a guard still holding the lock releases here.
        if self.inner.is_some() {
            hook::released(self.id);
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken during wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken during wait")
    }
}

/// Poison-free condition variable compatible with [`MutexGuard`].
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Self {
            inner: std::sync::Condvar::new(),
        }
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let std_guard = guard.inner.take().expect("guard taken during wait");
        // The wait releases the mutex until woken: mirror that in the
        // sanitizer's held-lock bookkeeping so other acquisitions made by
        // this thread while blocked do not order against it.
        hook::released(guard.id);
        let reacquired = self
            .inner
            .wait(std_guard)
            .unwrap_or_else(|e| e.into_inner());
        hook::before_acquire(guard.id, LockClass::Mutex);
        hook::acquired(guard.id, LockClass::Mutex);
        guard.inner = Some(reacquired);
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

/// Poison-free reader-writer lock.
pub struct RwLock<T: ?Sized> {
    id: LockId,
    inner: std::sync::RwLock<T>,
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    id: LockId,
    inner: std::sync::RwLockReadGuard<'a, T>,
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    id: LockId,
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    pub fn new(value: T) -> Self {
        Self {
            id: hook::register(),
            inner: std::sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        hook::before_acquire(self.id, LockClass::RwLock);
        let g = self.inner.read().unwrap_or_else(|e| e.into_inner());
        // Readers are modeled like mutex holders in the lock-order graph.
        hook::acquired(self.id, LockClass::RwLock);
        RwLockReadGuard {
            id: self.id,
            inner: g,
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        hook::before_acquire(self.id, LockClass::RwLock);
        let g = self.inner.write().unwrap_or_else(|e| e.into_inner());
        hook::acquired(self.id, LockClass::RwLock);
        RwLockWriteGuard {
            id: self.id,
            inner: g,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        hook::released(self.id);
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        hook::released(self.id);
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn condvar_wakes_waiter() {
        use std::sync::Arc;
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            while !*g {
                cv.wait(&mut g);
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        h.join().unwrap();
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(5);
        assert_eq!(*l.read(), 5);
        *l.write() = 7;
        assert_eq!(*l.read(), 7);
    }
}
