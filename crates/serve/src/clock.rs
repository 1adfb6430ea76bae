//! The serving clock abstraction.
//!
//! Every timestamp the serving path consumes — request admission, deadline
//! expiry, batch execution cost — comes through [`Clock`], so the
//! micro-batcher's admission logic is a pure function of clock readings and
//! can be unit-tested deterministically with [`ManualClock`]. Production
//! sessions use [`WallClock`]; this file is the *only* place in the serving
//! path allowed to read `Instant::now` (clippy's `disallowed_methods`, set
//! in `clippy.toml`, rejects it everywhere without an `#[expect]`).

#![expect(
    clippy::disallowed_methods,
    reason = "`WallClock` is the one measured `Clock`"
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Monotone microsecond clock driving admission and deadline decisions.
pub trait Clock: Send + Sync {
    /// Microseconds since the clock's origin.
    fn now_us(&self) -> u64;
}

/// Real time, anchored at construction.
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

/// A clock that only moves when told to — the deterministic test double
/// that makes deadline/batch-size admission edges unit-testable.
#[derive(Default)]
pub struct ManualClock {
    us: AtomicU64,
}

impl ManualClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `us` microseconds.
    pub fn advance_us(&self, us: u64) {
        self.us.fetch_add(us, Ordering::Relaxed);
    }

    /// Jumps the clock to an absolute reading (must not move backwards for
    /// the batcher's invariants to hold; not checked here).
    pub fn set_us(&self, us: u64) {
        self.us.store(us, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_us(&self) -> u64 {
        self.us.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_moves_only_when_told() {
        let c = ManualClock::new();
        assert_eq!(c.now_us(), 0);
        c.advance_us(250);
        assert_eq!(c.now_us(), 250);
        c.set_us(1_000_000);
        assert_eq!(c.now_us(), 1_000_000);
    }

    #[test]
    fn wall_clock_is_monotone() {
        let c = WallClock::new();
        let a = c.now_us();
        let b = c.now_us();
        assert!(b >= a);
    }
}
