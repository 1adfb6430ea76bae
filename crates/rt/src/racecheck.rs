//! # racecheck — shadow-memory annotations for claimed-disjoint windows
//!
//! The hot paths in this workspace (pool chunking, neighbor sampling, CSC
//! scatter, fused dispatch kernels, the serve result-cache handoff) all use
//! the same `unsafe` pattern: a buffer's base pointer is smuggled across a
//! closure boundary as a `usize` and every worker writes a *claimed-disjoint*
//! window of it. The compiler cannot check that claim; this module lets the
//! happens-before race detector in `parking_lot::race` check it at runtime.
//!
//! A call site registers a [`Region`] sized in *logical cells* (typically one
//! cell per output row, not per byte) next to the `as_mut_ptr() as usize`
//! escape, then records each window access with [`write()`] / [`read`]. The
//! detector crosses those accesses with the vector clocks it derives from
//! lock, channel and [`SyncPoint`] edges: two accesses to the same cell that
//! are not ordered by any such edge are reported as a data race with both
//! call sites attached.
//!
//! Everything here compiles unconditionally so annotation sites need no
//! `cfg`; with the `check` feature off, [`Region`] is a ZST and every function
//! is an empty `#[inline]` that the optimizer deletes (asserted by the
//! `micro_sampling` bench in quick mode via [`enabled`]).

#[cfg(feature = "check")]
pub use parking_lot::race::RaceReport;

use crate::metrics::MetricsRegistry;
use crate::telemetry::names;

/// True when the `check` feature is compiled in (annotations are live).
#[must_use]
pub const fn enabled() -> bool {
    cfg!(feature = "check")
}

/// A registered shadow-memory range: one detector cell per logical unit
/// (e.g. output row) of a buffer whose windows are claimed disjoint.
///
/// Dropping the region unregisters its shadow cells, so per-call regions do
/// not accumulate state across a training run. That also scopes the check:
/// races *within* one region's lifetime are caught; reuse of the underlying
/// buffer by a later call is a fresh region and deliberately out of scope.
#[must_use = "a shadow region only checks accesses recorded while it is alive"]
pub struct Region {
    #[cfg(feature = "check")]
    id: parking_lot::race::ObjectId,
}

impl Drop for Region {
    fn drop(&mut self) {
        #[cfg(feature = "check")]
        parking_lot::race::region_unregister(self.id);
    }
}

/// Registers a shadow region of `cells` logical units under `name`.
#[inline]
pub fn region(name: &'static str, cells: usize) -> Region {
    let _ = (name, cells);
    Region {
        #[cfg(feature = "check")]
        id: parking_lot::race::region_register(name, cells),
    }
}

/// Records a write of `len` cells starting at `start`, attributed to the
/// caller's source location.
#[track_caller]
#[inline]
pub fn write(region: &Region, start: usize, len: usize) {
    let _ = (region, start, len);
    #[cfg(feature = "check")]
    parking_lot::race::region_access(
        region.id,
        start,
        len,
        parking_lot::race::AccessKind::Write,
        std::panic::Location::caller(),
    );
}

/// Records a read of `len` cells starting at `start`, attributed to the
/// caller's source location.
#[track_caller]
#[inline]
pub fn read(region: &Region, start: usize, len: usize) {
    let _ = (region, start, len);
    #[cfg(feature = "check")]
    parking_lot::race::region_access(
        region.id,
        start,
        len,
        parking_lot::race::AccessKind::Read,
        std::panic::Location::caller(),
    );
}

/// An explicit fork/join happens-before edge for synchronization built on
/// bare atomics, which the lock-level hooks cannot see.
///
/// The pool's `Completion` counts workers down with `fetch_sub` and only the
/// *last* worker touches a lock, so without this the caller's post-`wait`
/// reads would look unordered with every non-final worker's writes. Each
/// worker calls [`SyncPoint::publish`] when its slice is done; the waiter
/// calls [`SyncPoint::acquire`] after the count hits zero.
pub struct SyncPoint {
    #[cfg(feature = "check")]
    id: parking_lot::race::ObjectId,
}

impl SyncPoint {
    #[must_use]
    pub fn new() -> Self {
        Self {
            #[cfg(feature = "check")]
            id: parking_lot::race::point_register(),
        }
    }

    /// Merges the calling thread's clock into the point (worker side).
    #[inline]
    pub fn publish(&self) {
        #[cfg(feature = "check")]
        parking_lot::race::point_publish(self.id);
    }

    /// Merges the point's accumulated clock into the calling thread
    /// (waiter side).
    #[inline]
    pub fn acquire(&self) {
        #[cfg(feature = "check")]
        parking_lot::race::point_acquire(self.id);
    }
}

impl Default for SyncPoint {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for SyncPoint {
    fn drop(&mut self) {
        #[cfg(feature = "check")]
        parking_lot::race::point_unregister(self.id);
    }
}

/// Number of race reports recorded so far (0 when the feature is off).
#[must_use]
pub fn report_count() -> usize {
    #[cfg(feature = "check")]
    {
        parking_lot::race::report_count()
    }
    #[cfg(not(feature = "check"))]
    {
        0
    }
}

/// Drains the accumulated race reports (feature-gated: without the detector
/// there is nothing to drain).
#[cfg(feature = "check")]
#[must_use]
pub fn take_reports() -> Vec<RaceReport> {
    parking_lot::race::take_reports()
}

/// Clears detector state between independent runs (no-op when off).
///
/// Thread slots and clocks persist — clocks only ever grow, which can hide a
/// cross-run race but never fabricate one — while regions, reports and
/// dedup state are dropped.
pub fn reset() {
    #[cfg(feature = "check")]
    parking_lot::race::reset();
}

/// Publishes runtime-checker verdict counters into `metrics` so a race (or
/// lock-order violation) found during a telemetry-enabled run shows up in
/// `argo report`, not just on stderr.
///
/// Counters are monotonic, so the publish is expressed as a delta against
/// what was already recorded — calling this repeatedly (per epoch, at drain)
/// is idempotent. When the `check` feature is not compiled in, no counters
/// are created at all and the report omits the section.
pub fn publish_verdicts(metrics: &MetricsRegistry) {
    let _ = metrics;
    #[cfg(feature = "check")]
    for (name, n) in [
        (
            names::CHECK_RACE_REPORTS_TOTAL,
            parking_lot::race::report_count(),
        ),
        (
            names::CHECK_LOCK_VIOLATIONS_TOTAL,
            parking_lot::sanitizer::violation_count(),
        ),
    ] {
        let c = metrics.counter(name);
        c.add((n as u64).saturating_sub(c.get()));
    }
    #[cfg(not(feature = "check"))]
    let _ = (
        names::CHECK_RACE_REPORTS_TOTAL,
        names::CHECK_LOCK_VIOLATIONS_TOTAL,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_mode_api_is_inert() {
        // Whole-API smoke test: with the feature off these are all no-ops;
        // with it on they must still be self-consistent (a single-threaded
        // write/read sequence is ordered and reports nothing).
        let r = region("test.region", 8);
        write(&r, 0, 4);
        read(&r, 0, 4);
        let p = SyncPoint::new();
        p.publish();
        p.acquire();
        drop(p);
        drop(r);
        assert_eq!(report_count(), 0);
        reset();
    }

    #[test]
    fn publish_verdicts_is_idempotent() {
        let m = MetricsRegistry::new();
        publish_verdicts(&m);
        publish_verdicts(&m);
        let race_counter = m
            .counters()
            .into_iter()
            .find(|(name, _)| name == names::CHECK_RACE_REPORTS_TOTAL);
        if enabled() {
            assert_eq!(
                race_counter,
                Some((names::CHECK_RACE_REPORTS_TOTAL.to_string(), 0))
            );
        } else {
            assert_eq!(race_counter, None);
        }
    }
}
