//! Per-iteration stage histograms: the one aggregate a run keeps beside its
//! event log.
//!
//! Every fact a run reports is a field of one [`crate::RunEvent`]. What an
//! epoch's events cannot carry is the *distribution* of per-batch stage
//! durations, so [`crate::Telemetry::record_stages`] folds the drained spans
//! into one fixed-bucket [`Histogram`] per [`Stage`], registered under
//! [`crate::Telemetry::stage_histogram_name`]. The registry hands out
//! nothing else, so every name in it is one the compiler knows.
//!
//! * **Observing is lock-free.** A [`Histogram`] is atomics behind an `Arc`;
//!   the registry's lock is only taken to hand one out.
//! * **Disabled is free.** The registry of a [`crate::Telemetry::disabled`]
//!   handle keeps nothing, so un-instrumented runs stay un-perturbed.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::trace::Stage;
use crate::Telemetry;

/// Fixed-bucket histogram over non-negative `f64` observations (seconds).
/// Buckets are upper-bound–inclusive like Prometheus's: observation `x`
/// lands in the first bucket with `x <= bound`; anything above the last
/// bound lands in the implicit `+Inf` bucket.
pub struct Histogram {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` bucket counts (last = +Inf overflow bucket).
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observations, in f64 bits, updated by CAS.
    sum_bits: AtomicU64,
    /// Maximum observation, in f64 bits, updated by CAS.
    max_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            max_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Bounds for stage latencies: 20 exponential buckets from 10 µs to
    /// ~5 s.
    fn default_time_bounds() -> Vec<f64> {
        (0..20).map(|i| 1e-5 * 2f64.powi(i)).collect()
    }

    /// Records one observation. Negative or NaN observations are clamped
    /// to zero so a skewed clock cannot corrupt the histogram.
    pub fn observe(&self, x: f64) {
        let x = if x.is_finite() && x > 0.0 { x } else { 0.0 };
        let idx = self
            .bounds
            .partition_point(|&b| b < x)
            .min(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_update(&self.sum_bits, |s| s + x);
        atomic_f64_update(&self.max_bits, |m| m.max(x));
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Largest observation (0 when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    /// Observations that saturated the histogram: samples above the last
    /// finite bound, i.e. the `+Inf` bucket's count. A non-zero overflow
    /// means the configured bounds are too tight for the workload — the
    /// tail quantiles above the saturation point are untrustworthy, which
    /// is why `argo report` renders this next to the quantiles.
    #[must_use]
    pub fn overflow_count(&self) -> u64 {
        self.buckets[self.bounds.len()].load(Ordering::Relaxed)
    }

    /// Quantile estimate from the bucket counts (`q` in `[0, 1]`): the
    /// upper bound of the bucket containing the `q`-th observation, clamped
    /// to the observed maximum so no quantile ever exceeds `max()`. The
    /// overflow bucket reports the observed maximum. Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return if i < self.bounds.len() {
                    self.bounds[i].min(self.max())
                } else {
                    self.max()
                };
            }
        }
        self.max()
    }
}

fn atomic_f64_update(bits: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// The run's stage histograms, by name. Handing one out is the only
/// operation that takes the internal lock.
pub struct MetricsRegistry {
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    enabled: bool,
}

impl MetricsRegistry {
    /// An active registry.
    pub(crate) fn new() -> Self {
        Self {
            histograms: Mutex::new(BTreeMap::new()),
            enabled: true,
        }
    }

    /// A registry that keeps nothing: the off state of
    /// [`crate::Telemetry::disabled`], the only switch.
    pub(crate) fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    /// The per-iteration duration histogram of `stage` (created on first
    /// use). A disabled registry hands out a detached histogram it never
    /// stores.
    pub fn stage_histogram(&self, stage: Stage) -> Arc<Histogram> {
        let fresh = || Arc::new(Histogram::new(Histogram::default_time_bounds()));
        if !self.enabled {
            return fresh();
        }
        Arc::clone(
            self.histograms
                .lock()
                .entry(Telemetry::stage_histogram_name(stage))
                .or_insert_with(fresh),
        )
    }

    /// Registered histogram names and handles, sorted by name.
    pub fn histograms(&self) -> Vec<(String, Arc<Histogram>)> {
        self.histograms
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bucket_counts(h: &Histogram) -> Vec<u64> {
        h.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive() {
        let h = Histogram::new(vec![1.0, 2.0, 4.0]);
        // Exactly on a bound -> that bucket; above the last -> overflow.
        for x in [0.5, 1.0, 1.5, 2.0, 4.0, 9.0] {
            h.observe(x);
        }
        assert_eq!(bucket_counts(&h), vec![2, 2, 1, 1]);
        assert_eq!(h.count(), 6);
        assert!((h.sum() - 18.0).abs() < 1e-12);
        assert_eq!(h.max(), 9.0);
    }

    #[test]
    fn histogram_clamps_negative_and_nan() {
        let h = Histogram::new(vec![1.0]);
        h.observe(-3.0);
        h.observe(f64::NAN);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(bucket_counts(&h), vec![2, 0]);
    }

    #[test]
    fn histogram_quantiles_from_buckets() {
        let h = Histogram::new(vec![1.0, 2.0, 4.0, 8.0]);
        for _ in 0..50 {
            h.observe(0.5); // bucket <=1
        }
        for _ in 0..45 {
            h.observe(3.0); // bucket <=4
        }
        for _ in 0..5 {
            h.observe(20.0); // overflow
        }
        assert_eq!(h.quantile(0.5), 1.0);
        assert_eq!(h.quantile(0.95), 4.0);
        assert_eq!(h.quantile(1.0), 20.0); // overflow reports the max
        assert_eq!(h.quantile(0.0), 1.0); // first non-empty bucket
    }

    #[test]
    fn overflow_count_tracks_saturation() {
        let h = Histogram::new(vec![1.0, 2.0]);
        assert_eq!(h.overflow_count(), 0);
        h.observe(0.5);
        h.observe(2.0); // on the last finite bound — not overflow
        assert_eq!(h.overflow_count(), 0);
        h.observe(3.0);
        h.observe(100.0);
        assert_eq!(h.overflow_count(), 2);
        assert_eq!(bucket_counts(&h), vec![1, 1, 2]);
    }

    #[test]
    fn quantile_empty_is_zero() {
        let h = MetricsRegistry::new().stage_histogram(Stage::Gather);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.sum(), 0.0);
    }

    #[test]
    fn stage_histograms_are_shared_and_named_by_stage() {
        let reg = MetricsRegistry::new();
        reg.stage_histogram(Stage::Sync).observe(0.25);
        reg.stage_histogram(Stage::Sync).observe(0.5);
        reg.stage_histogram(Stage::Compute).observe(1.0);
        let names: Vec<(String, u64)> = reg
            .histograms()
            .into_iter()
            .map(|(n, h)| (n, h.count()))
            .collect();
        assert_eq!(
            names,
            [
                ("stage_seconds/compute".to_string(), 1),
                ("stage_seconds/sync".to_string(), 2)
            ]
        );
    }

    #[test]
    fn disabled_registry_drops_everything() {
        let reg = MetricsRegistry::disabled();
        reg.stage_histogram(Stage::Sample).observe(0.5);
        assert!(reg.histograms().is_empty());
    }

    #[test]
    fn concurrent_observations_are_complete() {
        let reg = Arc::new(MetricsRegistry::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                let h = reg.stage_histogram(Stage::Compute);
                for i in 0..1000 {
                    h.observe(i as f64 * 1e-5);
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(reg.stage_histogram(Stage::Compute).count(), 4000);
    }

    #[test]
    fn default_time_bounds_cover_microseconds_to_seconds() {
        let bounds = Histogram::default_time_bounds();
        assert_eq!(bounds.len(), 20);
        assert!(bounds[0] <= 1e-5);
        assert!(*bounds.last().unwrap() > 1.0);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
    }
}
