//! Lock-cheap runtime metrics: counters, gauges and fixed-bucket
//! histograms.
//!
//! ARGO's adaptivity argument rests on *measured* per-stage behaviour
//! (paper Figures 2 and 6, the auto-tuner's epoch-time objective), so the
//! runtime carries a [`MetricsRegistry`] everywhere the trace recorder
//! already goes. Design constraints:
//!
//! * **Hot-path cost is one atomic op.** Handles ([`Counter`], [`Gauge`],
//!   [`Histogram`]) are `Arc`s over atomics; the registry's internal lock is
//!   only taken at registration time, never per observation.
//! * **Per-process registries merge.** The Multi-Process Engine gives each
//!   training process its own view; [`MetricsRegistry::merge`] folds them
//!   into a run-global registry with the same totals (property-tested in
//!   `tests/proptests.rs`).
//! * **Disabled is free.** The registry of a [`crate::Telemetry::disabled`]
//!   handle drops all observations so un-instrumented runs stay
//!   un-perturbed.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Monotone event counter.
#[derive(Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins instantaneous value (stored as `f64` bits).
#[derive(Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Self {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Fixed-bucket histogram over non-negative `f64` observations (seconds,
/// bytes, …). Buckets are upper-bound–inclusive like Prometheus's:
/// observation `x` lands in the first bucket with `x <= bound`; anything
/// above the last bound lands in the implicit `+Inf` bucket.
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

    /// Default bounds for stage latencies: 20 exponential buckets from
    /// 10 µs to ~5 s.
    pub fn default_time_bounds() -> Vec<f64> {
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

    /// Mean observation (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Bucket upper bounds.
    #[must_use]
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
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

    /// Per-bucket counts (`bounds().len() + 1` entries, last = +Inf).
    #[must_use]
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
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

#[derive(Default)]
struct Tables {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// A named collection of metrics. Cloning a handle (`counter`, `gauge`,
/// `histogram`) is the only operation that takes the internal lock;
/// observations through the returned handles are lock-free.
pub struct MetricsRegistry {
    tables: Mutex<Tables>,
    enabled: bool,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An active registry.
    pub fn new() -> Self {
        Self {
            tables: Mutex::new(Tables::default()),
            enabled: true,
        }
    }

    /// A registry that drops all observations: the off state of
    /// [`crate::Telemetry::disabled`], the only switch.
    pub(crate) fn disabled() -> Self {
        Self {
            tables: Mutex::new(Tables::default()),
            enabled: false,
        }
    }

    /// Whether observations are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The counter registered under `name` (created on first use).
    /// Disabled registries hand out dangling handles that are never stored.
    pub fn counter(&self, name: &str) -> Counter {
        if !self.enabled {
            return Counter::default();
        }
        self.tables
            .lock()
            .counters
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The gauge registered under `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        if !self.enabled {
            return Gauge::default();
        }
        self.tables
            .lock()
            .gauges
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The histogram registered under `name`, created with `bounds` on
    /// first use (later calls reuse the existing buckets and ignore
    /// `bounds`).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        if !self.enabled {
            return Arc::new(Histogram::new(bounds.to_vec()));
        }
        Arc::clone(
            self.tables
                .lock()
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new(bounds.to_vec()))),
        )
    }

    /// Stage-latency histogram with the default exponential time bounds.
    pub fn time_histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram(name, &Histogram::default_time_bounds())
    }

    /// Registered counter names and values, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.tables
            .lock()
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Registered gauge names and values, sorted by name.
    pub fn gauges(&self) -> Vec<(String, f64)> {
        self.tables
            .lock()
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Registered histogram names and handles, sorted by name.
    pub fn histograms(&self) -> Vec<(String, Arc<Histogram>)> {
        self.tables
            .lock()
            .histograms
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }

    /// Folds `other`'s observations into `self`: counters add, gauges take
    /// `other`'s value when set, histogram buckets/sums add (bounds must
    /// match for shared names). This is how per-process registries combine
    /// into the run-global view.
    pub fn merge(&self, other: &MetricsRegistry) {
        if !self.enabled || !other.enabled {
            return;
        }
        for (name, value) in other.counters() {
            self.counter(&name).add(value);
        }
        for (name, value) in other.gauges() {
            self.gauge(&name).set(value);
        }
        for (name, h) in other.histograms() {
            let mine = self.histogram(&name, h.bounds());
            assert_eq!(
                mine.bounds(),
                h.bounds(),
                "merge: histogram '{name}' bounds differ"
            );
            for (idx, n) in h.bucket_counts().into_iter().enumerate() {
                mine.buckets[idx].fetch_add(n, Ordering::Relaxed);
            }
            mine.count.fetch_add(h.count(), Ordering::Relaxed);
            atomic_f64_update(&mine.sum_bits, |s| s + h.sum());
            atomic_f64_update(&mine.max_bits, |m| m.max(h.max()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_is_shared() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("iters");
        let b = reg.counter("iters");
        a.inc();
        b.add(4);
        assert_eq!(reg.counter("iters").get(), 5);
        assert_eq!(reg.counters(), vec![("iters".to_string(), 5)]);
    }

    #[test]
    fn gauge_last_write_wins() {
        let reg = MetricsRegistry::new();
        reg.gauge("overlap").set(0.25);
        reg.gauge("overlap").set(0.75);
        assert_eq!(reg.gauge("overlap").get(), 0.75);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[1.0, 2.0, 4.0]);
        // Exactly on a bound -> that bucket; above the last -> overflow.
        for x in [0.5, 1.0, 1.5, 2.0, 4.0, 9.0] {
            h.observe(x);
        }
        assert_eq!(h.bucket_counts(), vec![2, 2, 1, 1]);
        assert_eq!(h.count(), 6);
        assert!((h.sum() - 18.0).abs() < 1e-12);
        assert_eq!(h.max(), 9.0);
    }

    #[test]
    fn histogram_clamps_negative_and_nan() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[1.0]);
        h.observe(-3.0);
        h.observe(f64::NAN);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.bucket_counts(), vec![2, 0]);
    }

    #[test]
    fn histogram_quantiles_from_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[1.0, 2.0, 4.0, 8.0]);
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
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[1.0, 2.0]);
        assert_eq!(h.overflow_count(), 0);
        h.observe(0.5);
        h.observe(2.0); // on the last finite bound — not overflow
        assert_eq!(h.overflow_count(), 0);
        h.observe(3.0);
        h.observe(100.0);
        assert_eq!(h.overflow_count(), 2);
        // Merging adds overflow like any other bucket.
        let global = MetricsRegistry::new();
        global.histogram("lat", &[1.0, 2.0]).observe(9.0);
        global.merge(&reg);
        assert_eq!(global.histogram("lat", &[1.0, 2.0]).overflow_count(), 3);
    }

    #[test]
    fn quantile_empty_is_zero() {
        let reg = MetricsRegistry::new();
        let h = reg.time_histogram("lat");
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn disabled_registry_drops_everything() {
        let reg = MetricsRegistry::disabled();
        reg.counter("n").add(7);
        reg.gauge("g").set(1.0);
        reg.histogram("h", &[1.0]).observe(0.5);
        assert!(!reg.is_enabled());
        assert!(reg.counters().is_empty());
        assert!(reg.gauges().is_empty());
        assert!(reg.histograms().is_empty());
    }

    #[test]
    fn merge_adds_counters_and_buckets() {
        let global = MetricsRegistry::new();
        let p0 = MetricsRegistry::new();
        let p1 = MetricsRegistry::new();
        p0.counter("edges").add(10);
        p1.counter("edges").add(32);
        p0.histogram("t", &[1.0, 2.0]).observe(0.5);
        p1.histogram("t", &[1.0, 2.0]).observe(1.5);
        p1.histogram("t", &[1.0, 2.0]).observe(5.0);
        global.merge(&p0);
        global.merge(&p1);
        assert_eq!(global.counter("edges").get(), 42);
        let h = global.histogram("t", &[1.0, 2.0]);
        assert_eq!(h.bucket_counts(), vec![1, 1, 1]);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 7.0).abs() < 1e-12);
        assert_eq!(h.max(), 5.0);
    }

    #[test]
    fn concurrent_observations_are_complete() {
        let reg = Arc::new(MetricsRegistry::new());
        let h = reg.time_histogram("t");
        let c = reg.counter("n");
        let mut handles = Vec::new();
        for _ in 0..4 {
            let h = Arc::clone(&h);
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    h.observe(i as f64 * 1e-5);
                    c.inc();
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
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
