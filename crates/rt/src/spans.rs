//! argo-prof: causal span profiling with per-epoch critical-path attribution.
//!
//! The PR-1 telemetry layer answers *how long* each stage took; this module
//! answers *why the epoch took as long as it did*. Every batch's life —
//! seed pick, neighbor sampling, feature gather, first aggregation, channel
//! enqueue, reorder-heap dequeue, forward/backward, gradient sync — is
//! recorded as a span `(worker, role, kind, batch, start, end)` into a
//! lock-free per-worker ring ([`WorkerRing`]): one writer per ring, no
//! locks on the hot path, registration only touches a mutex once per
//! worker. Spans from all rings share one clock origin, so after an epoch
//! the drained set forms a causal chain keyed by batch id.
//!
//! [`critical_path`] then attributes each instant of the epoch to the
//! stage (or channel/heap *wait*) that was the binding constraint, giving
//! fractions that sum to 1.0 — the observability base for the metadata-tax
//! and work-stealing work in ROADMAP items 2–3.

#![expect(
    clippy::disallowed_methods,
    reason = "the span rings tick on the run clock"
)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::trace::Stage;

/// Ring size for owners with no batch count to size from (the serving
/// session, fixtures): 8192 spans × 24 B ≈ 192 KiB. The training loops size
/// their rings from the epoch's batch count instead, so nothing is dropped.
pub const RING_CAPACITY: usize = 8192;

/// Histogram bins used by [`critical_path`] attribution.
const BINS: usize = 2048;

/// Pipeline step a span measures. Unlike [`Stage`] (the coarse 4-stage
/// view the perf model shares), span kinds separate the *waits* — a
/// producer blocked on the bounded channel, a consumer blocked on the
/// reorder heap — from the work, which is exactly what critical-path
/// attribution needs. [`SpanKind::stage`] folds them back onto [`Stage`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Seed draw + neighbor sampling on a loader worker.
    Pick,
    /// Feature gather (`index_select`) on a loader worker.
    Gather,
    /// The parameter-free first aggregation `Â₀·X[input_nodes]`, run by the
    /// loader worker on the rows it just gathered.
    Aggregate,
    /// Producer blocked enqueueing into the bounded channel (consumer slow).
    EnqueueWait,
    /// Consumer blocked on channel receive / reorder heap (producers slow).
    DequeueWait,
    /// Forward + backward propagation.
    Compute,
    /// Gradient synchronization across processes.
    Sync,
    /// Serving: a request queued in the deadline micro-batcher.
    ServeQueue,
    /// Serving: a micro-batch executing (sample + gather + forward).
    ServeExec,
}

impl SpanKind {
    /// Every kind, in declaration order (a kind's ring code is its index).
    pub const ALL: [SpanKind; 9] = [
        SpanKind::Pick,
        SpanKind::Gather,
        SpanKind::Aggregate,
        SpanKind::EnqueueWait,
        SpanKind::DequeueWait,
        SpanKind::Compute,
        SpanKind::Sync,
        SpanKind::ServeQueue,
        SpanKind::ServeExec,
    ];

    /// Attribution label, aligned with [`Stage::label`] where the concepts
    /// coincide.
    pub const fn label(self) -> &'static str {
        match self {
            SpanKind::Pick => "sample",
            SpanKind::Gather => "gather",
            SpanKind::Aggregate => "aggregate",
            SpanKind::EnqueueWait => "channel_wait",
            SpanKind::DequeueWait => "heap_wait",
            SpanKind::Compute => "compute",
            SpanKind::Sync => "sync",
            SpanKind::ServeQueue => "serve_queue",
            SpanKind::ServeExec => "serve_exec",
        }
    }

    /// The training-process stage this span's time is charged to — the one
    /// map the stage histograms, the Figure-2 timeline and the
    /// `stage_summary` events are all derived through. A process *waits* for
    /// its next batch (`Sample`), has its loader gather the input rows and
    /// run the first aggregation over them (`Gather`: everything between
    /// pick and enqueue), computes and syncs. Producer-side sampling and
    /// backpressure overlap those and are charged to no stage; serving spans
    /// belong to the request path.
    pub const fn stage(self) -> Option<Stage> {
        match self {
            SpanKind::DequeueWait => Some(Stage::Sample),
            SpanKind::Gather | SpanKind::Aggregate => Some(Stage::Gather),
            SpanKind::Compute => Some(Stage::Compute),
            SpanKind::Sync => Some(Stage::Sync),
            SpanKind::Pick | SpanKind::EnqueueWait | SpanKind::ServeQueue | SpanKind::ServeExec => {
                None
            }
        }
    }

    fn from_code(code: u64) -> SpanKind {
        SpanKind::ALL
            .get(code as usize)
            .copied()
            .unwrap_or(SpanKind::Sync)
    }
}

/// Which side of the batch channel a ring's owner works on. Producer rings
/// belong to loader workers (pick/gather/aggregate/enqueue); consumer rings
/// to the training processes and the reorder-heap drain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Loader-side: produces batches into the channel.
    Producer,
    /// Engine-side: drains batches and trains.
    Consumer,
}

/// One drained span.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpanRecord {
    /// Rank of the training process the ring's owner works for.
    pub process: usize,
    /// Ring (worker) index assigned at registration.
    pub worker: usize,
    /// Producer or consumer side.
    pub role: Role,
    /// What the interval measured.
    pub kind: SpanKind,
    /// Batch id linking this span into the batch's causal chain.
    pub batch: u64,
    /// Seconds since the profiler's origin.
    pub start: f64,
    /// Seconds since the profiler's origin (`>= start`).
    pub end: f64,
}

const BATCH_MASK: u64 = (1 << 56) - 1;

struct Slot {
    meta: AtomicU64,
    start: AtomicU64,
    end: AtomicU64,
}

/// A lock-free span ring owned by exactly one worker thread. Pushes are
/// plain atomic stores (single writer); draining happens from the profiler
/// after the worker quiesced. When full, further spans are counted in
/// `dropped` instead of overwriting history, so attribution never sees a
/// torn timeline.
pub struct WorkerRing {
    process: usize,
    worker: usize,
    role: Role,
    origin: Instant,
    head: AtomicUsize,
    dropped: AtomicU64,
    /// Empty for a detached ring, which records nothing.
    slots: Box<[Slot]>,
}

impl WorkerRing {
    /// A ring that records nothing and reads no clock — the stand-in used
    /// when telemetry is off, so instrumentation sites need no `Option`
    /// dance.
    pub fn detached() -> Self {
        Self {
            process: 0,
            worker: 0,
            role: Role::Producer,
            origin: Instant::now(),
            head: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            slots: Box::new([]),
        }
    }

    /// Whether spans are being kept.
    pub fn is_enabled(&self) -> bool {
        !self.slots.is_empty()
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` and records it as one span of `kind` for `batch`. The span
    /// closes when `f` returns, so no path can leave it open. A detached
    /// ring just runs `f`.
    pub fn timed<T>(&self, kind: SpanKind, batch: u64, f: impl FnOnce() -> T) -> T {
        if !self.is_enabled() {
            return f();
        }
        let start = self.now();
        let out = f();
        self.push(kind, batch, start, self.now());
        out
    }

    /// Records a span the caller timed itself, for a stage whose duration
    /// is also a result (the engine's `sync_time`): one clock pair then
    /// serves both readers.
    pub fn push_measured(&self, kind: SpanKind, batch: u64, started: Instant, elapsed: Duration) {
        if !self.is_enabled() {
            return;
        }
        let start = started.saturating_duration_since(self.origin).as_secs_f64();
        self.push(kind, batch, start, start + elapsed.as_secs_f64());
    }

    /// Records a complete interval whose endpoints were measured elsewhere
    /// (the serving clock, synthetic fixtures), in seconds on the ring's
    /// clock.
    pub fn push(&self, kind: SpanKind, batch: u64, start: f64, end: f64) {
        if !self.is_enabled() {
            return;
        }
        let n = self.head.load(Ordering::Relaxed);
        if n >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let slot = &self.slots[n];
        slot.meta.store(
            (kind as u64) << 56 | (batch & BATCH_MASK),
            Ordering::Relaxed,
        );
        slot.start.store(start.to_bits(), Ordering::Relaxed);
        slot.end.store(end.max(start).to_bits(), Ordering::Relaxed);
        // Publish the slot: readers load `head` with Acquire.
        self.head.store(n + 1, Ordering::Release);
    }

    /// Spans currently held (for tests and diagnostics).
    pub fn len(&self) -> usize {
        self.head.load(Ordering::Acquire).min(self.slots.len())
    }

    /// Whether the ring holds no spans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn drain_into(&self, out: &mut Vec<SpanRecord>) -> u64 {
        let n = self.len();
        for slot in self.slots.iter().take(n) {
            let meta = slot.meta.load(Ordering::Relaxed);
            out.push(SpanRecord {
                process: self.process,
                worker: self.worker,
                role: self.role,
                kind: SpanKind::from_code(meta >> 56),
                batch: meta & BATCH_MASK,
                start: f64::from_bits(slot.start.load(Ordering::Relaxed)),
                end: f64::from_bits(slot.end.load(Ordering::Relaxed)),
            });
        }
        self.head.store(0, Ordering::Release);
        self.dropped.swap(0, Ordering::Relaxed)
    }
}

/// Everything one [`SpanProfiler::drain`] yields.
#[derive(Clone, Debug, Default)]
pub struct SpanDrain {
    /// All spans from all rings, sorted by start time.
    pub records: Vec<SpanRecord>,
    /// Spans lost to full rings since the previous drain.
    pub dropped: u64,
}

struct Registry {
    origin: Instant,
    enabled: bool,
    rings: Mutex<Vec<Arc<WorkerRing>>>,
}

/// Hands out per-worker rings sharing one clock origin and drains them
/// after the workers quiesced (epoch end). The registry mutex is touched
/// once per worker registration and once per drain — never per span.
///
/// A profiler is a cheap handle: clones share the rings, and
/// [`SpanProfiler::for_process`] gives the handle a training process hands
/// to its loader, so every ring registered through it carries that rank.
#[derive(Clone)]
pub struct SpanProfiler {
    registry: Arc<Registry>,
    process: usize,
}

impl SpanProfiler {
    /// An active profiler whose clock starts now.
    pub fn new() -> Self {
        Self::starting_at(Instant::now())
    }

    /// An active profiler on the clock that started at `origin`.
    pub fn starting_at(origin: Instant) -> Self {
        Self::build(origin, true)
    }

    /// A profiler whose rings record nothing (zero hot-path overhead).
    pub fn disabled() -> Self {
        Self::build(Instant::now(), false)
    }

    fn build(origin: Instant, enabled: bool) -> Self {
        Self {
            registry: Arc::new(Registry {
                origin,
                enabled,
                rings: Mutex::new(Vec::new()),
            }),
            process: 0,
        }
    }

    /// The same profiler, registering rings for training process `rank`.
    pub fn for_process(&self, rank: usize) -> Self {
        Self {
            registry: Arc::clone(&self.registry),
            process: rank,
        }
    }

    /// Whether rings handed out by this profiler record spans.
    pub fn is_enabled(&self) -> bool {
        self.registry.enabled
    }

    /// Seconds since the profiler's origin (the shared span clock).
    pub fn now(&self) -> f64 {
        self.registry.origin.elapsed().as_secs_f64()
    }

    /// Registers a ring of `capacity` spans for one worker thread. Disabled
    /// profilers hand out detached rings and skip registration entirely.
    pub fn ring(&self, role: Role, capacity: usize) -> Arc<WorkerRing> {
        if !self.registry.enabled {
            return Arc::new(WorkerRing::detached());
        }
        let mut rings = self.registry.rings.lock();
        let ring = Arc::new(WorkerRing {
            process: self.process,
            worker: rings.len(),
            role,
            origin: self.registry.origin,
            head: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            slots: (0..capacity)
                .map(|_| Slot {
                    meta: AtomicU64::new(0),
                    start: AtomicU64::new(0),
                    end: AtomicU64::new(0),
                })
                .collect(),
        });
        rings.push(Arc::clone(&ring));
        ring
    }

    /// Collects and clears every registered ring. Call only after the
    /// owning workers quiesced (threads joined); concurrent pushes during a
    /// drain are not torn, but may land in either epoch.
    pub fn drain(&self) -> SpanDrain {
        let rings = std::mem::take(&mut *self.registry.rings.lock());
        let mut out = SpanDrain::default();
        for ring in &rings {
            out.dropped += ring.drain_into(&mut out.records);
        }
        out.records.sort_by(|a, b| a.start.total_cmp(&b.start));
        out
    }
}

impl Default for SpanProfiler {
    fn default() -> Self {
        Self::new()
    }
}

/// Attribution categories [`critical_path`] reports, in render order: the
/// seven training [`SpanKind::label`]s, then `"other"`, which absorbs epoch
/// time not covered by any span (per-epoch setup, thread spawn/join,
/// straggler skew).
pub const CRITICAL_PATH_STAGES: &[&str] = &[
    SpanKind::Compute.label(),
    SpanKind::Gather.label(),
    SpanKind::Pick.label(),
    SpanKind::Sync.label(),
    SpanKind::EnqueueWait.label(),
    SpanKind::DequeueWait.label(),
    SpanKind::Aggregate.label(),
    "other",
];

/// Per-epoch critical-path attribution: the fraction of the window
/// `[start, end]` (seconds on the span clock) for which each stage (or wait)
/// was the binding constraint. Returns one `(label, fraction)` pair per
/// [`CRITICAL_PATH_STAGES`] entry; fractions sum to exactly 1.0 when the
/// window is non-empty and spans exist.
///
/// The binding constraint of an instant is decided by a fixed priority:
///
/// 1. any consumer computing → `compute` (training makes progress);
/// 2. any consumer syncing → `sync`;
/// 3. every active consumer waiting on the heap → whatever the producers
///    are doing right then: `sample`, `gather` or `aggregate` work
///    means the loader is the constraint; producers stuck enqueueing means the
///    channel is (`channel_wait`); idle producers mean the reorder heap
///    itself is (`heap_wait`);
/// 4. no span at all → `other`.
pub fn critical_path(records: &[SpanRecord], start: f64, end: f64) -> Vec<(&'static str, f64)> {
    let horizon = end - start;
    if horizon <= 0.0 || records.is_empty() {
        return Vec::new();
    }
    // One activity bitmap per (side, kind) we distinguish.
    let mut cons_compute = [false; BINS];
    let mut cons_sync = [false; BINS];
    let mut cons_wait = [false; BINS];
    let mut prod_sample = [false; BINS];
    let mut prod_gather = [false; BINS];
    let mut prod_aggregate = [false; BINS];
    let mut prod_enqueue = [false; BINS];
    for r in records {
        // Clamp into [0, BINS]; spans may straddle the window (stragglers).
        let bin = |t: f64| (t - start) / horizon * BINS as f64;
        let lo = (bin(r.start).floor().max(0.0) as usize).min(BINS);
        let hi = (bin(r.end).ceil().max(0.0) as usize).min(BINS);
        if lo >= hi {
            continue;
        }
        // Exhaustive over the kinds, so a new one has to say where it counts.
        let (side, map) = match r.kind {
            SpanKind::Compute => (Role::Consumer, &mut cons_compute),
            SpanKind::Sync => (Role::Consumer, &mut cons_sync),
            SpanKind::DequeueWait => (Role::Consumer, &mut cons_wait),
            SpanKind::Gather => (Role::Producer, &mut prod_gather),
            SpanKind::Pick => (Role::Producer, &mut prod_sample),
            SpanKind::Aggregate => (Role::Producer, &mut prod_aggregate),
            SpanKind::EnqueueWait => (Role::Producer, &mut prod_enqueue),
            // The `Serve*` kinds belong to the request path, whose
            // attribution is per-request latency histograms, not the epoch
            // timeline.
            SpanKind::ServeQueue | SpanKind::ServeExec => continue,
        };
        // A kind on the "wrong" side carries no attribution signal.
        if r.role != side {
            continue;
        }
        for b in map.iter_mut().take(hi).skip(lo) {
            *b = true;
        }
    }
    let mut counts = [0u64; CRITICAL_PATH_STAGES.len()];
    for b in 0..BINS {
        let idx = if cons_compute[b] {
            0 // compute
        } else if cons_sync[b] {
            3 // sync
        } else if cons_wait[b] {
            if prod_sample[b] {
                2 // sample
            } else if prod_gather[b] {
                1 // gather
            } else if prod_aggregate[b] {
                6 // aggregate
            } else if prod_enqueue[b] {
                4 // channel_wait
            } else {
                5 // heap_wait
            }
        } else {
            7 // other
        };
        counts[idx] += 1;
    }
    CRITICAL_PATH_STAGES
        .iter()
        .zip(counts.iter())
        .map(|(label, c)| (*label, *c as f64 / BINS as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_records_interval_and_returns_the_value() {
        let prof = SpanProfiler::new().for_process(3);
        let ring = prof.ring(Role::Producer, 4);
        let out = ring.timed(SpanKind::Pick, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(1));
            42
        });
        assert_eq!(out, 42);
        let d = prof.drain();
        assert_eq!(d.records.len(), 1);
        assert_eq!(d.dropped, 0);
        let r = d.records[0];
        assert_eq!(r.kind, SpanKind::Pick);
        assert_eq!(r.role, Role::Producer);
        assert_eq!(r.batch, 7);
        assert_eq!(r.process, 3);
        assert!(r.end > r.start);
    }

    #[test]
    fn disabled_and_detached_record_nothing() {
        let prof = SpanProfiler::disabled();
        assert!(!prof.is_enabled());
        let ring = prof.ring(Role::Consumer, 4);
        assert!(!ring.is_enabled());
        assert_eq!(ring.timed(SpanKind::Compute, 0, || 7), 7);
        ring.push(SpanKind::Sync, 1, 0.0, 1.0);
        assert!(prof.drain().records.is_empty());

        let det = WorkerRing::detached();
        det.push(SpanKind::Pick, 0, 0.0, 1.0);
        assert!(det.is_empty());
    }

    #[test]
    fn full_ring_counts_drops_instead_of_overwriting() {
        let prof = SpanProfiler::new();
        let ring = prof.ring(Role::Producer, 4);
        for i in 0..6 {
            ring.push(SpanKind::Pick, i, i as f64, i as f64 + 0.5);
        }
        assert_eq!(ring.len(), 4);
        let d = prof.drain();
        assert_eq!(d.records.len(), 4);
        assert_eq!(d.dropped, 2);
        // Oldest spans were kept.
        assert_eq!(d.records[0].batch, 0);
        assert_eq!(d.records[3].batch, 3);
    }

    #[test]
    fn drain_sorts_across_rings_and_resets() {
        let prof = SpanProfiler::new();
        let a = prof.ring(Role::Producer, 4);
        let b = prof.ring(Role::Consumer, 4);
        assert_ne!(a.worker, b.worker);
        b.push(SpanKind::Compute, 1, 0.5, 0.9);
        a.push(SpanKind::Pick, 1, 0.1, 0.4);
        let d = prof.drain();
        assert_eq!(d.records.len(), 2);
        assert!(d.records[0].start < d.records[1].start);
        assert_eq!(d.records[0].role, Role::Producer);
        // Drained rings are unregistered; a second drain is empty.
        assert!(prof.drain().records.is_empty());
    }

    #[test]
    fn inverted_interval_is_clamped() {
        let prof = SpanProfiler::new();
        let ring = prof.ring(Role::Producer, 4);
        ring.push(SpanKind::Gather, 0, 1.0, 0.25);
        let r = prof.drain().records[0];
        assert_eq!(r.start, 1.0);
        assert_eq!(r.end, 1.0);
    }

    #[test]
    fn kind_codes_round_trip() {
        for kind in SpanKind::ALL {
            assert_eq!(SpanKind::from_code(kind as u64), kind);
            // Serving kinds live outside the epoch critical-path taxonomy.
            let serving = matches!(kind, SpanKind::ServeQueue | SpanKind::ServeExec);
            assert_eq!(CRITICAL_PATH_STAGES.contains(&kind.label()), !serving);
        }
    }

    #[test]
    fn every_stage_has_a_consumer_side_span_and_waits_map_to_none() {
        for stage in Stage::ALL {
            assert!(SpanKind::ALL.iter().any(|k| k.stage() == Some(stage)));
        }
        assert_eq!(SpanKind::DequeueWait.stage(), Some(Stage::Sample));
        assert_eq!(SpanKind::Aggregate.stage(), Some(Stage::Gather));
        assert_eq!(SpanKind::Pick.stage(), None);
        assert_eq!(SpanKind::EnqueueWait.stage(), None);
    }

    #[test]
    fn serve_spans_do_not_perturb_critical_path() {
        let records = vec![
            rec(Role::Consumer, SpanKind::Compute, 0.0, 1.0),
            rec(Role::Consumer, SpanKind::ServeExec, 0.0, 1.0),
            rec(Role::Producer, SpanKind::ServeQueue, 0.0, 1.0),
        ];
        let cp = critical_path(&records, 0.0, 1.0);
        assert_eq!(cp[0], ("compute", 1.0));
    }

    fn rec(role: Role, kind: SpanKind, start: f64, end: f64) -> SpanRecord {
        SpanRecord {
            process: 0,
            worker: 0,
            role,
            kind,
            batch: 0,
            start,
            end,
        }
    }

    #[test]
    fn critical_path_fractions_sum_to_one() {
        let records = vec![
            rec(Role::Consumer, SpanKind::Compute, 0.0, 0.5),
            rec(Role::Consumer, SpanKind::DequeueWait, 0.5, 0.8),
            rec(Role::Producer, SpanKind::Pick, 0.5, 0.8),
        ];
        let cp = critical_path(&records, 0.0, 1.0);
        assert_eq!(cp.len(), CRITICAL_PATH_STAGES.len());
        let total: f64 = cp.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12, "sum {total}");
        let get = |label: &str| cp.iter().find(|(l, _)| *l == label).map(|(_, f)| *f);
        assert!((get("compute").expect("compute") - 0.5).abs() < 2e-3);
        assert!((get("sample").expect("sample") - 0.3).abs() < 2e-3);
        assert!((get("other").expect("other") - 0.2).abs() < 2e-3);
    }

    #[test]
    fn waits_attribute_to_producer_activity() {
        // Consumer waits the whole time. Producers: aggregating the first
        // quarter, enqueue-blocked the second, idle the second half →
        // aggregate, channel_wait, then heap_wait.
        let records = vec![
            rec(Role::Consumer, SpanKind::DequeueWait, 0.0, 1.0),
            rec(Role::Producer, SpanKind::Aggregate, 0.0, 0.25),
            rec(Role::Producer, SpanKind::EnqueueWait, 0.25, 0.5),
        ];
        let cp = critical_path(&records, 0.0, 1.0);
        let get = |label: &str| {
            cp.iter()
                .find(|(l, _)| *l == label)
                .map(|(_, f)| *f)
                .expect("label present")
        };
        assert!((get("aggregate") - 0.25).abs() < 2e-3);
        assert!((get("channel_wait") - 0.25).abs() < 2e-3);
        assert!((get("heap_wait") - 0.5).abs() < 2e-3);
        assert_eq!(get("other"), 0.0);
    }

    #[test]
    fn compute_beats_concurrent_producer_work() {
        // While any consumer computes, the epoch is compute-bound even if
        // producers are busy sampling underneath.
        let records = vec![
            rec(Role::Consumer, SpanKind::Compute, 0.0, 1.0),
            rec(Role::Producer, SpanKind::Pick, 0.0, 1.0),
        ];
        let cp = critical_path(&records, 0.0, 1.0);
        assert!((cp[0].1 - 1.0).abs() < 1e-12);
        assert_eq!(cp[0].0, "compute");
    }

    #[test]
    fn window_start_rebases_the_bins() {
        // The same second of compute, seen through a window that starts at
        // 10 s on the run clock.
        let records = vec![rec(Role::Consumer, SpanKind::Compute, 10.0, 10.5)];
        let cp = critical_path(&records, 10.0, 11.0);
        assert!((cp[0].1 - 0.5).abs() < 2e-3, "{cp:?}");
    }

    #[test]
    fn critical_path_empty_inputs() {
        assert!(critical_path(&[], 0.0, 1.0).is_empty());
        let r = [rec(Role::Consumer, SpanKind::Compute, 0.0, 1.0)];
        assert!(critical_path(&r, 1.0, 1.0).is_empty());
    }
}
