//! Tests of the two runtime checkers the `check` feature turns on inside the
//! `parking_lot` / `crossbeam` shims, in one instrumented build: the
//! lock-order sanitizer and the vector-clock happens-before race detector.
//! Each has a corpus of seeded bugs — lock-order inversions (direct and
//! through a chain) and double-locks; overlapping claimed-disjoint windows,
//! a missing join edge, a send after close — reported with attribution,
//! each next to a fixed twin proving the corrected code is clean. And, just
//! as important, a full auto-tuned training run and a serving session over
//! the real runtime (pool fork/join, pipelined loader channels,
//! feature/result caches, fused dispatch kernels, telemetry) produce
//! **zero** lock violations and **zero** race reports in the same run.
//!
//! Built only with `cargo test -p argo-check --features check`, which is how
//! `ci.sh` invokes it; the normal workspace build stays uninstrumented.
#![cfg(feature = "check")]

use std::sync::{Arc, Mutex as StdMutex, MutexGuard as StdMutexGuard};

use argo_rt::racecheck;
use argo_rt::ThreadPool;
use parking_lot::race::AccessKind;
use parking_lot::sanitizer::{self, Violation};
use parking_lot::{Mutex, RwLock};

/// Both checkers keep global state (order graph and violation list; shadow
/// regions and report list); tests must not interleave. (Raw std mutex: the
/// instrumented shim would record the serialization lock itself in the
/// order graph and thread its release clock into every test.)
static SERIAL: StdMutex<()> = StdMutex::new(());

fn serialized() -> StdMutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    sanitizer::reset();
    racecheck::reset();
    guard
}

/// Both verdicts of the run since [`serialized`]: no lock violation and no
/// race report.
fn assert_both_checkers_clean(who: &str) {
    let violations = sanitizer::take_violations();
    assert!(
        violations.is_empty(),
        "{who} must be violation-free, got: {violations:#?}"
    );
    let reports = racecheck::take_reports();
    assert!(
        reports.is_empty(),
        "{who} must be race-free, got: {reports:#?}"
    );
}

// ---------------------------------------------------------------------------
// Lock-order sanitizer: seeded inversions and double-locks.
// ---------------------------------------------------------------------------

#[test]
fn seeded_lock_order_inversion_is_detected() {
    let _guard = serialized();
    let a = Mutex::new(0u32);
    let b = Mutex::new(0u32);
    // Establish the order a → b …
    {
        let _ga = a.lock();
        let _gb = b.lock();
    }
    // … then take them the other way around. No deadlock happens in this
    // single-threaded execution, but the mirror-image schedule would — the
    // sanitizer must flag the inversion.
    {
        let _gb = b.lock();
        let _ga = a.lock();
    }
    let violations = sanitizer::take_violations();
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(
        matches!(violations[0], Violation::OrderInversion { .. }),
        "{violations:?}"
    );
    let msg = violations[0].to_string();
    assert!(msg.contains("lock-order inversion"), "{msg}");
}

#[test]
fn inversion_is_detected_through_transitive_chains() {
    let _guard = serialized();
    let a = Mutex::new(());
    let b = Mutex::new(());
    let c = Mutex::new(());
    // a → b and b → c …
    {
        let _ga = a.lock();
        let _gb = b.lock();
    }
    {
        let _gb = b.lock();
        let _gc = c.lock();
    }
    // … so c → a inverts via the path a →* c even though the pair (c, a)
    // was never taken together before.
    {
        let _gc = c.lock();
        let _ga = a.lock();
    }
    let violations = sanitizer::take_violations();
    assert_eq!(violations.len(), 1, "{violations:?}");
}

#[test]
fn seeded_double_lock_panics_and_is_recorded() {
    let _guard = serialized();
    let m = Arc::new(Mutex::new(0u32));
    let m2 = Arc::clone(&m);
    let result = std::panic::catch_unwind(move || {
        let _g1 = m2.lock();
        let _g2 = m2.lock(); // would deadlock the std-backed mutex for real
    });
    let err = result.expect_err("double-lock must panic, not hang");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("argo-sanitizer"), "{msg}");
    assert!(msg.contains("double-lock"), "{msg}");
    let violations = sanitizer::take_violations();
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::DoubleLock { .. })),
        "{violations:?}"
    );
}

#[test]
fn rwlock_double_write_is_detected() {
    let _guard = serialized();
    let l = Arc::new(RwLock::new(0u32));
    let l2 = Arc::clone(&l);
    let result = std::panic::catch_unwind(move || {
        let _g1 = l2.write();
        let _g2 = l2.read(); // read-after-write on the same lock: deadlock
    });
    assert!(result.is_err());
    let violations = sanitizer::take_violations();
    assert_eq!(violations.len(), 1, "{violations:?}");
}

#[test]
fn consistent_order_across_threads_is_clean() {
    let _guard = serialized();
    let a = Arc::new(Mutex::new(0u32));
    let b = Arc::new(Mutex::new(0u32));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            std::thread::spawn(move || {
                for _ in 0..50 {
                    let mut ga = a.lock();
                    let mut gb = b.lock();
                    *ga += 1;
                    *gb += 1;
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker");
    }
    assert_eq!(*a.lock(), 200);
    assert!(
        sanitizer::take_violations().is_empty(),
        "same-order acquisitions must not be flagged"
    );
    assert!(sanitizer::order_edge_count() >= 1);
}

// ---------------------------------------------------------------------------
// Race detector: seeded bugs in the claimed-disjoint-window pattern.
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Seeded bug 1: overlapping windows. Two threads each claim a window of the
// same buffer, but the windows share a cell — exactly the bug the
// `as_mut_ptr() as usize` escape hatch makes possible and the compiler
// cannot see.
// ---------------------------------------------------------------------------

#[test]
fn seeded_overlapping_windows_are_detected() {
    let _guard = serialized();
    let shadow = racecheck::region("corpus.overlap", 8);
    std::thread::scope(|s| {
        s.spawn(|| racecheck::write(&shadow, 0, 5)); // cells 0..5
        s.spawn(|| racecheck::write(&shadow, 4, 4)); // cells 4..8 — cell 4 collides
    });
    let reports = racecheck::take_reports();
    assert!(!reports.is_empty(), "overlapping windows must be reported");
    let r = &reports[0];
    assert_eq!(r.region, "corpus.overlap");
    assert_eq!(r.cell, 4, "the one shared cell is the race: {r}");
    assert_eq!((r.prior, r.current), (AccessKind::Write, AccessKind::Write));
    assert!(
        r.site.contains("check.rs") && r.prior_site.contains("check.rs"),
        "both sites carry file/line attribution: {r}"
    );
    assert!(r
        .to_string()
        .contains("data race on region 'corpus.overlap'"));
}

/// Fixed twin: genuinely disjoint windows through the *real* pool path —
/// the row-window runner every `argo-tensor` kernel partitions through
/// carries its own shadow annotation, and the `Completion` fork/join edges
/// order every worker write before the caller's post-wait reads.
#[test]
fn disjoint_windows_through_the_pool_are_clean() {
    let _guard = serialized();
    let pool = ThreadPool::new("race-twin", 4);
    let mut buf = vec![0u32; 64 * 3];
    ThreadPool::parallel_chunks_mut(
        Some(&pool),
        &mut buf,
        3,
        "corpus.runner",
        |_rows, window| {
            for v in window.iter_mut() {
                *v += 1;
            }
        },
    );
    // Caller-side read of the full buffer after the join: ordered.
    assert_eq!(buf.iter().sum::<u32>(), 64 * 3);
    assert_eq!(
        racecheck::report_count(),
        0,
        "disjoint pool windows must be clean: {:#?}",
        racecheck::take_reports()
    );
}

/// The same runner with the bug seeded back in: each worker's kernel also
/// touches the first row *past* its window (an off-by-one a kernel handed
/// the whole buffer could commit). The runner's workers are ordered only by
/// the fork and the join, never among themselves, so the neighbour's write
/// to that row is concurrent and must be reported.
#[test]
fn seeded_overlap_through_the_runner_is_detected() {
    let _guard = serialized();
    let pool = ThreadPool::new("race-seeded", 4);
    let rows = 64;
    let shadow = racecheck::region("corpus.runner_overlap", rows);
    // Raw std barrier (uninstrumented, so it adds no happens-before edge):
    // holds every window open until all four are, so no worker can run two
    // of them back to back and hide the overlap behind program order.
    let all_running = std::sync::Barrier::new(4);
    let mut buf = vec![0u32; rows];
    ThreadPool::parallel_chunks_mut(Some(&pool), &mut buf, 1, "corpus.runner", |r, _window| {
        all_running.wait();
        let len = (r.len() + 1).min(rows - r.start);
        racecheck::write(&shadow, r.start, len);
    });
    let reports = racecheck::take_reports();
    assert!(
        !reports.is_empty(),
        "a window one row too long must be reported"
    );
    assert!(
        reports.iter().all(|r| r.region == "corpus.runner_overlap"),
        "the runner's own windows stay clean: {reports:#?}"
    );
    let r = &reports[0];
    assert_eq!((r.prior, r.current), (AccessKind::Write, AccessKind::Write));
    assert!(
        r.cell > 0 && r.cell.is_multiple_of(16),
        "a window boundary row: {r}"
    );
}

// ---------------------------------------------------------------------------
// Seeded bug 2: missing join edge. A raw `std::thread::join` really does
// order the child's writes before the parent's reads, but it is *not*
// instrumented — modeling code that synchronizes through a side channel the
// detector (and, in real TSan deployments, the annotator) cannot see. The
// fixed twin restores the edge with an explicit `SyncPoint`.
// ---------------------------------------------------------------------------

#[test]
fn seeded_missing_join_edge_is_detected() {
    let _guard = serialized();
    let shadow = racecheck::region("corpus.missing_join", 1);
    std::thread::scope(|s| {
        let h = s.spawn(|| racecheck::write(&shadow, 0, 1));
        h.join().expect("writer");
        // Raw join: real-time order, but no happens-before edge recorded.
        racecheck::read(&shadow, 0, 1);
    });
    let reports = racecheck::take_reports();
    assert!(
        !reports.is_empty(),
        "read-after-uninstrumented-join must be reported"
    );
    let r = &reports[0];
    assert_eq!(r.region, "corpus.missing_join");
    assert_eq!((r.prior, r.current), (AccessKind::Write, AccessKind::Read));
    assert!(r.site.contains("check.rs"), "attributed: {r}");
}

#[test]
fn syncpoint_publish_acquire_restores_the_join_edge() {
    let _guard = serialized();
    let shadow = racecheck::region("corpus.joined", 1);
    let point = racecheck::SyncPoint::new();
    std::thread::scope(|s| {
        let h = s.spawn(|| {
            racecheck::write(&shadow, 0, 1);
            point.publish();
        });
        h.join().expect("writer");
        point.acquire();
        racecheck::read(&shadow, 0, 1);
    });
    assert_eq!(
        racecheck::report_count(),
        0,
        "publish/acquire orders the read: {:#?}",
        racecheck::take_reports()
    );
}

// ---------------------------------------------------------------------------
// Seeded bug 3: send-after-close reorder. The writer publishes its result
// and "hands it off" with a channel send — but every receiver is already
// gone, so the send fails and carries no clock. Code that shrugs off the
// `SendError` and lets the consumer read anyway has lost its only
// happens-before edge.
// ---------------------------------------------------------------------------

#[test]
fn seeded_send_after_close_is_detected() {
    let _guard = serialized();
    let shadow = racecheck::region("corpus.send_after_close", 1);
    let (tx, rx) = crossbeam::channel::unbounded::<u32>();
    drop(rx); // close first: the handoff below silently fails
    std::thread::scope(|s| {
        let h = s.spawn(|| {
            racecheck::write(&shadow, 0, 1);
            let _ = tx.send(7); // SendError swallowed — no edge established
        });
        h.join().expect("writer");
        racecheck::read(&shadow, 0, 1);
    });
    let reports = racecheck::take_reports();
    assert!(
        !reports.is_empty(),
        "handoff through a failed send must be reported"
    );
    let r = &reports[0];
    assert_eq!(r.region, "corpus.send_after_close");
    assert_eq!((r.prior, r.current), (AccessKind::Write, AccessKind::Read));
    assert!(r.site.contains("check.rs"), "attributed: {r}");
}

#[test]
fn successful_channel_handoff_orders_the_read() {
    let _guard = serialized();
    let shadow = racecheck::region("corpus.handoff", 1);
    let (tx, rx) = crossbeam::channel::unbounded::<u32>();
    std::thread::scope(|s| {
        s.spawn(|| {
            racecheck::write(&shadow, 0, 1);
            tx.send(7).expect("receiver alive");
        });
        let got = rx.recv().expect("sender sent"); // edge: sender's clock joins
        assert_eq!(got, 7);
        racecheck::read(&shadow, 0, 1);
    });
    assert_eq!(
        racecheck::report_count(),
        0,
        "recv orders the read after the write: {:#?}",
        racecheck::take_reports()
    );
}

// ---------------------------------------------------------------------------
// Zero false positives over the real runtime.
// ---------------------------------------------------------------------------

/// A full auto-tuned training run — thread pool, pipelined loader, feature
/// cache, fused dispatch kernels, telemetry — with every lock, channel,
/// fork/join edge and disjoint-window annotation instrumented must record
/// no lock violation and no race.
#[test]
fn full_training_run_reports_zero_violations_and_zero_races() {
    use argo_core::{Argo, ArgoOptions};
    use argo_engine::{Engine, EngineOptions};
    use argo_graph::datasets::FLICKR;
    use argo_rt::Telemetry;
    use argo_sample::NeighborSampler;

    let _guard = serialized();
    let dataset = Arc::new(FLICKR.synthesize(0.008, 11));
    let sampler: Arc<dyn argo_sample::Sampler> = Arc::new(NeighborSampler::new(vec![6, 3]));
    let mut engine = Engine::new(
        dataset,
        sampler,
        EngineOptions {
            hidden: 8,
            num_layers: 2,
            global_batch: 64,
            total_cores: 16,
            seed: 11,
            ..Default::default()
        },
    );
    let mut argo = Argo::new(ArgoOptions {
        n_search: 3,
        epochs: 5,
        total_cores: 16,
        seed: 11,
    });
    let tel = Telemetry::new();
    let _report = argo.train(&mut engine, Some(&tel), |_, _, _| {});

    assert_both_checkers_clean("training run");
}

/// A serving session — deadline micro-batcher, result cache slot handoffs,
/// feature cache, inference kernels — under full instrumentation must also
/// be clean on both counts, including across cache hits that *read* slots
/// other requests wrote.
#[test]
fn serve_session_run_reports_zero_violations_and_zero_races() {
    use argo_graph::datasets::FLICKR;
    use argo_nn::{Arch, Gnn};
    use argo_rt::Telemetry;
    use argo_sample::{NeighborSampler, Normalization, Sampler};
    use argo_serve::{ManualClock, ServeSpec};

    let _guard = serialized();
    let d = Arc::new(FLICKR.synthesize(0.003, 77));
    let sampler: Arc<dyn Sampler> = Arc::new(NeighborSampler::new(vec![6, 3]));
    let model = Gnn::new(Arch::Sage, d.feat_dim(), 8, d.num_classes, 2, 5);
    let clock = Arc::new(ManualClock::new());
    let tel = Telemetry::new();
    let mut s = ServeSpec::builder(Arc::clone(&d), sampler, model)
        .max_batch(3)
        .deadline_us(500)
        .result_cache_entries(16)
        .feature_cache_rows(128)
        .normalization(Normalization::Mean)
        .seed(11)
        .clock(Arc::clone(&clock) as Arc<dyn argo_serve::Clock>)
        .start();

    // Six queries with repeats: misses write result-cache slots, the
    // repeated seeds read them back, and the flush-on-full path (max_batch
    // 3) interleaves with the flush-on-deadline path.
    for seeds in [
        vec![1, 2, 3],
        vec![4, 5],
        vec![1, 2, 3],
        vec![6],
        vec![4, 5],
        vec![7, 8],
    ] {
        s.submit(seeds, Some(&tel)).expect("admitted");
        clock.advance_us(200);
        let _ = s.poll(Some(&tel));
    }
    let out = s.drain(Some(&tel));
    for r in &out {
        r.as_ref().expect("late drain still serves");
    }

    assert_both_checkers_clean("serve session");
}

/// Concurrent cache stress under instrumentation: shard locks are taken
/// one at a time, so even heavy cross-thread sharing must stay clean.
#[test]
fn feature_cache_stress_has_zero_false_positives() {
    use argo_graph::{Features, NodeId};
    use argo_sample::FeatureCache;

    let _guard = serialized();
    let feats = Arc::new(Features::new((0..64 * 4).map(|i| i as f32).collect(), 4));
    let cache = Arc::new(FeatureCache::with_shards(16, 4, 4));
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let (feats, cache) = (Arc::clone(&feats), Arc::clone(&cache));
            std::thread::spawn(move || {
                for i in 0..200u64 {
                    let ids = [((i * (t + 1)) % 64) as NodeId, ((i * 7 + t) % 64) as NodeId];
                    let got = cache.gather_rows(&feats, &ids);
                    assert_eq!(got.len(), 8);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker");
    }
    assert_both_checkers_clean("sharded cache stress");
}
