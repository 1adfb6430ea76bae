//! Tests of the vector-clock happens-before race detector (the `race`
//! feature): a corpus of seeded bugs in the claimed-disjoint-window pattern
//! is detected with file/line-attributed reports, each next to a fixed twin
//! proving the corrected synchronization is clean — and, just as important,
//! a full auto-tuned training run and a serving session over the real
//! runtime (pool fork/join, pipelined loader channels, feature/result
//! caches, fused dispatch kernels) produce **zero** reports.
//!
//! Built only with `cargo test -p argo-check --features race`, which is how
//! `ci.sh` invokes it; the normal workspace build stays uninstrumented.
#![cfg(feature = "race")]

use std::sync::{Arc, Mutex as StdMutex, MutexGuard as StdMutexGuard};

use argo_rt::racecheck;
use argo_rt::ThreadPool;
use parking_lot::race::AccessKind;

/// The detector's shadow regions and report list are global; tests must not
/// interleave. (Raw std mutex: the instrumented shim would thread the
/// serialization lock's release clock into every test.)
static SERIAL: StdMutex<()> = StdMutex::new(());

fn serialized() -> StdMutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    racecheck::reset();
    guard
}

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
        r.site.contains("race.rs") && r.prior_site.contains("race.rs"),
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
    assert!(r.cell > 0 && r.cell % 16 == 0, "a window boundary row: {r}");
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
    assert!(r.site.contains("race.rs"), "attributed: {r}");
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
    assert!(r.site.contains("race.rs"), "attributed: {r}");
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
/// no races.
#[test]
fn full_training_run_reports_zero_races() {
    use argo_core::{Argo, ArgoOptions};
    use argo_engine::{Engine, EngineOptions};
    use argo_graph::datasets::FLICKR;
    use argo_rt::telemetry::names;
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

    let reports = racecheck::take_reports();
    assert!(
        reports.is_empty(),
        "training run must be race-free, got: {reports:#?}"
    );
    // The engine publishes checker verdicts at every epoch end, so the
    // zero shows up in `argo report`, not just here.
    let verdict = tel
        .metrics
        .counters()
        .into_iter()
        .find(|(name, _)| name == names::CHECK_RACE_REPORTS_TOTAL);
    assert_eq!(
        verdict,
        Some((names::CHECK_RACE_REPORTS_TOTAL.to_string(), 0)),
        "verdict counter published and zero"
    );
}

/// A serving session — deadline micro-batcher, result cache slot handoffs,
/// feature cache, inference kernels — under full instrumentation must also
/// be race-free, including across cache hits that *read* slots other
/// requests wrote.
#[test]
fn serve_session_run_reports_zero_races() {
    use argo_graph::datasets::FLICKR;
    use argo_nn::{AnyModel, Arch};
    use argo_rt::telemetry::names;
    use argo_rt::Telemetry;
    use argo_sample::{NeighborSampler, Normalization, Sampler};
    use argo_serve::{ManualClock, ServeSpec};

    let _guard = serialized();
    let d = Arc::new(FLICKR.synthesize(0.003, 77));
    let sampler: Arc<dyn Sampler> = Arc::new(NeighborSampler::new(vec![6, 3]));
    let model = AnyModel::build(Arch::Sage, d.feat_dim(), 8, d.num_classes, 2, 5);
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

    let reports = racecheck::take_reports();
    assert!(
        reports.is_empty(),
        "serve session must be race-free, got: {reports:#?}"
    );
    let verdict = tel
        .metrics
        .counters()
        .into_iter()
        .find(|(name, _)| name == names::CHECK_RACE_REPORTS_TOTAL);
    assert_eq!(
        verdict,
        Some((names::CHECK_RACE_REPORTS_TOTAL.to_string(), 0)),
        "drain publishes the (zero) verdict counter"
    );
}
