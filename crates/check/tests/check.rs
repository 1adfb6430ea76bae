//! Tests of the lock-order sanitizer the `check` feature turns on inside
//! the `parking_lot` shim: a corpus of seeded bugs — lock-order inversions
//! (direct and through a chain) and double-locks — reported with
//! attribution, next to a clean twin. And, just as important, a full
//! auto-tuned training run, a serving session and a shared-cache stress
//! over the real runtime (pool fork/join, pipelined loader channels,
//! feature/result caches, dispatch kernels, telemetry) record **zero**
//! violations.
//!
//! Built only with `cargo test -p argo-check --features check`, which is how
//! `ci.sh` invokes it; the normal workspace build stays uninstrumented.
#![cfg(feature = "check")]

use std::sync::{Arc, Mutex as StdMutex, MutexGuard as StdMutexGuard};

use parking_lot::sanitizer::{self, Violation};
use parking_lot::{Mutex, RwLock};

/// The sanitizer keeps global state (order graph and violation list); tests
/// must not interleave. (Raw std mutex: the instrumented shim would record
/// the serialization lock itself in the order graph.)
static SERIAL: StdMutex<()> = StdMutex::new(());

fn serialized() -> StdMutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    sanitizer::reset();
    guard
}

/// The verdict of the run since [`serialized`]: no lock violation.
fn assert_violation_free(who: &str) {
    let violations = sanitizer::take_violations();
    assert!(
        violations.is_empty(),
        "{who} must be violation-free, got: {violations:#?}"
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
// Zero false positives over the real runtime.
// ---------------------------------------------------------------------------

/// A full auto-tuned training run — thread pool, pipelined loader, feature
/// cache, dispatch kernels, telemetry — with every lock instrumented must
/// record no lock violation.
#[test]
fn full_training_run_reports_zero_violations() {
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

    assert_violation_free("training run");
}

/// A serving session — deadline micro-batcher, result cache, feature
/// cache, inference kernels — under full instrumentation must also record
/// no lock violation.
#[test]
fn serve_session_run_reports_zero_violations() {
    use argo_graph::datasets::FLICKR;
    use argo_nn::{Arch, Gnn};
    use argo_rt::Telemetry;
    use argo_sample::{NeighborSampler, Sampler};
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

    assert_violation_free("serve session");
}

/// Concurrent cache stress under instrumentation: the fill lock is the only
/// lock a gather takes, so even heavy cross-thread sharing must stay clean.
#[test]
fn feature_cache_stress_has_zero_false_positives() {
    use argo_graph::{Features, NodeId};
    use argo_sample::FeatureCache;

    let _guard = serialized();
    let feats = Arc::new(Features::new((0..64 * 4).map(|i| i as f32).collect(), 4));
    let cache = Arc::new(FeatureCache::new(16, 4));
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
    assert_violation_free("shared cache stress");
}
