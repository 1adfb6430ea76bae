//! Integration tests for the serving session: admission errors, config
//! epochs, telemetry, and the bitwise cached == uncached property.

use std::sync::Arc;

use argo_core::Error;
use argo_graph::datasets::{Dataset, FLICKR};
use argo_graph::NodeId;
use argo_nn::{Arch, Gnn};
use argo_rt::telemetry::names;
use argo_rt::{RunEvent, SpanKind, Telemetry};
use argo_sample::{NeighborSampler, Normalization, Sampler};
use argo_serve::{FlushReason, ManualClock, ServeSession, ServeSpec, ServeSpecBuilder};
use proptest::prelude::*;

fn tiny() -> Arc<Dataset> {
    Arc::new(FLICKR.synthesize(0.003, 77))
}

fn neighbor() -> Arc<dyn Sampler> {
    Arc::new(NeighborSampler::new(vec![6, 3]))
}

fn model(d: &Dataset) -> Gnn {
    Gnn::new(Arch::Sage, d.feat_dim(), 8, d.num_classes, 2, 5)
}

/// A session with a manual clock, immediate flushing and both caches on.
fn session(d: &Arc<Dataset>, clock: &Arc<ManualClock>) -> ServeSession {
    cached(d, clock, 0).start()
}

/// A builder with a manual clock, the given deadline and both caches on.
fn cached(d: &Arc<Dataset>, clock: &Arc<ManualClock>, deadline_us: u64) -> ServeSpecBuilder {
    ServeSpec::builder(Arc::clone(d), neighbor(), model(d))
        .deadline_us(deadline_us)
        .result_cache_entries(32)
        .feature_cache_rows(256)
        .normalization(Normalization::Mean)
        .seed(11)
        .clock(Arc::clone(clock) as Arc<dyn argo_serve::Clock>)
}

/// Computes `seeds` once outside any telemetry, so the next identical
/// submit is a result-cache hit.
fn warm(s: &mut ServeSession, seeds: &[NodeId]) {
    s.submit(seeds.to_vec(), None).unwrap();
    for r in s.drain(None) {
        assert!(!r.unwrap().cache_hit);
    }
}

fn flush_labels(tel: &Telemetry) -> Vec<String> {
    tel.logger
        .events()
        .iter()
        .filter_map(|(_, e)| match e {
            RunEvent::ServeBatch { record } => Some(record.flush.clone()),
            _ => None,
        })
        .collect()
}

#[test]
fn empty_and_unknown_seeds_are_rejected_at_admission() {
    let d = tiny();
    let clock = Arc::new(ManualClock::new());
    let mut s = session(&d, &clock);
    match s.submit(vec![], None) {
        Err(Error::InvalidArgument(_)) => {}
        other => panic!("expected InvalidArgument, got {other:?}"),
    }
    let beyond = d.graph.num_nodes() as NodeId;
    match s.submit(vec![0, beyond], None) {
        Err(Error::UnknownSeedNode(msg)) => {
            assert!(
                msg.contains(&beyond.to_string()),
                "diagnostic names the node: {msg}"
            );
        }
        other => panic!("expected UnknownSeedNode, got {other:?}"),
    }
    // A bad query never occupies the queue.
    assert_eq!(s.pending(), 0);
}

#[test]
fn zero_deadline_serves_inline_and_repeats_hit_the_result_cache() {
    let d = tiny();
    let clock = Arc::new(ManualClock::new());
    let mut s = session(&d, &clock);
    let first = s.submit(vec![1, 2, 3], None).unwrap();
    assert_eq!(first.completed.len(), 1);
    let r1 = first.completed[0].as_ref().unwrap().clone();
    assert!(!r1.cache_hit);
    assert_eq!(r1.logits.rows(), 3);
    assert_eq!(r1.logits.cols(), d.num_classes);

    clock.advance_us(50);
    let second = s.submit(vec![1, 2, 3], None).unwrap();
    let r2 = second.completed[0].as_ref().unwrap().clone();
    assert!(r2.cache_hit, "identical repeated query must hit");
    assert_eq!(
        r1.logits.data(),
        r2.logits.data(),
        "cached response must be bitwise identical"
    );
    let stats = s.result_cache_stats().unwrap();
    assert_eq!((stats.hits, stats.misses), (1, 1));
}

#[test]
fn apply_config_bumps_the_epoch_and_invalidates_cached_responses() {
    let d = tiny();
    let clock = Arc::new(ManualClock::new());
    let mut s = session(&d, &clock);
    s.submit(vec![4, 5], None).unwrap();
    assert_eq!(s.config_epoch(), 0);

    s.apply_config(argo_rt::Config::new(1, 1, 1).with_cache_rows(128));
    assert_eq!(s.config_epoch(), 1);
    // The resize is the rest of what a configuration changes.
    assert_eq!(s.feature_cache_stats().unwrap().capacity_rows, 128);
    let after = s.submit(vec![4, 5], None).unwrap();
    let r = after.completed[0].as_ref().unwrap();
    assert!(
        !r.cache_hit,
        "config change must invalidate the result cache"
    );
}

#[test]
fn shed_requests_fail_with_deadline_exceeded() {
    let d = tiny();
    let clock = Arc::new(ManualClock::new());
    let mut s = ServeSpec::builder(Arc::clone(&d), neighbor(), model(&d))
        .max_batch(8)
        .deadline_us(10_000)
        .shed_after_us(500)
        .clock(Arc::clone(&clock) as Arc<dyn argo_serve::Clock>)
        .start();
    s.submit(vec![1], None).unwrap();
    // Age the queued request far past the shed threshold, then drain.
    clock.advance_us(5_000);
    let out = s.drain(None);
    assert_eq!(out.len(), 1);
    match &out[0] {
        Err(Error::DeadlineExceeded(msg)) => {
            assert!(msg.contains("shed"), "diagnostic explains the shed: {msg}")
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

#[test]
fn poll_flushes_at_the_deadline_and_drain_reports_drain_reason() {
    let d = tiny();
    let clock = Arc::new(ManualClock::new());
    let tel = Telemetry::new();
    let mut s = ServeSpec::builder(Arc::clone(&d), neighbor(), model(&d))
        .max_batch(8)
        .deadline_us(1_000)
        .clock(Arc::clone(&clock) as Arc<dyn argo_serve::Clock>)
        .start();
    s.submit(vec![1], Some(&tel)).unwrap();
    assert!(s.poll(Some(&tel)).is_empty(), "deadline not reached yet");
    clock.advance_us(1_000);
    let served = s.poll(Some(&tel));
    assert_eq!(served.len(), 1);
    let r = served[0].as_ref().unwrap();
    assert!(
        (r.queue_seconds - 1e-3).abs() < 1e-9,
        "queued exactly one deadline: {}",
        r.queue_seconds
    );

    s.submit(vec![2], Some(&tel)).unwrap();
    s.submit(vec![3], Some(&tel)).unwrap();
    assert_eq!(s.drain(Some(&tel)).len(), 2);
    assert_eq!(s.pending(), 0);

    // Telemetry: batch events carry the flush reason labels.
    let reasons: Vec<String> = tel
        .logger
        .events()
        .iter()
        .filter_map(|(_, e)| match e {
            RunEvent::ServeBatch { record } => Some(record.flush.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(reasons, vec!["deadline".to_string(), "drain".to_string()]);
    assert_eq!(FlushReason::Drain.label(), "drain");
}

#[test]
fn a_result_cache_hit_is_answered_at_admission_past_a_queued_miss() {
    let d = tiny();
    let clock = Arc::new(ManualClock::new());
    let tel = Telemetry::new();
    let mut s = cached(&d, &clock, 1_000).max_batch(8).start();
    warm(&mut s, &[1, 2]);

    let a = s.submit(vec![3], Some(&tel)).unwrap();
    assert!(a.completed.is_empty(), "a miss waits for its batch");
    clock.advance_us(10);
    let b = s.submit(vec![1, 2], Some(&tel)).unwrap();
    assert_eq!(b.request, a.request + 1, "ids stay dense across hits");
    assert_eq!(b.completed.len(), 1, "the hit is answered inside submit");
    let hit = b.completed[0].as_ref().unwrap();
    assert_eq!(hit.request, b.request);
    assert!(hit.cache_hit);
    assert_eq!(hit.queue_seconds, 0.0);
    assert_eq!(s.pending(), 1, "only the miss is queued");

    clock.advance_us(990);
    let served = s.poll(Some(&tel));
    assert_eq!(served.len(), 1, "the miss flushes at its own deadline");
    let miss = served[0].as_ref().unwrap();
    assert_eq!(miss.request, a.request);
    assert!(!miss.cache_hit);
    assert_eq!(s.pending(), 0);
    assert_eq!(flush_labels(&tel), vec!["hit", "deadline"]);
}

#[test]
fn a_hit_is_answered_at_queue_cap_where_a_miss_is_refused() {
    let d = tiny();
    let clock = Arc::new(ManualClock::new());
    let mut s = cached(&d, &clock, 1_000).queue_cap(1).start();
    warm(&mut s, &[1, 2]);

    s.submit(vec![3], None).unwrap();
    match s.submit(vec![4], None) {
        Err(Error::QueueFull(_)) => {}
        other => panic!("expected QueueFull, got {other:?}"),
    }
    let hit = s.submit(vec![1, 2], None).unwrap();
    assert!(hit.completed[0].as_ref().unwrap().cache_hit);
    assert_eq!(s.pending(), 1);
}

#[test]
fn a_hit_is_never_shed() {
    let d = tiny();
    let clock = Arc::new(ManualClock::new());
    let mut s = cached(&d, &clock, 1_000).shed_after_us(0).start();
    warm(&mut s, &[1, 2]);

    s.submit(vec![3], None).unwrap();
    let hit = s.submit(vec![1, 2], None).unwrap();
    assert!(hit.completed[0].as_ref().unwrap().cache_hit);
    // The queued miss waits its deadline, which is past the shed limit.
    clock.advance_us(1_000);
    match s.poll(None).as_slice() {
        [Err(Error::DeadlineExceeded(_))] => {}
        other => panic!("expected one shed miss, got {other:?}"),
    }
}

#[test]
fn telemetry_reports_requests_batches_and_hit_rate() {
    let d = tiny();
    let clock = Arc::new(ManualClock::new());
    let tel = Telemetry::new();
    let mut s = session(&d, &clock);
    s.submit(vec![1, 2], Some(&tel)).unwrap();
    s.submit(vec![1, 2], Some(&tel)).unwrap();
    s.submit(vec![1, 2], Some(&tel)).unwrap();

    let counters = tel.metrics.counters();
    let get = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert_eq!(get(names::SERVE_REQUESTS_TOTAL), 3);
    assert_eq!(get(names::SERVE_BATCHES_TOTAL), 3);
    assert_eq!(get(names::SERVE_RESULT_HITS_TOTAL), 2);
    assert_eq!(get(names::SERVE_RESULT_MISSES_TOTAL), 1);

    let gauges = tel.metrics.gauges();
    let rate = gauges
        .iter()
        .find(|(n, _)| n == names::SERVE_RESULT_HIT_RATE)
        .map(|(_, v)| *v)
        .unwrap();
    assert!((rate - 2.0 / 3.0).abs() < 1e-9, "hit rate gauge: {rate}");

    let hist = tel.metrics.histograms();
    assert!(
        hist.iter()
            .any(|(n, h)| n == names::SERVE_REQUEST_SECONDS && h.count() == 3),
        "latency histogram observed every request"
    );

    // Request events carry cache_hit and ids; spans cover queue + exec.
    let hits: Vec<bool> = tel
        .logger
        .events()
        .iter()
        .filter_map(|(_, e)| match e {
            RunEvent::ServeRequest { record } => Some(record.cache_hit),
            _ => None,
        })
        .collect();
    assert_eq!(hits, vec![false, true, true]);

    let spans = s.drain_spans();
    let queues = spans
        .records
        .iter()
        .filter(|r| r.kind == SpanKind::ServeQueue)
        .count();
    let execs = spans
        .records
        .iter()
        .filter(|r| r.kind == SpanKind::ServeExec)
        .count();
    assert_eq!((queues, execs), (3, 3));
}

#[test]
fn requests_without_telemetry_record_no_spans() {
    // The one switch: 10 000 requests that pass `None` (most of them
    // result-cache hits) must neither fill the span ring nor count drops —
    // an always-on ring used to saturate at 8192 spans and then only bump
    // `dropped`.
    let d = tiny();
    let clock = Arc::new(ManualClock::new());
    let mut s = session(&d, &clock);
    for i in 0..10_000u32 {
        let done = s.submit(vec![i % 16], None).unwrap().completed;
        assert!(done[0].is_ok());
    }
    // A disabled handle is the same switch in the off position.
    let off = Telemetry::disabled();
    s.submit(vec![3], Some(&off)).unwrap();
    let spans = s.drain_spans();
    assert!(spans.records.is_empty(), "{} spans", spans.records.len());
    assert_eq!(spans.dropped, 0);
}

#[test]
fn from_engine_serves_the_training_checkpoint() {
    use argo_engine::{Engine, EngineOptions};
    let d = tiny();
    let opts = EngineOptions {
        hidden: 8,
        num_layers: 2,
        global_batch: 32,
        seed: 5,
        ..Default::default()
    };
    let mut engine = Engine::new(Arc::clone(&d), neighbor(), opts);
    engine.train_epoch(argo_rt::Config::new(1, 1, 1), None);
    let clock = Arc::new(ManualClock::new());
    let mut s = ServeSpec::from_engine(&engine)
        .deadline_us(0)
        .clock(Arc::clone(&clock) as Arc<dyn argo_serve::Clock>)
        .start();
    let out = s.submit(vec![0, 1], None).unwrap();
    let r = out.completed[0].as_ref().unwrap();
    assert_eq!(r.logits.rows(), 2);
    assert_eq!(r.logits.cols(), d.num_classes);
    assert!(r.logits.data().iter().all(|x| x.is_finite()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The load-bearing property of the layered cache: a response served
    /// from the result cache is bitwise identical to executing the same
    /// query on a session with no caches at all. Under a non-zero deadline
    /// the miss waits for its batch and the hit is answered at admission.
    #[test]
    fn cached_responses_match_uncached_execution_bitwise(
        raw in prop::collection::vec(0u32..64, 1..6),
        windowed in 0u64..2,
    ) {
        let deadline_us = windowed * 1_000;
        let d = tiny();
        let seeds: Vec<NodeId> =
            raw.iter().map(|&v| v % d.graph.num_nodes() as u32).collect();

        let clock = Arc::new(ManualClock::new());
        let mut cached = cached(&d, &clock, deadline_us).start();
        let mut first = cached.submit(seeds.clone(), None).unwrap().completed;
        if deadline_us > 0 {
            prop_assert!(first.is_empty());
            clock.advance_us(deadline_us);
            first = cached.poll(None);
        }
        let miss = first[0].as_ref().unwrap().clone();
        prop_assert!(!miss.cache_hit);
        let second = cached.submit(seeds.clone(), None).unwrap();
        let hit = second.completed[0].as_ref().unwrap().clone();
        prop_assert!(hit.cache_hit);
        prop_assert_eq!(hit.queue_seconds, 0.0);
        prop_assert_eq!(cached.pending(), 0);

        let bare_clock = Arc::new(ManualClock::new());
        let mut bare = ServeSpec::builder(Arc::clone(&d), neighbor(), model(&d))
            .deadline_us(0)
            .normalization(Normalization::Mean)
            .seed(11)
            .clock(Arc::clone(&bare_clock) as Arc<dyn argo_serve::Clock>)
            .start();
        let plain = bare.submit(seeds, None).unwrap();
        let uncached = plain.completed[0].as_ref().unwrap().clone();

        prop_assert_eq!(hit.logits.data(), uncached.logits.data());
        prop_assert_eq!(miss.logits.data(), uncached.logits.data());
    }
}
