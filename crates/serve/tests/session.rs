//! Integration tests for the serving session: admission errors, telemetry,
//! the bitwise cached == uncached property, and every response against the
//! benchmark's recompute recipe, bit for bit.

use std::sync::Arc;

use argo_core::Error;
use argo_graph::datasets::{Dataset, FLICKR};
use argo_graph::NodeId;
use argo_nn::{Arch, Gnn};
use argo_rt::{RunEvent, SeedSequence, SpanKind, Telemetry};
use argo_sample::{
    FeatureCache, NeighborSampler, SampleRun, Sampler, SamplerScratch, ShadowSampler,
};
use argo_serve::result_cache::key_hash;
use argo_serve::{FlushReason, ManualClock, ServeSession, ServeSpec, ServeSpecBuilder};
use argo_tensor::Matrix;
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

/// A session with a manual clock, immediate flushing and the result cache
/// on.
fn session(d: &Arc<Dataset>, clock: &Arc<ManualClock>) -> ServeSession {
    cached(d, clock, 0).start()
}

/// A builder with a manual clock, the given deadline and the result cache
/// on. It also calls the no-op `feature_cache_rows`, as the benchmark's warm
/// serving workload does.
fn cached(d: &Arc<Dataset>, clock: &Arc<ManualClock>, deadline_us: u64) -> ServeSpecBuilder {
    ServeSpec::builder(Arc::clone(d), neighbor(), model(d))
        .deadline_us(deadline_us)
        .result_cache_entries(32)
        .feature_cache_rows(256)
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
    // A warm pass over no more distinct queries than the cache holds (16
    // lists, 32 entries) is all hits, each bitwise equal to its first answer.
    let d = tiny();
    let clock = Arc::new(ManualClock::new());
    let mut s = session(&d, &clock);
    let pool: Vec<Vec<NodeId>> = (0..16u32).map(|i| (i..i + 1 + i % 4).collect()).collect();
    let mut first = Vec::with_capacity(pool.len());
    for seeds in &pool {
        let done = s.submit(seeds.clone(), None).unwrap().completed;
        assert_eq!(done.len(), 1, "a zero deadline executes inline");
        let r = done[0].as_ref().unwrap().clone();
        assert!(!r.cache_hit);
        assert_eq!(r.logits.rows(), seeds.len());
        assert_eq!(r.logits.cols(), d.num_classes);
        first.push(r);
        clock.advance_us(50);
    }
    for (seeds, r1) in pool.iter().zip(&first) {
        let done = s.submit(seeds.clone(), None).unwrap().completed;
        let r2 = done[0].as_ref().unwrap();
        assert!(r2.cache_hit, "repeated query {seeds:?} must hit");
        assert_eq!(
            r1.logits.data(),
            r2.logits.data(),
            "cached response must be bitwise identical"
        );
    }
    let stats = s.result_cache_stats().unwrap();
    assert_eq!((stats.hits, stats.misses), (16, 16));
}

#[test]
fn shed_requests_fail_with_deadline_exceeded() {
    argo_rt::watchdog(120, || {
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
    });
}

#[test]
fn poll_flushes_at_the_deadline_and_drain_reports_drain_reason() {
    argo_rt::watchdog(120, || {
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
    });
}

#[test]
fn a_result_cache_hit_is_answered_at_admission_past_a_queued_miss() {
    argo_rt::watchdog(120, || {
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
    });
}

#[test]
fn a_hit_is_answered_at_queue_cap_where_a_miss_is_refused() {
    argo_rt::watchdog(120, || {
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
    });
}

#[test]
fn a_hit_is_never_shed() {
    argo_rt::watchdog(120, || {
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
    });
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

    // One batch event per flush: the first query computes at its (zero)
    // deadline, the repeats are hits answered at admission.
    assert_eq!(flush_labels(&tel), ["deadline", "hit", "hit"]);
    // One request event per query, carrying its id, hit flag and latency;
    // the session's hit rate is the events' hit share.
    let requests: Vec<(u64, bool, f64)> = tel
        .logger
        .events()
        .iter()
        .filter_map(|(_, e)| match e {
            RunEvent::ServeRequest { record } => {
                Some((record.request, record.cache_hit, record.latency_seconds))
            }
            _ => None,
        })
        .collect();
    let ids_and_hits: Vec<(u64, bool)> = requests.iter().map(|r| (r.0, r.1)).collect();
    assert_eq!(ids_and_hits, [(0, false), (1, true), (2, true)]);
    assert!(requests.iter().all(|r| r.2 >= 0.0));
    let rate = s.result_cache_stats().expect("cache on").hit_rate();
    assert!((rate - 2.0 / 3.0).abs() < 1e-9, "hit rate: {rate}");
    // Serving registers no histogram: latency lives in the request events.
    assert!(tel.metrics.histograms().is_empty());

    // Spans cover queue + exec.
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
    argo_rt::watchdog(120, || {
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
    });
}

/// One response the way the benchmark's `responses_match_recompute` check
/// recomputes it: `sample_into` with the session's stream and the model's
/// fused normalization, `Features::gather` (or the `FeatureCache` stub's
/// `gather_rows`, which the benchmark calls when it asks for a feature
/// cache), then `forward_gathered_view`.
fn recomputed(
    d: &Dataset,
    sampler: &dyn Sampler,
    (model, cache): (&Gnn, Option<&FeatureCache>),
    seed: u64,
    seeds: &[NodeId],
) -> Matrix {
    let stream = SeedSequence::new(key_hash(seeds, 0) ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut scratch = SamplerScratch::new();
    let run = SampleRun::new(stream, &mut scratch).with_norm(model.kind().normalization());
    let view = sampler.sample_into(&d.graph, seeds, run);
    let ids = view.input_nodes();
    let rows = match cache {
        Some(c) => c.gather_rows(&d.features, ids),
        None => d.features.gather(ids).data().to_vec(),
    };
    let input = Matrix::from_vec(ids.len(), d.feat_dim(), rows);
    model.forward_gathered_view(&view, input, None)
}

#[test]
fn every_response_is_the_recompute_recipe_bitwise() {
    // Sessions built without `.normalization(..)`: each fuses its model's
    // own. GraphSAGE and GCN over neighbor blocks, GCN over a ShaDow
    // subgraph, seed lists of one to eight. The no-op `feature_cache_rows`
    // setter and the `FeatureCache` stub's gather must change nothing: the
    // cache-on input is the benchmark's warm-serving recipe.
    let d = tiny();
    let n = d.graph.num_nodes() as NodeId;
    let queries: Vec<Vec<NodeId>> = (0..24)
        .map(|i| (0..1 + i % 8).map(|k| (i * 37 + k * 11) % n).collect())
        .collect();
    let shadow: Arc<dyn Sampler> = Arc::new(ShadowSampler::new(vec![4, 2], 2));
    for (kind, sampler) in [
        (Arch::Sage, neighbor()),
        (Arch::Gcn, neighbor()),
        (Arch::Gcn, shadow),
    ] {
        for cache_rows in [0, 64] {
            let mk = || Gnn::new(kind, d.feat_dim(), 8, d.num_classes, 2, 5);
            let mut s = ServeSpec::builder(Arc::clone(&d), Arc::clone(&sampler), mk())
                .deadline_us(0)
                .feature_cache_rows(cache_rows)
                .seed(11)
                .start();
            let oracle = mk();
            let cache = (cache_rows > 0).then(|| FeatureCache::new(cache_rows, d.feat_dim()));
            for q in &queries {
                let done = s.submit(q.clone(), None).unwrap().completed;
                let got = done[0].as_ref().unwrap();
                let want = recomputed(&d, &*sampler, (&oracle, cache.as_ref()), 11, q);
                let who = format!("{kind:?} {} cache {cache_rows} {q:?}", sampler.name());
                let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert!(bits(&got.logits) == bits(&want), "{who}");
            }
        }
    }
}

#[test]
fn a_model_narrower_or_wider_than_the_features_is_refused_at_admission() {
    let d = tiny();
    for in_dim in [d.feat_dim() - 1, d.feat_dim() + 1] {
        let misfit = Gnn::new(Arch::Sage, in_dim, 8, d.num_classes, 2, 5);
        let mut s = ServeSpec::builder(Arc::clone(&d), neighbor(), misfit)
            .deadline_us(0)
            .start();
        match s.submit(vec![1, 2], None) {
            Err(Error::InvalidArgument(msg)) => {
                let (model, data) = (in_dim.to_string(), d.feat_dim().to_string());
                assert!(msg.contains(&model) && msg.contains(&data), "{msg}");
            }
            other => panic!("expected InvalidArgument, got {other:?}"),
        }
        assert_eq!(s.pending(), 0);
    }
}

#[test]
fn a_block_batch_of_the_wrong_depth_fails_its_request() {
    // A three-block sampler under a two-layer model: the request is
    // admitted, and fails inside its batch; the session serves on.
    let d = tiny();
    let deep: Arc<dyn Sampler> = Arc::new(NeighborSampler::new(vec![6, 3, 2]));
    let mut s = ServeSpec::builder(Arc::clone(&d), deep, model(&d))
        .deadline_us(0)
        .start();
    for _ in 0..2 {
        match s.submit(vec![1, 2], None).unwrap().completed.as_slice() {
            [Err(Error::InvalidArgument(msg))] => {
                assert!(msg.contains("3 blocks") && msg.contains("2-layer"), "{msg}")
            }
            other => panic!("expected one InvalidArgument, got {other:?}"),
        }
    }
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
            .seed(11)
            .clock(Arc::clone(&bare_clock) as Arc<dyn argo_serve::Clock>)
            .start();
        let plain = bare.submit(seeds, None).unwrap();
        let uncached = plain.completed[0].as_ref().unwrap().clone();

        prop_assert_eq!(hit.logits.data(), uncached.logits.data());
        prop_assert_eq!(miss.logits.data(), uncached.logits.data());
    }
}
