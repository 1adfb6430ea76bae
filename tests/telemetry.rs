//! End-to-end tests of the telemetry layer: a real auto-tuned training run
//! (and a modeled one) through the full stack — engine + tuner + sinks —
//! producing parseable JSONL with `epoch_end` and `tuner_trial` events,
//! valid Chrome-trace JSON, and a report with per-stage quantiles and the
//! incumbent-best trajectory.

use std::sync::Arc;

use argo::core::{Argo, ArgoOptions};
use argo::engine::{Engine, EngineOptions};
use argo::graph::datasets::{FLICKR, OGBN_PRODUCTS};
use argo::platform::{Library, ModelKind, PerfModel, SamplerKind, Setup, ICE_LAKE_8380H};
use argo::rt::{Json, RunEvent, RunLogger, Source, Telemetry};
use argo::sample::NeighborSampler;

fn tiny_engine(seed: u64) -> Engine {
    let dataset = Arc::new(FLICKR.synthesize(0.008, seed));
    let sampler: Arc<dyn argo::sample::Sampler> = Arc::new(NeighborSampler::new(vec![6, 3]));
    Engine::new(
        dataset,
        sampler,
        EngineOptions {
            hidden: 8,
            num_layers: 2,
            global_batch: 64,
            total_cores: 16,
            seed,
            ..Default::default()
        },
    )
}

#[test]
fn measured_run_produces_full_telemetry() {
    let mut engine = tiny_engine(11);
    let mut argo = Argo::new(ArgoOptions {
        n_search: 3,
        epochs: 5,
        total_cores: 16,
        seed: 11,
    });
    let tel = Telemetry::new();
    let report = argo.train(&mut engine, Some(&tel), |_, _, _| {});

    // --- JSONL: parseable, with epoch_end and tuner_trial events --------
    let jsonl = tel.logger.to_jsonl();
    let parsed = RunLogger::parse_jsonl(&jsonl).expect("JSONL must parse");
    assert!(!parsed.is_empty());
    assert!(parsed.iter().all(|(_, _, s)| *s == Source::Measured));
    let epoch_ends: Vec<_> = parsed
        .iter()
        .filter_map(|(e, _, _)| match e {
            RunEvent::EpochEnd { epoch, record, .. } => Some((*epoch, *record)),
            _ => None,
        })
        .collect();
    assert_eq!(epoch_ends.len(), 5, "one epoch_end per epoch");
    assert_eq!(epoch_ends.last().unwrap().0, 4);
    let trials: Vec<_> = parsed
        .iter()
        .filter_map(|(e, _, _)| match e {
            RunEvent::TunerTrial(t) => Some(*t),
            _ => None,
        })
        .collect();
    assert_eq!(trials.len(), 3, "one tuner_trial per search epoch");
    // Incumbent best matches the report and is non-increasing.
    assert!(trials
        .windows(2)
        .all(|w| w[1].best_epoch_time <= w[0].best_epoch_time));
    assert_eq!(trials.last().unwrap().best_config, report.config_opt);
    // Suggest/observe CPU time is captured.
    assert!(trials
        .iter()
        .all(|t| t.suggest_seconds >= 0.0 && t.observe_seconds >= 0.0));

    // --- Chrome trace: valid JSON array of complete events --------------
    let chrome = tel.trace.to_chrome_json();
    let v = Json::parse(&chrome).expect("chrome trace must be valid JSON");
    let arr = v.as_arr().expect("top-level array");
    assert!(!arr.is_empty());
    for e in arr {
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert!(e.get("ts").and_then(Json::as_f64).is_some());
        assert!(e.get("dur").and_then(Json::as_f64).unwrap() >= 0.0);
    }
    // One track per training process: every searched config has at least
    // two, and no track is numbered past the widest one.
    let tids: std::collections::BTreeSet<u64> = arr
        .iter()
        .map(|e| e.get("tid").and_then(Json::as_u64).expect("tid"))
        .collect();
    let widest = report.history.iter().map(|(c, _)| c.n_proc).max().unwrap();
    assert_eq!(tids, (0..widest as u64).collect());

    // --- Stage histograms agree with the structured events ---------------
    // Every batch of every epoch is one compute observation.
    let hists: std::collections::BTreeMap<_, _> = tel.metrics.histograms().into_iter().collect();
    let minibatches: u64 = epoch_ends.iter().map(|(_, r)| r.minibatches).sum();
    assert_eq!(hists["stage_seconds/compute"].count(), minibatches);

    // EpochStats::sync_time (rank 0) reconciles with the sync histogram,
    // which covers every rank: per-epoch sync_time sums to at most the
    // histogram total, and both are positive.
    let sync = &hists["stage_seconds/sync"];
    let stats_sync: f64 = epoch_ends.iter().map(|(_, r)| r.sync_time).sum();
    assert!(stats_sync > 0.0);
    assert!(
        sync.sum() >= stats_sync * 0.95,
        "{} < {}",
        sync.sum(),
        stats_sync
    );

    // --- Report renders per-stage quantiles and the convergence trace ----
    let text = argo_cli::report::render_report(&parsed, Some(&tel));
    assert!(text.contains("per-stage timings"));
    assert!(text.contains("p50") && text.contains("p95"));
    assert!(text.contains("compute"));
    assert!(text.contains("tuner convergence"));
    assert!(text.contains("selected "));
}

#[test]
fn a_real_run_registers_only_stage_histograms_and_reports_the_same_offline() {
    // Every fact is one event field; the registry holds only the four stage
    // histograms. So after a cached, audited, auto-tuned run and a serving
    // session, the report of the JSONL alone has every section the live
    // report has — except the overlap line, which needs the live timeline.
    use argo::rt::Stage;
    use argo_serve::ServeSpec;
    let dataset = Arc::new(FLICKR.synthesize(0.008, 13));
    let sampler: Arc<dyn argo::sample::Sampler> = Arc::new(NeighborSampler::new(vec![6, 3]));
    let mut engine = Engine::new(
        dataset,
        sampler,
        EngineOptions {
            hidden: 8,
            num_layers: 2,
            global_batch: 64,
            total_cores: 16,
            seed: 13,
            cache_capacity: 256,
            ..Default::default()
        },
    );
    let model = PerfModel::new(Setup {
        platform: ICE_LAKE_8380H,
        library: Library::Dgl,
        sampler: SamplerKind::Neighbor,
        model: ModelKind::Sage,
        dataset: FLICKR,
    });
    let mut argo = Argo::new(ArgoOptions {
        n_search: 2,
        epochs: 3,
        total_cores: 16,
        seed: 13,
    });
    let tel = Telemetry::new();
    argo.train_audited(&mut engine, &model, Some(&tel), |_, _, _| {});
    let mut session = ServeSpec::from_engine(&engine)
        .result_cache_entries(8)
        .deadline_us(0)
        .start();
    for seeds in [vec![1, 2], vec![1, 2], vec![3]] {
        session.submit(seeds, Some(&tel)).expect("admitted");
    }
    session.drain(Some(&tel));

    let mut registered: Vec<String> = tel
        .metrics
        .histograms()
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let mut stages: Vec<String> = Stage::ALL
        .map(Telemetry::stage_histogram_name)
        .into_iter()
        .collect();
    registered.sort();
    stages.sort();
    assert_eq!(registered, stages);

    let live_events: Vec<_> = tel
        .logger
        .events()
        .into_iter()
        .map(|(ts, e)| (e, ts, Source::Measured))
        .collect();
    let live = argo_cli::report::render_report(&live_events, Some(&tel));
    let parsed = RunLogger::parse_jsonl(&tel.logger.to_jsonl()).unwrap();
    let offline = argo_cli::report::render_report(&parsed, None);
    // A heading is an unindented line, named up to its first ':' or " (".
    let headings = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| !l.is_empty() && !l.starts_with(' '))
            .map(|l| {
                let end = [l.find(':'), l.find(" (")]
                    .into_iter()
                    .flatten()
                    .min()
                    .unwrap_or(l.len());
                l[..end].to_string()
            })
            .collect()
    };
    let overlap = "gather/compute overlap fraction";
    let live_headings = headings(&live);
    assert!(live_headings.iter().any(|h| h == overlap), "{live}");
    // The run exercised every producer.
    for section in [
        "per-stage timings",
        "critical path",
        "bytes/batch",
        "feature cache",
        "serving",
        "tuner convergence",
        "bottleneck audit",
        "config applications",
    ] {
        assert!(
            live_headings.iter().any(|h| h == section),
            "no {section} in:\n{live}"
        );
    }
    let without_overlap: Vec<String> = live_headings.into_iter().filter(|h| h != overlap).collect();
    assert_eq!(
        headings(&offline),
        without_overlap,
        "offline:\n{offline}\nlive:\n{live}"
    );
}

#[test]
fn modeled_run_shares_schema_with_measured() {
    let model = PerfModel::new(Setup {
        platform: ICE_LAKE_8380H,
        library: Library::Dgl,
        sampler: SamplerKind::Neighbor,
        model: ModelKind::Sage,
        dataset: OGBN_PRODUCTS,
    });
    let tel = Telemetry::with_source(Source::Modeled);
    let mut argo = Argo::new(ArgoOptions {
        n_search: 4,
        epochs: 8,
        total_cores: 112,
        seed: 2,
    });
    argo.run_modeled(&model, Some(&tel));
    let parsed = RunLogger::parse_jsonl(&tel.logger.to_jsonl()).unwrap();
    assert!(parsed.iter().all(|(_, _, s)| *s == Source::Modeled));
    // Exactly the same event kinds a measured run emits.
    let mut kinds: Vec<&str> = parsed.iter().map(|(e, _, _)| e.kind()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(
        kinds,
        vec![
            "config_applied",
            "epoch_end",
            "epoch_start",
            "stage_summary",
            "tuner_trial"
        ]
    );
    // The offline report renders from the file alone.
    let text = argo_cli::report::render_report(&parsed, None);
    assert!(text.contains("8 modeled"));
    assert!(text.contains("tuner convergence"));
}

#[test]
fn cli_flow_writes_and_reads_back_files() {
    // The CLI flow without spawning a process: run → write JSONL → parse →
    // render, exactly what `argo train --metrics-out F` + `argo report
    // --metrics F` do.
    let mut engine = tiny_engine(5);
    let mut argo = Argo::new(ArgoOptions {
        n_search: 2,
        epochs: 3,
        total_cores: 16,
        seed: 5,
    });
    let tel = Telemetry::new();
    argo.train(&mut engine, Some(&tel), |_, _, _| {});

    let dir = std::env::temp_dir();
    let path = dir.join(format!("argo-telemetry-test-{}.jsonl", std::process::id()));
    std::fs::write(&path, tel.logger.to_jsonl()).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let parsed = RunLogger::parse_jsonl(&text).unwrap();
    assert!(parsed.iter().any(|(e, _, _)| e.kind() == "epoch_end"));
    assert!(parsed.iter().any(|(e, _, _)| e.kind() == "tuner_trial"));
    let report = argo_cli::report::render_report(&parsed, None);
    assert!(report.contains("epochs: 3"));
}

#[test]
fn new_event_kinds_round_trip_through_jsonl() {
    // Hand-rolled property test: many pseudo-random instances of the
    // profiler event kinds (critical_path, bytes_summary, bottleneck_check)
    // must survive encode → parse bit-exactly.
    use argo::rt::{BytesRecord, Config};
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 16
    };
    let stages = ["compute", "gather", "sample", "channel_wait", "heap_wait"];
    let tel = Telemetry::new();
    let mut originals = Vec::new();
    for i in 0..64u64 {
        let mut fractions = Vec::new();
        for s in stages.iter().take(1 + (next() % 5) as usize) {
            fractions.push((s.to_string(), (next() % 4096) as f64 / 4096.0));
        }
        let config = Config::new(
            1 + (next() % 8) as usize,
            1 + (next() % 4) as usize,
            1 + (next() % 4) as usize,
        );
        let events = [
            RunEvent::CriticalPath {
                epoch: i,
                fractions,
                spans: next() % (1 << 48),
                dropped: next() % 17,
            },
            RunEvent::BytesSummary {
                epoch: i,
                record: BytesRecord {
                    batches: next() % 1024,
                    metadata_bytes: next() % (1 << 48),
                    cache_bytes: next() % (1 << 48),
                    scratch_allocs: next() % 64,
                },
            },
            RunEvent::BottleneckCheck {
                epoch: i,
                config,
                predicted: stages[(next() % 5) as usize].to_string(),
                measured: stages[(next() % 5) as usize].to_string(),
            },
        ];
        for e in events {
            tel.logger.log(e.clone());
            originals.push(e);
        }
    }
    let parsed = RunLogger::parse_jsonl(&tel.logger.to_jsonl()).expect("JSONL must parse");
    assert_eq!(parsed.len(), originals.len());
    for ((got, _, src), want) in parsed.iter().zip(&originals) {
        assert_eq!(got, want);
        assert_eq!(*src, Source::Measured);
    }
}

#[test]
fn two_worker_pipeline_attribution_is_exact() {
    // Deterministic two-producer/one-consumer fixture over a 10 s horizon:
    //   consumer: compute [0,4], heap/channel wait [4,6], compute [6,9],
    //             sync [9,10]
    //   producer A: gather [4,6]   (active during the consumer's wait →
    //                               the wait is *caused* by gathering)
    //   producer B: pick [0,3]     (concurrent with compute — compute wins)
    // Expected attribution: compute 0.7, gather 0.2, sync 0.1.
    use argo::rt::{critical_path, Role, SpanKind, SpanRecord, CRITICAL_PATH_STAGES};
    let span = |role, kind, batch, start: f64, end: f64| SpanRecord {
        role,
        kind,
        batch,
        start,
        end,
        process: 0,
        worker: batch as usize % 2,
    };
    let records = vec![
        span(Role::Consumer, SpanKind::Compute, 0, 0.0, 4.0),
        span(Role::Consumer, SpanKind::DequeueWait, 1, 4.0, 6.0),
        span(Role::Consumer, SpanKind::Compute, 1, 6.0, 9.0),
        span(Role::Consumer, SpanKind::Sync, 1, 9.0, 10.0),
        span(Role::Producer, SpanKind::Gather, 1, 4.0, 6.0),
        span(Role::Producer, SpanKind::Pick, 2, 0.0, 3.0),
    ];
    let fractions = critical_path(&records, 0.0, 10.0);
    let sum: f64 = fractions.iter().map(|(_, f)| f).sum();
    assert!(
        (sum - 1.0).abs() < 1e-9,
        "fractions must sum to 1, got {sum}"
    );
    let get = |name: &str| {
        fractions
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, f)| *f)
            .unwrap_or(0.0)
    };
    // Binning quantizes at horizon/2048, so allow 1%.
    assert!((get("compute") - 0.7).abs() < 0.01, "{fractions:?}");
    assert!((get("gather") - 0.2).abs() < 0.01, "{fractions:?}");
    assert!((get("sync") - 0.1).abs() < 0.01, "{fractions:?}");
    assert_eq!(get("heap_wait"), 0.0, "the wait was caused by gathering");
    // The known bottleneck wins the argmax — the same reduction the
    // bottleneck audit applies to measured epochs.
    let top = fractions
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(n, _)| *n);
    assert_eq!(top, Some("compute"));
    for (name, _) in &fractions {
        assert!(CRITICAL_PATH_STAGES.contains(name), "unknown stage {name}");
    }
}

#[test]
fn measured_run_emits_critical_path_and_bytes_events() {
    let mut engine = tiny_engine(7);
    let mut argo = Argo::new(ArgoOptions {
        n_search: 2,
        epochs: 3,
        total_cores: 16,
        seed: 7,
    });
    let tel = Telemetry::new();
    argo.train(&mut engine, Some(&tel), |_, _, _| {});
    let parsed = RunLogger::parse_jsonl(&tel.logger.to_jsonl()).unwrap();

    let cps: Vec<_> = parsed
        .iter()
        .filter_map(|(e, _, _)| match e {
            RunEvent::CriticalPath {
                fractions, spans, ..
            } => Some((fractions.clone(), *spans)),
            _ => None,
        })
        .collect();
    assert_eq!(cps.len(), 3, "one critical_path per epoch");
    for (fractions, spans) in &cps {
        assert!(*spans > 0, "the loader and engine must have recorded spans");
        let sum: f64 = fractions.iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-6, "fractions sum to {sum}");
    }

    let bytes: Vec<_> = parsed
        .iter()
        .filter_map(|(e, _, _)| match e {
            RunEvent::BytesSummary { record, .. } => Some(*record),
            _ => None,
        })
        .collect();
    assert_eq!(bytes.len(), 3, "one bytes_summary per epoch");
    for r in &bytes {
        assert!(r.batches > 0);
        assert!(r.metadata_bytes_per_batch() > 0.0);
    }

    let text = argo_cli::report::render_report(&parsed, Some(&tel));
    assert!(text.contains("critical path"));
    assert!(text.contains("bytes/batch"));
    assert!(text.contains("metadata/batch"));
}

#[test]
fn audited_run_emits_bottleneck_checks_and_report_section() {
    use argo::rt::CRITICAL_PATH_STAGES;
    let model = PerfModel::new(Setup {
        platform: ICE_LAKE_8380H,
        library: Library::Dgl,
        sampler: SamplerKind::Neighbor,
        model: ModelKind::Sage,
        dataset: FLICKR,
    });
    let mut engine = tiny_engine(3);
    let mut argo = Argo::new(ArgoOptions {
        n_search: 2,
        epochs: 3,
        total_cores: 16,
        seed: 3,
    });
    let tel = Telemetry::new();
    argo.train_audited(&mut engine, &model, Some(&tel), |_, _, _| {});
    let parsed = RunLogger::parse_jsonl(&tel.logger.to_jsonl()).unwrap();
    let checks: Vec<_> = parsed
        .iter()
        .filter_map(|(e, _, _)| match e {
            RunEvent::BottleneckCheck {
                predicted,
                measured,
                ..
            } => Some((predicted.clone(), measured.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(checks.len(), 2, "one audit per search epoch");
    for (predicted, measured) in &checks {
        assert!(["sample", "gather", "compute", "sync"].contains(&predicted.as_str()));
        assert!(CRITICAL_PATH_STAGES.contains(&measured.as_str()));
    }
    let text = argo_cli::report::render_report(&parsed, Some(&tel));
    assert!(text.contains("bottleneck audit"));
    assert!(text.contains("agreements"));
}

#[test]
fn chrome_json_empty_and_disabled_recorders() {
    use argo::rt::{Config, TraceRecorder};
    assert_eq!(TraceRecorder::new().to_chrome_json(), "[]");
    // A disabled handle's timeline stays empty through a whole epoch.
    let disabled = Telemetry::disabled();
    tiny_engine(9).train_epoch(Config::new(2, 1, 1), Some(&disabled));
    assert_eq!(disabled.trace.to_chrome_json(), "[]");
    // Both still parse as valid (empty) JSON arrays.
    assert_eq!(
        Json::parse(&disabled.trace.to_chrome_json())
            .unwrap()
            .as_arr()
            .unwrap()
            .len(),
        0
    );
}
