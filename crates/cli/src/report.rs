//! Rendering of telemetry into the `argo report` text output.
//!
//! Works from two sources that can be combined:
//! * a live [`Telemetry`] handle right after a run (stage-histogram
//!   quantiles, the Figure-2 overlap of its timeline), and/or
//! * the structured events themselves — which is all a JSONL file written
//!   with `--metrics-out` contains, so `argo report --metrics run.jsonl`
//!   renders the same sections offline.

use std::collections::BTreeMap;

use argo_rt::{
    BytesRecord, Config, RunEvent, ServeBatchRecord, ServeRequestRecord, Source, SpanKind, Stage,
    StageSummaryRecord, Telemetry, TrialRecord,
};

/// p50/p95/max of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentiles {
    pub p50: f64,
    pub p95: f64,
    pub max: f64,
}

/// Exact percentiles of raw samples (nearest-rank). Returns `None` for an
/// empty set.
pub fn percentiles(samples: &[f64]) -> Option<Percentiles> {
    if samples.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = |q: f64| {
        let idx = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
        v[idx]
    };
    let max = *v.last()?;
    Some(Percentiles {
        p50: rank(0.50),
        p95: rank(0.95),
        max,
    })
}

/// Nearest-rank quantile of raw samples (0 for an empty set) — for the
/// quantiles [`Percentiles`] doesn't carry, like serving's p99.
fn nearest_rank(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

fn fmt_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else {
        format!("{:.1}µs", s * 1e6)
    }
}

/// Saturation note for a fixed-bucket histogram: observations past the last
/// finite bound land in the +Inf bucket, where quantiles clip.
fn overflow_note(h: &argo_rt::metrics::Histogram) -> String {
    let o = h.overflow_count();
    if o > 0 {
        format!(" overflow={o}")
    } else {
        String::new()
    }
}

/// The event stream sorted by kind, one bucket per report section.
#[derive(Default)]
struct Sorted<'a> {
    first_config: Option<Config>,
    /// `(epoch_time, source)` per finished epoch.
    epochs: Vec<(f64, Source)>,
    stages: Vec<&'a StageSummaryRecord>,
    /// Per-stage critical-path fractions, one slice per epoch, and the
    /// profiler coverage `(spans recorded, spans dropped)` summed over them.
    critical_paths: Vec<&'a [(String, f64)]>,
    span_coverage: (u64, u64),
    bytes: Vec<(u64, BytesRecord)>,
    requests: Vec<&'a ServeRequestRecord>,
    batches: Vec<&'a ServeBatchRecord>,
    trials: Vec<&'a TrialRecord>,
    /// `(epoch, config, predicted, measured)` per audited search epoch.
    audits: Vec<(u64, Config, &'a str, &'a str)>,
    applied: Vec<(Config, &'a str)>,
}

impl<'a> Sorted<'a> {
    /// The match has no wildcard arm on purpose: a new [`RunEvent`] kind
    /// does not compile until it is given a bucket here — and so a section
    /// below — which is what keeps the report from silently dropping it.
    fn new(events: &'a [(RunEvent, f64, Source)]) -> Self {
        let mut s = Sorted::default();
        for (event, _, source) in events {
            match event {
                RunEvent::EpochStart { config, .. } => {
                    s.first_config.get_or_insert(*config);
                }
                RunEvent::EpochEnd { record, .. } => s.epochs.push((record.epoch_time, *source)),
                RunEvent::StageSummary { summary, .. } => s.stages.push(summary),
                RunEvent::TunerTrial(trial) => s.trials.push(trial),
                RunEvent::ConfigApplied { config, reason } => s.applied.push((*config, reason)),
                RunEvent::CriticalPath {
                    fractions,
                    spans,
                    dropped,
                    ..
                } => {
                    s.critical_paths.push(fractions);
                    s.span_coverage.0 += spans;
                    s.span_coverage.1 += dropped;
                }
                RunEvent::BytesSummary { epoch, record } => s.bytes.push((*epoch, *record)),
                RunEvent::BottleneckCheck {
                    epoch,
                    config,
                    predicted,
                    measured,
                } => s.audits.push((*epoch, *config, predicted, measured)),
                RunEvent::ServeRequest { record } => s.requests.push(record),
                RunEvent::ServeBatch { record } => s.batches.push(record),
            }
        }
        s
    }
}

/// Renders the report from parsed events plus (optionally) the live
/// telemetry handle the run used. With a live handle, per-stage quantiles
/// come from the per-iteration histograms and the overlap fraction from its
/// timeline; from events alone, quantiles are over per-epoch stage totals.
pub fn render_report(events: &[(RunEvent, f64, Source)], live: Option<&Telemetry>) -> String {
    let mut out = String::new();

    let Sorted {
        first_config,
        epochs,
        stages,
        critical_paths,
        span_coverage: (spans, dropped),
        bytes,
        requests,
        batches,
        trials,
        audits,
        applied,
    } = Sorted::new(events);

    // ---- Run summary --------------------------------------------------
    let epoch_times: Vec<f64> = epochs.iter().map(|(t, _)| *t).collect();
    let measured = epochs
        .iter()
        .filter(|(_, s)| *s == Source::Measured)
        .count();
    out.push_str(&format!(
        "epochs: {} ({} measured, {} modeled), total epoch time {:.3}s\n",
        epochs.len(),
        measured,
        epochs.len() - measured,
        epoch_times.iter().sum::<f64>()
    ));
    if let Some(c) = first_config {
        out.push_str(&format!("initial config: {c}\n"));
    }
    if let Some(p) = percentiles(&epoch_times) {
        out.push_str(&format!(
            "epoch time: p50 {} p95 {} max {}\n",
            fmt_seconds(p.p50),
            fmt_seconds(p.p95),
            fmt_seconds(p.max)
        ));
    }

    // ---- Per-stage section -------------------------------------------
    // From events: per-epoch stage totals; from a live handle: the
    // per-iteration histograms (finer-grained).
    let mut by_stage: BTreeMap<&str, (Vec<f64>, u64)> = BTreeMap::new();
    for summary in &stages {
        let entry = by_stage.entry(summary.stage.as_str()).or_default();
        entry.0.push(summary.seconds);
        entry.1 += summary.count;
    }
    let live_hists: BTreeMap<String, std::sync::Arc<argo_rt::metrics::Histogram>> = live
        .map(|t| t.metrics.histograms().into_iter().collect())
        .unwrap_or_default();
    if !by_stage.is_empty() || !live_hists.is_empty() {
        out.push_str("\nper-stage timings");
        out.push_str(if live.is_some() {
            " (per iteration, histogram quantiles):\n"
        } else {
            " (per epoch, from stage summaries):\n"
        });
        for stage in Stage::ALL {
            let hist_name = Telemetry::stage_histogram_name(stage);
            let stage = stage.label();
            if let Some(h) = live_hists.get(&hist_name) {
                if h.count() == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "  {stage:<8} p50 {:>10} p95 {:>10} max {:>10} total {:>10} n={}{}\n",
                    fmt_seconds(h.quantile(0.50)),
                    fmt_seconds(h.quantile(0.95)),
                    fmt_seconds(h.max()),
                    fmt_seconds(h.sum()),
                    h.count(),
                    overflow_note(h)
                ));
            } else if let Some((samples, count)) = by_stage.get(stage) {
                if let Some(p) = percentiles(samples) {
                    out.push_str(&format!(
                        "  {stage:<8} p50 {:>10} p95 {:>10} max {:>10} total {:>10} n={}\n",
                        fmt_seconds(p.p50),
                        fmt_seconds(p.p95),
                        fmt_seconds(p.max),
                        fmt_seconds(samples.iter().sum::<f64>()),
                        count
                    ));
                }
            }
        }
    }

    // ---- Overlap fraction (Figure 2) ---------------------------------
    // Over the live timeline, up to the end of its last interval.
    if let Some(t) = live {
        let timeline = t.trace.events();
        if !timeline.is_empty() {
            let horizon = timeline.iter().map(|e| e.end).fold(0.0, f64::max);
            out.push_str(&format!(
                "\ngather/compute overlap fraction: {:.3}\n",
                t.trace.overlap_fraction(horizon)
            ));
        }
    }

    // ---- Critical path (span profiler attribution) --------------------
    // Per-epoch fractions of wall time each stage — or wait on the channel
    // or reorder heap — was the binding constraint, averaged over epochs.
    if !critical_paths.is_empty() {
        out.push_str("\ncritical path (fraction of epoch each stage or wait was binding):\n");
        let mut avg: BTreeMap<&str, f64> = BTreeMap::new();
        for fractions in &critical_paths {
            for (stage, f) in fractions.iter() {
                *avg.entry(stage.as_str()).or_default() += f;
            }
        }
        let n = critical_paths.len() as f64;
        for stage in argo_rt::CRITICAL_PATH_STAGES {
            if let Some(v) = avg.get(stage).filter(|v| **v > 0.0) {
                out.push_str(&format!("  {stage:<12} {:>5.1}%\n", v / n * 100.0));
            }
        }
        out.push_str(&format!(
            "  ({spans} spans, {dropped} dropped; {} = enqueue backpressure, \
             {} = reorder stall, other = unattributed)\n",
            SpanKind::EnqueueWait.label(),
            SpanKind::DequeueWait.label(),
        ));
    }

    // ---- Bytes/batch (loader data movement). Metadata is the
    // measured arena-CSR footprint per batch (ids + degrees + indptr +
    // indices + values), reported by the loader workers. -----------------
    if !bytes.is_empty() {
        out.push_str("\nbytes/batch:\n");
        for (epoch, r) in &bytes {
            out.push_str(&format!(
                "  epoch {epoch:>3} {:>8.1} KB metadata/batch, {} scratch allocs ({} batches)\n",
                r.metadata_bytes_per_batch() / 1e3,
                r.scratch_allocs,
                r.batches,
            ));
        }
    }

    // ---- Serving (only present for `argo-serve` sessions) --------------
    if !requests.is_empty() || !batches.is_empty() {
        let latencies: Vec<f64> = requests.iter().map(|r| r.latency_seconds).collect();
        let queues: Vec<f64> = requests.iter().map(|r| r.queue_seconds).collect();
        let hits = requests.iter().filter(|r| r.cache_hit).count();
        out.push_str(&format!(
            "\nserving ({} requests, {} micro-batches):\n",
            requests.len(),
            batches.len()
        ));
        if let Some(p) = percentiles(&latencies) {
            out.push_str(&format!(
                "  latency   p50 {:>10} p95 {:>10} p99 {:>10} max {:>10}\n",
                fmt_seconds(p.p50),
                fmt_seconds(p.p95),
                fmt_seconds(nearest_rank(&latencies, 0.99)),
                fmt_seconds(p.max),
            ));
        }
        if let Some(p) = percentiles(&queues) {
            out.push_str(&format!(
                "  queue     p50 {:>10} p95 {:>10} max {:>10}  ({} spans)\n",
                fmt_seconds(p.p50),
                fmt_seconds(p.p95),
                fmt_seconds(p.max),
                SpanKind::ServeQueue.label(),
            ));
        }
        // (A batch whose requests were all shed logs no request events.)
        if !requests.is_empty() {
            out.push_str(&format!(
                "  result cache: {hits} hits / {} requests ({:.1}%)\n",
                requests.len(),
                hits as f64 / requests.len() as f64 * 100.0
            ));
        }
        if !batches.is_empty() {
            let exec: Vec<f64> = batches.iter().map(|b| b.exec_seconds).collect();
            let total_reqs: u64 = batches.iter().map(|b| b.requests).sum();
            // One count per `FlushReason` label; a hit is a one-request batch
            // answered at admission.
            let flushes: Vec<String> = ["full", "deadline", "drain", "hit"]
                .iter()
                .map(|&label| {
                    let n = batches.iter().filter(|b| b.flush == label).count();
                    format!("{n} {label}")
                })
                .collect();
            out.push_str(&format!(
                "  batches: mean size {:.1}, flushes {}\n",
                total_reqs as f64 / batches.len() as f64,
                flushes.join(" / "),
            ));
            if let Some(p) = percentiles(&exec) {
                out.push_str(&format!(
                    "  exec      p50 {:>10} p95 {:>10} max {:>10}  ({} spans)\n",
                    fmt_seconds(p.p50),
                    fmt_seconds(p.p95),
                    fmt_seconds(p.max),
                    SpanKind::ServeExec.label(),
                ));
            }
        }
    }

    // ---- Tuner convergence -------------------------------------------
    if let Some(last) = trials.last() {
        out.push_str("\ntuner convergence (incumbent best per trial):\n");
        for t in &trials {
            let marker = if (t.epoch_time - t.best_epoch_time).abs() < 1e-12 {
                " *"
            } else {
                ""
            };
            out.push_str(&format!(
                "  trial {:>3} {:<22} {:>9} best {:>9}{marker}\n",
                t.trial,
                t.config.to_string(),
                fmt_seconds(t.epoch_time),
                fmt_seconds(t.best_epoch_time),
            ));
        }
        out.push_str(&format!(
            "  selected {} at {} after {} trials (tuner cpu: suggest {}, observe {})\n",
            last.best_config,
            fmt_seconds(last.best_epoch_time),
            trials.len(),
            fmt_seconds(trials.iter().map(|t| t.suggest_seconds).sum::<f64>()),
            fmt_seconds(trials.iter().map(|t| t.observe_seconds).sum::<f64>()),
        ));
    }

    // ---- Bottleneck audit ---------------------------------------------
    // Each search epoch of an audited run: the perf model's predicted
    // bottleneck vs what the span profiler actually measured as binding.
    if !audits.is_empty() {
        out.push_str("\nbottleneck audit (perf model vs measured critical path):\n");
        let mut agree = 0usize;
        for (epoch, config, predicted, measured) in &audits {
            let verdict = if predicted == measured {
                agree += 1;
                "agree"
            } else {
                "DISAGREE"
            };
            out.push_str(&format!(
                "  epoch {epoch:>3} {:<22} predicted {predicted:<8} measured {measured:<12} {verdict}\n",
                config.to_string(),
            ));
        }
        out.push_str(&format!("  {agree}/{} agreements\n", audits.len()));
    }

    // ---- Config applications -----------------------------------------
    // Every `ConfigApplied` event: which configuration the runtime switched
    // to and why (search trial, final selection, …).
    if !applied.is_empty() {
        out.push_str("\nconfig applications:\n");
        for (config, reason) in &applied {
            out.push_str(&format!("  {reason:<10} {config}\n"));
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo_rt::{EpochRecord, RunLogger};

    fn evs() -> Vec<(RunEvent, f64, Source)> {
        let c = Config::new(2, 1, 2);
        let mk = |e: RunEvent| (e, 0.0, Source::Measured);
        vec![
            mk(RunEvent::EpochStart {
                epoch: 0,
                config: c,
            }),
            mk(RunEvent::StageSummary {
                epoch: 0,
                summary: StageSummaryRecord {
                    stage: "gather".into(),
                    seconds: 0.2,
                    count: 10,
                },
            }),
            mk(RunEvent::StageSummary {
                epoch: 0,
                summary: StageSummaryRecord {
                    stage: "compute".into(),
                    seconds: 0.6,
                    count: 10,
                },
            }),
            mk(RunEvent::EpochEnd {
                epoch: 0,
                config: c,
                record: EpochRecord {
                    epoch_time: 1.0,
                    loss: 0.5,
                    train_accuracy: 0.7,
                    iterations: 5,
                    minibatches: 10,
                    edges: 100,
                    sync_time: 0.1,
                },
            }),
            mk(RunEvent::TunerTrial(TrialRecord {
                trial: 0,
                config: c,
                epoch_time: 1.0,
                best_config: c,
                best_epoch_time: 1.0,
                suggest_seconds: 1e-4,
                observe_seconds: 1e-4,
            })),
            mk(RunEvent::TunerTrial(TrialRecord {
                trial: 1,
                config: Config::new(4, 1, 1),
                epoch_time: 0.8,
                best_config: Config::new(4, 1, 1),
                best_epoch_time: 0.8,
                suggest_seconds: 1e-4,
                observe_seconds: 1e-4,
            })),
        ]
    }

    #[test]
    fn percentiles_nearest_rank() {
        let p = percentiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
        assert_eq!(p.p50, 5.0);
        assert_eq!(p.p95, 10.0);
        assert_eq!(p.max, 10.0);
        assert!(percentiles(&[]).is_none());
        let single = percentiles(&[3.5]).unwrap();
        assert_eq!((single.p50, single.p95, single.max), (3.5, 3.5, 3.5));
    }

    #[test]
    fn report_renders_all_sections_from_events() {
        let text = render_report(&evs(), None);
        assert!(text.contains("epochs: 1 (1 measured, 0 modeled)"));
        assert!(text.contains("per-stage timings"));
        assert!(text.contains("gather"));
        assert!(text.contains("p50"));
        assert!(text.contains("tuner convergence"));
        assert!(text.contains("trial   1"));
        assert!(text.contains("selected (proc=4, samp=1, train=1)"));
    }

    #[test]
    fn report_roundtrips_through_jsonl() {
        // Encoding to JSONL and parsing back renders identically.
        let logger = &Telemetry::new().logger;
        for (e, _, _) in evs() {
            logger.log(e);
        }
        let parsed = RunLogger::parse_jsonl(&logger.to_jsonl()).unwrap();
        let a = render_report(&parsed, None);
        let b = render_report(&evs(), None);
        // Timestamps differ but are not rendered, so texts match.
        assert_eq!(a, b);
    }

    #[test]
    fn report_empty_events_is_benign() {
        let text = render_report(&[], None);
        assert!(text.contains("epochs: 0"));
        assert!(!text.contains("tuner convergence"));
    }

    /// One value of every [`RunEvent`] kind. `slot` has no wildcard arm, so
    /// a new kind fails to compile here until the table below covers it.
    fn one_of_each_kind() -> Vec<RunEvent> {
        fn slot(e: &RunEvent) -> usize {
            match e {
                RunEvent::EpochStart { .. } => 0,
                RunEvent::EpochEnd { .. } => 1,
                RunEvent::StageSummary { .. } => 2,
                RunEvent::TunerTrial(_) => 3,
                RunEvent::ConfigApplied { .. } => 4,
                RunEvent::CriticalPath { .. } => 5,
                RunEvent::BytesSummary { .. } => 6,
                RunEvent::BottleneckCheck { .. } => 7,
                RunEvent::ServeRequest { .. } => 8,
                RunEvent::ServeBatch { .. } => 9,
            }
        }
        let c = Config::new(2, 1, 2);
        // epoch_start, a stage summary, epoch_end and a trial from `evs`.
        let base = evs();
        let mut table = [0, 1, 3, 4].map(|i| base[i].0.clone()).to_vec();
        table.extend([
            RunEvent::ConfigApplied {
                config: c,
                reason: "search".into(),
            },
            RunEvent::CriticalPath {
                epoch: 0,
                fractions: vec![("compute".into(), 0.75), ("heap_wait".into(), 0.25)],
                spans: 12,
                dropped: 0,
            },
            RunEvent::BytesSummary {
                epoch: 0,
                record: BytesRecord {
                    batches: 2,
                    metadata_bytes: 4096,
                    scratch_allocs: 1,
                },
            },
            RunEvent::BottleneckCheck {
                epoch: 0,
                config: c,
                predicted: "gather".into(),
                measured: "compute".into(),
            },
            RunEvent::ServeRequest {
                record: ServeRequestRecord {
                    request: 7,
                    batch: 1,
                    seeds: 3,
                    queue_seconds: 0.001,
                    latency_seconds: 0.004,
                    cache_hit: false,
                },
            },
            RunEvent::ServeBatch {
                record: ServeBatchRecord {
                    batch: 1,
                    requests: 1,
                    flush: "deadline".into(),
                    exec_seconds: 0.003,
                },
            },
        ]);
        let mut slots: Vec<usize> = table.iter().map(slot).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..=9).collect::<Vec<_>>(), "one value per kind");
        table
    }

    #[test]
    fn every_event_kind_round_trips_and_renders() {
        let empty = render_report(&[], None);
        for event in one_of_each_kind() {
            let kind = event.kind();
            let json = event.to_json(1.5, Source::Modeled);
            let parsed = argo_rt::Json::parse(&json.encode()).expect("valid JSON");
            let (back, ts, source) = RunEvent::from_json(&parsed).expect(kind);
            assert_eq!(
                (&back, ts, source),
                (&event, 1.5, Source::Modeled),
                "{kind}"
            );
            // On its own, the event changes what the report says.
            let alone = render_report(&[(event, 0.0, Source::Measured)], None);
            assert!(alone.len() > empty.len(), "{kind} renders nothing: {alone}");
        }
    }

    #[test]
    fn report_renders_critical_path_and_bytes_sections() {
        use argo_rt::BytesRecord;
        let without = render_report(&evs(), None);
        assert!(!without.contains("critical path"));
        assert!(!without.contains("bytes/batch"));
        let mut events = evs();
        events.push((
            RunEvent::CriticalPath {
                epoch: 0,
                fractions: vec![
                    ("compute".to_string(), 0.6),
                    ("gather".to_string(), 0.25),
                    ("channel_wait".to_string(), 0.15),
                ],
                spans: 1234,
                dropped: 0,
            },
            0.0,
            Source::Measured,
        ));
        events.push((
            RunEvent::BytesSummary {
                epoch: 0,
                record: BytesRecord {
                    batches: 10,
                    metadata_bytes: 50_000,
                    scratch_allocs: 4,
                },
            },
            0.0,
            Source::Measured,
        ));
        let with = render_report(&events, None);
        assert!(with.contains("critical path"), "{with}");
        assert!(with.contains("compute       60.0%"), "{with}");
        assert!(with.contains("channel_wait  15.0%"), "{with}");
        assert!(with.contains("1234 spans, 0 dropped"), "{with}");
        assert!(with.contains("bytes/batch:"), "{with}");
        assert!(with.contains("5.0 KB metadata/batch"), "{with}");
        assert!(with.contains("4 scratch allocs (10 batches)"), "{with}");
    }

    #[test]
    fn report_renders_bottleneck_audit() {
        let mut events = evs();
        let c = Config::new(2, 1, 2);
        events.push((
            RunEvent::BottleneckCheck {
                epoch: 0,
                config: c,
                predicted: "gather".to_string(),
                measured: "gather".to_string(),
            },
            0.0,
            Source::Measured,
        ));
        events.push((
            RunEvent::BottleneckCheck {
                epoch: 1,
                config: c,
                predicted: "compute".to_string(),
                measured: "heap_wait".to_string(),
            },
            0.0,
            Source::Measured,
        ));
        let text = render_report(&events, None);
        assert!(text.contains("bottleneck audit"), "{text}");
        assert!(text.contains("agree"), "{text}");
        assert!(text.contains("DISAGREE"), "{text}");
        assert!(text.contains("1/2 agreements"), "{text}");
    }

    #[test]
    fn report_renders_serving_section_only_when_present() {
        use argo_rt::{ServeBatchRecord, ServeRequestRecord};
        let without = render_report(&evs(), None);
        assert!(!without.contains("serving ("));
        let mut events = evs();
        for i in 0..4u64 {
            events.push((
                RunEvent::ServeRequest {
                    record: ServeRequestRecord {
                        request: i,
                        batch: i.saturating_sub(1),
                        seeds: 1,
                        queue_seconds: 0.001 * (i + 1) as f64,
                        latency_seconds: 0.002 * (i + 1) as f64,
                        cache_hit: i >= 2,
                    },
                },
                0.0,
                Source::Measured,
            ));
        }
        // Requests 0-1 flush full, 2 at its deadline, 3 is a hit.
        for (b, requests, flush) in [(0u64, 2u64, "full"), (1, 1, "deadline"), (2, 1, "hit")] {
            events.push((
                RunEvent::ServeBatch {
                    record: ServeBatchRecord {
                        batch: b,
                        requests,
                        flush: flush.to_string(),
                        exec_seconds: 0.0005,
                    },
                },
                0.0,
                Source::Measured,
            ));
        }
        let with = render_report(&events, None);
        assert!(
            with.contains("serving (4 requests, 3 micro-batches):"),
            "{with}"
        );
        assert!(with.contains("p99"), "{with}");
        assert!(
            with.contains("result cache: 2 hits / 4 requests (50.0%)"),
            "{with}"
        );
        assert!(with.contains("mean size 1.3"), "{with}");
        assert!(
            with.contains("flushes 1 full / 1 deadline / 0 drain / 1 hit"),
            "{with}"
        );
        assert!(with.contains("serve_queue"), "{with}");
        assert!(with.contains("serve_exec"), "{with}");
        // p99 of 4 samples (nearest rank) is the max: 8ms.
        assert!(with.contains("p99    8.000ms"), "{with}");
    }

    #[test]
    fn histogram_overflow_is_rendered() {
        let tel = Telemetry::new();
        let h = tel.metrics.stage_histogram(Stage::Compute);
        h.observe(0.5);
        h.observe(1e9); // past the last finite bound → +Inf bucket
        let text = render_report(&[], Some(&tel));
        assert!(text.contains("overflow=1"), "{text}");
    }
}
