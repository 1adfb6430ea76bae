//! One handle, one switch, one clock for the telemetry of a run.
//!
//! The engine, auto-tuner and platform model all report into the same trio:
//! a [`TraceRecorder`] timeline for Figure-2 interval traces, a
//! [`MetricsRegistry`] for counters/gauges/histograms, and a [`RunLogger`]
//! for structured JSONL events. [`Telemetry`] carries them together (each
//! behind an `Arc`, so a clone is cheap), is either on or off as a whole,
//! and owns the run clock the span rings tick on.
//!
//! Hot loops record **spans only** ([`crate::spans`]). Everything per-stage
//! — the `stage_seconds/<stage>` histograms, the timeline, the
//! `stage_summary` events — comes into existence in one place, once per
//! epoch: [`Telemetry::record_stages`] folds the drained spans through
//! [`SpanKind::stage`](crate::SpanKind::stage).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use crate::events::{RunEvent, RunLogger, Source, StageSummaryRecord};
use crate::metrics::MetricsRegistry;
use crate::spans::{SpanProfiler, SpanRecord};
use crate::trace::{Stage, TraceEvent, TraceRecorder};

/// Shared handle to all telemetry sinks. Cloning shares the same
/// underlying timeline, registry and logger.
#[derive(Clone)]
pub struct Telemetry {
    pub trace: Arc<TraceRecorder>,
    pub metrics: Arc<MetricsRegistry>,
    pub logger: Arc<RunLogger>,
    /// Zero of the run clock: span and timeline timestamps count from here.
    origin: Instant,
    enabled: bool,
}

impl Telemetry {
    /// Telemetry on, tagged as a measured run.
    pub fn new() -> Self {
        Self::with_source(Source::Measured)
    }

    /// Telemetry on, with events tagged `source` (use [`Source::Modeled`]
    /// for platform/DES runs so real and modeled telemetry share one
    /// schema).
    pub fn with_source(source: Source) -> Self {
        Self {
            trace: Arc::new(TraceRecorder::new()),
            metrics: Arc::new(MetricsRegistry::new()),
            logger: Arc::new(RunLogger::with_source(source)),
            origin: Instant::now(),
            enabled: true,
        }
    }

    /// Telemetry off: every sink drops what it is handed, so a caller that
    /// takes `&Telemetry` needs no `Option` — and no hot loop pays for it.
    pub fn disabled() -> Self {
        Self {
            trace: Arc::new(TraceRecorder::new()),
            metrics: Arc::new(MetricsRegistry::disabled()),
            logger: Arc::new(RunLogger::disabled()),
            origin: Instant::now(),
            enabled: false,
        }
    }

    /// The one switch. Callers of the unified entry points can use this to
    /// decide between `Some(&tel)` and `None`.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// A span profiler ticking on this run's clock (recording nothing when
    /// telemetry is off). Make one per epoch, hand its rings to the hot
    /// loops, and give what it drains to [`Telemetry::record_stages`].
    pub fn profiler(&self) -> SpanProfiler {
        if self.enabled {
            SpanProfiler::starting_at(self.origin)
        } else {
            SpanProfiler::disabled()
        }
    }

    /// Derives one epoch's per-stage telemetry from its drained spans — the
    /// only way stage numbers come into existence. The spans of one batch
    /// that map to the same [`Stage`] on the same process (a loader's gather
    /// and first aggregation) are one interval, from the first's start to
    /// the last's end; each interval becomes one `stage_seconds/<stage>`
    /// observation and one timeline interval on its process's track — one
    /// per batch and stage, as in a modeled run — and the per-stage sums and
    /// counts become the epoch's four `stage_summary` events.
    pub fn record_stages(&self, epoch: u64, spans: &[SpanRecord]) {
        if !self.enabled {
            return;
        }
        let mut timeline: Vec<TraceEvent> = Vec::with_capacity(spans.len());
        let mut interval_of = HashMap::with_capacity(spans.len());
        for span in spans {
            let Some(stage) = span.kind.stage() else {
                continue;
            };
            let at = *interval_of
                .entry((span.process, stage, span.batch))
                .or_insert(timeline.len());
            match timeline.get_mut(at) {
                Some(ev) => {
                    ev.start = ev.start.min(span.start);
                    ev.end = ev.end.max(span.end);
                }
                None => timeline.push(TraceEvent {
                    process: span.process,
                    stage,
                    start: span.start,
                    end: span.end,
                }),
            }
        }
        let hists = Stage::ALL.map(|s| self.metrics.time_histogram(&Self::stage_histogram_name(s)));
        let mut totals = [(0.0f64, 0u64); Stage::ALL.len()];
        for ev in &timeline {
            let seconds = ev.end - ev.start;
            hists[ev.stage as usize].observe(seconds);
            totals[ev.stage as usize].0 += seconds;
            totals[ev.stage as usize].1 += 1;
        }
        self.trace.extend(timeline);
        for (stage, (seconds, count)) in Stage::ALL.into_iter().zip(totals) {
            self.logger.log(RunEvent::StageSummary {
                epoch,
                summary: StageSummaryRecord {
                    stage: stage.label().to_string(),
                    seconds,
                    count,
                },
            });
        }
    }

    /// Canonical histogram name for per-iteration stage durations, e.g.
    /// `stage_seconds/gather`.
    pub fn stage_histogram_name(stage: Stage) -> String {
        format!("stage_seconds/{}", stage.label())
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

/// Well-known metric names shared by producers and the report renderer.
pub mod names {
    /// Histogram of whole-epoch wall-clock seconds.
    pub const EPOCH_SECONDS: &str = "epoch_seconds";
    /// Counter of completed epochs.
    pub const EPOCHS_TOTAL: &str = "epochs_total";
    /// Counter of executed mini-batches (all processes).
    pub const MINIBATCHES_TOTAL: &str = "minibatches_total";
    /// Counter of sampled edges (all processes).
    pub const EDGES_TOTAL: &str = "edges_total";
    /// Counter of synchronized iterations.
    pub const ITERATIONS_TOTAL: &str = "iterations_total";
    /// Counter of auto-tuner trials.
    pub const TUNER_TRIALS_TOTAL: &str = "tuner_trials_total";
    /// Histogram of tuner suggest (GP fit + acquisition) CPU seconds.
    pub const TUNER_SUGGEST_SECONDS: &str = "tuner_suggest_seconds";
    /// Histogram of tuner observe CPU seconds.
    pub const TUNER_OBSERVE_SECONDS: &str = "tuner_observe_seconds";
    /// Gauge: best (lowest) epoch time seen by the tuner so far.
    pub const TUNER_BEST_EPOCH_SECONDS: &str = "tuner_best_epoch_seconds";
    /// Gauge: overlap fraction of the most recent epoch (Figure 2).
    pub const OVERLAP_FRACTION: &str = "overlap_fraction";
    /// Counter of feature-cache lookups served from the cache.
    pub const CACHE_HITS_TOTAL: &str = "cache_hits_total";
    /// Counter of feature-cache lookups that fell through to DRAM.
    pub const CACHE_MISSES_TOTAL: &str = "cache_misses_total";
    /// Counter of feature-cache evictions.
    pub const CACHE_EVICTIONS_TOTAL: &str = "cache_evictions_total";
    /// Gauge: feature-cache resident bytes at the last epoch end.
    pub const CACHE_BYTES: &str = "cache_bytes";
    /// Gauge: feature-cache hit rate over the most recent epoch.
    pub const CACHE_HIT_RATE: &str = "cache_hit_rate";
    /// Counter of sampler scratch-arena allocations (steady state: 0).
    pub const SCRATCH_ALLOCS_TOTAL: &str = "loader_scratch_allocs_total";
    /// Counter of batch-metadata bytes (node ids + edge indices) produced.
    pub const METADATA_BYTES_TOTAL: &str = "batch_metadata_bytes_total";
    /// Counter of feature bytes served out of the cross-batch cache.
    pub const CACHE_MOVED_BYTES_TOTAL: &str = "cache_moved_bytes_total";
    /// Counter of profiler spans recorded across all rings.
    pub const SPANS_RECORDED_TOTAL: &str = "prof_spans_total";
    /// Counter of profiler spans lost to full rings.
    pub const SPANS_DROPPED_TOTAL: &str = "prof_spans_dropped_total";
    /// Counter of serving requests completed.
    pub const SERVE_REQUESTS_TOTAL: &str = "serve_requests_total";
    /// Counter of serving micro-batches executed.
    pub const SERVE_BATCHES_TOTAL: &str = "serve_batches_total";
    /// Histogram of end-to-end request latency seconds (queue + execute).
    pub const SERVE_REQUEST_SECONDS: &str = "serve_request_seconds";
    /// Counter of serving responses answered from the result cache.
    pub const SERVE_RESULT_HITS_TOTAL: &str = "serve_result_hits_total";
    /// Counter of serving responses that required sampling + a forward pass.
    pub const SERVE_RESULT_MISSES_TOTAL: &str = "serve_result_misses_total";
    /// Gauge: result-cache hit rate over the session so far.
    pub const SERVE_RESULT_HIT_RATE: &str = "serve_result_hit_rate";
    /// Counter of data races found by the happens-before detector (only
    /// present when built with the `check` feature; steady state: 0).
    pub const CHECK_RACE_REPORTS_TOTAL: &str = "check_race_reports_total";
    /// Counter of lock-order violations found by the lock sanitizer (only
    /// present when built with the `check` feature; steady state: 0).
    pub const CHECK_LOCK_VIOLATIONS_TOTAL: &str = "check_lock_violations_total";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::{Role, SpanKind};

    #[test]
    fn clones_share_sinks() {
        let t = Telemetry::new();
        let t2 = t.clone();
        t.metrics.counter("c").inc();
        assert_eq!(t2.metrics.counters(), vec![("c".to_string(), 1)]);
        t2.record_stages(0, &[span(0, SpanKind::Compute, 0.0, 0.1)]);
        assert_eq!(t.trace.events().len(), 1);
    }

    #[test]
    fn disabled_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert!(Telemetry::new().is_enabled());
        assert!(!t.profiler().is_enabled());
        t.metrics.counter("c").inc();
        t.record_stages(0, &[span(0, SpanKind::Compute, 0.0, 0.1)]);
        assert!(t.metrics.counters().is_empty());
        assert!(t.metrics.histograms().is_empty());
        assert!(t.logger.is_empty());
        assert!(t.trace.events().is_empty());
    }

    fn span(process: usize, kind: SpanKind, start: f64, end: f64) -> SpanRecord {
        SpanRecord {
            process,
            worker: 0,
            role: Role::Consumer,
            kind,
            batch: 0,
            start,
            end,
        }
    }

    #[test]
    fn record_stages_derives_histograms_timeline_and_summaries_from_one_source() {
        let t = Telemetry::new();
        let spans = [
            span(0, SpanKind::DequeueWait, 0.0, 0.125),
            span(0, SpanKind::Gather, 0.125, 0.25),
            span(1, SpanKind::Cache, 0.0, 0.5),
            span(0, SpanKind::Compute, 0.25, 1.0),
            span(0, SpanKind::Sync, 1.0, 1.0625),
            // Producer-side work and serving spans are charged to no stage.
            span(1, SpanKind::Pick, 0.0, 9.0),
            span(1, SpanKind::EnqueueWait, 0.0, 9.0),
            span(0, SpanKind::ServeExec, 0.0, 9.0),
        ];
        t.record_stages(4, &spans);

        let hists: std::collections::BTreeMap<_, _> = t.metrics.histograms().into_iter().collect();
        let want = [
            (Stage::Sample, 0.125, 1),
            (Stage::Gather, 0.625, 2),
            (Stage::Compute, 0.75, 1),
            (Stage::Sync, 0.0625, 1),
        ];
        let summaries: Vec<_> = t
            .logger
            .events()
            .into_iter()
            .map(|(_, e)| match e {
                RunEvent::StageSummary { epoch, summary } => {
                    assert_eq!(epoch, 4);
                    (summary.stage, summary.seconds, summary.count)
                }
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(summaries.len(), 4);
        let timeline = t.trace.events();
        assert_eq!(timeline.len(), 5);
        for ((stage, seconds, count), summary) in want.into_iter().zip(summaries) {
            let h = &hists[&Telemetry::stage_histogram_name(stage)];
            assert_eq!((h.sum(), h.count()), (seconds, count), "{stage:?}");
            assert_eq!(summary, (stage.label().to_string(), seconds, count));
            let on_timeline: f64 = timeline
                .iter()
                .filter(|e| e.stage == stage)
                .map(|e| e.end - e.start)
                .sum();
            assert_eq!(on_timeline, seconds, "{stage:?}");
        }
        // The cache span ran on process 1's loader: its own track.
        assert!(timeline
            .iter()
            .any(|e| e.stage == Stage::Gather && e.process == 1));
    }

    #[test]
    fn a_batchs_spans_of_one_stage_are_one_observation() {
        // The loader gathers a batch's rows, then aggregates them: two spans,
        // one gather-stage interval per batch and process.
        let t = Telemetry::new();
        let batch = |batch, kind, start, end| SpanRecord {
            batch,
            ..span(0, kind, start, end)
        };
        t.record_stages(
            0,
            &[
                batch(0, SpanKind::Gather, 0.0, 0.25),
                batch(0, SpanKind::Aggregate, 0.25, 0.75),
                batch(1, SpanKind::Cache, 1.0, 1.5),
                batch(1, SpanKind::Aggregate, 1.5, 1.75),
                // Another process's batch 1 is another interval.
                SpanRecord {
                    batch: 1,
                    ..span(1, SpanKind::Gather, 1.0, 1.125)
                },
            ],
        );
        let gather = t
            .metrics
            .time_histogram(&Telemetry::stage_histogram_name(Stage::Gather));
        assert_eq!((gather.count(), gather.sum()), (3, 1.625));
        let timeline: Vec<_> = t
            .trace
            .events()
            .iter()
            .map(|e| (e.process, e.start, e.end))
            .collect();
        assert_eq!(timeline, [(0, 0.0, 0.75), (0, 1.0, 1.75), (1, 1.0, 1.125)]);
    }

    #[test]
    fn profiler_ticks_on_the_run_clock() {
        let t = Telemetry::new();
        std::thread::sleep(std::time::Duration::from_millis(2));
        // A profiler made later still counts from the telemetry's creation.
        assert!(t.profiler().now() >= 0.002);
    }

    #[test]
    fn stage_histogram_names() {
        assert_eq!(
            Telemetry::stage_histogram_name(Stage::Gather),
            "stage_seconds/gather"
        );
        assert_eq!(
            Telemetry::stage_histogram_name(Stage::Sync),
            "stage_seconds/sync"
        );
    }

    #[test]
    fn modeled_source_propagates() {
        let t = Telemetry::with_source(Source::Modeled);
        assert_eq!(t.logger.source(), Source::Modeled);
    }
}
