//! One handle, one switch, one clock for the telemetry of a run.
//!
//! The engine, auto-tuner, platform model and serve session all report into
//! the same trio: a [`RunLogger`] of structured JSONL events — the one
//! record of every fact a run reports — a [`TraceRecorder`] timeline for
//! Figure-2 interval traces, and a [`MetricsRegistry`] of the per-iteration
//! stage histograms. [`Telemetry`] carries them together (each behind an
//! `Arc`, so a clone is cheap), is either on or off as a whole, and owns the
//! run clock the span rings, the timeline and the event timestamps all
//! count from.
//!
//! Hot loops record **spans only** ([`crate::spans`]). Everything per-stage
//! — the `stage_seconds/<stage>` histograms, the timeline, the
//! `stage_summary` events — comes into existence in one place, once per
//! epoch: [`Telemetry::record_stages`] folds the drained spans through
//! [`SpanKind::stage`](crate::SpanKind::stage).

#![expect(
    clippy::disallowed_methods,
    reason = "the telemetry handle owns the run clock"
)]

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
    /// Zero of the run clock: span, timeline and event timestamps count
    /// from here.
    origin: Instant,
    enabled: bool,
}

impl Telemetry {
    /// Telemetry on, tagged as a measured run.
    pub fn new() -> Self {
        Self::with_source(Source::Measured)
    }

    /// Telemetry on, with events tagged `source` (use [`Source::Modeled`]
    /// for platform-model runs so real and modeled telemetry share one
    /// schema).
    pub fn with_source(source: Source) -> Self {
        let origin = Instant::now();
        Self {
            trace: Arc::new(TraceRecorder::new()),
            metrics: Arc::new(MetricsRegistry::new()),
            logger: Arc::new(RunLogger::new(source, origin)),
            origin,
            enabled: true,
        }
    }

    /// Telemetry off: every sink drops what it is handed, so a caller that
    /// takes `&Telemetry` needs no `Option` — and no hot loop pays for it.
    pub fn disabled() -> Self {
        let origin = Instant::now();
        Self {
            trace: Arc::new(TraceRecorder::new()),
            metrics: Arc::new(MetricsRegistry::disabled()),
            logger: Arc::new(RunLogger::disabled(origin)),
            origin,
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
        let hists = Stage::ALL.map(|s| self.metrics.stage_histogram(s));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::{Role, SpanKind};

    #[test]
    fn clones_share_sinks() {
        let t = Telemetry::new();
        let t2 = t.clone();
        t2.record_stages(0, &[span(0, SpanKind::Compute, 0.0, 0.1)]);
        assert_eq!(t.trace.events().len(), 1);
        assert_eq!(t.metrics.histograms().len(), 4);
        assert_eq!(t.logger.len(), 4);
    }

    #[test]
    fn disabled_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert!(Telemetry::new().is_enabled());
        assert!(!t.profiler().is_enabled());
        t.record_stages(0, &[span(0, SpanKind::Compute, 0.0, 0.1)]);
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
            span(1, SpanKind::Aggregate, 0.0, 0.5),
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
        // The aggregate span ran on process 1's loader: its own track.
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
                batch(1, SpanKind::Gather, 1.0, 1.5),
                batch(1, SpanKind::Aggregate, 1.5, 1.75),
                // Another process's batch 1 is another interval.
                SpanRecord {
                    batch: 1,
                    ..span(1, SpanKind::Gather, 1.0, 1.125)
                },
            ],
        );
        let gather = t.metrics.stage_histogram(Stage::Gather);
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
        let span_clock = t.profiler().now();
        assert!(span_clock >= 0.002);
        // So do event timestamps: one axis for the JSONL and the trace.
        t.logger.log(RunEvent::StageSummary {
            epoch: 0,
            summary: StageSummaryRecord {
                stage: "sync".to_string(),
                seconds: 0.0,
                count: 0,
            },
        });
        let ts = t.logger.events()[0].0;
        assert!(
            ts >= span_clock,
            "event ts {ts} before span clock {span_clock}"
        );
        assert!(ts <= t.profiler().now());
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
