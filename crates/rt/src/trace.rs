//! The run timeline behind Figure 2 style time-lines.
//!
//! The paper motivates multi-processing with a time-trace (Figure 2) showing
//! that memory-intensive phases (e.g. `aten::index_select` feature gathering)
//! of one process overlap with compute-intensive phases of another.
//! [`TraceRecorder`] holds that timeline as `(process, stage, start, end)`
//! intervals. Nothing records into it from a hot loop: at each epoch end
//! [`crate::Telemetry::record_stages`] appends, in bulk, the intervals it
//! derives from the epoch's drained spans.

use parking_lot::Mutex;

/// The pipeline stage an interval belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Mini-batch subgraph sampling (graph traversal; latency bound).
    Sample,
    /// Feature gathering / `index_select` (memory-bandwidth bound).
    Gather,
    /// Forward + backward propagation (compute bound).
    Compute,
    /// Gradient synchronization across processes (communication).
    Sync,
}

impl Stage {
    /// Every stage, in pipeline (and declaration) order.
    pub const ALL: [Stage; 4] = [Stage::Sample, Stage::Gather, Stage::Compute, Stage::Sync];

    /// Short label used in printed traces.
    pub fn label(&self) -> &'static str {
        match self {
            Stage::Sample => "sample",
            Stage::Gather => "gather",
            Stage::Compute => "compute",
            Stage::Sync => "sync",
        }
    }
}

/// One recorded interval.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Emitting process rank.
    pub process: usize,
    /// Pipeline stage.
    pub stage: Stage,
    /// Interval start, seconds since the run's telemetry was created.
    pub start: f64,
    /// Interval end, seconds since the run's telemetry was created.
    pub end: f64,
}

/// Thread-safe interval timeline.
#[derive(Default)]
pub struct TraceRecorder {
    events: Mutex<Vec<TraceEvent>>,
}

impl TraceRecorder {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `events` in one lock acquisition.
    pub(crate) fn extend(&self, events: impl IntoIterator<Item = TraceEvent>) {
        self.events.lock().extend(events);
    }

    /// Snapshot of all events, sorted by start time.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut v = self.events.lock().clone();
        v.sort_by(|a, b| a.start.total_cmp(&b.start));
        v
    }

    /// Fraction of `[0, horizon]` during which at least one process was in a
    /// memory-bound stage ([`Stage::Gather`] or [`Stage::Sample`]) *while*
    /// another was in [`Stage::Compute`] — the overlap the paper's Figure 2
    /// illustrates. Returns 0 when fewer than two processes traced.
    pub fn overlap_fraction(&self, horizon: f64) -> f64 {
        if horizon <= 0.0 {
            return 0.0;
        }
        let events = self.events.lock();
        const BINS: usize = 2048;
        let mut mem = vec![false; BINS];
        let mut cpu = vec![false; BINS];
        let mut procs = std::collections::HashSet::new();
        for e in events.iter() {
            procs.insert(e.process);
            // Clamp both endpoints into [0, BINS]: events may legitimately
            // extend past `horizon` (callers often pass the epoch time while
            // a straggler rank finishes later) or sit entirely outside it.
            let lo = (((e.start / horizon) * BINS as f64).floor().max(0.0) as usize).min(BINS);
            let hi = (((e.end / horizon) * BINS as f64).ceil().max(0.0) as usize).min(BINS);
            if lo >= hi {
                continue;
            }
            let target = match e.stage {
                Stage::Gather | Stage::Sample => &mut mem,
                Stage::Compute => &mut cpu,
                Stage::Sync => continue,
            };
            for b in target.iter_mut().take(hi).skip(lo) {
                *b = true;
            }
        }
        if procs.len() < 2 {
            return 0.0;
        }
        let both = mem
            .iter()
            .zip(cpu.iter())
            .filter(|(m, c)| **m && **c)
            .count();
        both as f64 / BINS as f64
    }
}

impl TraceRecorder {
    /// Serializes the events as a Chrome tracing JSON array
    /// (`chrome://tracing` / Perfetto "complete" events, one track per
    /// process), so real Figure-2 traces can be inspected visually.
    pub fn to_chrome_json(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(events.len() * 96 + 2);
        out.push('[');
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Times in microseconds, as the format requires.
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.1},\"dur\":{:.1},\"pid\":0,\"tid\":{}}}",
                e.stage.label(),
                e.start * 1e6,
                (e.end - e.start).max(0.0) * 1e6,
                e.process
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(t: &TraceRecorder, process: usize, stage: Stage, start: f64, end: f64) {
        t.extend([TraceEvent {
            process,
            stage,
            start,
            end,
        }]);
    }

    #[test]
    fn records_and_sorts() {
        let t = TraceRecorder::new();
        record(&t, 0, Stage::Compute, 0.5, 0.9);
        record(&t, 1, Stage::Gather, 0.1, 0.4);
        let ev = t.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].process, 1);
        assert!(ev[0].start < ev[1].start);
    }

    #[test]
    fn overlap_detects_interleaving() {
        let t = TraceRecorder::new();
        // Process 0 gathers 0..0.5 while process 1 computes 0..0.5.
        record(&t, 0, Stage::Gather, 0.0, 0.5);
        record(&t, 1, Stage::Compute, 0.0, 0.5);
        let f = t.overlap_fraction(1.0);
        assert!(f > 0.45 && f <= 0.55, "overlap {f}");
    }

    #[test]
    fn overlap_zero_for_single_process() {
        let t = TraceRecorder::new();
        record(&t, 0, Stage::Gather, 0.0, 0.5);
        record(&t, 0, Stage::Compute, 0.5, 1.0);
        assert_eq!(t.overlap_fraction(1.0), 0.0);
    }

    #[test]
    fn chrome_json_shape() {
        let t = TraceRecorder::new();
        record(&t, 0, Stage::Gather, 0.001, 0.002);
        record(&t, 1, Stage::Compute, 0.002, 0.004);
        let json = t.to_chrome_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"gather\""));
        assert!(json.contains("\"tid\":1"));
        // µs conversion: 0.001s -> 1000µs.
        assert!(json.contains("\"ts\":1000.0"));
        // Empty recorder gives an empty array.
        assert_eq!(TraceRecorder::new().to_chrome_json(), "[]");
    }

    #[test]
    fn overlap_robust_to_events_past_horizon() {
        let t = TraceRecorder::new();
        // Straggler intervals extend past (or sit entirely outside) the
        // horizon; they must be clamped, not panic or inflate the fraction.
        record(&t, 0, Stage::Gather, 0.0, 5.0);
        record(&t, 1, Stage::Compute, 0.0, 5.0);
        record(&t, 0, Stage::Gather, 9.0, 12.0);
        record(&t, 1, Stage::Compute, -3.0, -1.0);
        let f = t.overlap_fraction(1.0);
        assert!((0.0..=1.0).contains(&f), "overlap {f}");
        assert!(f > 0.99, "fully overlapped inside horizon, got {f}");
    }
}
