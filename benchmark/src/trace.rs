//! The benchmark's own span recorder. Spans are taken around calls into the
//! crates' public functions (outside-in), kept in memory, and written out in
//! Chrome-trace form when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    /// Batch or request the span belongs to.
    id: u64,
}

/// Handle of an open span; pass it back to [`Recorder::end`].
#[derive(Clone, Copy)]
pub struct Open(u32);

/// Per-name totals over a recording.
#[derive(Clone, Copy, Default, Debug)]
pub struct NameTotals {
    pub count: u64,
    /// Sum of span durations, seconds.
    pub total_s: f64,
    /// Sum of span durations minus the part their child spans cover.
    pub self_s: f64,
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let index = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(index);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        Open(index)
    }

    pub fn end(&mut self, open: Open) {
        if open.0 == NO_PARENT {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0 as usize].end_ns = end_ns;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Seconds one `begin`/`end` pair costs on this host, measured on a
    /// scratch recorder. Tracing overhead is reported as spans recorded times
    /// this cost over the traced wall time: on this host the direct
    /// difference between a traced and an untraced run is far below the
    /// run-to-run noise.
    pub fn span_cost_s() -> f64 {
        const PAIRS: u32 = 50_000;
        let mut scratch = Recorder::new(true);
        scratch.spans.reserve(PAIRS as usize);
        let t0 = Instant::now();
        for i in 0..PAIRS {
            let open = scratch.begin("calibration", u64::from(i));
            scratch.end(open);
        }
        std::hint::black_box(&scratch.spans);
        t0.elapsed().as_secs_f64() / f64::from(PAIRS)
    }

    /// Totals by span name. Self time of a span is its duration minus the
    /// durations of its direct children.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += dur as f64 * 1e-9;
            t.self_s += dur.saturating_sub(*children) as f64 * 1e-9;
        }
        out
    }

    /// The recording as a Chrome-trace JSON array (`ph: "X"` events, times in
    /// microseconds).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{},\"parent\":{},\"id\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                parent,
                s.id
            );
        }
        out.push_str("\n]\n");
        out
    }
}
