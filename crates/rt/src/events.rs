//! Structured run events (JSONL) — the telemetry schema.
//!
//! Every fact a run reports is a field of one [`RunEvent`], and nowhere
//! else: epochs starting and ending (with full [`EpochRecord`] statistics),
//! per-stage summaries, critical paths, byte accounting, auto-tuner
//! trials (candidate configuration, observed epoch time, incumbent best,
//! tuner CPU cost), configuration switches and serving requests. The
//! [`RunLogger`] collects them thread-safely and serializes one JSON object
//! per line, so a run's history can be replayed, diffed, or rendered by
//! `argo report` — and since the platform model emits the *same* schema
//! with [`Source::Modeled`], real and modeled runs are directly comparable.

use std::time::Instant;

use parking_lot::Mutex;

use crate::config::Config;
use crate::json::Json;

/// Where telemetry came from: a real measured run or the platform model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    Measured,
    Modeled,
}

impl Source {
    pub fn label(&self) -> &'static str {
        match self {
            Source::Measured => "measured",
            Source::Modeled => "modeled",
        }
    }

    fn from_label(s: &str) -> Result<Self, String> {
        match s {
            "measured" => Ok(Source::Measured),
            "modeled" => Ok(Source::Modeled),
            other => Err(format!("unknown source '{other}'")),
        }
    }
}

/// Epoch statistics carried by [`RunEvent::EpochEnd`]. Mirrors the
/// engine's `EpochStats` (the engine depends on this crate, so the
/// telemetry-side record lives here).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochRecord {
    /// Wall-clock epoch time in seconds — the auto-tuner's objective.
    pub epoch_time: f64,
    /// Mean training loss across all iterations and processes.
    pub loss: f64,
    /// Mean training accuracy.
    pub train_accuracy: f64,
    /// Synchronized iterations executed.
    pub iterations: u64,
    /// Mini-batches executed across all processes.
    pub minibatches: u64,
    /// Total sampled edges (workload proxy, paper Figure 6).
    pub edges: u64,
    /// Seconds inside gradient synchronization (rank 0).
    pub sync_time: f64,
}

/// Per-stage aggregate carried by [`RunEvent::StageSummary`].
#[derive(Clone, Debug, PartialEq)]
pub struct StageSummaryRecord {
    /// Stage label (`sample`/`gather`/`compute`/`sync`).
    pub stage: String,
    /// Total seconds spent in the stage (summed over processes).
    pub seconds: f64,
    /// Number of recorded intervals.
    pub count: u64,
}

/// One auto-tuner search step carried by [`RunEvent::TunerTrial`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrialRecord {
    /// Zero-based search-epoch index.
    pub trial: u64,
    /// Candidate configuration the searcher proposed.
    pub config: Config,
    /// Observed objective (epoch time, seconds).
    pub epoch_time: f64,
    /// Incumbent best configuration after observing this trial.
    pub best_config: Config,
    /// Incumbent best objective after observing this trial.
    pub best_epoch_time: f64,
    /// CPU seconds the searcher spent proposing (GP fit + acquisition).
    pub suggest_seconds: f64,
    /// CPU seconds the searcher spent absorbing the observation.
    pub observe_seconds: f64,
}

/// Per-epoch byte/alloc accounting carried by [`RunEvent::BytesSummary`] —
/// the "metadata tax" view: how many bytes of batch metadata the host
/// pipeline shuffled per batch and how often the sampler scratch arena had
/// to grow. Metadata bytes are measured on the arena-resident batch CSR
/// (node ids, degrees, `u32` row pointers, column indices, fused
/// normalization values), not estimated from separate node-id/edge-index
/// arrays.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BytesRecord {
    /// Mini-batches the epoch processed (denominator for per-batch rates).
    pub batches: u64,
    /// Bytes of batch metadata (compact arena-CSR layout) produced.
    pub metadata_bytes: u64,
    /// Scratch-arena allocations observed (steady state should be 0).
    pub scratch_allocs: u64,
}

impl BytesRecord {
    /// Average metadata bytes per mini-batch (0 when no batches ran).
    pub fn metadata_bytes_per_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.metadata_bytes as f64 / self.batches as f64
        }
    }
}

/// Per-request serving record carried by [`RunEvent::ServeRequest`]: one
/// line per answered query so tail latency can be recomputed offline from
/// the JSONL alone.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeRequestRecord {
    /// Session-unique request id (admission order).
    pub request: u64,
    /// Micro-batch id the request executed in.
    pub batch: u64,
    /// Number of seed nodes in the query.
    pub seeds: u64,
    /// Seconds spent queued between admission and micro-batch flush.
    pub queue_seconds: f64,
    /// End-to-end seconds from admission to response.
    pub latency_seconds: f64,
    /// Whether the response came from the layered result cache.
    pub cache_hit: bool,
}

/// Per-micro-batch serving record carried by [`RunEvent::ServeBatch`].
#[derive(Clone, Debug, PartialEq)]
pub struct ServeBatchRecord {
    /// Session-unique micro-batch id.
    pub batch: u64,
    /// Requests flushed together in this micro-batch.
    pub requests: u64,
    /// Why the batch left the batcher: `"full"` (reached `max_batch`),
    /// `"deadline"` (oldest admit aged past `deadline_us`), `"drain"`
    /// (session shutdown) or `"hit"` (one result-cache hit answered at
    /// admission, never queued).
    pub flush: String,
    /// Seconds spent executing the batch (sample + gather + forward).
    pub exec_seconds: f64,
}

/// A structured event in a training run.
#[derive(Clone, Debug, PartialEq)]
pub enum RunEvent {
    /// An epoch began under `config`.
    EpochStart { epoch: u64, config: Config },
    /// An epoch finished; `record` holds its statistics.
    EpochEnd {
        epoch: u64,
        config: Config,
        record: EpochRecord,
    },
    /// Aggregate time of one pipeline stage over an epoch.
    StageSummary {
        epoch: u64,
        summary: StageSummaryRecord,
    },
    /// One online-learning search step of the auto-tuner.
    TunerTrial(TrialRecord),
    /// The runtime switched to `config` (`reason` = `search` while
    /// learning online, `reuse` once the optimum is locked in).
    ConfigApplied { config: Config, reason: String },
    /// Per-epoch critical-path attribution from the span profiler: for each
    /// stage (or channel/heap wait) the fraction of epoch wall time it was
    /// the binding constraint; fractions sum to ~1.0. `spans`/`dropped`
    /// record profiler coverage.
    CriticalPath {
        epoch: u64,
        fractions: Vec<(String, f64)>,
        spans: u64,
        dropped: u64,
    },
    /// Per-epoch byte/alloc accounting (the metadata tax).
    BytesSummary { epoch: u64, record: BytesRecord },
    /// Audit of one tuner decision: the stage `PerfModel` predicted to be
    /// the bottleneck under `config` vs. the stage the measured critical
    /// path actually crowned.
    BottleneckCheck {
        epoch: u64,
        config: Config,
        predicted: String,
        measured: String,
    },
    /// One serving request completed (online inference path).
    ServeRequest { record: ServeRequestRecord },
    /// One serving micro-batch flushed and executed.
    ServeBatch { record: ServeBatchRecord },
}

fn config_json(c: Config) -> Json {
    Json::obj(vec![
        ("n_proc", Json::Num(c.n_proc as f64)),
        ("n_samp", Json::Num(c.n_samp as f64)),
        ("n_train", Json::Num(c.n_train as f64)),
    ])
}

/// The config a log line carries. Each field must be positive, as
/// [`Config::new`] asserts; other keys (an old log's `cache_rows`) are
/// ignored.
fn config_from_json(v: &Json) -> Result<Config, String> {
    let field = |k: &str| match v.get(k).and_then(Json::as_u64) {
        None => Err(format!("config missing '{k}'")),
        Some(0) => Err(format!("config field '{k}' must be positive")),
        Some(n) => Ok(n as usize),
    };
    Ok(Config::new(
        field("n_proc")?,
        field("n_samp")?,
        field("n_train")?,
    ))
}

impl RunEvent {
    /// Event-type tag (`"epoch_end"`, `"tuner_trial"`, …).
    pub fn kind(&self) -> &'static str {
        match self {
            RunEvent::EpochStart { .. } => "epoch_start",
            RunEvent::EpochEnd { .. } => "epoch_end",
            RunEvent::StageSummary { .. } => "stage_summary",
            RunEvent::TunerTrial(_) => "tuner_trial",
            RunEvent::ConfigApplied { .. } => "config_applied",
            RunEvent::CriticalPath { .. } => "critical_path",
            RunEvent::BytesSummary { .. } => "bytes_summary",
            RunEvent::BottleneckCheck { .. } => "bottleneck_check",
            RunEvent::ServeRequest { .. } => "serve_request",
            RunEvent::ServeBatch { .. } => "serve_batch",
        }
    }

    /// Encodes the event as one JSON object with envelope fields `event`,
    /// `ts` (seconds on the run clock) and `source`.
    pub fn to_json(&self, ts: f64, source: Source) -> Json {
        let mut fields = vec![
            ("event", Json::str(self.kind())),
            ("ts", Json::Num(ts)),
            ("source", Json::str(source.label())),
        ];
        match self {
            RunEvent::EpochStart { epoch, config } => {
                fields.push(("epoch", Json::Num(*epoch as f64)));
                fields.push(("config", config_json(*config)));
            }
            RunEvent::EpochEnd {
                epoch,
                config,
                record,
            } => {
                fields.push(("epoch", Json::Num(*epoch as f64)));
                fields.push(("config", config_json(*config)));
                fields.push((
                    "stats",
                    Json::obj(vec![
                        ("epoch_time", Json::Num(record.epoch_time)),
                        ("loss", Json::Num(record.loss)),
                        ("train_accuracy", Json::Num(record.train_accuracy)),
                        ("iterations", Json::Num(record.iterations as f64)),
                        ("minibatches", Json::Num(record.minibatches as f64)),
                        ("edges", Json::Num(record.edges as f64)),
                        ("sync_time", Json::Num(record.sync_time)),
                    ]),
                ));
            }
            RunEvent::StageSummary { epoch, summary } => {
                fields.push(("epoch", Json::Num(*epoch as f64)));
                fields.push(("stage", Json::str(&summary.stage)));
                fields.push(("seconds", Json::Num(summary.seconds)));
                fields.push(("count", Json::Num(summary.count as f64)));
            }
            RunEvent::TunerTrial(t) => {
                fields.push(("trial", Json::Num(t.trial as f64)));
                fields.push(("config", config_json(t.config)));
                fields.push(("epoch_time", Json::Num(t.epoch_time)));
                fields.push(("best_config", config_json(t.best_config)));
                fields.push(("best_epoch_time", Json::Num(t.best_epoch_time)));
                fields.push(("suggest_seconds", Json::Num(t.suggest_seconds)));
                fields.push(("observe_seconds", Json::Num(t.observe_seconds)));
            }
            RunEvent::ConfigApplied { config, reason } => {
                fields.push(("config", config_json(*config)));
                fields.push(("reason", Json::str(reason)));
            }
            RunEvent::CriticalPath {
                epoch,
                fractions,
                spans,
                dropped,
            } => {
                fields.push(("epoch", Json::Num(*epoch as f64)));
                fields.push((
                    "fractions",
                    Json::Arr(
                        fractions
                            .iter()
                            .map(|(stage, f)| {
                                Json::obj(vec![
                                    ("stage", Json::str(stage)),
                                    ("fraction", Json::Num(*f)),
                                ])
                            })
                            .collect(),
                    ),
                ));
                fields.push(("spans", Json::Num(*spans as f64)));
                fields.push(("dropped", Json::Num(*dropped as f64)));
            }
            RunEvent::BytesSummary { epoch, record } => {
                fields.push(("epoch", Json::Num(*epoch as f64)));
                fields.push(("batches", Json::Num(record.batches as f64)));
                fields.push(("metadata_bytes", Json::Num(record.metadata_bytes as f64)));
                fields.push(("scratch_allocs", Json::Num(record.scratch_allocs as f64)));
            }
            RunEvent::BottleneckCheck {
                epoch,
                config,
                predicted,
                measured,
            } => {
                fields.push(("epoch", Json::Num(*epoch as f64)));
                fields.push(("config", config_json(*config)));
                fields.push(("predicted", Json::str(predicted)));
                fields.push(("measured", Json::str(measured)));
            }
            RunEvent::ServeRequest { record } => {
                fields.push(("request", Json::Num(record.request as f64)));
                fields.push(("batch", Json::Num(record.batch as f64)));
                fields.push(("seeds", Json::Num(record.seeds as f64)));
                fields.push(("queue_seconds", Json::Num(record.queue_seconds)));
                fields.push(("latency_seconds", Json::Num(record.latency_seconds)));
                fields.push(("cache_hit", Json::Bool(record.cache_hit)));
            }
            RunEvent::ServeBatch { record } => {
                fields.push(("batch", Json::Num(record.batch as f64)));
                fields.push(("requests", Json::Num(record.requests as f64)));
                fields.push(("flush", Json::str(&record.flush)));
                fields.push(("exec_seconds", Json::Num(record.exec_seconds)));
            }
        }
        Json::obj(fields)
    }

    /// Decodes an event from its JSON object form; returns the event with
    /// its envelope `(ts, source)`.
    pub fn from_json(v: &Json) -> Result<(RunEvent, f64, Source), String> {
        let kind = v
            .get("event")
            .and_then(Json::as_str)
            .ok_or("missing 'event'")?;
        let ts = v.get("ts").and_then(Json::as_f64).ok_or("missing 'ts'")?;
        let source = Source::from_label(
            v.get("source")
                .and_then(Json::as_str)
                .ok_or("missing 'source'")?,
        )?;
        let epoch = || {
            v.get("epoch")
                .and_then(Json::as_u64)
                .ok_or("missing 'epoch'")
        };
        let num = |obj: &Json, k: &str| {
            obj.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing '{k}'"))
        };
        let event = match kind {
            "epoch_start" => RunEvent::EpochStart {
                epoch: epoch()?,
                config: config_from_json(v.get("config").ok_or("missing 'config'")?)?,
            },
            "epoch_end" => {
                let stats = v.get("stats").ok_or("missing 'stats'")?;
                RunEvent::EpochEnd {
                    epoch: epoch()?,
                    config: config_from_json(v.get("config").ok_or("missing 'config'")?)?,
                    record: EpochRecord {
                        epoch_time: num(stats, "epoch_time")?,
                        loss: num(stats, "loss")?,
                        train_accuracy: num(stats, "train_accuracy")?,
                        iterations: num(stats, "iterations")? as u64,
                        minibatches: num(stats, "minibatches")? as u64,
                        edges: num(stats, "edges")? as u64,
                        sync_time: num(stats, "sync_time")?,
                    },
                }
            }
            "stage_summary" => RunEvent::StageSummary {
                epoch: epoch()?,
                summary: StageSummaryRecord {
                    stage: v
                        .get("stage")
                        .and_then(Json::as_str)
                        .ok_or("missing 'stage'")?
                        .to_string(),
                    seconds: num(v, "seconds")?,
                    count: num(v, "count")? as u64,
                },
            },
            "tuner_trial" => RunEvent::TunerTrial(TrialRecord {
                trial: v
                    .get("trial")
                    .and_then(Json::as_u64)
                    .ok_or("missing 'trial'")?,
                config: config_from_json(v.get("config").ok_or("missing 'config'")?)?,
                epoch_time: num(v, "epoch_time")?,
                best_config: config_from_json(
                    v.get("best_config").ok_or("missing 'best_config'")?,
                )?,
                best_epoch_time: num(v, "best_epoch_time")?,
                suggest_seconds: num(v, "suggest_seconds")?,
                observe_seconds: num(v, "observe_seconds")?,
            }),
            "config_applied" => RunEvent::ConfigApplied {
                config: config_from_json(v.get("config").ok_or("missing 'config'")?)?,
                reason: v
                    .get("reason")
                    .and_then(Json::as_str)
                    .ok_or("missing 'reason'")?
                    .to_string(),
            },
            "critical_path" => {
                let arr = v
                    .get("fractions")
                    .and_then(Json::as_arr)
                    .ok_or("missing 'fractions'")?;
                let mut fractions = Vec::with_capacity(arr.len());
                for f in arr {
                    let stage = f
                        .get("stage")
                        .and_then(Json::as_str)
                        .ok_or("missing 'stage'")?
                        .to_string();
                    fractions.push((stage, num(f, "fraction")?));
                }
                RunEvent::CriticalPath {
                    epoch: epoch()?,
                    fractions,
                    spans: num(v, "spans")? as u64,
                    dropped: num(v, "dropped")? as u64,
                }
            }
            "bytes_summary" => RunEvent::BytesSummary {
                epoch: epoch()?,
                record: BytesRecord {
                    batches: num(v, "batches")? as u64,
                    metadata_bytes: num(v, "metadata_bytes")? as u64,
                    scratch_allocs: num(v, "scratch_allocs")? as u64,
                },
            },
            "bottleneck_check" => RunEvent::BottleneckCheck {
                epoch: epoch()?,
                config: config_from_json(v.get("config").ok_or("missing 'config'")?)?,
                predicted: v
                    .get("predicted")
                    .and_then(Json::as_str)
                    .ok_or("missing 'predicted'")?
                    .to_string(),
                measured: v
                    .get("measured")
                    .and_then(Json::as_str)
                    .ok_or("missing 'measured'")?
                    .to_string(),
            },
            "serve_request" => RunEvent::ServeRequest {
                record: ServeRequestRecord {
                    request: num(v, "request")? as u64,
                    batch: num(v, "batch")? as u64,
                    seeds: num(v, "seeds")? as u64,
                    queue_seconds: num(v, "queue_seconds")?,
                    latency_seconds: num(v, "latency_seconds")?,
                    cache_hit: match v.get("cache_hit") {
                        Some(Json::Bool(b)) => *b,
                        _ => return Err("missing 'cache_hit'".to_string()),
                    },
                },
            },
            "serve_batch" => RunEvent::ServeBatch {
                record: ServeBatchRecord {
                    batch: num(v, "batch")? as u64,
                    requests: num(v, "requests")? as u64,
                    flush: v
                        .get("flush")
                        .and_then(Json::as_str)
                        .ok_or("missing 'flush'")?
                        .to_string(),
                    exec_seconds: num(v, "exec_seconds")?,
                },
            },
            other => return Err(format!("unknown event kind '{other}'")),
        };
        Ok((event, ts, source))
    }
}

/// Thread-safe collector of [`RunEvent`]s with JSONL export. Built by
/// [`crate::Telemetry`], whose run clock stamps every event, so a JSONL `ts`
/// and a `--trace-out` timestamp count from the same zero.
pub struct RunLogger {
    origin: Instant,
    source: Source,
    events: Mutex<Vec<(f64, RunEvent)>>,
    enabled: bool,
}

impl RunLogger {
    /// An active logger tagging every event with `source` and stamping it
    /// with seconds since `origin`.
    pub(crate) fn new(source: Source, origin: Instant) -> Self {
        Self {
            origin,
            source,
            events: Mutex::new(Vec::new()),
            enabled: true,
        }
    }

    /// A logger that drops all events: the off state of
    /// [`crate::Telemetry::disabled`], the only switch.
    pub(crate) fn disabled(origin: Instant) -> Self {
        Self {
            enabled: false,
            ..Self::new(Source::Measured, origin)
        }
    }

    /// Whether events are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The source tag applied to emitted events.
    pub fn source(&self) -> Source {
        self.source
    }

    /// Records one event, stamped with seconds on the run clock.
    pub fn log(&self, event: RunEvent) {
        if !self.enabled {
            return;
        }
        let ts = self.origin.elapsed().as_secs_f64();
        self.events.lock().push((ts, event));
    }

    /// Snapshot of `(ts, event)` pairs in emission order.
    pub fn events(&self) -> Vec<(f64, RunEvent)> {
        self.events.lock().clone()
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Serializes all events as JSONL (one JSON object per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (ts, event) in self.events.lock().iter() {
            out.push_str(&event.to_json(*ts, self.source).encode());
            out.push('\n');
        }
        out
    }

    /// Parses a JSONL document back into `(event, ts, source)` triples.
    /// Blank lines are skipped; any malformed line is an error.
    pub fn parse_jsonl(text: &str) -> Result<Vec<(RunEvent, f64, Source)>, String> {
        let mut out = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            out.push(RunEvent::from_json(&v).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
        Ok(out)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the tests build loggers on any origin"
)]
mod tests {
    use super::*;

    fn measured() -> RunLogger {
        RunLogger::new(Source::Measured, Instant::now())
    }

    fn sample_events() -> Vec<RunEvent> {
        let c = Config::new(2, 1, 2);
        vec![
            RunEvent::ConfigApplied {
                config: c,
                reason: "search".to_string(),
            },
            RunEvent::EpochStart {
                epoch: 0,
                config: c,
            },
            RunEvent::StageSummary {
                epoch: 0,
                summary: StageSummaryRecord {
                    stage: "gather".to_string(),
                    seconds: 0.125,
                    count: 17,
                },
            },
            RunEvent::EpochEnd {
                epoch: 0,
                config: c,
                record: EpochRecord {
                    epoch_time: 1.5,
                    loss: 0.693,
                    train_accuracy: 0.51,
                    iterations: 12,
                    minibatches: 24,
                    edges: 4096,
                    sync_time: 0.25,
                },
            },
            RunEvent::TunerTrial(TrialRecord {
                trial: 0,
                config: c,
                epoch_time: 1.5,
                best_config: c,
                best_epoch_time: 1.5,
                suggest_seconds: 1e-4,
                observe_seconds: 2e-4,
            }),
        ]
    }

    #[test]
    fn jsonl_roundtrip_preserves_every_event() {
        let logger = measured();
        for e in sample_events() {
            logger.log(e);
        }
        let text = logger.to_jsonl();
        assert_eq!(text.lines().count(), 5);
        let parsed = RunLogger::parse_jsonl(&text).unwrap();
        assert_eq!(parsed.len(), 5);
        for ((event, ts, source), want) in parsed.iter().zip(sample_events()) {
            assert_eq!(event, &want);
            assert!(*ts >= 0.0);
            assert_eq!(*source, Source::Measured);
        }
    }

    #[test]
    fn modeled_source_survives_roundtrip() {
        let logger = RunLogger::new(Source::Modeled, Instant::now());
        logger.log(RunEvent::EpochStart {
            epoch: 3,
            config: Config::new(4, 2, 2),
        });
        let parsed = RunLogger::parse_jsonl(&logger.to_jsonl()).unwrap();
        assert_eq!(parsed[0].2, Source::Modeled);
    }

    #[test]
    fn disabled_logger_drops_events() {
        let logger = RunLogger::disabled(Instant::now());
        logger.log(RunEvent::EpochStart {
            epoch: 0,
            config: Config::new(2, 1, 1),
        });
        assert!(logger.is_empty());
        assert_eq!(logger.to_jsonl(), "");
        assert!(!logger.is_enabled());
    }

    #[test]
    fn timestamps_are_monotone() {
        let logger = measured();
        for e in sample_events() {
            logger.log(e);
        }
        let ts: Vec<f64> = logger.events().iter().map(|(t, _)| *t).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(RunLogger::parse_jsonl("{\"event\":\"epoch_start\"}").is_err());
        assert!(RunLogger::parse_jsonl("not json").is_err());
        // A zero config field is an error naming the field, not a panic in
        // `Config::new`.
        let zero = r#"{"event":"epoch_start","ts":0,"source":"measured","epoch":0,"config":{"n_proc":0,"n_samp":1,"n_train":1}}"#;
        let err = RunLogger::parse_jsonl(zero).unwrap_err();
        assert!(err.contains("'n_proc' must be positive"), "{err}");
        // The feature cache's per-epoch event is gone: an old log's line is
        // an unknown kind.
        let old = r#"{"event":"cache_summary","ts":0,"source":"measured","epoch":0,"hits":1,"misses":1,"resident_rows":1,"capacity_rows":1,"bytes":4}"#;
        let err = RunLogger::parse_jsonl(old).unwrap_err();
        assert!(err.contains("unknown event kind 'cache_summary'"), "{err}");
        // Blank lines are fine.
        assert_eq!(RunLogger::parse_jsonl("\n\n").unwrap().len(), 0);
    }

    #[test]
    fn config_cache_rows_survives_roundtrip_and_stays_optional() {
        // `with_cache_rows` is a no-op, so the config round-trips as the
        // bare core allocation and no line carries `cache_rows`; an old
        // log's `cache_rows` key stays optional to the reader: ignored.
        let logger = measured();
        logger.log(RunEvent::EpochStart {
            epoch: 0,
            config: Config::new(2, 1, 2).with_cache_rows(1024),
        });
        let line = logger.to_jsonl();
        assert!(!line.contains("cache_rows"), "{line}");
        // A line written while the cache existed still parses, to the same
        // core allocation.
        let old = line.replace("\"n_train\":2", "\"n_train\":2,\"cache_rows\":1024");
        assert!(old.contains("cache_rows"), "{old}");
        for text in [line, old] {
            match &RunLogger::parse_jsonl(&text).unwrap()[0].0 {
                RunEvent::EpochStart { config, .. } => assert_eq!(*config, Config::new(2, 1, 2)),
                other => panic!("wrong event: {other:?}"),
            }
        }
    }

    #[test]
    fn critical_path_and_bytes_summary_roundtrip() {
        let logger = measured();
        logger.log(RunEvent::CriticalPath {
            epoch: 2,
            fractions: vec![
                ("compute".to_string(), 0.625),
                ("sample".to_string(), 0.25),
                ("heap_wait".to_string(), 0.125),
            ],
            spans: 321,
            dropped: 0,
        });
        logger.log(RunEvent::BytesSummary {
            epoch: 2,
            record: BytesRecord {
                batches: 16,
                metadata_bytes: 65536,
                scratch_allocs: 3,
            },
        });
        logger.log(RunEvent::BottleneckCheck {
            epoch: 2,
            config: Config::new(4, 2, 2),
            predicted: "gather".to_string(),
            measured: "compute".to_string(),
        });
        let parsed = RunLogger::parse_jsonl(&logger.to_jsonl()).unwrap();
        assert_eq!(parsed.len(), 3);
        match &parsed[0].0 {
            RunEvent::CriticalPath {
                epoch,
                fractions,
                spans,
                dropped,
            } => {
                assert_eq!(*epoch, 2);
                assert_eq!(fractions.len(), 3);
                assert_eq!(fractions[0], ("compute".to_string(), 0.625));
                assert_eq!(*spans, 321);
                assert_eq!(*dropped, 0);
            }
            other => panic!("wrong event: {other:?}"),
        }
        match &parsed[1].0 {
            RunEvent::BytesSummary { record, .. } => {
                assert_eq!(record.batches, 16);
                assert_eq!(record.metadata_bytes, 65536);
                assert!((record.metadata_bytes_per_batch() - 4096.0).abs() < 1e-12);
            }
            other => panic!("wrong event: {other:?}"),
        }
        match &parsed[2].0 {
            RunEvent::BottleneckCheck {
                config,
                predicted,
                measured,
                ..
            } => {
                assert_eq!(*config, Config::new(4, 2, 2));
                assert_eq!(predicted, "gather");
                assert_eq!(measured, "compute");
            }
            other => panic!("wrong event: {other:?}"),
        }
        assert_eq!(parsed[0].0.kind(), "critical_path");
        assert_eq!(parsed[1].0.kind(), "bytes_summary");
        assert_eq!(parsed[2].0.kind(), "bottleneck_check");
    }

    #[test]
    fn serve_events_roundtrip() {
        let logger = measured();
        logger.log(RunEvent::ServeBatch {
            record: ServeBatchRecord {
                batch: 7,
                requests: 3,
                flush: "deadline".to_string(),
                exec_seconds: 0.004,
            },
        });
        logger.log(RunEvent::ServeRequest {
            record: ServeRequestRecord {
                request: 21,
                batch: 7,
                seeds: 4,
                queue_seconds: 0.001,
                latency_seconds: 0.005,
                cache_hit: true,
            },
        });
        let parsed = RunLogger::parse_jsonl(&logger.to_jsonl()).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0.kind(), "serve_batch");
        assert_eq!(parsed[1].0.kind(), "serve_request");
        match &parsed[0].0 {
            RunEvent::ServeBatch { record } => {
                assert_eq!(record.batch, 7);
                assert_eq!(record.requests, 3);
                assert_eq!(record.flush, "deadline");
                assert!((record.exec_seconds - 0.004).abs() < 1e-12);
            }
            other => panic!("wrong event: {other:?}"),
        }
        match &parsed[1].0 {
            RunEvent::ServeRequest { record } => {
                assert_eq!(record.request, 21);
                assert_eq!(record.batch, 7);
                assert_eq!(record.seeds, 4);
                assert!(record.cache_hit);
                assert!((record.latency_seconds - 0.005).abs() < 1e-12);
            }
            other => panic!("wrong event: {other:?}"),
        }
        // A request served uncached keeps `cache_hit: false` on the wire.
        let miss = RunEvent::ServeRequest {
            record: ServeRequestRecord {
                request: 22,
                batch: 8,
                seeds: 1,
                queue_seconds: 0.0,
                latency_seconds: 0.002,
                cache_hit: false,
            },
        };
        let line = miss.to_json(0.5, Source::Measured).encode();
        assert!(line.contains("\"cache_hit\":false"));
        let (back, _, _) = RunEvent::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, miss);
    }

    #[test]
    fn event_kinds_are_stable() {
        let kinds: Vec<&str> = sample_events().iter().map(|e| e.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                "config_applied",
                "epoch_start",
                "stage_summary",
                "epoch_end",
                "tuner_trial"
            ]
        );
    }
}
