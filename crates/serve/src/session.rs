//! The serving session: admission → micro-batch → execute → respond.
//!
//! [`ServeSession`] is the online counterpart of the training engine. A
//! caller submits "embed/classify these seed nodes" queries; the session
//! queues them in the deadline [`MicroBatcher`],
//! and executes each flushed micro-batch over the same zero-allocation
//! sampler, layer-0 prologue and forward kernels the training path uses.
//!
//! Requests inside a micro-batch execute *individually*, on purpose: the
//! counter-based sampler keys a row's RNG stream off its position in the
//! seed list, so merging queries into one combined seed list would change
//! what every request samples. Keeping each request a pure function of its
//! own seed list is what makes the layered
//! [`ResultCache`] sound — a cached
//! response is bitwise identical to re-executing the query. What a
//! micro-batch amortizes is the flush: one poll, one `serve_exec` span and
//! one `serve_batch` event cover up to `max_batch` requests. Clock reads and
//! the `serve_request` event are per request. A computed request runs
//! training's layer 0: it samples with the model's own normalization, runs
//! the loader's prologue ([`PreparedInput::prepare`]) and starts the model
//! at its first GEMM ([`Gnn::forward_prepared`]). The sampler scratch and
//! the prologue's [`InputRing`] are per session.
//!
//! Because a cached response *is* the response, a result-cache hit is
//! answered inside [`ServeSession::submit`] and never enters the batcher: it
//! comes back as a one-request batch with [`FlushReason::Hit`] and zero
//! queue time. The key is looked up once per request, at admission; a
//! request that missed there queues, and its batch computes and inserts
//! without looking again.
//!
//! All timing flows through the [`Clock`] abstraction;
//! this file never reads the wall clock directly, so every admission and
//! deadline decision is deterministic under [`ManualClock`](crate::clock::ManualClock).

use std::sync::Arc;

use argo_core::Error;
use argo_engine::Engine;
use argo_graph::{Dataset, NodeId};
use argo_nn::Gnn;
use argo_rt::spans::RING_CAPACITY;
use argo_rt::{
    Role, RunEvent, SeedSequence, ServeBatchRecord, ServeRequestRecord, SpanDrain, SpanKind,
    SpanProfiler, Telemetry, WorkerRing,
};
use argo_sample::{
    CacheStats, InputRing, Normalization, PreparedInput, SampleRun, SampledBatchView, Sampler,
    SamplerScratch,
};
use argo_tensor::Matrix;

use crate::batcher::{Admitted, FlushReason, MicroBatch, MicroBatcher};
use crate::clock::{Clock, WallClock};
use crate::result_cache::{key_hash, ResultCache, ResultCacheStats};

const US_PER_SEC: f64 = 1e6;

/// One finished query.
#[derive(Clone, Debug)]
pub struct ServeResponse {
    /// Request id assigned at admission.
    pub request: u64,
    /// Micro-batch the request executed in.
    pub batch: u64,
    /// Logits over the request's seed nodes (`seeds.len() x num_classes`).
    /// Shared with the result cache, hence the `Arc`.
    pub logits: Arc<Matrix>,
    /// Seconds spent queued in the micro-batcher.
    pub queue_seconds: f64,
    /// End-to-end seconds from admission to completion.
    pub latency_seconds: f64,
    /// Whether the response came from the result cache.
    pub cache_hit: bool,
}

/// What one [`ServeSession::submit`] produced: the admitted request's id,
/// plus any responses completed by a flush this admission triggered.
#[derive(Debug, Default)]
pub struct Submitted {
    /// Id of the request just admitted.
    pub request: u64,
    /// The request's own response when it was a result-cache hit, or the
    /// responses (or per-request failures) of a flush this admission
    /// triggered; empty when the request merely queued.
    pub completed: Vec<Result<ServeResponse, Error>>,
}

/// Everything a [`ServeSession`] needs, assembled via
/// [`ServeSpec::builder`] (mirroring `LoaderSpec::builder`).
pub struct ServeSpec {
    dataset: Arc<Dataset>,
    sampler: Arc<dyn Sampler>,
    model: Gnn,
    max_batch: usize,
    deadline_us: u64,
    queue_cap: usize,
    result_cache_entries: usize,
    seed: u64,
    shed_after_us: Option<u64>,
    clock: Arc<dyn Clock>,
}

impl ServeSpec {
    /// Starts a builder over the given dataset, sampler and model (the
    /// model carries whatever parameters it was built with — pass
    /// `Engine::model()` to serve the current training checkpoint).
    pub fn builder(
        dataset: Arc<Dataset>,
        sampler: Arc<dyn Sampler>,
        model: Gnn,
    ) -> ServeSpecBuilder {
        ServeSpecBuilder {
            spec: ServeSpec {
                dataset,
                sampler,
                model,
                max_batch: 8,
                deadline_us: 1_000,
                queue_cap: 1_024,
                result_cache_entries: 0,
                seed: 0,
                shed_after_us: None,
                clock: Arc::new(WallClock::new()),
            },
        }
    }

    /// A builder pre-wired to a training session: shares its dataset and
    /// sampler, snapshots its current model parameters, and inherits its
    /// seed.
    pub fn from_engine(engine: &Engine) -> ServeSpecBuilder {
        ServeSpec::builder(
            Arc::clone(engine.dataset()),
            Arc::clone(engine.sampler()),
            engine.model(),
        )
        .seed(engine.options().seed)
    }
}

/// Builder for [`ServeSpec`] — bare field methods plus `build`/`start`,
/// the same shape as `LoaderSpecBuilder`.
pub struct ServeSpecBuilder {
    spec: ServeSpec,
}

impl ServeSpecBuilder {
    /// Flush a micro-batch once this many requests are pending (default 8).
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.spec.max_batch = max_batch;
        self
    }

    /// Flush once the oldest pending request is this old, in microseconds
    /// (default 1000; 0 = flush every admit immediately).
    pub fn deadline_us(mut self, deadline_us: u64) -> Self {
        self.spec.deadline_us = deadline_us;
        self
    }

    /// Reject admissions beyond this many pending requests (default 1024).
    pub fn queue_cap(mut self, queue_cap: usize) -> Self {
        self.spec.queue_cap = queue_cap;
        self
    }

    /// Does nothing, kept so that existing callers build: a query's layer 0
    /// is one pass over the feature table, with no feature cache in front
    /// of it (DESIGN.md §7).
    pub fn feature_cache_rows(self, _rows: usize) -> Self {
        self
    }

    /// Entries of the layered result cache (default 0 = off). Repeated
    /// identical queries are answered without sampling or compute.
    pub fn result_cache_entries(mut self, entries: usize) -> Self {
        self.spec.result_cache_entries = entries;
        self
    }

    /// Does nothing, kept so that existing callers build: a session fuses
    /// its model's own normalization ([`argo_nn::Arch::normalization`]).
    pub fn normalization(self, _normalization: Normalization) -> Self {
        self
    }

    /// Root seed of the per-request RNG streams (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Shed requests that queued longer than this many microseconds: they
    /// fail with [`Error::DeadlineExceeded`] instead of executing (default:
    /// never shed).
    pub fn shed_after_us(mut self, shed_after_us: u64) -> Self {
        self.spec.shed_after_us = Some(shed_after_us);
        self
    }

    /// Clock driving admission and latency accounting (default
    /// [`WallClock`]; tests inject [`crate::clock::ManualClock`]).
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.spec.clock = clock;
        self
    }

    /// Finalizes the spec.
    pub fn build(self) -> ServeSpec {
        self.spec
    }

    /// Builds the spec and starts a session.
    pub fn start(self) -> ServeSession {
        ServeSession::start(self.build())
    }
}

/// An online inference session. Single-driver: one caller thread submits,
/// polls, drains and runs every query.
pub struct ServeSession {
    dataset: Arc<Dataset>,
    sampler: Arc<dyn Sampler>,
    model: Gnn,
    seed: u64,
    shed_after_us: Option<u64>,
    clock: Arc<dyn Clock>,
    batcher: MicroBatcher,
    scratch: SamplerScratch,
    /// The prologue's operand buffers, handed back after every query; each
    /// grows to the largest query seen.
    inputs: InputRing,
    result_cache: Option<ResultCache>,
    profiler: SpanProfiler,
    ring: Arc<WorkerRing>,
}

impl ServeSession {
    /// Starts a session from a finalized spec.
    pub fn start(spec: ServeSpec) -> Self {
        let ServeSpec {
            dataset,
            sampler,
            model,
            max_batch,
            deadline_us,
            queue_cap,
            result_cache_entries,
            seed,
            shed_after_us,
            clock,
        } = spec;
        let result_cache = if result_cache_entries > 0 {
            Some(ResultCache::new(result_cache_entries))
        } else {
            None
        };
        let profiler = SpanProfiler::new();
        let ring = profiler.ring(Role::Consumer, RING_CAPACITY);
        Self {
            dataset,
            sampler,
            model,
            seed,
            shed_after_us,
            clock,
            batcher: MicroBatcher::new(max_batch, deadline_us, queue_cap),
            scratch: SamplerScratch::new(),
            inputs: InputRing::new(),
            result_cache,
            profiler,
            ring,
        }
    }

    /// Submits one query. Validates the seeds, then:
    ///
    /// * a result-cache hit is answered inside this call, as a one-request
    ///   batch ([`FlushReason::Hit`], `queue_seconds == 0`) that takes the
    ///   next request id. It never
    ///   enters the queue, so it is answered even when the queue is at
    ///   `queue_cap`, and it is never shed. It can overtake an earlier
    ///   queued request: match responses by [`ServeResponse::request`].
    /// * anything else is admitted to the micro-batcher, and — if the
    ///   admission filled the batch or the deadline is zero — the flushed
    ///   micro-batch executes inline. A queued request computes its response
    ///   when its batch runs, even if an identical request queued in the
    ///   same window; the two responses are bitwise equal.
    ///
    /// Either way the responses come back in [`Submitted::completed`].
    ///
    /// Outer errors reject the *admission*: [`Error::InvalidArgument`] for
    /// an empty seed list or a model not as wide as the features,
    /// [`Error::UnknownSeedNode`] for out-of-graph ids, [`Error::QueueFull`]
    /// at capacity. Per-request failures come back inside `completed`:
    /// sheds ([`Error::DeadlineExceeded`]), block batches not as deep as the
    /// model ([`Error::InvalidArgument`]).
    pub fn submit(
        &mut self,
        seeds: Vec<NodeId>,
        telemetry: Option<&Telemetry>,
    ) -> Result<Submitted, Error> {
        if seeds.is_empty() {
            return Err(Error::InvalidArgument(
                "serve query needs at least one seed node".to_string(),
            ));
        }
        let (feat_dim, in_dim) = (self.dataset.feat_dim(), self.model.dims()[0]);
        if feat_dim != in_dim {
            let msg =
                format!("the model reads {in_dim} input features, the dataset has {feat_dim}");
            return Err(Error::InvalidArgument(msg));
        }
        let num_nodes = self.dataset.graph.num_nodes() as u64;
        for &s in &seeds {
            if u64::from(s) >= num_nodes {
                return Err(Error::UnknownSeedNode(format!(
                    "node {s} out of range (graph has {num_nodes} nodes)"
                )));
            }
        }
        let now = self.clock.now_us();
        let hit = self.result_cache.as_mut().and_then(|c| c.get(&seeds));
        if let Some(logits) = hit {
            let batch = self.batcher.admit_hit(seeds, now);
            let request = batch.requests[0].id;
            let completed = self.execute_batch(batch, Some(logits), telemetry);
            return Ok(Submitted { request, completed });
        }
        let (request, flushed) = self.batcher.admit(seeds, now)?;
        let completed = match flushed {
            Some(batch) => self.execute_batch(batch, None, telemetry),
            None => Vec::new(),
        };
        Ok(Submitted { request, completed })
    }

    /// Executes a micro-batch if the oldest pending request's deadline has
    /// passed. Call at (or after) [`ServeSession::next_deadline_us`].
    pub fn poll(&mut self, telemetry: Option<&Telemetry>) -> Vec<Result<ServeResponse, Error>> {
        let now = self.clock.now_us();
        match self.batcher.poll(now) {
            Some(batch) => self.execute_batch(batch, None, telemetry),
            None => Vec::new(),
        }
    }

    /// Flushes and executes everything still pending (session shutdown).
    pub fn drain(&mut self, telemetry: Option<&Telemetry>) -> Vec<Result<ServeResponse, Error>> {
        let mut out = Vec::new();
        while let Some(batch) = self.batcher.flush(self.clock.now_us(), FlushReason::Drain) {
            out.extend(self.execute_batch(batch, None, telemetry));
        }
        out
    }

    /// Requests currently queued.
    pub fn pending(&self) -> usize {
        self.batcher.pending()
    }

    /// Clock reading at which the oldest pending request must flush.
    pub fn next_deadline_us(&self) -> Option<u64> {
        self.batcher.next_deadline_us()
    }

    /// Result-cache counters, when the cache is enabled.
    pub fn result_cache_stats(&self) -> Option<ResultCacheStats> {
        self.result_cache.as_ref().map(ResultCache::stats)
    }

    /// Always `None`: there is no feature cache (DESIGN.md §7). Kept so
    /// that existing callers build.
    pub fn feature_cache_stats(&self) -> Option<CacheStats> {
        None
    }

    /// Collects the `serve_queue`/`serve_exec` spans recorded so far — by
    /// the calls that passed `Some(&Telemetry)`; calls passing `None` record
    /// nothing.
    pub fn drain_spans(&self) -> SpanDrain {
        self.profiler.drain()
    }

    /// Answers every request of `batch`. `hit` is the cached response of a
    /// one-request [`FlushReason::Hit`] batch; every other request computes.
    fn execute_batch(
        &mut self,
        batch: MicroBatch,
        mut hit: Option<Arc<Matrix>>,
        telemetry: Option<&Telemetry>,
    ) -> Vec<Result<ServeResponse, Error>> {
        // The one switch, as in the engine: no (or a disabled) handle means
        // no spans and no events.
        let telemetry = telemetry.filter(|t| t.is_enabled());
        let exec_start_us = batch.flushed_us;
        let mut out = Vec::with_capacity(batch.requests.len());
        for req in &batch.requests {
            let cached = hit.take();
            out.push(self.execute_request(req, batch.id, batch.flushed_us, cached, telemetry));
        }
        let exec_end_us = self.clock.now_us().max(exec_start_us);
        let exec_seconds = (exec_end_us - exec_start_us) as f64 / US_PER_SEC;
        if let Some(t) = telemetry {
            // Interval endpoints come from the serving clock, not the ring's:
            // push() exists exactly for spans measured elsewhere.
            self.ring.push(
                SpanKind::ServeExec,
                batch.id,
                exec_start_us as f64 / US_PER_SEC,
                exec_end_us as f64 / US_PER_SEC,
            );
            t.logger.log(RunEvent::ServeBatch {
                record: ServeBatchRecord {
                    batch: batch.id,
                    requests: batch.requests.len() as u64,
                    flush: batch.reason.label().to_string(),
                    exec_seconds,
                },
            });
        }
        out
    }

    fn execute_request(
        &mut self,
        req: &Admitted,
        batch_id: u64,
        flushed_us: u64,
        cached: Option<Arc<Matrix>>,
        telemetry: Option<&Telemetry>,
    ) -> Result<ServeResponse, Error> {
        let queue_us = flushed_us.saturating_sub(req.admitted_us);
        if telemetry.is_some() {
            self.ring.push(
                SpanKind::ServeQueue,
                req.id,
                req.admitted_us as f64 / US_PER_SEC,
                flushed_us as f64 / US_PER_SEC,
            );
        }
        if let Some(limit) = self.shed_after_us {
            if queue_us > limit {
                return Err(Error::DeadlineExceeded(format!(
                    "request {} queued {queue_us}us (shed after {limit}us)",
                    req.id
                )));
            }
        }
        // A queued request already missed the cache at admission; looking
        // again would count it twice.
        let cache_hit = cached.is_some();
        let logits = match cached {
            Some(cached) => cached,
            None => {
                let computed = Arc::new(self.run_query(&req.seeds)?);
                if let Some(c) = self.result_cache.as_mut() {
                    c.insert(req.seeds.clone(), Arc::clone(&computed));
                }
                computed
            }
        };
        let done_us = self.clock.now_us().max(flushed_us);
        let queue_seconds = queue_us as f64 / US_PER_SEC;
        let latency_seconds = done_us.saturating_sub(req.admitted_us) as f64 / US_PER_SEC;
        if let Some(t) = telemetry {
            t.logger.log(RunEvent::ServeRequest {
                record: ServeRequestRecord {
                    request: req.id,
                    batch: batch_id,
                    seeds: req.seeds.len() as u64,
                    queue_seconds,
                    latency_seconds,
                    cache_hit,
                },
            });
        }
        Ok(ServeResponse {
            request: req.id,
            batch: batch_id,
            logits,
            queue_seconds,
            latency_seconds,
            cache_hit,
        })
    }

    /// Samples, runs the prologue and the forward pass for one query. The
    /// RNG stream root folds the session seed and the seed list itself, so
    /// the response is a pure function of the cache key — which is exactly
    /// what makes cached responses bitwise-identical to recomputed ones.
    fn run_query(&mut self, seeds: &[NodeId]) -> Result<Matrix, Error> {
        let stream =
            SeedSequence::new(key_hash(seeds, 0) ^ self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let norm = self.model.kind().normalization();
        let run = SampleRun::new(stream, &mut self.scratch).with_norm(norm);
        // Borrowed view over the sampler's batch arena: the adjacency never
        // leaves scratch, the prologue and the forward pass read it there.
        let batch = self.sampler.sample_into(&self.dataset.graph, seeds, run);
        if let SampledBatchView::Blocks(mb) = batch {
            let (blocks, depth) = (mb.num_blocks(), self.model.num_layers());
            if blocks != depth {
                let msg = format!("the sampler made {blocks} blocks for a {depth}-layer model");
                return Err(Error::InvalidArgument(msg));
            }
        }
        // A detached span ring: serving records its own spans, not the loader's.
        let (features, spans) = (&self.dataset.features, WorkerRing::detached());
        let input = PreparedInput::prepare(&batch, features, &self.inputs, &spans, 0);
        let logits = self.model.forward_prepared(&batch, &input, None);
        input.recycle(&self.inputs);
        Ok(logits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo_graph::datasets::FLICKR;
    use argo_nn::Arch;
    use argo_sample::NeighborSampler;

    #[test]
    fn a_warm_session_makes_no_new_buffer() {
        // Once a session has run its largest query, every later query takes
        // its prologue buffers from the session's ring and hands them back:
        // no operand buffer is made, and none grows. The warm-up runs every
        // query once, so it includes the largest.
        let d = Arc::new(FLICKR.synthesize(0.003, 77));
        let queries: Vec<Vec<NodeId>> = (0..24).map(|i| (i..i + 1 + i % 8).collect()).collect();
        let model = Gnn::new(Arch::Sage, d.feat_dim(), 8, d.num_classes, 2, 5);
        let sampler = Arc::new(NeighborSampler::new(vec![6, 3]));
        let mut s = ServeSpec::builder(Arc::clone(&d), sampler, model)
            .deadline_us(0)
            .start();
        let mut serve_all = || {
            for q in &queries {
                let done = s.submit(q.clone(), None).unwrap().completed;
                assert!(done[0].is_ok());
            }
            (s.inputs.buffers_made(), s.inputs.parked_bytes())
        };
        let warm = serve_all();
        // GraphSAGE's aggregation and self rows.
        assert_eq!(warm.0, 2);
        assert_eq!(serve_all(), warm);
    }
}
