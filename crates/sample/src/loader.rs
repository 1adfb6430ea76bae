//! Pipelined mini-batch loading: sampling overlapped with training.
//!
//! State-of-the-art GNN libraries overlap mini-batch sampling with model
//! propagation (paper Section V-A2); ARGO's auto-tuner decides how many
//! cores each side gets. [`PipelinedLoader`] implements the sampling side:
//! `n_samp` sampler threads (bound to the process's *sampling cores*)
//! produce batches into a channel of one ready batch per worker while the
//! training thread consumes them **in deterministic batch order** — batch
//! `i` of epoch `e` is always drawn from RNG seed `seed_for(e, i)`
//! regardless of which worker produced it, so pipelining never perturbs
//! training semantics.
//!
//! When the [`LoaderSpec`] carries the node features, workers also run the
//! step's **parameter-free prologue**: they aggregate each batch's input
//! rows over the input-side adjacency, whose values carry the fused
//! normalization (`Â₀·X[input_nodes]` depends on the batch and the features,
//! never on the weights) with [`PreparedInput::prepare`], which serving
//! runs too. That is one pass over the feature table: the aggregation
//! reads each input row straight out of [`Features::data`] through the
//! batch's input-node ids, and no gathered copy is made. Unlike the feature
//! cache this module once had in front of the table (DESIGN.md §7), it adds
//! no second copy of the rows to the memory-bound work. The memory-bound
//! half of the first layer then runs on the sampling cores, overlapped with
//! training, and the training thread starts at the first GEMM; see
//! [`PreparedInput`] for what crosses the channel.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use argo_graph::{Features, Graph, NodeId};
use argo_rt::affinity::{bind_current_thread, CoreSet};
use argo_rt::spans::{Role, SpanKind, SpanProfiler, WorkerRing};
use argo_rt::SeedSequence;
use argo_tensor::{DispatchPolicy, Matrix, SparseView};
use crossbeam::channel::{bounded, Receiver};

use crate::batch::{Normalization, SampledBatch};
use crate::scratch::SamplerScratch;
use crate::view::SampledBatchView;
use crate::{SampleRun, Sampler};

/// Everything [`PipelinedLoader::start`] needs for one epoch of one
/// process. Construct via [`LoaderSpec::builder`].
#[derive(Clone)]
pub struct LoaderSpec {
    /// The (shared) graph to sample from.
    pub graph: Arc<Graph>,
    /// Sampling algorithm.
    pub sampler: Arc<dyn Sampler>,
    /// This process's training targets (already partitioned).
    pub seeds: Arc<Vec<NodeId>>,
    /// Local batch size (global batch / number of processes, per the
    /// Multi-Process Engine).
    pub batch_size: usize,
    /// Epoch number (selects the deterministic RNG stream).
    pub epoch: u64,
    /// The [`SeedSequence`] child for this process; batch `i` of `epoch`
    /// uses `epoch_seeds.seed_for(epoch, i)`.
    pub epoch_seeds: SeedSequence,
    /// Number of sampler threads; the channel holds one ready batch each.
    pub n_samp: usize,
    /// Sampling cores to bind the workers to (empty = unbound).
    pub cores: CoreSet,
    /// Node features; when present, workers prepare each batch's
    /// [`LoadedBatch::input`]: the input rows aggregated over the input-side
    /// adjacency. A spec with features must fuse a normalization
    /// (not [`Normalization::None`]): the aggregation reads its values.
    pub features: Option<Arc<Features>>,
    /// Fused normalization the samplers write into each batch's adjacency
    /// values during construction (no post-pass on the training side). With
    /// values in place the first aggregation needs nothing else, so a worker
    /// with `features` runs it, keeping the self rows for
    /// [`Normalization::Mean`] (GraphSAGE's scheme). [`Normalization::None`]
    /// is for a spec without `features` only.
    pub normalization: Normalization,
    /// Causal span profiler. When present, each worker registers a
    /// producer ring (pick/gather/aggregate/enqueue-wait spans keyed by
    /// batch id) and the consuming thread a consumer ring (channel/heap
    /// dequeue waits), each sized for the whole epoch. The spans are the loader's
    /// only telemetry: stage times and critical-path attribution are
    /// derived from them at epoch end.
    pub spans: Option<SpanProfiler>,
}

impl LoaderSpec {
    /// A builder seeded with the three mandatory handles; everything else
    /// defaults (`batch_size` 1, `epoch` 0, one worker, unbound, no prepared
    /// input).
    pub fn builder(
        graph: Arc<Graph>,
        sampler: Arc<dyn Sampler>,
        seeds: Arc<Vec<NodeId>>,
    ) -> LoaderSpecBuilder {
        LoaderSpecBuilder {
            spec: LoaderSpec {
                graph,
                sampler,
                seeds,
                batch_size: 1,
                epoch: 0,
                epoch_seeds: SeedSequence::new(0),
                n_samp: 1,
                cores: CoreSet::default(),
                features: None,
                normalization: Normalization::None,
                spans: None,
            },
        }
    }
}

/// Builder for [`LoaderSpec`]; see [`LoaderSpec::builder`].
pub struct LoaderSpecBuilder {
    spec: LoaderSpec,
}

impl LoaderSpecBuilder {
    /// Local batch size.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.spec.batch_size = batch_size;
        self
    }

    /// Epoch number.
    pub fn epoch(mut self, epoch: u64) -> Self {
        self.spec.epoch = epoch;
        self
    }

    /// Per-process seed stream.
    pub fn epoch_seeds(mut self, epoch_seeds: SeedSequence) -> Self {
        self.spec.epoch_seeds = epoch_seeds;
        self
    }

    /// Number of sampler threads.
    pub fn n_samp(mut self, n_samp: usize) -> Self {
        self.spec.n_samp = n_samp;
        self
    }

    /// Sampling cores to bind to.
    pub fn cores(mut self, cores: CoreSet) -> Self {
        self.spec.cores = cores;
        self
    }

    /// Enables the worker-side prologue (gather and first aggregation); the
    /// spec must also fuse a normalization.
    pub fn features(mut self, features: Arc<Features>) -> Self {
        self.spec.features = Some(features);
        self
    }

    /// Does nothing: the prologue reads the feature table, with no cache in
    /// front of it (DESIGN.md §7). Kept until the benchmark, which calls it,
    /// drops the call (ROADMAP 11.8).
    pub fn cache(self, _cache: Arc<crate::FeatureCache>) -> Self {
        self
    }

    /// Fused normalization written into each batch's adjacency values.
    pub fn normalization(mut self, normalization: Normalization) -> Self {
        self.spec.normalization = normalization;
        self
    }

    /// Attaches a causal span profiler (a handle made with
    /// [`SpanProfiler::for_process`] tags the loader's spans with that rank).
    pub fn spans(mut self, spans: SpanProfiler) -> Self {
        self.spec.spans = Some(spans);
        self
    }

    /// Finalizes the spec.
    pub fn build(self) -> LoaderSpec {
        self.spec
    }

    /// Shorthand for `PipelinedLoader::start(self.build())`.
    pub fn start(self) -> PipelinedLoader {
        PipelinedLoader::start(self.build())
    }
}

/// What a training step's first parameterised operation reads — the product
/// of the parameter-free prologue a loader worker runs on each batch: layer
/// 0's aggregation, which is all a GCN/GraphSAGE first GEMM reads of the
/// input rows. No `n_src × F` matrix of them is made.
pub struct PreparedInput {
    /// `Â₀·X[input_nodes]`, one row per row of the input-side adjacency
    /// (`n_dst × F`).
    pub agg: Matrix,
    /// The `n_dst` self rows GraphSAGE concatenates (the first `n_dst`
    /// gathered rows); `None` for GCN.
    pub self_rows: Option<Matrix>,
}

impl PreparedInput {
    /// The reference the prologue is pinned against: aggregates the
    /// `gathered` input rows over `adj` — the batch's normalized input-side
    /// adjacency — with the same dispatch kernel the model's layers use,
    /// into buffers of `ring`. Every output row is one independent pass over
    /// its adjacency row, so the result is bitwise what the model would have
    /// aggregated itself.
    pub fn aggregate(
        adj: SparseView<'_>,
        gathered: &Matrix,
        keep_self_rows: bool,
        dispatch: DispatchPolicy,
        ring: &InputRing,
    ) -> Self {
        let (n_dst, dim) = (adj.rows(), gathered.cols());
        let mut agg = ring.take(n_dst, dim);
        dispatch.aggregate_view_into(&adj, gathered, None, &mut agg);
        let self_rows = keep_self_rows.then(|| {
            let mut rows = ring.take(n_dst, dim);
            rows.data_mut()
                .copy_from_slice(&gathered.data()[..n_dst * dim]);
            rows
        });
        PreparedInput { agg, self_rows }
    }

    /// The prologue, the one layer-0 function the loader's workers and the
    /// serving session share: `batch`'s input rows aggregated over its
    /// input-side adjacency (whose values carry the fused normalization),
    /// plus the self rows under [`Normalization::Mean`], in one pass over the
    /// feature table (`Gather` and `Aggregate` spans of `batch_id`). Bitwise
    /// what [`PreparedInput::aggregate`] makes of `features.gather(ids)`.
    pub fn prepare(
        batch: &SampledBatchView<'_>,
        features: &Features,
        ring: &InputRing,
        spans: &WorkerRing,
        batch_id: u64,
    ) -> Self {
        let (adj, ids) = (batch.input_adj(), batch.input_nodes());
        let keep_self_rows = batch.norm() == Normalization::Mean;
        let (n_dst, dim) = (adj.rows(), features.dim());
        let self_rows = spans.timed(SpanKind::Gather, batch_id, || {
            keep_self_rows.then(|| {
                let mut rows = ring.take(n_dst, dim);
                features.gather_into(&ids[..n_dst], rows.data_mut());
                rows
            })
        });
        let agg = spans.timed(SpanKind::Aggregate, batch_id, || {
            let mut agg = ring.take(n_dst, dim);
            DispatchPolicy::default().aggregate_table_into(
                &adj,
                features.data(),
                ids,
                None,
                &mut agg,
            );
            agg
        });
        PreparedInput { agg, self_rows }
    }

    /// Retires every buffer to `ring` once the step has read them.
    pub fn recycle(self, ring: &InputRing) {
        ring.put(self.agg);
        if let Some(rows) = self.self_rows {
            ring.put(rows);
        }
    }
}

/// The recycled feature-path buffers of one loader/consumer pair.
///
/// A prepared batch input is the largest buffer on the training path
/// (megabytes) and it crosses threads: a loader worker fills it, the consumer
/// trains on it. Instead of mapping fresh ones per batch and unmapping them
/// after the step, the worker [`take`](InputRing::take)s retired buffers and
/// the consumer [`put`](InputRing::put)s them back when the step is done. The
/// ring is a cheap handle (clones share the buffers) and outlives the
/// per-epoch loader: the engine keeps one per rank across epochs. It holds as
/// many operand sets as were ever in flight at once — one per worker in the
/// channel, one per worker being filled and the consumer's, `2·n_samp + 1`
/// (with several workers, batches that arrive early wait in the reorder heap
/// on top) — each buffer grown to the largest operand it has carried.
/// Unlike the feature cache this crate once had, whose prologue gathered
/// `n_src × F` rows into a second pool of buffers here, the prologue reads
/// the feature table, and the ring holds operands only.
#[derive(Clone, Default)]
pub struct InputRing {
    inner: Arc<RingInner>,
}

/// A free list of retired `f32` allocations and the count ever made.
#[derive(Default)]
struct RingInner {
    free: Mutex<Vec<Vec<f32>>>,
    made: AtomicUsize,
}

impl InputRing {
    /// An empty ring; buffers are made on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// A `rows × cols` operand matrix on the most recently retired buffer
    /// (or a new one when none is parked), grown to exactly the new
    /// high-water mark when it is too small, without carrying the stale rows
    /// over. Contents are unspecified: the caller overwrites every element.
    pub fn take(&self, rows: usize, cols: usize) -> Matrix {
        let mut buf = self.inner.free.lock().pop().unwrap_or_else(|| {
            self.inner.made.fetch_add(1, Ordering::Relaxed);
            Vec::new()
        });
        let need = rows * cols;
        if buf.capacity() < need {
            buf.clear();
            buf.reserve_exact(need);
        }
        buf.resize(need, 0.0);
        Matrix::from_vec(rows, cols, buf)
    }

    /// Retires an operand's allocation for the next [`InputRing::take`].
    pub fn put(&self, input: Matrix) {
        self.inner.free.lock().push(input.into_data());
    }

    /// Operand buffers made so far (parked or in flight).
    pub fn buffers_made(&self) -> usize {
        self.inner.made.load(Ordering::Relaxed)
    }

    /// Bytes held by the parked operand buffers.
    pub fn parked_bytes(&self) -> usize {
        let free = self.inner.free.lock();
        free.iter().map(Vec::capacity).sum::<usize>() * std::mem::size_of::<f32>()
    }
}

/// One sampled (and possibly prepared) mini-batch.
pub struct LoadedBatch {
    /// The sampled computation structure.
    pub batch: SampledBatch,
    /// What the step's first parameterised operation reads, prepared on the
    /// sampling side in buffers of the loader's [`InputRing`]; hand them back
    /// with [`PreparedInput::recycle`] after the step. `None` when the spec
    /// carried no features.
    pub input: Option<PreparedInput>,
    /// Scratch-arena allocations this batch charged to the producing
    /// worker's [`SamplerScratch`] (0 once the arena is warm).
    pub scratch_allocs: u64,
    /// Bytes of batch metadata in the compact arena-CSR layout (node ids,
    /// degrees, `u32` row pointers, column indices, fused values), measured
    /// on the borrowed view before the reorder-channel handoff materialized
    /// this owned copy.
    pub metadata_bytes: u64,
}

struct Indexed {
    index: usize,
    batch: LoadedBatch,
}

impl PartialEq for Indexed {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
    }
}
impl Eq for Indexed {}
impl PartialOrd for Indexed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Indexed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.index.cmp(&self.index) // min-heap on index
    }
}

/// Prefetching mini-batch loader. Iterate it to receive
/// `(batch_index, LoadedBatch)` in index order.
pub struct PipelinedLoader {
    rx: Receiver<Indexed>,
    reorder: BinaryHeap<Indexed>,
    next: usize,
    total: usize,
    ring: Arc<WorkerRing>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Set by a worker that unwinds, so the consumer stops the epoch at its
    /// next receive instead of queueing what the surviving workers make.
    failed: Arc<AtomicBool>,
}

/// Raises the loader's `failed` flag when its worker thread unwinds.
struct FlagOnPanic(Arc<AtomicBool>);

impl Drop for FlagOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

impl PipelinedLoader {
    /// Starts `spec.n_samp` sampler threads producing all batches of one
    /// epoch, with a ring of its own: nothing is handed back, so every
    /// prepared input sits in fresh buffers the consumer keeps.
    pub fn start(spec: LoaderSpec) -> Self {
        Self::start_recycling(spec, InputRing::new())
    }

    /// [`PipelinedLoader::start`] with prepared inputs taken from `inputs`,
    /// the ring the consumer returns them to.
    pub fn start_recycling(spec: LoaderSpec, inputs: InputRing) -> Self {
        let LoaderSpec {
            graph,
            sampler,
            seeds,
            batch_size,
            epoch,
            epoch_seeds,
            n_samp,
            cores,
            features,
            normalization,
            spans,
        } = spec;
        assert!(batch_size > 0 && n_samp > 0);
        assert!(
            features.is_none() || normalization != Normalization::None,
            "a loader with features aggregates: it needs a fused normalization"
        );
        let total = seeds.len().div_ceil(batch_size);
        // One ready batch per worker: the loader outpaces the step, so a
        // deeper channel would only hold more prepared inputs in memory.
        let (tx, rx) = bounded::<Indexed>(n_samp);
        let cursor = Arc::new(AtomicUsize::new(0));
        let failed = Arc::new(AtomicBool::new(false));
        // Ring sizes follow from the batch count, so no span is ever
        // dropped: the consumer waits once per batch, and one worker may
        // end up producing every batch (pick, gather, aggregate,
        // enqueue).
        let ring_for = |role: Role, spans_per_batch: usize| match &spans {
            Some(p) => p.ring(role, total * spans_per_batch),
            None => Arc::new(WorkerRing::detached()),
        };
        let consumer_ring = ring_for(Role::Consumer, 1);
        let mut workers = Vec::with_capacity(n_samp);
        for w in 0..n_samp {
            let graph = Arc::clone(&graph);
            let sampler = Arc::clone(&sampler);
            let seeds = Arc::clone(&seeds);
            let cursor = Arc::clone(&cursor);
            let features = features.clone();
            let inputs = inputs.clone();
            let tx = tx.clone();
            let on_panic = FlagOnPanic(Arc::clone(&failed));
            let ring = ring_for(Role::Producer, 4);
            let my_core = if cores.is_empty() {
                None
            } else {
                Some(CoreSet::new(vec![cores.ids()[w % cores.len()]]))
            };
            let worker = std::thread::Builder::new()
                .name(format!("argo-sampler-{w}"))
                .spawn(move || {
                    let _on_panic = on_panic;
                    if let Some(c) = &my_core {
                        let _ = bind_current_thread(c);
                    }
                    // Per-worker persistent state: the scratch arena is
                    // warm after the first batch.
                    let mut scratch = SamplerScratch::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        let lo = i * batch_size;
                        let hi = ((i + 1) * batch_size).min(seeds.len());
                        let id = i as u64;
                        let stream = SeedSequence::new(epoch_seeds.seed_for(epoch, id));
                        let allocs_before = scratch.allocs();
                        // Assemble in the scratch arena, account the
                        // compact metadata footprint, then materialize
                        // the owned copy the reorder channel requires
                        // (the sanctioned ownership boundary).
                        let run = SampleRun::new(stream, &mut scratch).with_norm(normalization);
                        let (view, batch, metadata_bytes) = ring.timed(SpanKind::Pick, id, || {
                            let view = sampler.sample_into(&graph, &seeds[lo..hi], run);
                            (view, view.to_owned(), view.metadata_bytes() as u64)
                        });
                        let input = features
                            .as_deref()
                            .map(|f| PreparedInput::prepare(&view, f, &inputs, &ring, id));
                        let scratch_allocs = scratch.allocs() - allocs_before;
                        let loaded = LoadedBatch {
                            batch,
                            input,
                            scratch_allocs,
                            metadata_bytes,
                        };
                        // The enqueue-wait span measures backpressure:
                        // time blocked on a full channel.
                        let sent = ring.timed(SpanKind::EnqueueWait, id, || {
                            tx.send(Indexed {
                                index: i,
                                batch: loaded,
                            })
                            .is_ok()
                        });
                        if !sent {
                            break; // consumer dropped
                        }
                    }
                });
            #[expect(
                clippy::expect_used,
                reason = "thread::Builder::spawn fails only on OS thread exhaustion; no meaningful recovery"
            )]
            workers.push(worker.expect("spawn sampler"));
        }
        Self {
            rx,
            reorder: BinaryHeap::new(),
            next: 0,
            total,
            ring: consumer_ring,
            workers,
            failed,
        }
    }

    /// Number of batches this epoch will produce.
    pub fn num_batches(&self) -> usize {
        self.total
    }
}

impl Iterator for PipelinedLoader {
    type Item = (usize, LoadedBatch);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.total {
            return None;
        }
        // The dequeue-wait span covers both the channel recv and the
        // reorder-heap stall for the in-order batch, so the critical-path
        // attribution can tell "producers too slow" from "heap reordering".
        let Self {
            rx,
            reorder,
            next,
            ring,
            workers,
            failed,
            ..
        } = self;
        ring.timed(SpanKind::DequeueWait, *next as u64, || loop {
            // pop-if: take the heap top only when it is the batch the
            // consumer is waiting for (avoids a peek-then-unwrap pair).
            if reorder.peek().is_some_and(|top| top.index == *next) {
                if let Some(item) = reorder.pop() {
                    *next += 1;
                    return Some((item.index, item.batch));
                }
            }
            // A worker died — it raised the flag, or every sender is gone
            // with batches missing (one that runs out of batches has sent
            // them all). Ending the iteration here would hand the consumer a
            // short epoch, and waiting on would queue the rest of the
            // epoch's prepared inputs behind a batch that never comes. What
            // is already in the channel is still taken (the batches before
            // the dead one arrive in order); then the worker's panic is
            // re-raised on this thread, after the channel is closed under
            // the survivors and every worker joined.
            let received = if failed.load(Ordering::Acquire) {
                rx.try_recv().ok()
            } else {
                rx.recv().ok()
            };
            let Some(item) = received else {
                drop(std::mem::replace(rx, bounded(1).1));
                let mut payload = None;
                for w in workers.drain(..) {
                    if let Err(p) = w.join() {
                        payload.get_or_insert(p);
                    }
                }
                std::panic::resume_unwind(
                    payload
                        .unwrap_or_else(|| Box::new("loader workers exited with batches missing")),
                );
            };
            reorder.push(item);
        })
    }
}

impl Drop for PipelinedLoader {
    fn drop(&mut self) {
        // Unblock producers waiting on a full channel, then join.
        while self.rx.try_recv().is_ok() {}
        drop(std::mem::replace(&mut self.rx, bounded(1).1));
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbor::NeighborSampler;
    use argo_graph::generators::power_law;

    fn setup() -> (Arc<Graph>, Arc<dyn Sampler>, Arc<Vec<NodeId>>) {
        let g = Arc::new(power_law(500, 5000, 0.8, 1));
        let s: Arc<dyn Sampler> = Arc::new(NeighborSampler::new(vec![5, 3]));
        let seeds: Arc<Vec<NodeId>> = Arc::new((0..100).collect());
        (g, s, seeds)
    }

    #[test]
    fn yields_all_batches_in_order() {
        argo_rt::watchdog(60, || {
            let (g, s, seeds) = setup();
            let loader = LoaderSpec::builder(g, s, seeds)
                .batch_size(16)
                .epoch_seeds(SeedSequence::new(42))
                .n_samp(3)
                .start();
            assert_eq!(loader.num_batches(), 7);
            let idxs: Vec<usize> = loader.map(|(i, _)| i).collect();
            assert_eq!(idxs, vec![0, 1, 2, 3, 4, 5, 6]);
        });
    }

    #[test]
    fn batch_content_independent_of_worker_count() {
        argo_rt::watchdog(60, || {
            // The number of sampler threads may not change what gets sampled:
            // batch i of epoch e is a pure function of (epoch_seeds, e, i).
            let (g, s, seeds) = setup();
            let run = |n_samp: usize| -> Vec<Vec<NodeId>> {
                LoaderSpec::builder(Arc::clone(&g), Arc::clone(&s), Arc::clone(&seeds))
                    .batch_size(10)
                    .epoch(3)
                    .epoch_seeds(SeedSequence::new(7))
                    .n_samp(n_samp)
                    .start()
                    .map(|(_, b)| b.batch.input_nodes().to_vec())
                    .collect()
            };
            let reference = run(1);
            assert_eq!(reference, run(2));
            assert_eq!(reference, run(4));
        });
    }

    #[test]
    fn steady_state_sampling_is_allocation_free() {
        argo_rt::watchdog(60, || {
            // The scratch arena warms up on the first batch; after that the
            // worker loop charges zero allocations for sampler metadata. Every
            // batch here has identical seed content (nodes 0..16), so the warm
            // arena is provably large enough for all later batches.
            let g = Arc::new(power_law(500, 5000, 0.8, 1));
            let s: Arc<dyn Sampler> = Arc::new(NeighborSampler::new(vec![5, 3]));
            let seeds: Arc<Vec<NodeId>> = Arc::new((0..12).flat_map(|_| 0..16).collect());
            let allocs: Vec<u64> = LoaderSpec::builder(g, s, seeds)
                .batch_size(16)
                .epoch_seeds(SeedSequence::new(11))
                .normalization(Normalization::Gcn)
                .n_samp(1)
                .start()
                .map(|(_, b)| b.scratch_allocs)
                .collect();
            assert_eq!(allocs.len(), 12);
            assert!(allocs[0] > 0, "first batch must warm the arena: {allocs:?}");
            assert!(
                allocs[1..].iter().all(|&a| a == 0),
                "steady state must not allocate: {allocs:?}"
            );
        });
    }

    #[test]
    fn last_batch_is_short() {
        argo_rt::watchdog(60, || {
            let (g, s, _) = setup();
            let seeds: Arc<Vec<NodeId>> = Arc::new((0..25).collect());
            let loader = LoaderSpec::builder(g, s, seeds)
                .batch_size(10)
                .epoch_seeds(SeedSequence::new(1))
                .n_samp(2)
                .start();
            let sizes: Vec<usize> = loader.map(|(_, b)| b.batch.num_seeds()).collect();
            assert_eq!(sizes, vec![10, 10, 5]);
        });
    }

    #[test]
    fn early_drop_does_not_hang() {
        argo_rt::watchdog(60, || {
            let (g, s, seeds) = setup();
            let mut loader = LoaderSpec::builder(g, s, seeds)
                .batch_size(4)
                .epoch_seeds(SeedSequence::new(5))
                .n_samp(2)
                .start();
            let _ = loader.next();
            drop(loader); // must join cleanly even with batches unconsumed
        });
    }

    #[test]
    fn different_epochs_differ() {
        argo_rt::watchdog(60, || {
            let (g, s, seeds) = setup();
            let collect = |epoch: u64| -> Vec<Vec<NodeId>> {
                LoaderSpec::builder(Arc::clone(&g), Arc::clone(&s), Arc::clone(&seeds))
                    .batch_size(10)
                    .epoch(epoch)
                    .epoch_seeds(SeedSequence::new(7))
                    .n_samp(2)
                    .start()
                    .map(|(_, b)| b.batch.input_nodes().to_vec())
                    .collect()
            };
            assert_ne!(collect(0), collect(1));
        });
    }

    fn features() -> Arc<Features> {
        Arc::new(Features::new(
            (0..500 * 4).map(|x| x as f32 * 0.01).collect(),
            4,
        ))
    }

    /// `Â₀·X[input_nodes]` the obvious way: for every entry of the batch's
    /// input-side adjacency, in row order, `out[i] += value · X[col]`.
    fn aggregated_by_hand(batch: &SampledBatch, feats: &Features) -> Vec<f32> {
        let (adj, ids) = (batch.input_adj(), batch.input_nodes());
        let values = adj.values().expect("fused normalization");
        let mut out = vec![0.0f32; adj.rows() * feats.dim()];
        for (i, row) in out.chunks_mut(feats.dim()).enumerate() {
            for k in adj.row_range(i) {
                let src = feats.row(ids[adj.indices()[k] as usize]);
                for (o, x) in row.iter_mut().zip(src) {
                    *o += values[k] * x;
                }
            }
        }
        out
    }

    #[test]
    fn pre_gathered_input_matches_direct_gather() {
        argo_rt::watchdog(60, || {
            // With features in the spec, every yielded batch
            // carries what the first GEMM reads: the gathered rows' aggregation
            // over the input-side adjacency, with the self rows for `Mean` only.
            let (g, s, seeds) = setup();
            let feats = features();
            for norm in [Normalization::Mean, Normalization::Gcn] {
                let b = LoaderSpec::builder(Arc::clone(&g), Arc::clone(&s), Arc::clone(&seeds))
                    .batch_size(16)
                    .epoch_seeds(SeedSequence::new(9))
                    .n_samp(3)
                    .normalization(norm)
                    .features(Arc::clone(&feats));
                for (_, lb) in b.start() {
                    let gathered = feats.gather(lb.batch.input_nodes());
                    let PreparedInput { agg, self_rows } = lb.input.expect("features requested");
                    let n_dst = lb.batch.input_adj().rows();
                    assert_eq!((agg.rows(), agg.cols()), (n_dst, 4));
                    let want = aggregated_by_hand(&lb.batch, &feats);
                    for (a, w) in agg.data().iter().zip(&want) {
                        assert!((a - w).abs() <= 1e-5 * w.abs().max(1.0), "{a} vs {w}");
                    }
                    assert_eq!(self_rows.is_some(), norm == Normalization::Mean);
                    if let Some(rows) = self_rows {
                        assert_eq!(rows.data(), &gathered.data()[..n_dst * 4]);
                    }
                }
            }
        });
    }

    #[test]
    fn returned_inputs_are_reused_across_epochs() {
        argo_rt::watchdog(60, || {
            // The consumer hands every operand back, so three epochs of seven
            // batches run on the three sets that can be in flight at once with
            // one worker: one being filled, one in the channel, one being
            // consumed — two operands each under `Mean`. Batches differ in size,
            // so reuse also has to overwrite stale rows. The worker aggregates
            // straight from the feature table and makes no other buffer.
            let (g, s, seeds) = setup();
            let feats = features();
            let ring = InputRing::new();
            for epoch in 0..3 {
                let spec = LoaderSpec::builder(Arc::clone(&g), Arc::clone(&s), Arc::clone(&seeds))
                    .batch_size(16)
                    .epoch(epoch)
                    .epoch_seeds(SeedSequence::new(9))
                    .normalization(Normalization::Mean)
                    .features(Arc::clone(&feats));
                for (_, lb) in PipelinedLoader::start_recycling(spec.build(), ring.clone()) {
                    let input = lb.input.expect("features requested");
                    let rows = input.self_rows.as_ref().expect("mean keeps the self rows");
                    let gathered = feats.gather(lb.batch.input_nodes());
                    assert_eq!(rows.data(), &gathered.data()[..rows.data().len()]);
                    input.recycle(&ring);
                }
            }
            assert!(
                (2..=2 * 3).contains(&ring.buffers_made()),
                "21 batches made {} buffers",
                ring.buffers_made()
            );
            assert!(ring.parked_bytes() > 0);
        });
    }

    #[test]
    fn fused_prologue_equals_gather_then_aggregate_bitwise() {
        // The shared prologue, reading the input rows straight out of the
        // feature table, must hand over bit for bit what gathering
        // `X[input_nodes]` and aggregating that copy gives — and what the
        // by-hand entry loop gives — for block and subgraph batches,
        // GraphSAGE's `Mean` (with self rows) and GCN's `Gcn`. The SIMD-off
        // CI stage reruns this on the scalar tier.
        let (g, _, seeds) = setup();
        let feats = Arc::new(Features::new(
            (0..500 * 67)
                .map(|x| ((x * 7919) % 1013) as f32 * 1.7e-3 - 0.8)
                .collect(),
            67,
        ));
        let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let samplers: [Arc<dyn Sampler>; 2] = [
            Arc::new(NeighborSampler::new(vec![5, 3])),
            Arc::new(crate::ShadowSampler::new(vec![4, 2], 2)),
        ];
        let ring = InputRing::new();
        let mut scratch = SamplerScratch::new();
        for s in samplers {
            for norm in [Normalization::Mean, Normalization::Gcn] {
                for (i, chunk) in seeds.chunks(16).enumerate() {
                    let run = SampleRun::new(SeedSequence::new(13 + i as u64), &mut scratch)
                        .with_norm(norm);
                    let view = s.sample_into(&g, chunk, run);
                    let batch = view.to_owned();
                    let gathered = feats.gather(batch.input_nodes());
                    let gathered =
                        Matrix::from_vec(gathered.num_nodes(), 67, gathered.data().to_vec());
                    let want = PreparedInput::aggregate(
                        batch.input_adj().view(),
                        &gathered,
                        norm == Normalization::Mean,
                        DispatchPolicy::default(),
                        &InputRing::new(),
                    );
                    let by_hand: Vec<u32> = aggregated_by_hand(&batch, &feats)
                        .iter()
                        .map(|x| x.to_bits())
                        .collect();
                    let who = format!("{} {norm:?} batch {i}", s.name());
                    let spans = WorkerRing::detached();
                    let got = PreparedInput::prepare(&view, &feats, &ring, &spans, 0);
                    assert!(bits(&got.agg) == bits(&want.agg), "agg: {who}");
                    assert!(bits(&got.agg) == by_hand, "agg vs the entry loop: {who}");
                    match (&got.self_rows, &want.self_rows) {
                        (Some(a), Some(b)) => assert!(bits(a) == bits(b), "self rows: {who}"),
                        (None, None) => assert_eq!(norm, Normalization::Gcn, "{who}"),
                        _ => panic!("self rows kept on one side only: {who}"),
                    }
                    got.recycle(&ring);
                }
            }
        }
    }

    /// A sampler that dies on its `at`-th call.
    struct DiesAt {
        inner: NeighborSampler,
        calls: AtomicUsize,
        at: usize,
    }

    impl Sampler for DiesAt {
        fn sample_into<'a>(
            &self,
            graph: &Graph,
            seeds: &[NodeId],
            run: SampleRun<'a>,
        ) -> crate::SampledBatchView<'a> {
            let call = self.calls.fetch_add(1, Ordering::Relaxed);
            assert!(call != self.at, "sampler died at call {call}");
            self.inner.sample_into(graph, seeds, run)
        }

        fn name(&self) -> &'static str {
            "DiesAt"
        }

        fn num_layers(&self) -> usize {
            self.inner.num_layers()
        }
    }

    #[test]
    fn a_worker_panic_is_re_raised_on_the_consumer_not_a_short_epoch() {
        argo_rt::watchdog(60, || {
            // Batches before the dead one still arrive in order; the iteration
            // then panics with the worker's own message instead of returning
            // `None` with batches missing — and promptly: the surviving workers
            // of a long epoch do not get to prepare the rest of it into the
            // reorder heap first.
            for (n_samp, batches) in [(1, 10), (3, 10), (3, 400)] {
                let (g, _, _) = setup();
                let seeds: Arc<Vec<NodeId>> =
                    Arc::new((0..batches * 10).map(|i| i % 100).collect());
                let dies = Arc::new(DiesAt {
                    inner: NeighborSampler::new(vec![5, 3]),
                    calls: AtomicUsize::new(0),
                    at: 4,
                });
                let mut loader =
                    LoaderSpec::builder(g, Arc::clone(&dies) as Arc<dyn Sampler>, seeds)
                        .batch_size(10)
                        .epoch_seeds(SeedSequence::new(5))
                        .n_samp(n_samp)
                        .normalization(Normalization::Mean)
                        .features(features())
                        .start();
                assert_eq!(loader.num_batches(), batches as usize);
                let mut seen = 0;
                let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    for (i, _) in &mut loader {
                        assert_eq!(i, seen);
                        seen += 1;
                    }
                }));
                let payload = died.expect_err("more batches were promised");
                let message = payload.downcast_ref::<String>().expect("formatted message");
                assert!(message.contains("sampler died at call 4"), "{message}");
                // One worker: calls are batches, so exactly four arrived. Three
                // workers: whichever batch the fifth call was for is missing.
                assert!(seen <= 9 && (n_samp > 1 || seen == 4), "{seen} batches");
                assert!(loader.workers.is_empty(), "every worker joined");
                // The survivors were stopped within a few batches of the death:
                // what they had in hand, the channel's one per worker, a few more
                // while the consumer drained.
                let calls = dies.calls.load(Ordering::Relaxed);
                assert!(calls <= 40 && loader.reorder.len() <= 40, "{calls} calls");
            }
        });
    }

    #[test]
    #[should_panic(expected = "needs a fused normalization")]
    fn features_without_a_fused_normalization_are_refused() {
        let (g, s, seeds) = setup();
        LoaderSpec::builder(g, s, seeds)
            .features(features())
            .start();
    }

    #[test]
    fn without_features_input_is_none() {
        argo_rt::watchdog(60, || {
            let (g, s, seeds) = setup();
            let loader = LoaderSpec::builder(g, s, seeds)
                .batch_size(50)
                .epoch_seeds(SeedSequence::new(2))
                .start();
            for (_, lb) in loader {
                assert!(lb.input.is_none());
            }
        });
    }

    #[test]
    fn profiler_records_one_span_chain_per_batch() {
        argo_rt::watchdog(60, || {
            let (g, s, seeds) = setup();
            let prof = SpanProfiler::new().for_process(1);
            let loader = LoaderSpec::builder(g, s, seeds)
                .batch_size(16)
                .epoch_seeds(SeedSequence::new(11))
                .n_samp(2)
                .normalization(Normalization::Gcn)
                .features(features())
                .spans(prof.clone())
                .start();
            let n = loader.num_batches();
            let got: Vec<_> = loader.collect();
            assert_eq!(got.len(), n);
            let drained = prof.drain();
            assert_eq!(drained.dropped, 0);
            // Every ring the loader registered carries the handle's rank.
            assert!(drained.records.iter().all(|r| r.process == 1));
            let count = |role: Role, kind: SpanKind| {
                drained
                    .records
                    .iter()
                    .filter(|r| r.role == role && r.kind == kind)
                    .count()
            };
            // One pick, one gather, one aggregation, one enqueue wait per batch
            // on the producer side; one dequeue wait per batch on the consumer
            // side — each keyed by the batch id so the chain is linkable.
            assert_eq!(count(Role::Producer, SpanKind::Pick), n);
            assert_eq!(count(Role::Producer, SpanKind::Gather), n);
            assert_eq!(count(Role::Producer, SpanKind::Aggregate), n);
            assert_eq!(count(Role::Producer, SpanKind::EnqueueWait), n);
            assert_eq!(count(Role::Consumer, SpanKind::DequeueWait), n);
            let mut picked: Vec<u64> = drained
                .records
                .iter()
                .filter(|r| r.kind == SpanKind::Pick)
                .map(|r| r.batch)
                .collect();
            picked.sort_unstable();
            assert_eq!(picked, (0..n as u64).collect::<Vec<_>>());
        });
    }

    #[test]
    fn no_profiler_records_nothing() {
        argo_rt::watchdog(60, || {
            let (g, s, seeds) = setup();
            let loader = LoaderSpec::builder(g, s, seeds)
                .batch_size(32)
                .epoch_seeds(SeedSequence::new(3))
                .start();
            assert_eq!(loader.count(), 4);
        });
    }
}
