//! Pipelined mini-batch loading: sampling overlapped with training.
//!
//! State-of-the-art GNN libraries overlap mini-batch sampling with model
//! propagation (paper Section V-A2); ARGO's auto-tuner decides how many
//! cores each side gets. [`PipelinedLoader`] implements the sampling side:
//! `n_samp` sampler threads (bound to the process's *sampling cores*)
//! prefetch batches into a bounded channel while the training thread
//! consumes them **in deterministic batch order** — batch `i` of epoch `e`
//! is always drawn from RNG seed `seed_for(e, i)` regardless of which worker
//! produced it, so pipelining never perturbs training semantics.
//!
//! When the [`LoaderSpec`] carries the node features, workers also
//! *pre-gather* each batch's input rows — optionally through a shared
//! [`FeatureCache`] — so the memory-bound gather runs on the sampling cores,
//! overlapped with training, instead of on the training cores.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use argo_graph::{Features, Graph, NodeId};
use argo_rt::affinity::{bind_current_thread, CoreSet};
use argo_rt::spans::{Role, SpanKind, SpanProfiler, WorkerRing};
use argo_rt::{SeedSequence, ThreadPool};
use argo_tensor::Matrix;
use crossbeam::channel::{bounded, Receiver};

use crate::batch::{Normalization, SampledBatch};
use crate::cache::FeatureCache;
use crate::scratch::SamplerScratch;
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
    /// Number of sampler threads.
    pub n_samp: usize,
    /// Sampling cores to bind the workers to (empty = unbound).
    pub cores: CoreSet,
    /// Channel capacity (bounds memory).
    pub prefetch: usize,
    /// Node features; when present, workers pre-gather each batch's input
    /// rows into [`LoadedBatch::input`].
    pub features: Option<Arc<Features>>,
    /// Shared cross-batch feature cache consulted before the feature table.
    /// Ignored unless `features` is set.
    pub cache: Option<Arc<FeatureCache>>,
    /// Fused normalization the samplers write into each batch's adjacency
    /// values during construction (no post-pass on the training side).
    pub normalization: Normalization,
    /// Within-batch sampling parallelism. When > 1, each worker
    /// row-partitions a batch's seed rows over a thread pool spanning the
    /// sampling core set. Batch content is bitwise independent of this knob
    /// because every pick row draws from its own counter-based RNG stream.
    pub samp_pool: usize,
    /// Causal span profiler. When present, each worker registers a
    /// producer ring (pick/gather/cache/enqueue-wait spans keyed by batch
    /// id) and the consuming thread a consumer ring (channel/heap dequeue
    /// waits), each sized for the whole epoch. The spans are the loader's
    /// only telemetry: stage times and critical-path attribution are
    /// derived from them at epoch end.
    pub spans: Option<SpanProfiler>,
}

impl LoaderSpec {
    /// A builder seeded with the three mandatory handles; everything else
    /// defaults (`batch_size` 1, `epoch` 0, one worker, unbound, prefetch 4,
    /// no pre-gather).
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
                prefetch: 4,
                features: None,
                cache: None,
                normalization: Normalization::None,
                samp_pool: 1,
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

    /// Prefetch channel capacity.
    pub fn prefetch(mut self, prefetch: usize) -> Self {
        self.spec.prefetch = prefetch;
        self
    }

    /// Enables worker-side feature pre-gathering.
    pub fn features(mut self, features: Arc<Features>) -> Self {
        self.spec.features = Some(features);
        self
    }

    /// Routes pre-gathering through a shared cross-batch cache.
    pub fn cache(mut self, cache: Arc<FeatureCache>) -> Self {
        self.spec.cache = Some(cache);
        self
    }

    /// Fused normalization written into each batch's adjacency values.
    pub fn normalization(mut self, normalization: Normalization) -> Self {
        self.spec.normalization = normalization;
        self
    }

    /// Within-batch sampling parallelism (1 = off).
    pub fn samp_pool(mut self, samp_pool: usize) -> Self {
        self.spec.samp_pool = samp_pool;
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

/// The recycled input-feature buffers of one loader/consumer pair.
///
/// A pre-gathered batch input is the largest buffer on the training path
/// (`input nodes × feature dim`, megabytes) and it crosses threads: a loader
/// worker fills it, the consumer trains on it. Instead of mapping a fresh
/// one per batch and unmapping it after the step, the worker
/// [`take`](InputRing::take)s a retired buffer and the consumer
/// [`put`](InputRing::put)s it back when the step is done. The ring is a
/// cheap handle (clones share the buffers) and outlives the per-epoch loader:
/// the engine keeps one per rank across epochs. It holds as many buffers as
/// were ever in flight at once — the prefetch depth plus one per worker plus
/// the consumer's — each grown to the largest batch it has carried.
#[derive(Clone, Default)]
pub struct InputRing {
    inner: Arc<RingInner>,
}

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

    /// A `rows × cols` matrix on the most recently retired buffer (or a new
    /// one when none is parked). Contents are unspecified: the caller
    /// overwrites every element.
    pub fn take(&self, rows: usize, cols: usize) -> Matrix {
        let mut buf = self.inner.free.lock().pop().unwrap_or_else(|| {
            self.inner.made.fetch_add(1, Ordering::Relaxed);
            Vec::new()
        });
        let need = rows * cols;
        if buf.capacity() < need {
            // Grow to exactly the new high-water mark, without carrying the
            // stale rows over.
            buf.clear();
            buf.reserve_exact(need);
        }
        buf.resize(need, 0.0);
        Matrix::from_vec(rows, cols, buf)
    }

    /// Retires a matrix's allocation for the next [`InputRing::take`].
    pub fn put(&self, input: Matrix) {
        self.inner.free.lock().push(input.into_data());
    }

    /// Buffers made so far (parked or in flight).
    pub fn buffers_made(&self) -> usize {
        self.inner.made.load(Ordering::Relaxed)
    }

    /// Bytes held by the parked buffers.
    pub fn parked_bytes(&self) -> usize {
        let free = self.inner.free.lock();
        free.iter().map(Vec::capacity).sum::<usize>() * std::mem::size_of::<f32>()
    }
}

/// One sampled (and possibly pre-gathered) mini-batch.
pub struct LoadedBatch {
    /// The sampled computation structure.
    pub batch: SampledBatch,
    /// Input-node feature rows, pre-gathered on the sampling side into a
    /// buffer of the loader's [`InputRing`]; hand it back with
    /// [`InputRing::put`] after the step. `None` when the spec carried no
    /// features.
    pub input: Option<Matrix>,
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
}

impl PipelinedLoader {
    /// Starts `spec.n_samp` sampler threads producing all batches of one
    /// epoch, with a ring of its own: nothing is handed back, so every
    /// pre-gathered input is a fresh buffer the consumer keeps.
    pub fn start(spec: LoaderSpec) -> Self {
        Self::start_recycling(spec, InputRing::new())
    }

    /// [`PipelinedLoader::start`] with pre-gathered inputs taken from
    /// `inputs`, the ring the consumer returns them to.
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
            prefetch,
            features,
            cache,
            normalization,
            samp_pool,
            spans,
        } = spec;
        assert!(batch_size > 0 && n_samp > 0 && samp_pool > 0);
        let total = seeds.len().div_ceil(batch_size);
        let (tx, rx) = bounded::<Indexed>(prefetch.max(1));
        let cursor = Arc::new(AtomicUsize::new(0));
        // Ring sizes follow from the batch count, so no span is ever
        // dropped: the consumer waits once per batch, and one worker may
        // end up producing every batch (pick, gather/cache, enqueue).
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
            let cache = cache.clone();
            let inputs = inputs.clone();
            let tx = tx.clone();
            let ring = ring_for(Role::Producer, 3);
            let my_core = if cores.is_empty() {
                None
            } else {
                Some(CoreSet::new(vec![cores.ids()[w % cores.len()]]))
            };
            let pool_cores = cores.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("argo-sampler-{w}"))
                    .spawn(move || {
                        if let Some(c) = &my_core {
                            let _ = bind_current_thread(c);
                        }
                        // Per-worker persistent state: the scratch arena is
                        // warm after the first batch, and the within-batch
                        // pool (when enabled) spans the sampling core set.
                        let mut scratch = SamplerScratch::new();
                        let pool = (samp_pool > 1).then(|| {
                            if pool_cores.is_empty() {
                                ThreadPool::new("argo-samp", samp_pool)
                            } else {
                                ThreadPool::pinned("argo-samp", &pool_cores)
                            }
                        });
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= total {
                                break;
                            }
                            let lo = i * batch_size;
                            let hi = ((i + 1) * batch_size).min(seeds.len());
                            let stream = SeedSequence::new(epoch_seeds.seed_for(epoch, i as u64));
                            let allocs_before = scratch.allocs();
                            // Assemble in the scratch arena, account the
                            // compact metadata footprint, then materialize
                            // the owned copy the reorder channel requires
                            // (the sanctioned ownership boundary).
                            let (batch, metadata_bytes) =
                                ring.timed(SpanKind::Pick, i as u64, || {
                                    let run = SampleRun::new(stream, &mut scratch)
                                        .with_norm(normalization)
                                        .with_pool(pool.as_ref());
                                    let view = sampler.sample_into(&graph, &seeds[lo..hi], run);
                                    (view.to_owned(), view.metadata_bytes() as u64)
                                });
                            let scratch_allocs = scratch.allocs() - allocs_before;
                            let input = features.as_ref().map(|f| {
                                let ids = batch.input_nodes();
                                let kind = if cache.is_some() {
                                    SpanKind::Cache
                                } else {
                                    SpanKind::Gather
                                };
                                ring.timed(kind, i as u64, || {
                                    let mut m = inputs.take(ids.len(), f.dim());
                                    match &cache {
                                        Some(c) => c.gather_rows_into(f, ids, m.data_mut()),
                                        None => f.gather_into(ids, m.data_mut()),
                                    }
                                    m
                                })
                            });
                            let loaded = LoadedBatch {
                                batch,
                                input,
                                scratch_allocs,
                                metadata_bytes,
                            };
                            // The enqueue-wait span measures backpressure:
                            // time blocked on a full prefetch channel.
                            let sent = ring.timed(SpanKind::EnqueueWait, i as u64, || {
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
                    })
                    .expect("spawn sampler"),
            );
        }
        Self {
            rx,
            reorder: BinaryHeap::new(),
            next: 0,
            total,
            ring: consumer_ring,
            workers,
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
            match rx.recv() {
                Ok(item) => reorder.push(item),
                Err(_) => return None, // workers gone with batches missing
            }
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
        let (g, s, seeds) = setup();
        let loader = LoaderSpec::builder(g, s, seeds)
            .batch_size(16)
            .epoch_seeds(SeedSequence::new(42))
            .n_samp(3)
            .start();
        assert_eq!(loader.num_batches(), 7);
        let idxs: Vec<usize> = loader.map(|(i, _)| i).collect();
        assert_eq!(idxs, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn batch_content_independent_of_worker_count() {
        // Neither the number of sampler threads nor the within-batch pool
        // width may change what gets sampled: batch i of epoch e is a pure
        // function of (epoch_seeds, e, i).
        let (g, s, seeds) = setup();
        let run = |n_samp: usize, samp_pool: usize| -> Vec<Vec<NodeId>> {
            LoaderSpec::builder(Arc::clone(&g), Arc::clone(&s), Arc::clone(&seeds))
                .batch_size(10)
                .epoch(3)
                .epoch_seeds(SeedSequence::new(7))
                .n_samp(n_samp)
                .samp_pool(samp_pool)
                .prefetch(2)
                .start()
                .map(|(_, b)| b.batch.input_nodes().to_vec())
                .collect()
        };
        let reference = run(1, 1);
        assert_eq!(reference, run(4, 1));
        assert_eq!(reference, run(1, 2));
        assert_eq!(reference, run(1, 4));
        assert_eq!(reference, run(2, 2));
    }

    #[test]
    fn steady_state_sampling_is_allocation_free() {
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
    }

    #[test]
    fn last_batch_is_short() {
        let (g, s, _) = setup();
        let seeds: Arc<Vec<NodeId>> = Arc::new((0..25).collect());
        let loader = LoaderSpec::builder(g, s, seeds)
            .batch_size(10)
            .epoch_seeds(SeedSequence::new(1))
            .n_samp(2)
            .prefetch(2)
            .start();
        let sizes: Vec<usize> = loader.map(|(_, b)| b.batch.num_seeds()).collect();
        assert_eq!(sizes, vec![10, 10, 5]);
    }

    #[test]
    fn early_drop_does_not_hang() {
        let (g, s, seeds) = setup();
        let mut loader = LoaderSpec::builder(g, s, seeds)
            .batch_size(4)
            .epoch_seeds(SeedSequence::new(5))
            .n_samp(2)
            .prefetch(1)
            .start();
        let _ = loader.next();
        drop(loader); // must join cleanly even with batches unconsumed
    }

    #[test]
    fn different_epochs_differ() {
        let (g, s, seeds) = setup();
        let collect = |epoch: u64| -> Vec<Vec<NodeId>> {
            LoaderSpec::builder(Arc::clone(&g), Arc::clone(&s), Arc::clone(&seeds))
                .batch_size(10)
                .epoch(epoch)
                .epoch_seeds(SeedSequence::new(7))
                .n_samp(2)
                .prefetch(2)
                .start()
                .map(|(_, b)| b.batch.input_nodes().to_vec())
                .collect()
        };
        assert_ne!(collect(0), collect(1));
    }

    #[test]
    fn pre_gathered_input_matches_direct_gather() {
        // With features in the spec — cached or not — every yielded batch
        // carries input rows bitwise identical to Features::gather.
        let (g, s, seeds) = setup();
        let feats = Arc::new(Features::new(
            (0..500 * 4).map(|x| x as f32 * 0.01).collect(),
            4,
        ));
        let run = |cache: Option<Arc<FeatureCache>>| {
            let mut b = LoaderSpec::builder(Arc::clone(&g), Arc::clone(&s), Arc::clone(&seeds))
                .batch_size(16)
                .epoch_seeds(SeedSequence::new(9))
                .n_samp(3)
                .features(Arc::clone(&feats));
            if let Some(c) = cache {
                b = b.cache(c);
            }
            for (_, lb) in b.start() {
                let input = lb.input.expect("features requested");
                assert_eq!(input.data(), feats.gather(lb.batch.input_nodes()).data());
            }
        };
        run(None);
        let cache = Arc::new(FeatureCache::new(200, 4));
        run(Some(Arc::clone(&cache)));
        let stats = cache.stats();
        assert!(stats.lookups() > 0);
    }

    #[test]
    fn returned_inputs_are_reused_across_epochs() {
        // The consumer hands every input back, so three epochs of seven
        // batches run on the few buffers that were ever in flight at once:
        // one being filled, `prefetch` in the channel, one being consumed.
        // Batches differ in size, so reuse also has to overwrite stale rows.
        let (g, s, seeds) = setup();
        let feats = Arc::new(Features::new(
            (0..500 * 4).map(|x| x as f32 * 0.01).collect(),
            4,
        ));
        let ring = InputRing::new();
        for epoch in 0..3 {
            let spec = LoaderSpec::builder(Arc::clone(&g), Arc::clone(&s), Arc::clone(&seeds))
                .batch_size(16)
                .epoch(epoch)
                .epoch_seeds(SeedSequence::new(9))
                .prefetch(2)
                .features(Arc::clone(&feats))
                .build();
            for (_, lb) in PipelinedLoader::start_recycling(spec, ring.clone()) {
                let input = lb.input.expect("features requested");
                assert_eq!(input.data(), feats.gather(lb.batch.input_nodes()).data());
                ring.put(input);
            }
        }
        assert!(
            (1..=4).contains(&ring.buffers_made()),
            "21 batches made {} buffers",
            ring.buffers_made()
        );
        assert!(ring.parked_bytes() > 0);
    }

    #[test]
    fn without_features_input_is_none() {
        let (g, s, seeds) = setup();
        let loader = LoaderSpec::builder(g, s, seeds)
            .batch_size(50)
            .epoch_seeds(SeedSequence::new(2))
            .start();
        for (_, lb) in loader {
            assert!(lb.input.is_none());
        }
    }

    #[test]
    fn profiler_records_one_span_chain_per_batch() {
        let (g, s, seeds) = setup();
        let feats = Arc::new(Features::new(
            (0..500 * 4).map(|x| x as f32 * 0.01).collect(),
            4,
        ));
        let prof = SpanProfiler::new().for_process(1);
        let loader = LoaderSpec::builder(g, s, seeds)
            .batch_size(16)
            .epoch_seeds(SeedSequence::new(11))
            .n_samp(2)
            .features(feats)
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
        // One pick, one gather, one enqueue wait per batch on the producer
        // side; one dequeue wait per batch on the consumer side — each
        // keyed by the batch id so the chain is linkable.
        assert_eq!(count(Role::Producer, SpanKind::Pick), n);
        assert_eq!(count(Role::Producer, SpanKind::Gather), n);
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
    }

    #[test]
    fn no_profiler_records_nothing() {
        let (g, s, seeds) = setup();
        let loader = LoaderSpec::builder(g, s, seeds)
            .batch_size(32)
            .epoch_seeds(SeedSequence::new(3))
            .start();
        assert_eq!(loader.count(), 4);
    }
}
