//! Pipelined mini-batch loading: sampling overlapped with training.
//!
//! State-of-the-art GNN libraries overlap mini-batch sampling with model
//! propagation (paper Section V-A2); ARGO's auto-tuner decides how many
//! cores each side gets. [`PipelinedLoader`] implements the sampling side:
//! `n_samp` sampler threads (bound to the process's *sampling cores*)
//! produce batches while the training thread consumes them **in
//! deterministic batch order**. Worker `w` owns batches `w, w + n_samp, …`
//! and sends them, in that order, on a channel of its own that holds one
//! ready batch; the consumer takes batch `i` from channel `i mod n_samp`.
//! Batch `i` of epoch `e` is always drawn from RNG seed `seed_for(e, i)`,
//! whichever worker draws it, so pipelining never perturbs training
//! semantics.
//!
//! A worker samples each batch into a batch arena taken from the
//! rank's [`InputRing`] and sends that arena, not a copy: the consumer runs
//! the batch through its view ([`LoadedBatch::view`]) and hands the arena
//! back with the operands ([`LoadedBatch::recycle`]).
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
//! training, and the training thread starts at the first GEMM.
//!
//! The rest of the batch's parameter-free preparation runs there too: the
//! worker builds the batch's needed-row [`Cascade`] for the model's depth
//! (the sampler's, which the engine holds equal to its model's) — so a
//! subgraph batch's layer 0 aggregates only the rows layer 1 reads — and
//! transposes every layer's adjacency for backward
//! ([`PreparedInput::prepare_for_training`]). The training step runs the
//! batch as it is handed over: it builds no cascade, cuts no rows and
//! transposes nothing. See [`PreparedInput`] for what crosses the channel
//! beside the arena; the consumer hands both back to the [`InputRing`],
//! arena, operand buffers and cascade storage alike.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use argo_graph::{Features, Graph, NodeId};
use argo_rt::affinity::{bind_current_thread, CoreSet};
use argo_rt::spans::{Role, SpanKind, SpanProfiler, WorkerRing};
use argo_rt::{SeedSequence, ThreadPool};
use argo_tensor::{DispatchPolicy, Matrix, SparseView};
use crossbeam::channel::{bounded, Receiver};

use crate::batch::Normalization;
use crate::cascade::Cascade;
use crate::scratch::{BatchArena, SamplerScratch};
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
    /// [`LoadedBatch::input`]: the input rows aggregated over layer 0's
    /// adjacency, the batch's cascade and its transposes. A spec with
    /// features must fuse a normalization (not [`Normalization::None`]): the
    /// aggregation reads its values.
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
    /// batch id) and the consuming thread a consumer ring (channel dequeue
    /// waits), each sized for the whole epoch. The spans are the loader's
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

/// What a loader worker hands a training step (or serving its forward
/// pass) for one batch: the product of the parameter-free prologue. Layer
/// 0's aggregation, which is all a GCN/GraphSAGE first GEMM reads of the
/// input rows (no `n_src × F` matrix of them is made), and the batch's
/// layers as the model runs them — the needed-row [`Cascade`] and, on
/// training's loader, every layer's transpose. The step runs the batch as it
/// is: it builds no cascade, cuts no rows and transposes nothing.
pub struct PreparedInput {
    /// `Â₀·X[input_nodes]` over layer 0's adjacency as the cascade cuts it,
    /// one row per row the layer computes (`n_dst × F`).
    pub agg: Matrix,
    /// The `n_dst` self rows GraphSAGE concatenates (the input rows at the
    /// cascade's layer-0 self-row positions, or the first `n_dst` of them);
    /// `None` for GCN.
    pub self_rows: Option<Matrix>,
    /// The batch's per-layer adjacencies (and, for training, transposes).
    pub cascade: Cascade,
}

impl PreparedInput {
    /// Layer 0 over rows a caller gathered: aggregates the `gathered` input
    /// rows over layer 0's adjacency as `cascade` cuts it out of `adj` — the
    /// batch's normalized input-side adjacency — with `dispatch`'s kernel
    /// (on `pool` when given), into buffers of `ring`, and keeps the self
    /// rows where the cascade does. It is the model's gathered entry points'
    /// layer 0, and the reference the prologue is pinned against: every
    /// output row is one independent pass over its adjacency row, so the
    /// result is bitwise the prologue's.
    pub fn aggregate(
        cascade: Cascade,
        adj: SparseView<'_>,
        gathered: &Matrix,
        dispatch: DispatchPolicy,
        ring: &InputRing,
        pool: Option<&ThreadPool>,
    ) -> Self {
        let (adj, self_at) = cascade.layer(0, adj);
        let (n_dst, dim) = (adj.rows(), gathered.cols());
        let mut agg = ring.take(n_dst, dim);
        dispatch.aggregate_view_into(&adj, gathered, pool, &mut agg);
        let self_rows = cascade.keeps_self_rows().then(|| {
            let mut rows = ring.take(n_dst, dim);
            for i in 0..n_dst {
                let at = self_at.map_or(i, |pos| pos[i]);
                rows.row_mut(i).copy_from_slice(gathered.row(at));
            }
            rows
        });
        PreparedInput {
            agg,
            self_rows,
            cascade,
        }
    }

    /// The prologue, the one layer-0 function the loader's workers and the
    /// serving session share: the cascade of `batch` under a `depth`-layer
    /// model (the model's own depth), then the batch's input rows
    /// aggregated over layer 0's adjacency as the cascade cuts it — whose
    /// values carry the fused normalization — plus the self rows under
    /// [`Normalization::Mean`], in one pass over the feature table
    /// (`Gather` and `Aggregate` spans of `batch_id`; the cascade is part of
    /// the gather's). Bitwise what [`PreparedInput::aggregate`] makes
    /// of `features.gather(ids)` over the same cascade. No transposes: a
    /// forward pass reads none.
    pub fn prepare(
        batch: &SampledBatchView<'_>,
        features: &Features,
        depth: usize,
        ring: &InputRing,
        spans: &WorkerRing,
        batch_id: u64,
    ) -> Self {
        Self::prologue(batch, features, depth, false, ring, spans, batch_id)
    }

    /// [`PreparedInput::prepare`] plus every layer's transpose
    /// ([`Cascade::transpose_layers`], inside the `Aggregate` span): what a
    /// training loader worker hands the step, whose backward gathers over
    /// them.
    pub fn prepare_for_training(
        batch: &SampledBatchView<'_>,
        features: &Features,
        depth: usize,
        ring: &InputRing,
        spans: &WorkerRing,
        batch_id: u64,
    ) -> Self {
        Self::prologue(batch, features, depth, true, ring, spans, batch_id)
    }

    fn prologue(
        batch: &SampledBatchView<'_>,
        features: &Features,
        depth: usize,
        transposed: bool,
        ring: &InputRing,
        spans: &WorkerRing,
        batch_id: u64,
    ) -> Self {
        let ids = batch.input_nodes();
        let dim = features.dim();
        let mut cascade = ring.take_cascade();
        // The cascade decides which input rows layer 0 reads, so it opens
        // the gather's span.
        let self_rows = spans.timed(SpanKind::Gather, batch_id, || {
            cascade.for_view(depth, batch);
            let (adj, self_at) = cascade.layer(0, batch.layer_adj(0));
            cascade.keeps_self_rows().then(|| {
                let mut rows = ring.take(adj.rows(), dim);
                for i in 0..adj.rows() {
                    let at = self_at.map_or(i, |pos| pos[i]);
                    rows.row_mut(i).copy_from_slice(features.row(ids[at]));
                }
                rows
            })
        });
        let agg = spans.timed(SpanKind::Aggregate, batch_id, || {
            if transposed {
                cascade.transpose_layers(|l| batch.layer_adj(l));
            }
            let (adj, _) = cascade.layer(0, batch.layer_adj(0));
            let mut agg = ring.take(adj.rows(), dim);
            DispatchPolicy::default().aggregate_table_into(
                &adj,
                features.data(),
                ids,
                None,
                &mut agg,
            );
            agg
        });
        PreparedInput {
            agg,
            self_rows,
            cascade,
        }
    }

    /// Retires every buffer to `ring` once the step has read them.
    pub fn recycle(self, ring: &InputRing) {
        ring.put(self.agg);
        if let Some(rows) = self.self_rows {
            ring.put(rows);
        }
        ring.put_cascade(self.cascade);
    }
}

/// The recycled buffers of one loader/consumer pair.
///
/// A batch crosses threads in storage of its own: a loader worker samples it
/// into a batch arena and fills its prepared input (the largest buffers on
/// the training path, megabytes), and the consumer trains on both. Instead of
/// mapping fresh ones per batch and unmapping them after the step, the
/// worker takes retired ones from here and the consumer hands them back
/// ([`LoadedBatch::recycle`]) when the step is done. The ring is a cheap
/// handle (clones share the buffers) and outlives the per-epoch loader: the
/// engine keeps one per rank across epochs. It holds as many sets — an
/// arena, its operand buffers and its [`Cascade`] (slices, self-row maps,
/// transposes) — as were ever in flight at once: per worker one in its
/// channel and one being filled, plus the consumer's, `2·n_samp + 1`. Each
/// buffer is grown to the largest batch it has carried, so a warm worker
/// allocates nothing; and each loader worker's [`SamplerScratch`] is parked
/// here when the worker exits, for the next epoch's worker to sample in
/// warm. Unlike the feature cache this crate once had, whose prologue
/// gathered `n_src × F` rows into a second pool of buffers here, the
/// prologue reads the feature table, and the ring holds only what the step
/// reads.
#[derive(Clone, Default)]
pub struct InputRing {
    inner: Arc<RingInner>,
}

/// A free list of retired `f32` allocations, the count ever made, the
/// retired arenas and cascades the next batches reuse (and the arena count),
/// and the sampler scratches of the workers that exited.
#[derive(Default)]
struct RingInner {
    free: Mutex<Vec<Vec<f32>>>,
    made: AtomicUsize,
    arenas: Mutex<Vec<BatchArena>>,
    arenas_made: AtomicUsize,
    cascades: Mutex<Vec<Cascade>>,
    scratches: Mutex<Vec<SamplerScratch>>,
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

    /// The most recently retired cascade (an empty one when none is
    /// parked), its storage kept for the next batch to build in.
    pub fn take_cascade(&self) -> Cascade {
        self.inner.cascades.lock().pop().unwrap_or_default()
    }

    /// Retires a cascade's storage for the next [`InputRing::take_cascade`].
    pub fn put_cascade(&self, cascade: Cascade) {
        self.inner.cascades.lock().push(cascade);
    }

    /// The most recently retired batch arena (a new, empty one when none is
    /// parked), for a worker to sample the next batch into.
    fn take_arena(&self) -> BatchArena {
        self.inner.arenas.lock().pop().unwrap_or_else(|| {
            self.inner.arenas_made.fetch_add(1, Ordering::Relaxed);
            BatchArena::default()
        })
    }

    /// A parked loader worker's scratch (a new one when none is parked).
    fn take_scratch(&self) -> SamplerScratch {
        self.inner.scratches.lock().pop().unwrap_or_default()
    }

    /// Parks an exiting worker's scratch for the next epoch's worker.
    fn put_scratch(&self, scratch: SamplerScratch) {
        self.inner.scratches.lock().push(scratch);
    }

    /// Operand buffers made so far (parked or in flight).
    pub fn buffers_made(&self) -> usize {
        self.inner.made.load(Ordering::Relaxed)
    }

    /// Batch arenas made so far (parked or in flight): the most batches
    /// that were ever in flight at once.
    pub fn arenas_made(&self) -> usize {
        self.inner.arenas_made.load(Ordering::Relaxed)
    }

    /// Bytes held by the parked operand buffers.
    pub fn parked_bytes(&self) -> usize {
        let free = self.inner.free.lock();
        free.iter().map(Vec::capacity).sum::<usize>() * std::mem::size_of::<f32>()
    }
}

/// One sampled (and possibly prepared) mini-batch, in the arena its worker
/// sampled it into. Run it through [`LoadedBatch::view`], then hand it back
/// with [`LoadedBatch::recycle`].
pub struct LoadedBatch {
    /// The batch, as the sampler assembled it.
    arena: BatchArena,
    /// What the step's first parameterised operation reads, prepared on the
    /// sampling side in buffers of the loader's [`InputRing`]. `None` when
    /// the spec carried no features.
    pub input: Option<PreparedInput>,
    /// Scratch-arena allocations this batch charged to the producing
    /// worker's [`SamplerScratch`]: 0 once the scratch and the batch's arena
    /// have each carried a batch as large.
    pub scratch_allocs: u64,
}

impl LoadedBatch {
    /// The sampled computation structure, read straight out of the arena.
    pub fn view(&self) -> SampledBatchView<'_> {
        self.arena.view()
    }

    /// Retires the arena and every buffer of the prepared input to `ring`
    /// (the one the loader was started on) once the step has read them.
    pub fn recycle(self, ring: &InputRing) {
        ring.inner.arenas.lock().push(self.arena);
        if let Some(input) = self.input {
            input.recycle(ring);
        }
    }
}

/// Prefetching mini-batch loader. Iterate it to receive
/// `(batch_index, LoadedBatch)` in index order.
pub struct PipelinedLoader {
    /// Worker `w`'s channel, carrying batches `w, w + n_samp, …` in order.
    channels: Vec<Receiver<LoadedBatch>>,
    next: usize,
    total: usize,
    ring: Arc<WorkerRing>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl PipelinedLoader {
    /// Starts `spec.n_samp` sampler threads producing all batches of one
    /// epoch, with a ring of its own: nothing is handed back, so every batch
    /// and prepared input sits in fresh buffers the consumer keeps.
    pub fn start(spec: LoaderSpec) -> Self {
        Self::start_recycling(spec, InputRing::new())
    }

    /// [`PipelinedLoader::start`] with batch arenas and prepared inputs
    /// taken from `inputs`, the ring the consumer returns them to.
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
        // Ring sizes follow from the batch count, so no span is ever
        // dropped: the consumer waits once per batch, and a worker records
        // four spans (pick, gather, aggregate, enqueue) per batch it owns.
        let ring_for = |role: Role, len: usize| match &spans {
            Some(p) => p.ring(role, len),
            None => Arc::new(WorkerRing::detached()),
        };
        let consumer_ring = ring_for(Role::Consumer, total);
        let mut channels = Vec::with_capacity(n_samp);
        let mut workers = Vec::with_capacity(n_samp);
        for w in 0..n_samp {
            let graph = Arc::clone(&graph);
            let sampler = Arc::clone(&sampler);
            let seeds = Arc::clone(&seeds);
            let features = features.clone();
            let inputs = inputs.clone();
            // One ready batch per worker: the loader outpaces the step, so a
            // deeper channel would only hold more prepared inputs in memory.
            let (tx, rx) = bounded::<LoadedBatch>(1);
            channels.push(rx);
            let ring = ring_for(Role::Producer, 4 * total.div_ceil(n_samp));
            let my_core = if cores.is_empty() {
                None
            } else {
                Some(CoreSet::new(vec![cores.ids()[w % cores.len()]]))
            };
            let worker = std::thread::Builder::new()
                .name(format!("argo-sampler-{w}"))
                .spawn(move || {
                    if let Some(c) = &my_core {
                        let _ = bind_current_thread(c);
                    }
                    // Per-worker persistent state: the scratch arena is
                    // warm after the first batch, and is parked in the ring
                    // for the next epoch's worker when this one exits.
                    let mut scratch = inputs.take_scratch();
                    // The depth the sampler makes batches for: the model's
                    // (`Engine::new` holds the two equal).
                    let depth = sampler.num_layers();
                    for i in (w..total).step_by(n_samp) {
                        let lo = i * batch_size;
                        let hi = ((i + 1) * batch_size).min(seeds.len());
                        let id = i as u64;
                        let stream = SeedSequence::new(epoch_seeds.seed_for(epoch, id));
                        let allocs_before = scratch.allocs();
                        // Assemble in an arena of the ring's, which then
                        // crosses the channel with the batch in it.
                        scratch.arena = inputs.take_arena();
                        let run = SampleRun::new(stream, &mut scratch).with_norm(normalization);
                        let view = ring.timed(SpanKind::Pick, id, || {
                            sampler.sample_into(&graph, &seeds[lo..hi], run)
                        });
                        let input = features.as_deref().map(|f| {
                            PreparedInput::prepare_for_training(&view, f, depth, &inputs, &ring, id)
                        });
                        let loaded = LoadedBatch {
                            arena: std::mem::take(&mut scratch.arena),
                            input,
                            scratch_allocs: scratch.allocs() - allocs_before,
                        };
                        // The enqueue-wait span measures backpressure:
                        // time blocked on a full channel.
                        let sent =
                            ring.timed(SpanKind::EnqueueWait, id, || tx.send(loaded).is_ok());
                        if !sent {
                            break; // consumer dropped
                        }
                    }
                    inputs.put_scratch(scratch);
                });
            #[expect(
                clippy::expect_used,
                reason = "thread::Builder::spawn fails only on OS thread exhaustion; no meaningful recovery"
            )]
            workers.push(worker.expect("spawn sampler"));
        }
        Self {
            channels,
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
        let i = self.next;
        if i >= self.total {
            return None;
        }
        let channel = &self.channels[i % self.channels.len()];
        match self
            .ring
            .timed(SpanKind::DequeueWait, i as u64, || channel.recv())
        {
            Ok(batch) => {
                self.next += 1;
                Some((i, batch))
            }
            Err(_) => {
                // Batch `i`'s worker is gone without sending it: it died (one
                // that runs out of batches has sent them all). Ending the
                // iteration here would hand the consumer a short epoch.
                // Instead every channel is closed under the other workers,
                // every worker joined, and the dead one's panic re-raised on
                // this thread.
                self.next = self.total;
                self.channels.clear();
                let mut payload = None;
                for w in self.workers.drain(..) {
                    if let Err(p) = w.join() {
                        payload.get_or_insert(p);
                    }
                }
                std::panic::resume_unwind(
                    payload
                        .unwrap_or_else(|| Box::new("loader workers exited with batches missing")),
                );
            }
        }
    }
}

impl Drop for PipelinedLoader {
    fn drop(&mut self) {
        // Close every channel, so a worker blocked on a full one (or about
        // to send) stops, then join.
        self.channels.clear();
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
                    .map(|(_, b)| b.view().input_nodes().to_vec())
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
            // The scratch warms up on the first batch, and each of the ring's
            // batch arenas on the first batch sampled into it; after that the
            // worker loop charges zero allocations for sampler metadata. Every
            // batch here has identical seed content (nodes 0..16), so a warm
            // arena is provably large enough for all later batches, and the
            // consumer hands each arena back.
            let g = Arc::new(power_law(500, 5000, 0.8, 1));
            let s: Arc<dyn Sampler> = Arc::new(NeighborSampler::new(vec![5, 3]));
            let seeds: Arc<Vec<NodeId>> = Arc::new((0..12).flat_map(|_| 0..16).collect());
            let spec = LoaderSpec::builder(g, s, seeds)
                .batch_size(16)
                .epoch_seeds(SeedSequence::new(11))
                .normalization(Normalization::Gcn)
                .n_samp(1);
            let ring = InputRing::new();
            let allocs: Vec<u64> = PipelinedLoader::start_recycling(spec.build(), ring.clone())
                .map(|(_, b)| {
                    let allocs = b.scratch_allocs;
                    b.recycle(&ring);
                    allocs
                })
                .collect();
            assert_eq!(allocs.len(), 12);
            assert!(allocs[0] > 0, "first batch must warm the arena: {allocs:?}");
            let arenas = ring.arenas_made();
            assert!((1..=3).contains(&arenas), "{arenas} arenas for one worker");
            assert_eq!(
                allocs.iter().filter(|&&a| a > 0).count(),
                arenas,
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
            let sizes: Vec<usize> = loader.map(|(_, b)| b.view().num_seeds()).collect();
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
                    .map(|(_, b)| b.view().input_nodes().to_vec())
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
    fn aggregated_by_hand(batch: &SampledBatchView<'_>, feats: &Features) -> Vec<f32> {
        let (adj, ids) = (batch.layer_adj(0), batch.input_nodes());
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
                    let batch = lb.view();
                    let gathered = feats.gather(batch.input_nodes());
                    let Some(PreparedInput { agg, self_rows, .. }) = &lb.input else {
                        panic!("features requested");
                    };
                    let n_dst = batch.layer_adj(0).rows();
                    assert_eq!((agg.rows(), agg.cols()), (n_dst, 4));
                    let want = aggregated_by_hand(&batch, &feats);
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
            // The consumer hands every batch back, so three epochs of seven
            // batches run on the three sets that can be in flight at once with
            // one worker: one being filled, one in the channel, one being
            // consumed — an arena and two operands each under `Mean`. Batches
            // differ in size, so reuse also has to overwrite stale rows. The
            // worker aggregates straight from the feature table and makes no
            // other buffer.
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
                    let input = lb.input.as_ref().expect("features requested");
                    let rows = input.self_rows.as_ref().expect("mean keeps the self rows");
                    let gathered = feats.gather(lb.view().input_nodes());
                    assert_eq!(rows.data(), &gathered.data()[..rows.data().len()]);
                    lb.recycle(&ring);
                }
            }
            assert!(
                (2..=2 * 3).contains(&ring.buffers_made()),
                "21 batches made {} buffers",
                ring.buffers_made()
            );
            assert!(
                (1..=3).contains(&ring.arenas_made()),
                "{}",
                ring.arenas_made()
            );
            assert!(ring.parked_bytes() > 0);
        });
    }

    #[test]
    fn fused_prologue_equals_gather_then_aggregate_bitwise() {
        // The shared prologue, reading the input rows straight out of the
        // feature table, must hand over bit for bit what gathering
        // `X[input_nodes]` and aggregating that copy over the same cascade
        // gives — and the rows of the by-hand entry loop that layer 0
        // computes — for block and subgraph batches, GraphSAGE's `Mean`
        // (with self rows) and GCN's `Gcn`. The SIMD-off CI stage reruns
        // this on the scalar tier.
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
                    let mut cascade = Cascade::default();
                    cascade.for_view(2, &view);
                    let want = PreparedInput::aggregate(
                        cascade,
                        batch.layer_adj(0).view(),
                        &gathered,
                        DispatchPolicy::default(),
                        &InputRing::new(),
                        None,
                    );
                    let by_hand = aggregated_by_hand(&view, &feats);
                    let rows: Vec<usize> = match want.cascade.input_rows() {
                        Some(rows) => rows.to_vec(),
                        None => (0..batch.layer_adj(0).rows()).collect(),
                    };
                    let by_hand: Vec<u32> = rows
                        .iter()
                        .flat_map(|&r| &by_hand[r * 67..(r + 1) * 67])
                        .map(|x| x.to_bits())
                        .collect();
                    let who = format!("{} {norm:?} batch {i}", s.name());
                    let spans = WorkerRing::detached();
                    let got = PreparedInput::prepare(&view, &feats, 2, &ring, &spans, 0);
                    assert_eq!(got.cascade.input_rows(), want.cascade.input_rows(), "{who}");
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
            // of a long epoch do not get to prepare the rest of it first.
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
                // Every batch before the dead one was sampled once, and the dead
                // one died in its first call. Each other worker can only have
                // run ahead of the consumer by what it owns past the dead batch:
                // one batch in its channel and one in hand.
                let calls = dies.calls.load(Ordering::Relaxed);
                assert!(
                    calls <= seen + 1 + 2 * (n_samp - 1),
                    "{calls} calls, {seen} seen"
                );
            }
        });
    }

    #[test]
    fn a_ring_holds_at_most_two_sets_per_worker_and_the_consumers() {
        argo_rt::watchdog(60, || {
            // Each worker has one batch in its channel and one in hand, and
            // the consumer one: at `n_samp = 3` the ring never makes more than
            // seven arenas or seven operand sets (two operands each under
            // `Mean`), however far a slow consumer lets the workers run ahead.
            let (g, s, seeds) = setup();
            let n_samp = 3;
            let ring = InputRing::new();
            for epoch in 0..3 {
                let spec = LoaderSpec::builder(Arc::clone(&g), Arc::clone(&s), Arc::clone(&seeds))
                    .batch_size(8)
                    .epoch(epoch)
                    .epoch_seeds(SeedSequence::new(4))
                    .n_samp(n_samp)
                    .normalization(Normalization::Mean)
                    .features(features());
                for (_, lb) in PipelinedLoader::start_recycling(spec.build(), ring.clone()) {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    lb.recycle(&ring);
                }
            }
            let sets = 2 * n_samp + 1;
            assert!(ring.arenas_made() <= sets, "{} arenas", ring.arenas_made());
            assert!(
                ring.buffers_made() <= 2 * sets,
                "{} operand buffers",
                ring.buffers_made()
            );
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
