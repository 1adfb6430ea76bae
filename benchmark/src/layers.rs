//! The adapter between the benchmark and the program under test. This is
//! the only file that names crate types: every other module works on the
//! plain data defined here. When a crate's public API changes, the calls to
//! re-point are all in this file (README.md lists them).

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use argo_core::{Argo, ArgoOptions, Error};
use argo_engine::{evaluate_accuracy, Engine, EngineOptions};
use argo_graph::datasets::{DatasetSpec, ALL_SPECS, FLICKR, REDDIT};
use argo_graph::partition::random_partition;
use argo_graph::Dataset;
use argo_nn::{AnyModel, AnyOptimizer, Arch, Optimizer, OptimizerKind};
use argo_platform::{
    Library, ModelKind, PerfModel, SamplerKind, Setup, ICE_LAKE_8380H, SAPPHIRE_RAPIDS_6430L,
};
use argo_rt::{AllReduce, Config, SeedSequence, Stage, Telemetry};
use argo_sample::{
    FeatureCache, LoaderSpec, NeighborSampler, SampleRun, SampledBatch, Sampler, SamplerScratch,
    ShadowSampler,
};
use argo_serve::{Clock, ServeResponse, ServeSession, ServeSpec};
use argo_tensor::{DispatchPolicy, Matrix, SparseMatrix};
use argo_tune::{paper_num_searches, BayesOpt, SearchSpace, Searcher};

use crate::trace::Recorder;

pub use argo_rt::Json;

// ---------------------------------------------------------------- host ----

/// The SIMD tier `argo_tensor` dispatches to on this host.
pub fn simd_tier() -> &'static str {
    if argo_tensor::simd_available() {
        "avx2+fma"
    } else {
        "scalar"
    }
}

/// Cores the runtime believes it may use.
pub fn host_threads() -> usize {
    argo_rt::num_available_cores()
}

/// Best rate in GFLOP/s of `DispatchPolicy::gemm` over a few shapes that fit
/// the L1/L2 caches, each timed for `seconds_per_shape`. This is the rate the
/// program's own kernel can reach on this host, not the machine's
/// theoretical peak.
pub fn gemm_peak_gflops(seconds_per_shape: f64) -> f64 {
    let policy = DispatchPolicy::default();
    let mut best = 0.0f64;
    for (m, k, n) in [
        (64, 64, 64),
        (128, 128, 128),
        (256, 128, 128),
        (192, 256, 64),
    ] {
        let a = Matrix::xavier(m, k, 1);
        let b = Matrix::xavier(k, n, 2);
        std::hint::black_box(policy.gemm(&a, &b, None));
        let t0 = Instant::now();
        let mut calls = 0u64;
        while t0.elapsed().as_secs_f64() < seconds_per_shape {
            std::hint::black_box(policy.gemm(std::hint::black_box(&a), &b, None));
            calls += 1;
        }
        let flops = 2.0 * (m * k * n) as f64 * calls as f64;
        best = best.max(flops / t0.elapsed().as_secs_f64() / 1e9);
    }
    best
}

// ------------------------------------------------------------ training ----

#[derive(Clone, Copy, Debug)]
pub enum DatasetId {
    Reddit,
    Flickr,
}

impl DatasetId {
    fn spec(self) -> DatasetSpec {
        match self {
            DatasetId::Reddit => REDDIT,
            DatasetId::Flickr => FLICKR,
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub enum SamplerId {
    /// Layer-wise neighbor sampling with these fanouts.
    Neighbor(&'static [usize]),
    /// ShaDow subgraph sampling with these fanouts, for a model this deep.
    Shadow(&'static [usize], usize),
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArchId {
    Sage,
    Gcn,
}

/// The frozen definition of one training workload.
#[derive(Clone, Copy, Debug)]
pub struct TrainSpec {
    pub dataset: DatasetId,
    pub scale: f64,
    pub sampler: SamplerId,
    pub arch: ArchId,
    pub hidden: usize,
    pub global_batch: usize,
    pub lr: f32,
    pub n_proc: usize,
    pub n_samp: usize,
    pub n_train: usize,
    pub cache_rows: usize,
}

impl TrainSpec {
    fn arch(&self) -> Arch {
        match self.arch {
            ArchId::Sage => Arch::Sage,
            ArchId::Gcn => Arch::Gcn,
        }
    }

    fn num_layers(&self) -> usize {
        match self.sampler {
            SamplerId::Neighbor(fanouts) => fanouts.len(),
            SamplerId::Shadow(_, layers) => layers,
        }
    }

    fn sampler(&self) -> Arc<dyn Sampler> {
        match self.sampler {
            SamplerId::Neighbor(fanouts) => Arc::new(NeighborSampler::new(fanouts.to_vec())),
            SamplerId::Shadow(fanouts, layers) => {
                Arc::new(ShadowSampler::new(fanouts.to_vec(), layers))
            }
        }
    }

    fn config(&self) -> Config {
        Config::new(self.n_proc, self.n_samp, self.n_train).with_cache_rows(self.cache_rows)
    }

    /// Program threads one epoch of this workload runs: per process one
    /// consumer, `n_samp` sampler threads and the training pool when it has
    /// more than one core.
    pub fn program_threads(&self) -> usize {
        let pool = if self.n_train > 1 { self.n_train } else { 0 };
        self.n_proc * (1 + self.n_samp + pool)
    }
}

/// What one `Engine::train_epoch` call returned.
#[derive(Clone, Copy, Debug)]
pub struct EpochOut {
    pub seconds: f64,
    pub loss: f64,
    pub edges: u64,
}

/// Per-epoch seconds of the engine's own stage histograms.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageSeconds {
    pub sample_wait: f64,
    pub gather: f64,
    pub compute: f64,
    pub sync: f64,
}

/// A dataset plus a live `Engine`, as one training workload uses them.
pub struct TrainRig {
    pub spec: TrainSpec,
    seed: u64,
    dataset: Arc<Dataset>,
    sampler: Arc<dyn Sampler>,
    engine: Engine,
    telemetry: Telemetry,
    telemetry_epochs: u64,
    /// Seconds `DatasetSpec::synthesize` took.
    pub synth_seconds: f64,
}

impl TrainRig {
    /// `DatasetSpec::synthesize` + `Engine::new`; the seed drives both.
    pub fn new(spec: TrainSpec, seed: u64) -> Self {
        let t0 = Instant::now();
        let dataset = Arc::new(spec.dataset.spec().synthesize(spec.scale, seed));
        let synth_seconds = t0.elapsed().as_secs_f64();
        let sampler = spec.sampler();
        let opts = EngineOptions::builder()
            .with_kind(spec.arch())
            .with_hidden(spec.hidden)
            .with_num_layers(spec.num_layers())
            .with_global_batch(spec.global_batch)
            .with_optimizer(OptimizerKind::Adam)
            .with_lr(spec.lr)
            .with_seed(seed);
        let engine = Engine::new(Arc::clone(&dataset), Arc::clone(&sampler), opts);
        Self {
            spec,
            seed,
            dataset,
            sampler,
            engine,
            telemetry: Telemetry::new(),
            telemetry_epochs: 0,
            synth_seconds,
        }
    }

    pub fn num_nodes(&self) -> usize {
        self.dataset.graph.num_nodes()
    }

    pub fn num_edges(&self) -> usize {
        self.dataset.graph.num_edges()
    }

    /// Train targets one epoch processes (drop-last across processes).
    pub fn targets_per_epoch(&self) -> usize {
        (self.dataset.train_nodes.len() / self.spec.n_proc) * self.spec.n_proc
    }

    /// One `Engine::train_epoch` under the workload's `Config`, with the
    /// existing `Telemetry` registry attached or not. A panic inside the
    /// engine comes back as `Err`.
    pub fn epoch(&mut self, with_telemetry: bool) -> Result<EpochOut, String> {
        let config = self.spec.config();
        let telemetry = with_telemetry.then_some(&self.telemetry);
        let engine = &mut self.engine;
        let stats = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.train_epoch(config, telemetry)
        }))
        .map_err(|_| "Engine::train_epoch panicked".to_string())?;
        if with_telemetry {
            self.telemetry_epochs += 1;
        }
        Ok(EpochOut {
            seconds: stats.epoch_time,
            loss: f64::from(stats.loss),
            edges: stats.edges as u64,
        })
    }

    /// One epoch as the plain single-worker baseline (`Config(1,1,1)`, no
    /// cache) on the same engine.
    pub fn baseline_epoch(&mut self) -> f64 {
        self.engine
            .train_epoch(Config::new(1, 1, 1), None)
            .epoch_time
    }

    /// `evaluate_accuracy` on at most `max_nodes` validation nodes, taken at
    /// an even stride over the split so that a probe sees every community.
    pub fn val_accuracy(&self, max_nodes: usize) -> f64 {
        let all = &self.dataset.val_nodes;
        let stride = all.len().div_ceil(max_nodes.max(1)).max(1);
        let nodes: Vec<u32> = all.iter().step_by(stride).copied().collect();
        evaluate_accuracy(&self.engine.model(), &self.dataset, &nodes)
    }

    /// The engine's stage histograms (`stage_seconds/*` in the `Telemetry`
    /// registry), as seconds per telemetry epoch summed over processes.
    pub fn stage_seconds(&self) -> StageSeconds {
        let hists = self.telemetry.metrics.histograms();
        let per_epoch = |stage: Stage| -> f64 {
            let name = Telemetry::stage_histogram_name(stage);
            let sum = hists
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, h)| h.sum());
            sum / self.telemetry_epochs.max(1) as f64
        };
        StageSeconds {
            sample_wait: per_epoch(Stage::Sample),
            gather: per_epoch(Stage::Gather),
            compute: per_epoch(Stage::Compute),
            sync: per_epoch(Stage::Sync),
        }
    }

    /// Seconds to drain one epoch from a stand-alone `PipelinedLoader` with
    /// the workload's loader settings and no consumer work.
    pub fn loader_drain_seconds(&self, epoch: u64) -> f64 {
        let spec = &self.spec;
        let seeds = SeedSequence::new(self.seed ^ ENGINE_SEED_SALT);
        let parts = random_partition(
            &self.dataset.train_nodes,
            spec.n_proc,
            seeds.seed_for(epoch, u64::MAX),
        );
        let local_batch = (spec.global_batch / spec.n_proc).max(1);
        let graph = Arc::new(self.dataset.graph.clone());
        let mut builder =
            LoaderSpec::builder(graph, Arc::clone(&self.sampler), Arc::new(parts[0].clone()))
                .batch_size(local_batch)
                .epoch(epoch)
                .epoch_seeds(seeds.child(0))
                .n_samp(spec.n_samp)
                .normalization(spec.arch().normalization());
        if spec.cache_rows > 0 {
            builder = builder
                .features(Arc::new(self.dataset.features.clone()))
                .cache(Arc::new(FeatureCache::new(
                    spec.cache_rows,
                    self.dataset.feat_dim(),
                )));
        }
        let t0 = Instant::now();
        for item in builder.start() {
            std::hint::black_box(&item);
        }
        t0.elapsed().as_secs_f64()
    }

    /// A serial replay of this workload's epochs through the public layer
    /// calls, starting from the same initial model as the engine.
    pub fn replay(&self) -> Replay {
        let spec = self.spec;
        let d = &self.dataset;
        let replicas = (0..spec.n_proc)
            .map(|_| {
                let model = AnyModel::build(
                    spec.arch(),
                    d.feat_dim(),
                    spec.hidden,
                    d.num_classes,
                    spec.num_layers(),
                    self.seed,
                );
                let mut params = Vec::new();
                model.params_flat(&mut params);
                let opt = AnyOptimizer::build(OptimizerKind::Adam, params.len(), spec.lr);
                Replica {
                    model,
                    grads: Vec::with_capacity(params.len()),
                    params,
                    opt,
                }
            })
            .collect::<Vec<_>>();
        let num_params = replicas[0].params.len();
        Replay {
            spec,
            dataset: Arc::clone(d),
            sampler: Arc::clone(&self.sampler),
            seeds: SeedSequence::new(self.seed ^ ENGINE_SEED_SALT),
            replicas,
            scratch: SamplerScratch::new(),
            cache: (spec.cache_rows > 0).then(|| FeatureCache::new(spec.cache_rows, d.feat_dim())),
            allreduce: AllReduce::new(spec.n_proc, num_params),
            epoch: 0,
            counters: ReplayCounters::default(),
        }
    }
}

/// `Engine::new` roots its seed tree at `seed ^ 0xC0FFEE`; the replay uses
/// the same root so that it samples the same seed lists with the same
/// streams as the engine run.
const ENGINE_SEED_SALT: u64 = 0xC0FFEE;

/// The two channel ends the replay keeps of an all-reduce helper thread:
/// gradients go out, the reduced gradients come back.
type HelperLink = (mpsc::Sender<Vec<f32>>, mpsc::Receiver<Vec<f32>>);

struct Replica {
    model: AnyModel,
    params: Vec<f32>,
    grads: Vec<f32>,
    opt: AnyOptimizer,
}

/// Work counted at the layer boundaries of the replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayCounters {
    pub sample_calls: u64,
    pub edges: u64,
    pub input_nodes: u64,
    pub metadata_bytes: u64,
    pub scratch_allocs: u64,
    pub gather_rows: u64,
    pub allreduce_calls: u64,
    pub allreduce_bytes: u64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub cache_evictions: u64,
}

/// Span names of the replay, one per public call.
pub mod span {
    pub const EPOCH: &str = "replay.epoch";
    pub const PARTITION: &str = "graph.random_partition";
    pub const SAMPLE: &str = "sample.sample_into";
    pub const TO_OWNED: &str = "sample.to_owned";
    pub const GATHER: &str = "graph.gather";
    pub const INPUT_COPY: &str = "nn.input_matrix";
    pub const CACHE_GATHER: &str = "sample.cache_gather_rows";
    pub const STEP: &str = "nn.train_step_gathered";
    pub const GRADS: &str = "nn.grads_flat";
    pub const ALLREDUCE: &str = "rt.allreduce";
    pub const OPT_STEP: &str = "nn.optimizer_step";
    pub const SET_PARAMS: &str = "nn.set_params_flat";
    pub const SERVE_SUBMIT: &str = "serve.submit";
    pub const SERVE_POLL: &str = "serve.poll";
    pub const QUERY: &str = "replay.query";
    pub const Q_SAMPLE: &str = "serve.sample_into";
    pub const Q_GATHER: &str = "serve.gather";
    pub const Q_FORWARD: &str = "serve.forward_gathered_view";
}

pub struct Replay {
    spec: TrainSpec,
    dataset: Arc<Dataset>,
    sampler: Arc<dyn Sampler>,
    seeds: SeedSequence,
    replicas: Vec<Replica>,
    scratch: SamplerScratch,
    cache: Option<FeatureCache>,
    allreduce: AllReduce,
    epoch: u64,
    pub counters: ReplayCounters,
}

/// What one replayed epoch produced.
#[derive(Clone, Copy, Debug)]
pub struct ReplayEpoch {
    pub seconds: f64,
    pub edges: u64,
    pub loss: f64,
}

/// Kernel and forward timings on the shapes of the workload's own batches,
/// each a mean per batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probe {
    pub batches: u64,
    pub forward_s: f64,
    pub spmm_s: f64,
    pub spmm_t_s: f64,
    pub gemm_s: f64,
    pub spmm_flop: f64,
    pub gemm_flop: f64,
    /// Computed, not measured: index and value reads, gathered rows, output.
    pub spmm_bytes: f64,
}

impl Replay {
    /// One epoch, serially, one span per public call:
    /// `random_partition` → per batch and rank `Sampler::sample_into` →
    /// `SampledBatchView::to_owned` → `Features::gather` (or
    /// `FeatureCache::gather_rows`) → `AnyModel::train_step_gathered` →
    /// `grads_flat` → `AllReduce::reduce_mean` → `Optimizer::step` →
    /// `set_params_flat`. With more than one process the other ranks'
    /// `reduce_mean` calls run on helper threads, as the barrier requires.
    pub fn epoch(&mut self, rec: &mut Recorder) -> ReplayEpoch {
        let Self {
            spec,
            dataset,
            sampler,
            seeds,
            replicas,
            scratch,
            cache,
            allreduce,
            epoch,
            counters,
        } = self;
        let e = *epoch;
        let n_proc = spec.n_proc;
        let layers = spec.num_layers();
        let norm = spec.arch().normalization();
        let allreduce = &*allreduce;
        let cache_before = cache.as_ref().map(FeatureCache::stats);
        let mut edges = 0u64;
        let mut loss_sum = 0.0f64;
        let mut steps = 0u64;

        let t0 = Instant::now();
        let root = rec.begin(span::EPOCH, e);
        std::thread::scope(|scope| {
            // Ranks 1.. of the all-reduce: they only ever call `reduce_mean`.
            let helpers: Vec<HelperLink> = (1..n_proc)
                .map(|_| {
                    let (to_helper, from_main) = mpsc::channel::<Vec<f32>>();
                    let (to_main, from_helper) = mpsc::channel::<Vec<f32>>();
                    scope.spawn(move || {
                        for mut buf in from_main {
                            allreduce.reduce_mean(&mut buf);
                            if to_main.send(buf).is_err() {
                                return;
                            }
                        }
                    });
                    (to_helper, from_helper)
                })
                .collect();

            let sp = rec.begin(span::PARTITION, e);
            let parts = random_partition(&dataset.train_nodes, n_proc, seeds.seed_for(e, u64::MAX));
            rec.end(sp);
            let min_len = parts.iter().map(Vec::len).min().unwrap_or(0);
            let local_batch = (spec.global_batch / n_proc).max(1);
            let iterations = min_len.div_ceil(local_batch);

            for i in 0..iterations {
                let lo = i * local_batch;
                let hi = (lo + local_batch).min(min_len);
                for (rank, replica) in replicas.iter_mut().enumerate() {
                    let id = (e * iterations as u64 + i as u64) * n_proc as u64 + rank as u64;
                    let stream = SeedSequence::new(seeds.child(rank as u64).seed_for(e, i as u64));
                    let allocs_before = scratch.allocs();
                    let sp = rec.begin(span::SAMPLE, id);
                    let view = sampler.sample_into(
                        &dataset.graph,
                        &parts[rank][lo..hi],
                        SampleRun::new(stream, scratch).with_norm(norm),
                    );
                    rec.end(sp);
                    counters.metadata_bytes += view.metadata_bytes() as u64;
                    let sp = rec.begin(span::TO_OWNED, id);
                    let batch = view.to_owned();
                    rec.end(sp);
                    counters.scratch_allocs += scratch.allocs() - allocs_before;
                    counters.sample_calls += 1;
                    let batch_edges = batch.total_edges(layers) as u64;
                    edges += batch_edges;
                    counters.edges += batch_edges;
                    let ids = batch.input_nodes();
                    counters.input_nodes += ids.len() as u64;
                    let dim = dataset.feat_dim();
                    let input = match cache.as_ref() {
                        Some(cache) => {
                            let sp = rec.begin(span::CACHE_GATHER, id);
                            let rows = cache.gather_rows(&dataset.features, ids);
                            let m = Matrix::from_vec(ids.len(), dim, rows);
                            rec.end(sp);
                            m
                        }
                        None => {
                            let sp = rec.begin(span::GATHER, id);
                            let gathered = dataset.features.gather(ids);
                            rec.end(sp);
                            counters.gather_rows += ids.len() as u64;
                            let sp = rec.begin(span::INPUT_COPY, id);
                            let m = Matrix::from_vec(ids.len(), dim, gathered.data().to_vec());
                            rec.end(sp);
                            m
                        }
                    };
                    let sp = rec.begin(span::STEP, id);
                    let stats =
                        replica
                            .model
                            .train_step_gathered(&batch, input, &dataset.labels, None);
                    rec.end(sp);
                    loss_sum += f64::from(stats.loss);
                    steps += 1;
                    let sp = rec.begin(span::GRADS, id);
                    replica.model.grads_flat(&mut replica.grads);
                    rec.end(sp);
                }

                let sp = rec.begin(span::ALLREDUCE, i as u64);
                for (replica, (to_helper, _)) in replicas[1..].iter_mut().zip(&helpers) {
                    to_helper
                        .send(std::mem::take(&mut replica.grads))
                        .expect("all-reduce helper is alive");
                }
                allreduce.reduce_mean(&mut replicas[0].grads);
                for (replica, (_, from_helper)) in replicas[1..].iter_mut().zip(&helpers) {
                    replica.grads = from_helper.recv().expect("all-reduce helper is alive");
                }
                rec.end(sp);
                counters.allreduce_calls += n_proc as u64;
                counters.allreduce_bytes += (n_proc * replicas[0].grads.len() * 4) as u64;

                for (rank, replica) in replicas.iter_mut().enumerate() {
                    let id = i as u64 * n_proc as u64 + rank as u64;
                    let sp = rec.begin(span::OPT_STEP, id);
                    replica.opt.step(&mut replica.params, &replica.grads);
                    rec.end(sp);
                    let sp = rec.begin(span::SET_PARAMS, id);
                    replica.model.set_params_flat(&replica.params);
                    rec.end(sp);
                }
            }
            // Dropping the senders ends the helpers; the scope joins them.
            drop(helpers);
        });
        rec.end(root);
        let seconds = t0.elapsed().as_secs_f64();

        if let (Some(cache), Some(before)) = (cache.as_ref(), cache_before) {
            let d = cache.stats().delta(&before);
            counters.cache_hits += d.hits;
            counters.cache_lookups += d.lookups();
            counters.cache_evictions += d.evictions;
        }
        *epoch += 1;
        ReplayEpoch {
            seconds,
            edges,
            loss: loss_sum / steps.max(1) as f64,
        }
    }

    /// Times `AnyModel::forward_gathered_view` and the three kernels
    /// (`DispatchPolicy::aggregate_into`, `aggregate_transpose_into`,
    /// `gemm`) on the first `batches` batches of rank 0's next epoch.
    pub fn probe(&mut self, batches: usize) -> Probe {
        let spec = self.spec;
        let d = Arc::clone(&self.dataset);
        let parts = random_partition(
            &d.train_nodes,
            spec.n_proc,
            self.seeds.seed_for(self.epoch, u64::MAX),
        );
        let local_batch = (spec.global_batch / spec.n_proc).max(1);
        let policy = self.replicas[0].model.dispatch();
        let sage = spec.arch == ArchId::Sage;
        let layers = spec.num_layers();
        // Feature width entering each layer, then the class count.
        let mut dims = vec![d.feat_dim()];
        dims.extend(std::iter::repeat_n(spec.hidden, layers - 1));
        dims.push(d.num_classes);

        let mut out = Probe::default();
        for (i, seeds) in parts[0].chunks(local_batch).take(batches).enumerate() {
            let stream = SeedSequence::new(self.seeds.child(0).seed_for(self.epoch, i as u64));
            let view = self.sampler.sample_into(
                &d.graph,
                seeds,
                SampleRun::new(stream, &mut self.scratch).with_norm(spec.arch().normalization()),
            );
            let ids = view.input_nodes();
            let input = Matrix::from_vec(
                ids.len(),
                d.feat_dim(),
                d.features.gather(ids).data().to_vec(),
            );
            let t0 = Instant::now();
            std::hint::black_box(
                self.replicas[0]
                    .model
                    .forward_gathered_view(&view, input, None),
            );
            out.forward_s += t0.elapsed().as_secs_f64();

            let batch = view.to_owned();
            let adjs: Vec<&SparseMatrix> = match &batch {
                SampledBatch::Blocks(mb) => mb.blocks.iter().map(|b| &b.adj).collect(),
                SampledBatch::Subgraph(sb) => vec![&sb.adj; layers],
            };
            for (l, adj) in adjs.iter().enumerate() {
                let width = dims[l];
                let h = Matrix::xavier(adj.cols(), width, 7);
                let mut agg = Matrix::zeros(adj.rows(), width);
                let t0 = Instant::now();
                policy.aggregate_into(adj, &h, None, &mut agg);
                out.spmm_s += t0.elapsed().as_secs_f64();

                let grad = Matrix::xavier(adj.rows(), width, 8);
                let mut back = Matrix::zeros(adj.cols(), width);
                // The first call builds and caches the CSC mirror; the
                // second is the kernel alone.
                policy.aggregate_transpose_into(adj, &grad, None, &mut back);
                let t0 = Instant::now();
                policy.aggregate_transpose_into(adj, &grad, None, &mut back);
                out.spmm_t_s += t0.elapsed().as_secs_f64();
                std::hint::black_box((&agg, &back));

                let fan_in = if sage { 2 * width } else { width };
                let a = Matrix::xavier(adj.rows(), fan_in, 9);
                let w = Matrix::xavier(fan_in, dims[l + 1], 10);
                let t0 = Instant::now();
                std::hint::black_box(policy.gemm(&a, &w, None));
                out.gemm_s += t0.elapsed().as_secs_f64();

                let nnz = adj.nnz() as f64;
                out.spmm_flop += 2.0 * nnz * width as f64;
                out.gemm_flop += 2.0 * (adj.rows() * fan_in * dims[l + 1]) as f64;
                out.spmm_bytes +=
                    nnz * 8.0 + nnz * width as f64 * 4.0 + (adj.rows() * width) as f64 * 4.0;
            }
            out.batches += 1;
        }
        let n = out.batches.max(1) as f64;
        for v in [
            &mut out.forward_s,
            &mut out.spmm_s,
            &mut out.spmm_t_s,
            &mut out.gemm_s,
            &mut out.spmm_flop,
            &mut out.gemm_flop,
            &mut out.spmm_bytes,
        ] {
            *v /= n;
        }
        out
    }

    /// Batches one epoch runs, over all ranks.
    pub fn batches_per_epoch(&self) -> u64 {
        let n_proc = self.spec.n_proc;
        let per_rank = self.dataset.train_nodes.len() / n_proc;
        let local_batch = (self.spec.global_batch / n_proc).max(1);
        (per_rank.div_ceil(local_batch) * n_proc) as u64
    }

    pub fn feat_dim(&self) -> usize {
        self.dataset.feat_dim()
    }
}

// ------------------------------------------------------------- serving ----

/// The frozen definition of one serving workload.
#[derive(Clone, Copy, Debug)]
pub struct ServeDef {
    pub dataset: DatasetId,
    pub scale: f64,
    pub fanouts: &'static [usize],
    pub hidden: usize,
    pub max_batch: usize,
    pub deadline_us: u64,
    pub queue_cap: usize,
    pub shed_after_us: u64,
    pub result_cache_entries: usize,
    pub feature_cache_rows: usize,
}

/// The clock shared by the load generator and the session, so that arrival
/// times, deadlines and latencies are all on one time base.
struct BenchClock(Instant);

impl Clock for BenchClock {
    fn now_us(&self) -> u64 {
        self.0.elapsed().as_micros() as u64
    }
}

/// What the checks keep of a response's logits. The matrix itself is dropped
/// with the response: holding on to it would keep the buffer it was computed
/// in out of the model's workspace and change what the program allocates.
#[derive(Clone)]
pub struct Logits {
    shape: (usize, usize),
    /// FNV-1a over the bit patterns of every value.
    fingerprint: u64,
    /// The bit patterns themselves, kept for the responses that are compared
    /// against a direct recompute.
    bits: Option<Vec<u32>>,
}

impl Logits {
    fn of(m: &Matrix, keep_bits: bool) -> Self {
        let mut fingerprint = 0xCBF2_9CE4_8422_2325u64;
        for v in m.data() {
            fingerprint = (fingerprint ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01B3);
        }
        Self {
            shape: (m.rows(), m.cols()),
            fingerprint,
            bits: keep_bits.then(|| m.data().iter().map(|v| v.to_bits()).collect()),
        }
    }

    /// Same shape and same bits; exact where both sides kept their bits,
    /// otherwise by fingerprint.
    pub fn bitwise_eq(&self, other: &Logits) -> bool {
        self.shape == other.shape
            && match (&self.bits, &other.bits) {
                (Some(a), Some(b)) => a == b,
                _ => self.fingerprint == other.fingerprint,
            }
    }
}

/// Every how many responses (by request id) the logits' bits are kept.
pub const KEEP_BITS_EVERY: u64 = 64;

/// How a request ended without a response.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Failure {
    /// Refused at admission (`Error::QueueFull`).
    QueueFull,
    /// Shed after queueing too long (`Error::DeadlineExceeded`).
    Shed,
    Other,
}

fn failure_of(e: &Error) -> Failure {
    match e {
        Error::QueueFull(_) => Failure::QueueFull,
        Error::DeadlineExceeded(_) => Failure::Shed,
        _ => Failure::Other,
    }
}

/// One finished request, as `ServeResponse` reports it.
pub struct Reply {
    pub request: u64,
    pub batch: u64,
    pub queue_s: f64,
    pub latency_s: f64,
    pub cache_hit: bool,
    pub logits: Logits,
}

fn replies(completed: Vec<Result<ServeResponse, Error>>, out: &mut Vec<Result<Reply, Failure>>) {
    out.extend(completed.into_iter().map(|r| match r {
        Ok(r) => Ok(Reply {
            request: r.request,
            batch: r.batch,
            queue_s: r.queue_seconds,
            latency_s: r.latency_seconds,
            cache_hit: r.cache_hit,
            logits: Logits::of(&r.logits, r.request % KEEP_BITS_EVERY == 0),
        }),
        Err(e) => Err(failure_of(&e)),
    }));
}

/// A dataset, a live `ServeSession` and what a direct recompute of its
/// query path needs.
pub struct ServeRig {
    def: ServeDef,
    seed: u64,
    dataset: Arc<Dataset>,
    sampler: Arc<dyn Sampler>,
    session: ServeSession,
    clock: Arc<BenchClock>,
    /// Same architecture, same seed: the same parameters as the session's.
    oracle: AnyModel,
    scratch: SamplerScratch,
    oracle_cache: Option<FeatureCache>,
}

impl ServeRig {
    /// `DatasetSpec::synthesize` + `AnyModel::build` + `ServeSpec::start`.
    /// `deadline_us` overrides the definition's (0 = the closed-loop
    /// session that flushes on every admission).
    pub fn new(def: ServeDef, seed: u64, deadline_us: u64) -> Self {
        let dataset = def.dataset.spec().synthesize(def.scale, seed);
        Self::over(def, seed, deadline_us, Arc::new(dataset))
    }

    /// A second session over the same dataset.
    pub fn sibling(&self, deadline_us: u64) -> Self {
        Self::over(self.def, self.seed, deadline_us, Arc::clone(&self.dataset))
    }

    fn over(def: ServeDef, seed: u64, deadline_us: u64, dataset: Arc<Dataset>) -> Self {
        let build = || {
            AnyModel::build(
                Arch::Sage,
                dataset.feat_dim(),
                def.hidden,
                dataset.num_classes,
                def.fanouts.len(),
                seed,
            )
        };
        let sampler: Arc<dyn Sampler> = Arc::new(NeighborSampler::new(def.fanouts.to_vec()));
        let clock = Arc::new(BenchClock(Instant::now()));
        let session = ServeSpec::builder(Arc::clone(&dataset), Arc::clone(&sampler), build())
            .max_batch(def.max_batch)
            .deadline_us(deadline_us)
            .queue_cap(def.queue_cap)
            .shed_after_us(def.shed_after_us)
            .result_cache_entries(def.result_cache_entries)
            .feature_cache_rows(def.feature_cache_rows)
            .normalization(Arch::Sage.normalization())
            .seed(seed)
            .clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .start();
        Self {
            def,
            seed,
            oracle: build(),
            oracle_cache: (def.feature_cache_rows > 0)
                .then(|| FeatureCache::new(def.feature_cache_rows, dataset.feat_dim())),
            dataset,
            sampler,
            session,
            clock,
            scratch: SamplerScratch::new(),
        }
    }

    pub fn num_nodes(&self) -> u32 {
        self.dataset.graph.num_nodes() as u32
    }

    /// Nanoseconds on the clock the session reads in microseconds.
    pub fn now_ns(&self) -> u64 {
        self.clock.0.elapsed().as_nanos() as u64
    }

    /// `ServeSession::submit`. Returns the request id, or how admission
    /// refused it; responses a flush completed are appended to `out`.
    pub fn submit(
        &mut self,
        seeds: &[u32],
        out: &mut Vec<Result<Reply, Failure>>,
    ) -> Result<u64, Failure> {
        match self.session.submit(seeds.to_vec(), None) {
            Ok(s) => {
                replies(s.completed, out);
                Ok(s.request)
            }
            Err(e) => Err(failure_of(&e)),
        }
    }

    /// `ServeSession::poll`.
    pub fn poll(&mut self, out: &mut Vec<Result<Reply, Failure>>) {
        replies(self.session.poll(None), out);
    }

    /// `ServeSession::drain`.
    pub fn drain(&mut self, out: &mut Vec<Result<Reply, Failure>>) {
        replies(self.session.drain(None), out);
    }

    /// `ServeSession::next_deadline_us`.
    pub fn next_deadline_us(&self) -> Option<u64> {
        self.session.next_deadline_us()
    }

    pub fn pending(&self) -> usize {
        self.session.pending()
    }

    pub fn result_hit_rate(&self) -> f64 {
        self.session
            .result_cache_stats()
            .map_or(0.0, |s| s.hit_rate())
    }

    pub fn feature_hit_rate(&self) -> f64 {
        self.session
            .feature_cache_stats()
            .map_or(0.0, |s| s.hit_rate())
    }

    /// The session's query path called directly, one span per call:
    /// `Sampler::sample_into` → `Features::gather` (or
    /// `FeatureCache::gather_rows`) → `AnyModel::forward_gathered_view`,
    /// with the stream the session derives for this seed list, so the
    /// result must equal the session's response bit for bit.
    pub fn recompute(&mut self, seeds: &[u32], id: u64, rec: &mut Recorder) -> Logits {
        // `ServeSession::run_query` roots the stream at the result-cache key
        // hash (config epoch 0 here) mixed with the session seed.
        let stream = SeedSequence::new(
            argo_serve::result_cache::key_hash(seeds, 0)
                ^ self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let root = rec.begin(span::QUERY, id);
        let sp = rec.begin(span::Q_SAMPLE, id);
        let view = self.sampler.sample_into(
            &self.dataset.graph,
            seeds,
            SampleRun::new(stream, &mut self.scratch).with_norm(Arch::Sage.normalization()),
        );
        rec.end(sp);
        let ids = view.input_nodes();
        let sp = rec.begin(span::Q_GATHER, id);
        let rows = match self.oracle_cache.as_ref() {
            Some(cache) => cache.gather_rows(&self.dataset.features, ids),
            None => self.dataset.features.gather(ids).data().to_vec(),
        };
        let input = Matrix::from_vec(ids.len(), self.dataset.feat_dim(), rows);
        rec.end(sp);
        let sp = rec.begin(span::Q_FORWARD, id);
        let logits = self.oracle.forward_gathered_view(&view, input, None);
        rec.end(sp);
        rec.end(root);
        Logits::of(&logits, true)
    }
}

// -------------------------------------------------------------- tuning ----

/// One of the paper's 32 tuning tasks: 2 platforms × 2 sampler-models ×
/// 4 datasets × 2 libraries.
pub struct TuneTask {
    model: PerfModel,
    pub cores: usize,
    pub n_search: usize,
    /// Exhaustive optimum of the noise-free surface
    /// (`PerfModel::argo_best_epoch_time`).
    pub optimum_s: f64,
    pub space_size: usize,
}

pub fn paper_tasks() -> Vec<TuneTask> {
    let mut out = Vec::with_capacity(32);
    for library in [Library::Dgl, Library::Pyg] {
        for platform in [ICE_LAKE_8380H, SAPPHIRE_RAPIDS_6430L] {
            for (sampler, model) in [
                (SamplerKind::Neighbor, ModelKind::Sage),
                (SamplerKind::Shadow, ModelKind::Gcn),
            ] {
                for dataset in ALL_SPECS {
                    let model = PerfModel::new(Setup {
                        platform,
                        library,
                        sampler,
                        model,
                        dataset,
                    });
                    let cores = platform.total_cores;
                    out.push(TuneTask {
                        optimum_s: model.argo_best_epoch_time(cores).1,
                        n_search: paper_num_searches(cores, matches!(sampler, SamplerKind::Shadow)),
                        space_size: SearchSpace::for_cores(cores).len(),
                        model,
                        cores,
                    });
                }
            }
        }
    }
    out
}

/// What one tuning run chose.
#[derive(Clone, Copy, Debug)]
pub struct TuneOut {
    /// Noise-free epoch time of the chosen configuration ÷ the optimum.
    pub regret: f64,
    pub trials: usize,
    /// The chosen configuration is in the search space and fits the
    /// platform's cores.
    pub valid: bool,
}

impl TuneTask {
    /// `Argo::run` (what `Argo::run_modeled` wraps) with every epoch a
    /// search epoch, on the noisy objective `PerfModel::epoch_time_noisy`;
    /// the chosen configuration is then rated on the noise-free surface.
    pub fn tune(&self, tuner_seed: u64) -> TuneOut {
        let mut argo = Argo::new(ArgoOptions {
            n_search: self.n_search,
            epochs: self.n_search,
            total_cores: self.cores,
            seed: tuner_seed,
        });
        let model = &self.model;
        let mut trial = 0u64;
        let report = argo.run(
            |config, epochs| {
                trial += 1;
                model.epoch_time_noisy(config, tuner_seed.wrapping_mul(1000) + trial)
                    * epochs as f64
            },
            None,
        );
        let chosen = report.config_opt;
        TuneOut {
            regret: model.epoch_time(chosen) / self.optimum_s,
            trials: report.history.len(),
            valid: argo.space().contains(chosen) && chosen.fits(self.cores),
        }
    }

    /// `Argo::run_modeled` on the noise-free surface; seconds it took.
    pub fn run_modeled_seconds(&self, tuner_seed: u64) -> f64 {
        let mut argo = Argo::new(ArgoOptions {
            n_search: self.n_search,
            epochs: self.n_search,
            total_cores: self.cores,
            seed: tuner_seed,
        });
        let t0 = Instant::now();
        std::hint::black_box(argo.run_modeled(&self.model, None));
        t0.elapsed().as_secs_f64()
    }

    /// The same search driven by hand, timing `BayesOpt::suggest` and
    /// `BayesOpt::observe` apart. Returns (suggest seconds, observe seconds).
    pub fn suggest_observe_seconds(&self, tuner_seed: u64) -> (f64, f64) {
        let mut tuner = BayesOpt::new(SearchSpace::for_cores(self.cores), tuner_seed);
        let (mut suggest, mut observe) = (0.0, 0.0);
        for trial in 0..self.n_search as u64 {
            let t0 = Instant::now();
            let config = tuner.suggest();
            suggest += t0.elapsed().as_secs_f64();
            let value = self
                .model
                .epoch_time_noisy(config, tuner_seed.wrapping_mul(1000) + trial + 1);
            let t0 = Instant::now();
            tuner.observe(config, value);
            observe += t0.elapsed().as_secs_f64();
        }
        (suggest, observe)
    }

    /// `PerfModel::epoch_time` over the whole search space once. Returns
    /// (calls, seconds).
    pub fn epoch_time_sweep(&self) -> (u64, f64) {
        let space = SearchSpace::for_cores(self.cores);
        let t0 = Instant::now();
        for &config in space.configs() {
            std::hint::black_box(self.model.epoch_time(std::hint::black_box(config)));
        }
        (space.len() as u64, t0.elapsed().as_secs_f64())
    }
}
