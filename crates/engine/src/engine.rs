//! The Multi-Process Engine proper.

use std::sync::Arc;
use std::time::Instant;

use argo_graph::partition::random_partition;
use argo_graph::{Dataset, Features, Graph};
use argo_nn::{AnyOptimizer, Arch, Gnn, Optimizer, OptimizerKind};
use argo_rt::affinity::CoreSet;
use argo_rt::spans::{critical_path, Role, SpanKind, SpanProfiler};
use argo_rt::{
    AllReduce, BytesRecord, Config, CoreBinder, EpochRecord, RunEvent, SeedSequence, Telemetry,
    ThreadPool,
};
use argo_sample::{InputRing, LoaderSpec, PipelinedLoader, Sampler};

/// Construction options for an [`Engine`].
#[derive(Clone)]
pub struct EngineOptions {
    /// GNN architecture.
    pub kind: Arch,
    /// Hidden feature dimension (the paper uses 128).
    pub hidden: usize,
    /// Number of GNN layers (the paper uses 3).
    pub num_layers: usize,
    /// Global mini-batch size `b`; each process trains with `b / n_proc`.
    pub global_batch: usize,
    /// Optimizer to use (Adam by default; the exact-semantics tests use
    /// plain SGD because its update is linear in the gradient).
    pub optimizer: OptimizerKind,
    /// Learning rate.
    pub lr: f32,
    /// Master RNG seed (model init, partitioning, sampling).
    pub seed: u64,
    /// Total cores the core binder may plan over (defaults to the host's
    /// available cores; set explicitly to emulate a larger logical machine).
    pub total_cores: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            kind: Arch::Sage,
            hidden: 128,
            num_layers: 3,
            global_batch: 1024,
            optimizer: OptimizerKind::Adam,
            lr: 3e-3,
            seed: 0,
            total_cores: argo_rt::num_available_cores(),
        }
    }
}

/// Fluent builder-style constructors, so adding a field never breaks
/// existing call sites.
impl EngineOptions {
    /// Starts from [`EngineOptions::default`].
    pub fn builder() -> Self {
        Self::default()
    }

    /// GNN architecture.
    pub fn with_kind(mut self, kind: Arch) -> Self {
        self.kind = kind;
        self
    }

    /// Hidden feature dimension.
    pub fn with_hidden(mut self, hidden: usize) -> Self {
        self.hidden = hidden;
        self
    }

    /// Number of GNN layers.
    pub fn with_num_layers(mut self, num_layers: usize) -> Self {
        self.num_layers = num_layers;
        self
    }

    /// Global mini-batch size.
    pub fn with_global_batch(mut self, global_batch: usize) -> Self {
        self.global_batch = global_batch;
        self
    }

    /// Optimizer kind.
    pub fn with_optimizer(mut self, optimizer: OptimizerKind) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Learning rate.
    pub fn with_lr(mut self, lr: f32) -> Self {
        self.lr = lr;
        self
    }

    /// Master RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total cores the core binder may plan over.
    pub fn with_total_cores(mut self, total_cores: usize) -> Self {
        self.total_cores = total_cores;
        self
    }
}

/// Result of training one epoch under one configuration.
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    /// Wall-clock epoch time in seconds — the auto-tuner's objective.
    pub epoch_time: f64,
    /// Mean training loss across all iterations and processes.
    pub loss: f32,
    /// Mean training accuracy.
    pub train_accuracy: f64,
    /// Synchronized iterations executed (= global mini-batches).
    pub iterations: usize,
    /// Mini-batches executed across all processes (= iterations × n_proc).
    pub minibatches: usize,
    /// Total sampled edges (workload proxy, Figure 6).
    pub edges: usize,
    /// Seconds spent inside gradient synchronization (summed over
    /// iterations, averaged over processes).
    pub sync_time: f64,
}

struct ProcessResult {
    loss_sum: f64,
    acc_sum: f64,
    iterations: usize,
    edges: usize,
    sync_time: f64,
    /// Sampler scratch-arena growth events across this process's batches
    /// (steady state: 0).
    scratch_allocs: u64,
    /// Batch-metadata bytes (node ids + edge endpoint indices) produced by
    /// this process's loader.
    metadata_bytes: u64,
    params: Vec<f32>,
    opt: AnyOptimizer,
}

/// One rank's state that outlives the epoch: the model replica, whose
/// workspace arena stays warm, and the ring of buffers the rank's loader
/// prepares each batch's input in and its training step hands back.
struct Replica {
    model: Gnn,
    inputs: InputRing,
}

/// What the engine's per-rank buffers hold between epochs, summed over the
/// replicas built so far (see [`Engine::buffer_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Bytes parked in the model workspaces.
    pub workspace_bytes: usize,
    /// Buffers the loader rings have made for prepared inputs — what
    /// crosses the loader's channels beside the batch: per batch one
    /// aggregation (plus, for GraphSAGE, one block of self rows), at most
    /// `2·n_samp + 1` such sets per rank at once (3 at `n_samp = 1`).
    pub input_buffers: usize,
    /// Batch arenas the loader rings have made: one per batch in flight,
    /// at most `2·n_samp + 1` per rank.
    pub arenas: usize,
    /// Bytes parked in the input rings.
    pub input_bytes: usize,
}

/// A persistent GNN training session whose epochs can each run under a
/// different [`Config`] — exactly what ARGO's auto-tuner needs, since it
/// re-launches the training function with a new configuration every search
/// iteration while the model keeps converging.
pub struct Engine {
    dataset: Arc<Dataset>,
    sampler: Arc<dyn Sampler>,
    opts: EngineOptions,
    params: Vec<f32>,
    opt: AnyOptimizer,
    epoch: u64,
    seeds: SeedSequence,
    /// The topology and feature table as the shared handles the loader
    /// threads need — one copy each for the whole session, made in
    /// [`Engine::new`], never per rank or per epoch.
    graph: Arc<Graph>,
    features: Arc<Features>,
    /// Per-rank state kept across epochs, grown to the largest `n_proc` seen.
    replicas: Vec<Replica>,
}

impl Engine {
    /// Creates a session. The model is initialized deterministically from
    /// `opts.seed`.
    pub fn new(dataset: Arc<Dataset>, sampler: Arc<dyn Sampler>, opts: EngineOptions) -> Self {
        assert_eq!(
            sampler.num_layers(),
            opts.num_layers,
            "sampler depth must match model depth"
        );
        let mut params = Vec::new();
        build_model(&opts, &dataset).params_flat(&mut params);
        let opt = AnyOptimizer::build(opts.optimizer, params.len(), opts.lr);
        let seeds = SeedSequence::new(opts.seed ^ 0xC0FFEE);
        let graph = Arc::new(dataset.graph.clone());
        let features = Arc::new(dataset.features.clone());
        Self {
            dataset,
            sampler,
            opts,
            params,
            opt,
            epoch: 0,
            seeds,
            graph,
            features,
            replicas: Vec::new(),
        }
    }

    /// The dataset under training.
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.dataset
    }

    /// The sampler this session trains with (shared with e.g. a serving
    /// session built via `ServeSpec::from_engine`).
    pub fn sampler(&self) -> &Arc<dyn Sampler> {
        &self.sampler
    }

    /// Epochs completed so far.
    pub fn epochs_done(&self) -> u64 {
        self.epoch
    }

    /// Engine options.
    pub fn options(&self) -> &EngineOptions {
        &self.opts
    }

    /// Current flat model parameters (master replica).
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Builds a model carrying the current master parameters.
    pub fn model(&self) -> Gnn {
        let mut m = build_model(&self.opts, &self.dataset);
        m.set_params_flat(&self.params);
        m
    }

    /// What the per-rank buffers that outlive an epoch currently hold.
    pub fn buffer_stats(&self) -> BufferStats {
        let mut stats = BufferStats::default();
        for r in &self.replicas {
            stats.workspace_bytes += r.model.workspace_bytes();
            stats.input_buffers += r.inputs.buffers_made();
            stats.arenas += r.inputs.arenas_made();
            stats.input_bytes += r.inputs.parked_bytes();
        }
        stats
    }

    /// Trains one epoch under `config`. Returns measured statistics; the
    /// master parameters and optimizer state advance.
    ///
    /// Pass `Some(&telemetry)` to record the epoch: the hot loops write spans
    /// into per-worker rings, and at epoch end the stage histograms, the
    /// Figure-2 timeline and the `stage_summary` events are derived from
    /// them ([`Telemetry::record_stages`]), next to the
    /// `epoch_start`/`critical_path`/`bytes_summary`/`epoch_end`
    /// events that carry every other number of the epoch. Pass
    /// `None` (or a disabled handle) and the loops record nothing and read
    /// no clock but the one around the all-reduce that
    /// [`EpochStats::sync_time`] reports.
    pub fn train_epoch(&mut self, config: Config, telemetry: Option<&Telemetry>) -> EpochStats {
        let telemetry = telemetry.filter(|t| t.is_enabled());
        let n_proc = config.n_proc;
        let binder = CoreBinder::new(self.opts.total_cores.max(config.total_cores()));
        #[expect(
            clippy::expect_used,
            reason = "train_epoch sizes the CoreBinder to max(opts.total_cores, config.total_cores()), \
                      so plan can fail only on a zero count, which Config::new rejects"
        )]
        let plan = binder
            .plan(n_proc, config.n_samp, config.n_train)
            .expect("configuration exceeds engine cores");
        // Even data split; equalize so every process runs the same number of
        // synchronized iterations (DDP drop-last semantics).
        let parts = random_partition(
            &self.dataset.train_nodes,
            n_proc,
            self.seeds.seed_for(self.epoch, u64::MAX),
        );
        let min_len = parts.iter().map(Vec::len).min().unwrap_or(0);
        let local_batch = (self.opts.global_batch / n_proc).max(1);
        let allreduce = AllReduce::new(n_proc, self.params.len());
        let epoch = self.epoch;

        while self.replicas.len() < n_proc {
            let model = build_model(&self.opts, &self.dataset);
            self.replicas.push(Replica {
                model,
                inputs: InputRing::new(),
            });
        }

        if let Some(t) = telemetry {
            t.logger.log(RunEvent::EpochStart { epoch, config });
        }
        // The span rings are the only thing the hot loops record into; with
        // telemetry off the profiler hands out detached rings and a span
        // site costs one branch.
        let spans = telemetry.map_or_else(SpanProfiler::disabled, Telemetry::profiler);

        let window_start = spans.now();
        #[expect(
            clippy::disallowed_methods,
            reason = "measured epoch wall-time; this IS the measurement the tuner consumes"
        )]
        let start = Instant::now();
        let results: Vec<ProcessResult> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n_proc);
            for (rank, (part, replica)) in parts.iter().zip(&mut self.replicas).enumerate() {
                let binding = plan[rank].clone();
                let spec = ProcessSpec {
                    dataset: &self.dataset,
                    graph: Arc::clone(&self.graph),
                    features: Arc::clone(&self.features),
                    sampler: Arc::clone(&self.sampler),
                    opts: &self.opts,
                    params0: self.params.clone(),
                    opt0: self.opt.clone(),
                    seeds_part: Arc::new(part[..min_len].to_vec()),
                    local_batch,
                    epoch,
                    proc_seeds: self.seeds.child(rank as u64),
                    sampling_cores: binding.sampling,
                    training_cores: binding.training,
                    allreduce: &allreduce,
                    spans: spans.for_process(rank),
                };
                handles.push(scope.spawn(move || run_process(spec, replica)));
            }
            // Join every rank before re-raising a panic, so no thread of a
            // failed epoch outlives it and the payload (a loader worker's
            // message, say) reaches the caller as it was thrown.
            let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            joined
                .into_iter()
                .map(|r| r.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
                .collect()
        });
        let epoch_time = start.elapsed().as_secs_f64();
        // The epoch's window on the span clock, read next to the spans
        // themselves so critical-path bins line up with their timestamps.
        let window_end = spans.now();
        let drained = spans.drain();

        // All replicas end bit-identical; adopt rank 0's state as master.
        let mut results = results;
        let r0 = results.swap_remove(0);
        self.params = r0.params;
        self.opt = r0.opt;
        self.epoch += 1;

        let iterations = r0.iterations;
        let total_edges = r0.edges + results.iter().map(|r| r.edges).sum::<usize>();
        let loss_sum = r0.loss_sum + results.iter().map(|r| r.loss_sum).sum::<f64>();
        let acc_sum = r0.acc_sum + results.iter().map(|r| r.acc_sum).sum::<f64>();
        let scratch_allocs =
            r0.scratch_allocs + results.iter().map(|r| r.scratch_allocs).sum::<u64>();
        let metadata_bytes =
            r0.metadata_bytes + results.iter().map(|r| r.metadata_bytes).sum::<u64>();
        let batches = iterations * n_proc;
        let stats = EpochStats {
            epoch_time,
            loss: if batches > 0 {
                (loss_sum / batches as f64) as f32
            } else {
                0.0
            },
            train_accuracy: if batches > 0 {
                acc_sum / batches as f64
            } else {
                0.0
            },
            iterations,
            minibatches: batches,
            edges: total_edges,
            sync_time: r0.sync_time,
        };

        // Byte/alloc accounting for this epoch: how much batch metadata the
        // loaders produced and whether the scratch arena stayed
        // allocation-free.
        let bytes_record = BytesRecord {
            batches: stats.minibatches as u64,
            metadata_bytes,
            scratch_allocs,
        };

        if let Some(t) = telemetry {
            // Stage histograms, timeline and `stage_summary` events: all
            // derived from the drained spans, here, once.
            t.record_stages(epoch, &drained.records);
            let l = &t.logger;
            // Critical-path attribution: which stage (or wait) was the
            // binding constraint, sampled over the epoch's span timeline.
            if !drained.records.is_empty() {
                let fractions = critical_path(&drained.records, window_start, window_end)
                    .into_iter()
                    .map(|(stage, f)| (stage.to_string(), f))
                    .collect();
                l.log(RunEvent::CriticalPath {
                    epoch,
                    fractions,
                    spans: drained.records.len() as u64,
                    dropped: drained.dropped,
                });
            }
            l.log(RunEvent::BytesSummary {
                epoch,
                record: bytes_record,
            });
            l.log(RunEvent::EpochEnd {
                epoch,
                config,
                record: EpochRecord {
                    epoch_time: stats.epoch_time,
                    loss: f64::from(stats.loss),
                    train_accuracy: stats.train_accuracy,
                    iterations: stats.iterations as u64,
                    minibatches: stats.minibatches as u64,
                    edges: stats.edges as u64,
                    sync_time: stats.sync_time,
                },
            });
        }
        stats
    }
}

/// The model every replica starts from: deterministic in `opts.seed`, so
/// replicas (and [`Engine::model`]) differ only in the parameters set on them.
fn build_model(opts: &EngineOptions, dataset: &Dataset) -> Gnn {
    Gnn::new(
        opts.kind,
        dataset.feat_dim(),
        opts.hidden,
        dataset.num_classes,
        opts.num_layers,
        opts.seed,
    )
}

/// Everything one training process needs for one epoch, bundled so
/// [`run_process`] takes three arguments instead of sixteen. The process
/// threads are scoped, so session state is borrowed; only what the loader's
/// own threads need is a shared handle.
struct ProcessSpec<'a> {
    dataset: &'a Dataset,
    graph: Arc<Graph>,
    features: Arc<Features>,
    sampler: Arc<dyn Sampler>,
    opts: &'a EngineOptions,
    params0: Vec<f32>,
    opt0: AnyOptimizer,
    seeds_part: Arc<Vec<u32>>,
    local_batch: usize,
    epoch: u64,
    proc_seeds: SeedSequence,
    sampling_cores: CoreSet,
    training_cores: CoreSet,
    allreduce: &'a AllReduce,
    /// This rank's handle on the epoch's span profiler (a disabled profiler
    /// hands out detached rings — zero overhead).
    spans: SpanProfiler,
}

fn run_process(spec: ProcessSpec, replica: &mut Replica) -> ProcessResult {
    let ProcessSpec {
        dataset,
        graph,
        features,
        sampler,
        opts,
        params0,
        opt0,
        seeds_part,
        local_batch,
        epoch,
        proc_seeds,
        sampling_cores,
        training_cores,
        allreduce,
        spans,
    } = spec;

    // The rank's replica (DDP-style) picks up the master parameters; its
    // workspace and input ring are as the previous epoch left them.
    let Replica { model, inputs } = replica;
    let mut params = params0;
    model.set_params_flat(&params);
    let mut opt = opt0;

    // The loader runs the step's parameter-free prologue on the sampling
    // cores: it aggregates layer 0 over every batch's input rows, read
    // straight from the feature table.
    let n_samp = sampling_cores.len();
    let loader_spec = LoaderSpec::builder(graph, sampler, seeds_part)
        .batch_size(local_batch)
        .epoch(epoch)
        .epoch_seeds(proc_seeds)
        .n_samp(n_samp)
        .cores(sampling_cores)
        .normalization(opts.kind.normalization())
        .features(features)
        .spans(spans.clone());
    let loader = PipelinedLoader::start_recycling(loader_spec.build(), inputs.clone());
    // Consumer-side span ring: the compute/sync spans here chain (by batch
    // id) onto the producer spans the loader records.
    let ring = spans.ring(Role::Consumer, 2 * loader.num_batches());
    let train_pool = if training_cores.len() > 1 {
        Some(ThreadPool::pinned("argo-train", &training_cores))
    } else {
        None
    };

    let mut grads = Vec::with_capacity(params.len());
    let mut loss_sum = 0.0f64;
    let mut acc_sum = 0.0f64;
    let mut iterations = 0usize;
    let mut edges = 0usize;
    let mut sync_time = 0.0f64;
    let mut scratch_allocs = 0u64;
    let mut metadata_bytes = 0u64;

    for (i, loaded) in loader {
        scratch_allocs += loaded.scratch_allocs;
        // The batch as the loader's worker sampled it, in the arena it sent.
        let batch = loaded.view();
        #[expect(
            clippy::expect_used,
            reason = "run_process puts the feature table in every LoaderSpec it builds, so every \
                      batch arrives with its prepared input"
        )]
        let input = loaded
            .input
            .as_ref()
            .expect("the loader spec carries the feature table");
        // The step starts at the first GEMM.
        let stats = ring.timed(SpanKind::Compute, i as u64, || {
            model.train_step_prepared(&batch, input, &dataset.labels, train_pool.as_ref())
        });
        edges += batch.total_edges(opts.num_layers);
        // The arena's node ids, u32 row pointers, column indices and fused
        // values — the compact CSR layout, not the old edge-list estimate.
        metadata_bytes += batch.metadata_bytes() as u64;
        // The step only read the batch and its operands: back to the ring
        // they go, for the loader to fill again.
        loaded.recycle(inputs);
        loss_sum += f64::from(stats.loss);
        acc_sum += stats.accuracy;

        // Synchronous SGD: average gradients, then apply the identical
        // optimizer step on every replica.
        model.grads_flat(&mut grads);
        // `sync_time` is a result the tuner reads with telemetry off, so
        // this stage is timed by a plain clock pair, and its span is that
        // same measurement: one clock, two readers.
        #[expect(
            clippy::disallowed_methods,
            reason = "EpochStats::sync_time is a result the tuner reads with telemetry off; the \
                      Sync span is recorded from this same clock pair"
        )]
        let sync_start = Instant::now();
        allreduce.reduce_mean(&mut grads);
        let sync_elapsed = sync_start.elapsed();
        sync_time += sync_elapsed.as_secs_f64();
        ring.push_measured(SpanKind::Sync, i as u64, sync_start, sync_elapsed);
        opt.step(&mut params, &grads);
        model.set_params_flat(&params);
        iterations += 1;
    }

    ProcessResult {
        loss_sum,
        acc_sum,
        iterations,
        edges,
        sync_time,
        scratch_allocs,
        metadata_bytes,
        params,
        opt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo_graph::datasets::FLICKR;
    use argo_rt::Stage;
    use argo_sample::{NeighborSampler, ShadowSampler};

    fn tiny() -> Arc<Dataset> {
        Arc::new(FLICKR.synthesize(0.01, 21))
    }

    fn opts(batch: usize) -> EngineOptions {
        EngineOptions {
            hidden: 16,
            num_layers: 2,
            global_batch: batch,
            lr: 5e-3,
            seed: 3,
            total_cores: 8,
            ..Default::default()
        }
    }

    fn neighbor() -> Arc<dyn Sampler> {
        Arc::new(NeighborSampler::new(vec![8, 4]))
    }

    #[test]
    fn epoch_runs_and_advances() {
        argo_rt::watchdog(120, || {
            let mut e = Engine::new(tiny(), neighbor(), opts(64));
            let before = e.params().to_vec();
            let stats = e.train_epoch(Config::new(2, 1, 2), None);
            assert!(stats.epoch_time > 0.0);
            assert!(stats.iterations > 0);
            assert_eq!(stats.minibatches, stats.iterations * 2);
            assert!(stats.loss.is_finite());
            assert_ne!(e.params(), &before[..], "parameters did not move");
            assert_eq!(e.epochs_done(), 1);
        });
    }

    #[test]
    fn effective_batch_size_preserved() {
        argo_rt::watchdog(120, || {
            // Iterations per epoch must be ~train_len / global_batch regardless
            // of n_proc (Section IV-B2): each process does b/n per iteration.
            let d = tiny();
            let n_train = d.train_nodes.len();
            let mut e1 = Engine::new(Arc::clone(&d), neighbor(), opts(64));
            let s1 = e1.train_epoch(Config::new(1, 1, 1), None);
            let mut e4 = Engine::new(Arc::clone(&d), neighbor(), opts(64));
            let s4 = e4.train_epoch(Config::new(4, 1, 1), None);
            let expect = n_train / 64;
            assert!(
                (s1.iterations as i64 - expect as i64).abs() <= 1,
                "{} vs {}",
                s1.iterations,
                expect
            );
            assert!(
                (s4.iterations as i64 - expect as i64).abs() <= 1,
                "{} vs {}",
                s4.iterations,
                expect
            );
            // Total seeds consumed per iteration is the same.
            assert_eq!(s4.minibatches, s4.iterations * 4);
        });
    }

    #[test]
    fn loss_decreases_over_epochs() {
        argo_rt::watchdog(120, || {
            let mut e = Engine::new(tiny(), neighbor(), opts(64));
            let first = e.train_epoch(Config::new(2, 1, 1), None);
            let mut last = first;
            for _ in 0..5 {
                last = e.train_epoch(Config::new(2, 1, 1), None);
            }
            assert!(
                last.loss < first.loss,
                "loss {} did not drop from {}",
                last.loss,
                first.loss
            );
        });
    }

    #[test]
    fn config_can_change_between_epochs() {
        argo_rt::watchdog(120, || {
            let mut e = Engine::new(tiny(), neighbor(), opts(32));
            for (p, s, t) in [(1, 1, 1), (2, 1, 2), (4, 1, 1), (2, 2, 1)] {
                let stats = e.train_epoch(Config::new(p, s, t), None);
                assert!(stats.iterations > 0);
            }
            assert_eq!(e.epochs_done(), 4);
        });
    }

    #[test]
    fn shadow_sampler_works() {
        argo_rt::watchdog(120, || {
            let mut e = Engine::new(
                tiny(),
                Arc::new(ShadowSampler::new(vec![6, 3], 2)),
                opts(48),
            );
            let stats = e.train_epoch(Config::new(2, 1, 1), None);
            assert!(stats.loss.is_finite());
            assert!(stats.edges > 0);
        });
    }

    #[test]
    fn trace_records_all_stages() {
        argo_rt::watchdog(120, || {
            let mut e = Engine::new(tiny(), neighbor(), opts(64));
            let tel = Telemetry::new();
            e.train_epoch(Config::new(2, 1, 1), Some(&tel));
            let events = tel.trace.events();
            for stage in Stage::ALL {
                assert!(
                    events.iter().any(|ev| ev.stage == stage),
                    "missing {stage:?} events"
                );
            }
            // Both processes traced.
            assert!(events.iter().any(|ev| ev.process == 1));
        });
    }

    /// Stage seconds and counts the epoch's `stage_summary` events carry.
    fn stage_summaries(tel: &Telemetry, epoch: u64) -> Vec<(String, f64, u64)> {
        tel.logger
            .events()
            .into_iter()
            .filter_map(|(_, e)| match e {
                RunEvent::StageSummary { epoch: at, summary } if at == epoch => {
                    Some((summary.stage, summary.seconds, summary.count))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn stage_numbers_are_one_fold_of_the_spans() {
        argo_rt::watchdog(120, || {
            // Histograms, `stage_summary` events and the timeline all come out
            // of the same pass over the same drained spans, so on a fresh
            // handle they agree to the bit, and every stage saw every batch
            // once (the loader's gather and aggregation are one gather-stage
            // interval).
            let mut e = Engine::new(tiny(), neighbor(), opts(64));
            let tel = Telemetry::new();
            let stats = e.train_epoch(Config::new(2, 1, 1), Some(&tel));
            let hists: std::collections::BTreeMap<_, _> =
                tel.metrics.histograms().into_iter().collect();
            let summaries = stage_summaries(&tel, 0);
            let timeline = tel.trace.events();
            assert_eq!(summaries.len(), Stage::ALL.len());
            for (stage, (label, seconds, count)) in Stage::ALL.into_iter().zip(summaries) {
                let h = &hists[&Telemetry::stage_histogram_name(stage)];
                let want = stats.minibatches as u64;
                assert_eq!(label, stage.label());
                assert_eq!(h.count(), want, "{label}");
                assert_eq!(count, want, "{label}");
                assert_eq!(h.sum(), seconds, "{label}");
                assert!(seconds > 0.0, "{label}");
                // `events()` sorts by start, which is the drain order.
                let spans = timeline.iter().filter(|ev| ev.stage == stage);
                assert_eq!(spans.clone().count() as u64, want);
                assert_eq!(spans.map(|ev| ev.end - ev.start).sum::<f64>(), seconds);
            }
            // One track per process.
            for rank in 0..2 {
                assert!(timeline.iter().any(|ev| ev.process == rank));
            }
        });
    }

    #[test]
    fn long_epochs_drop_no_spans() {
        argo_rt::watchdog(120, || {
            // Rings are sized from the batch count: an epoch with more batches
            // than a fixed RING_CAPACITY ring could hold (it used to cap a
            // consumer ring at capacity / 4 batches) still records every span.
            let batches = argo_rt::spans::RING_CAPACITY / 4 + 50;
            let mut d = (*tiny()).clone();
            let n = d.graph.num_nodes() as u32;
            d.train_nodes = (0..batches as u32).map(|i| i % n).collect();
            let mut o = opts(1);
            o.hidden = 4;
            let sampler = Arc::new(NeighborSampler::new(vec![2, 2]));
            let mut e = Engine::new(Arc::new(d), sampler, o);
            let tel = Telemetry::new();
            let stats = e.train_epoch(Config::new(1, 1, 1), Some(&tel));
            assert_eq!(stats.minibatches, batches);
            let coverage = tel.logger.events().into_iter().find_map(|(_, e)| match e {
                argo_rt::RunEvent::CriticalPath { spans, dropped, .. } => Some((spans, dropped)),
                _ => None,
            });
            // pick + gather + aggregate + enqueue, dequeue, compute + sync per
            // batch, and none dropped.
            assert_eq!(coverage, Some((7 * batches as u64, 0)));
        });
    }

    #[test]
    fn telemetry_epoch_emits_metrics_and_events() {
        argo_rt::watchdog(120, || {
            let mut e = Engine::new(tiny(), neighbor(), opts(64));
            let tel = Telemetry::new();
            let stats = e.train_epoch(Config::new(2, 1, 1), Some(&tel));

            // The registry holds the four stage histograms and nothing else; they
            // saw one observation per mini-batch.
            let hists: std::collections::BTreeMap<_, _> =
                tel.metrics.histograms().into_iter().collect();
            let mut names: Vec<String> = Stage::ALL
                .map(Telemetry::stage_histogram_name)
                .into_iter()
                .collect();
            names.sort();
            assert_eq!(hists.keys().cloned().collect::<Vec<_>>(), names);
            let compute = &hists[&Telemetry::stage_histogram_name(Stage::Compute)];
            assert_eq!(compute.count(), stats.minibatches as u64);
            assert!(compute.sum() > 0.0);

            // Structured events: one epoch_start, four stage summaries, the
            // profiler's critical-path and bytes summaries, one epoch_end whose
            // record mirrors the returned stats.
            let events = tel.logger.events();
            let kinds: Vec<&str> = events.iter().map(|(_, e)| e.kind()).collect();
            assert_eq!(
                kinds,
                vec![
                    "epoch_start",
                    "stage_summary",
                    "stage_summary",
                    "stage_summary",
                    "stage_summary",
                    "critical_path",
                    "bytes_summary",
                    "epoch_end"
                ]
            );
            // Critical-path fractions cover the whole epoch (sum ≈ 1).
            match events.iter().find_map(|(_, e)| match e {
                argo_rt::RunEvent::CriticalPath {
                    fractions, spans, ..
                } => Some((fractions.clone(), *spans)),
                _ => None,
            }) {
                Some((fractions, spans)) => {
                    assert!(spans > 0);
                    let total: f64 = fractions.iter().map(|(_, f)| f).sum();
                    assert!((total - 1.0).abs() < 1e-6, "fractions sum {total}");
                }
                None => panic!("no critical_path event"),
            }
            // Byte accounting: metadata flowed.
            match events.iter().find_map(|(_, e)| match e {
                argo_rt::RunEvent::BytesSummary { record, .. } => Some(*record),
                _ => None,
            }) {
                Some(r) => {
                    assert_eq!(r.batches, stats.minibatches as u64);
                    assert!(r.metadata_bytes > 0);
                    assert!(r.metadata_bytes_per_batch() > 0.0);
                }
                None => panic!("no bytes_summary event"),
            }
            match &events.last().unwrap().1 {
                argo_rt::RunEvent::EpochEnd {
                    epoch,
                    config,
                    record,
                } => {
                    assert_eq!(*epoch, 0);
                    assert_eq!(config.n_proc, 2);
                    // The record mirrors the stats exactly.
                    assert!((record.epoch_time - stats.epoch_time).abs() < 1e-12);
                    assert_eq!(record.iterations, stats.iterations as u64);
                    assert_eq!(record.minibatches, stats.minibatches as u64);
                    assert_eq!(record.edges, stats.edges as u64);
                }
                other => panic!("expected epoch_end, got {other:?}"),
            }
        });
    }

    #[test]
    fn sync_time_agrees_with_metrics() {
        argo_rt::watchdog(120, || {
            use std::collections::BTreeMap;
            // Single process: the sync histogram's total is the EpochStats
            // sync_time (both time the same rank-0 all-reduces).
            let mut e = Engine::new(tiny(), neighbor(), opts(64));
            let tel = Telemetry::new();
            let stats = e.train_epoch(Config::new(1, 1, 1), Some(&tel));
            let hists: BTreeMap<_, _> = tel.metrics.histograms().into_iter().collect();
            let sync = &hists[&Telemetry::stage_histogram_name(Stage::Sync)];
            let tol = 1e-6 + 0.05 * stats.sync_time;
            assert!(
                (sync.sum() - stats.sync_time).abs() <= tol,
                "sync histogram {} vs stats {}",
                sync.sum(),
                stats.sync_time
            );
            assert_eq!(sync.count(), stats.iterations as u64);

            // Multi-process: stats report rank 0 only, so the all-rank
            // histogram total must be at least that and count every rank.
            let mut e = Engine::new(tiny(), neighbor(), opts(64));
            let tel = Telemetry::new();
            let stats = e.train_epoch(Config::new(2, 1, 1), Some(&tel));
            let hists: BTreeMap<_, _> = tel.metrics.histograms().into_iter().collect();
            let sync = &hists[&Telemetry::stage_histogram_name(Stage::Sync)];
            assert!(sync.sum() >= stats.sync_time * 0.95);
            assert_eq!(sync.count(), (stats.iterations * 2) as u64);
        });
    }

    #[test]
    fn telemetry_disabled_is_inert_and_stats_match() {
        argo_rt::watchdog(120, || {
            let mut e = Engine::new(tiny(), neighbor(), opts(64));
            let tel = Telemetry::disabled();
            let stats = e.train_epoch(Config::new(2, 1, 1), Some(&tel));
            assert!(stats.iterations > 0);
            assert!(tel.metrics.histograms().is_empty());
            assert!(tel.logger.is_empty());
            assert!(tel.trace.events().is_empty());
        });
    }

    #[test]
    fn more_processes_than_batch_still_works() {
        argo_rt::watchdog(120, || {
            // Degenerate split: global batch 4 over 4 processes → local batch 1.
            let mut e = Engine::new(tiny(), neighbor(), opts(4));
            let stats = e.train_epoch(Config::new(4, 1, 1), None);
            assert!(stats.iterations > 0);
            assert!(stats.loss.is_finite());
        });
    }

    #[test]
    fn tiny_train_set_with_many_processes() {
        argo_rt::watchdog(120, || {
            // Fewer train nodes than processes×batch: drop-last still leaves at
            // least one synchronized iteration per process.
            let mut d = (*tiny()).clone();
            d.train_nodes.truncate(9);
            let mut e = Engine::new(Arc::new(d), neighbor(), opts(2));
            let stats = e.train_epoch(Config::new(3, 1, 1), None);
            // 9 nodes over 3 procs = 3 each; batch max(2/3,1)=1 → 3 iterations.
            assert_eq!(stats.iterations, 3);
            assert_eq!(stats.minibatches, 9);
        });
    }

    #[test]
    fn training_is_deterministic_across_core_allocations() {
        argo_rt::watchdog(120, || {
            // Every pooled kernel gives each output row to exactly one worker
            // and leaves each element's sequence as the serial kernel runs it
            // (the weight gradient reduces over all rows into its window of
            // dW's rows), so the training threads change no bit: one thread
            // per rank, two, and two again are the same run.
            let run = |t: usize| {
                let mut e = Engine::new(tiny(), neighbor(), opts(64));
                e.train_epoch(Config::new(2, 1, t), None);
                e.params().to_vec()
            };
            let serial = run(1);
            let pooled = run(2);
            assert_eq!(pooled, run(2), "fixed allocation must be bit-identical");
            assert_eq!(serial.len(), pooled.len());
            for (i, (a, b)) in serial.iter().zip(&pooled).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "param {i}: 1-core {a} vs 2-core {b}"
                );
            }
        });
    }

    #[test]
    fn three_and_four_rank_reruns_train_the_same_bits() {
        argo_rt::watchdog(120, || {
            // The all-reduce sums each gradient element in one order, not in
            // the order the ranks arrive in, so a DDP run of three or four
            // ranks reruns bit for bit: per-epoch losses and final parameters.
            for n_proc in [3, 4] {
                let run = || {
                    let mut e = Engine::new(tiny(), neighbor(), opts(64));
                    let config = Config::new(n_proc, 1, 1);
                    let losses: Vec<u32> = (0..2)
                        .map(|_| e.train_epoch(config, None).loss.to_bits())
                        .collect();
                    let params: Vec<u32> = e.params().iter().map(|p| p.to_bits()).collect();
                    (losses, params)
                };
                let first = run();
                for rerun in 1..3 {
                    assert!(run() == first, "{n_proc} ranks: rerun {rerun} differs");
                }
            }
        });
    }

    #[test]
    fn n_samp_and_n_train_change_no_trained_bit() {
        argo_rt::watchdog(120, || {
            // The tuner trains under every config it tries (Algorithm 1), so a
            // config must choose the speed, never the model: two epochs under
            // one process give the same per-epoch losses and final parameters,
            // bit for bit, with one or two sampler threads and one, two or
            // three training threads, for block batches under GraphSAGE and
            // subgraph batches under GCN. (`n_proc` is outside this: its ranks
            // sample different batches.)
            let cases: [(Arch, Arc<dyn Sampler>); 2] = [
                (Arch::Sage, neighbor()),
                (Arch::Gcn, Arc::new(ShadowSampler::new(vec![6, 3], 2))),
            ];
            for (kind, sampler) in cases {
                let mut o = opts(64);
                o.kind = kind;
                let run = |s: usize, t: usize| {
                    let mut e = Engine::new(tiny(), Arc::clone(&sampler), o.clone());
                    let losses: Vec<u32> = (0..2)
                        .map(|_| e.train_epoch(Config::new(1, s, t), None).loss.to_bits())
                        .collect();
                    let params: Vec<u32> = e.params().iter().map(|p| p.to_bits()).collect();
                    (losses, params)
                };
                let want = run(1, 1);
                for (s, t) in [(2, 1), (1, 2), (1, 3)] {
                    let (losses, params) = run(s, t);
                    let who = format!("{kind:?} (1,{s},{t})");
                    assert_eq!(losses, want.0, "{who}: per-epoch loss");
                    assert!(params == want.1, "{who}: final parameters");
                }
            }
        });
    }

    #[test]
    #[should_panic]
    fn sampler_model_depth_mismatch_panics() {
        let mut o = opts(32);
        o.num_layers = 3; // sampler below has 2 layers
        Engine::new(tiny(), neighbor(), o);
    }

    /// The headline semantics test: with deterministic sampling (fanout ≥
    /// max degree ⇒ every neighbor taken), one epoch with n processes and
    /// batch b/n produces the same parameters as one process with batch b —
    /// because gradient averaging over equal shards equals the full-batch
    /// gradient (Section IV-B2).
    fn ddp_matches_single_process(kind: Arch, sampler: impl Fn(usize) -> Arc<dyn Sampler>) {
        let mut owned = (*tiny()).clone();
        // Even train count so the 2-proc drop-last split loses no seed.
        if owned.train_nodes.len() % 2 == 1 {
            owned.train_nodes.pop();
        }
        let d = Arc::new(owned);
        let sampler = sampler(d.graph.max_degree());
        let mut o = opts(32);
        o.kind = kind;
        // SGD so one step is linear in the averaged gradient.
        o.optimizer = OptimizerKind::Sgd { momentum: 0.0 };
        o.lr = 1e-2;
        // Use a single global batch per epoch so partitioning cannot
        // reshuffle batch composition: global_batch = all train nodes.
        let n = d.train_nodes.len();
        o.global_batch = n;
        let mut e1 = Engine::new(Arc::clone(&d), Arc::clone(&sampler), o.clone());
        let s1 = e1.train_epoch(Config::new(1, 1, 1), None);
        let mut e2 = Engine::new(Arc::clone(&d), Arc::clone(&sampler), o.clone());
        let s2 = e2.train_epoch(Config::new(2, 1, 1), None);
        assert_eq!(s1.iterations, 1);
        assert_eq!(s2.iterations, 1);
        let p1 = e1.params();
        let p2 = e2.params();
        let max_diff = p1
            .iter()
            .zip(p2)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_diff < 2e-3,
            "parameter divergence {max_diff} between 1-proc and 2-proc"
        );
    }

    #[test]
    fn ddp_semantics_match_single_process() {
        argo_rt::watchdog(120, || {
            ddp_matches_single_process(Arch::Sage, |max_deg| {
                Arc::new(NeighborSampler::new(vec![max_deg; 2]))
            });
        });
    }

    /// The ShaDow-GCN twin. A seed's two-hop neighborhood, taken whole, holds
    /// every neighbor of its neighbors, so its two-layer output is the same
    /// in the subgraph of all seeds and in the subgraph of half of them —
    /// and only seed rows reach the loss.
    #[test]
    fn ddp_semantics_match_single_process_shadow() {
        argo_rt::watchdog(120, || {
            ddp_matches_single_process(Arch::Gcn, |max_deg| {
                Arc::new(ShadowSampler::new(vec![max_deg; 2], 2))
            });
        });
    }

    #[test]
    fn cached_training_matches_uncached_bitwise() {
        argo_rt::watchdog(120, || {
            // `Config::with_cache_rows` is kept as a no-op (there is no feature
            // cache any more), so a config that asks for a cache must train
            // exactly as one that does not: parameters stay bit-identical.
            let run = |cache_rows: usize| {
                let mut e = Engine::new(tiny(), neighbor(), opts(64));
                for _ in 0..3 {
                    e.train_epoch(Config::new(2, 1, 1).with_cache_rows(cache_rows), None);
                }
                e.params().to_vec()
            };
            assert_eq!(run(0), run(512));
        });
    }

    /// The engine as it ran before the prologue moved to the loader, written
    /// out serially: per iteration and rank, sample the batch the engine's
    /// seed tree names, gather its input rows, run the whole step
    /// (`train_step_gathered`: layer 0 aggregated on the training side),
    /// average the gradients as the all-reduce does, step the optimizer.
    /// Returns each epoch's loss bits and the final parameters.
    fn gathered_replay(
        d: &Dataset,
        sampler: &dyn Sampler,
        o: &EngineOptions,
        n_proc: usize,
        epochs: u64,
    ) -> (Vec<u32>, Vec<f32>) {
        use argo_sample::{SampleRun, SamplerScratch};
        use argo_tensor::Matrix;
        let mut model = build_model(o, d);
        let mut params = Vec::new();
        model.params_flat(&mut params);
        let mut opt = AnyOptimizer::build(o.optimizer, params.len(), o.lr);
        let seeds = SeedSequence::new(o.seed ^ 0xC0FFEE);
        let mut scratch = SamplerScratch::new();
        let (mut grads, mut mean) = (Vec::new(), Vec::new());
        let mut losses = Vec::new();
        for epoch in 0..epochs {
            let parts = random_partition(&d.train_nodes, n_proc, seeds.seed_for(epoch, u64::MAX));
            let min_len = parts.iter().map(Vec::len).min().unwrap_or(0);
            let local_batch = (o.global_batch / n_proc).max(1);
            let iterations = min_len.div_ceil(local_batch);
            let mut rank_loss = vec![0.0f64; n_proc];
            for i in 0..iterations {
                let hi = ((i + 1) * local_batch).min(min_len);
                mean.clear();
                mean.resize(params.len(), 0.0f32);
                for (rank, part) in parts.iter().enumerate() {
                    let stream =
                        SeedSequence::new(seeds.child(rank as u64).seed_for(epoch, i as u64));
                    let run =
                        SampleRun::new(stream, &mut scratch).with_norm(o.kind.normalization());
                    let batch = sampler
                        .sample_into(&d.graph, &part[i * local_batch..hi], run)
                        .to_owned();
                    let ids = batch.input_nodes();
                    let mut input = Matrix::zeros(ids.len(), d.feat_dim());
                    d.features.gather_into(ids, input.data_mut());
                    let stats = model.train_step_gathered(&batch, &input, &d.labels, None);
                    rank_loss[rank] += f64::from(stats.loss);
                    model.grads_flat(&mut grads);
                    for (m, g) in mean.iter_mut().zip(&grads) {
                        *m += g;
                    }
                }
                if n_proc > 1 {
                    let inv = 1.0 / n_proc as f32;
                    mean.iter_mut().for_each(|m| *m *= inv);
                }
                opt.step(&mut params, &mean);
                model.set_params_flat(&params);
            }
            let loss_sum = rank_loss[0] + rank_loss[1..].iter().sum::<f64>();
            losses.push(((loss_sum / (iterations * n_proc) as f64) as f32).to_bits());
        }
        (losses, params)
    }

    #[test]
    fn engine_matches_the_gathered_step_replay_bitwise() {
        argo_rt::watchdog(120, || {
            // Moving the first aggregation to the loader thread moved no bit:
            // every epoch's loss and the final parameters are what the serial
            // gather-then-whole-step replay computes — one process or two, one
            // sampler thread or two, block batches under
            // GraphSAGE and subgraph batches (whose layer 0 the model may cut
            // out of the loader's full-height aggregation) under GCN.
            let d = tiny();
            let cases: [(Arch, Arc<dyn Sampler>); 2] = [
                (Arch::Sage, neighbor()),
                (Arch::Gcn, Arc::new(ShadowSampler::new(vec![6, 3], 2))),
            ];
            for (kind, sampler) in cases {
                let mut o = opts(64);
                o.kind = kind;
                for (p, s, t) in [(1, 1, 1), (1, 2, 1), (2, 1, 1)] {
                    let want = gathered_replay(&d, &*sampler, &o, p, 3);
                    let mut e = Engine::new(Arc::clone(&d), Arc::clone(&sampler), o.clone());
                    let config = Config::new(p, s, t);
                    let losses: Vec<u32> = (0..3)
                        .map(|_| e.train_epoch(config, None).loss.to_bits())
                        .collect();
                    let who = format!("{kind:?} ({p},{s},{t})");
                    assert_eq!(losses, want.0, "{who}: per-epoch loss");
                    assert!(
                        e.params()
                            .iter()
                            .zip(&want.1)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{who}: final parameters"
                    );
                }
            }
        });
    }

    /// A sampler that dies on its `at`-th call (counted across threads).
    struct DiesAt {
        inner: NeighborSampler,
        calls: std::sync::atomic::AtomicUsize,
        at: usize,
    }

    impl Sampler for DiesAt {
        fn sample_into<'a>(
            &self,
            graph: &Graph,
            seeds: &[u32],
            run: argo_sample::SampleRun<'a>,
        ) -> argo_sample::SampledBatchView<'a> {
            let call = self
                .calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
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
    fn a_dead_loader_worker_fails_the_epoch_with_its_own_message() {
        argo_rt::watchdog(120, || {
            // A loader worker that panics mid-epoch used to end the iteration
            // early and the engine adopted the short epoch. Now the epoch panics
            // with the worker's message, on the caller's thread, after every
            // thread of the epoch is joined — and the engine is as it was
            // before the failed epoch: the next one runs clean.
            for n_samp in [1, 2] {
                let sampler = Arc::new(DiesAt {
                    inner: NeighborSampler::new(vec![8, 4]),
                    calls: Default::default(),
                    at: 3,
                });
                let mut e = Engine::new(tiny(), sampler.clone(), opts(64));
                let config = Config::new(1, n_samp, 1);
                let before = e.params().to_vec();
                let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    e.train_epoch(config, None)
                }));
                let payload = failed.expect_err("the epoch must not end short");
                let message = payload
                    .downcast_ref::<String>()
                    .expect("the worker's formatted message");
                assert!(message.contains("sampler died at call 3"), "{message}");
                assert_eq!((e.epochs_done(), e.params()), (0, &before[..]));
                // Scoped rank threads and joined loader workers: nothing of the
                // failed epoch is left to touch the sampler.
                let calls = sampler.calls.load(std::sync::atomic::Ordering::Relaxed);
                let stats = e.train_epoch(config, None);
                assert!(stats.iterations > 0 && stats.loss.is_finite());
                assert_eq!(
                    sampler.calls.load(std::sync::atomic::Ordering::Relaxed),
                    calls + stats.minibatches
                );
                assert_eq!(e.epochs_done(), 1);
            }
        });
    }

    /// A fixture whose epochs all have the same shapes: one process, one
    /// global batch holding every train node, every neighbor taken. The
    /// partition reorders the seeds from epoch to epoch but the node sets —
    /// and so every buffer size — repeat exactly.
    /// (An even train count, so a 2-process drop-last split loses no seed.)
    fn same_shape_every_epoch() -> (Arc<Dataset>, Arc<dyn Sampler>, EngineOptions) {
        let mut d = (*tiny()).clone();
        d.train_nodes.truncate(d.train_nodes.len() / 2 * 2);
        let max_deg = d.graph.max_degree();
        let sampler: Arc<dyn Sampler> = Arc::new(NeighborSampler::new(vec![max_deg, max_deg]));
        let mut o = opts(d.train_nodes.len());
        o.optimizer = OptimizerKind::Sgd { momentum: 0.0 };
        o.lr = 1e-2;
        (Arc::new(d), sampler, o)
    }

    #[test]
    fn second_epoch_reuses_every_buffer_of_the_first() {
        argo_rt::watchdog(120, || {
            // After one warm-up epoch the per-rank state is complete: a second
            // epoch under the same config makes no new batch arena and no new
            // operand buffer (that its steps allocate nothing is
            // `tests/allocations.rs`' pin), for each hand-off: GraphSAGE's
            // aggregation plus self rows, GCN's aggregation alone. The loader
            // aggregates straight from the feature table and makes no other
            // buffer, and its worker samples in the scratch the first epoch's
            // worker parked in the rank's ring, into the arena the first
            // epoch's step handed back: it grows neither.
            let sets = [(Arch::Sage, 2), (Arch::Gcn, 1)];
            for (kind, operands) in sets {
                let (d, sampler, mut o) = same_shape_every_epoch();
                o.kind = kind;
                let mut e = Engine::new(d, sampler, o);
                let config = Config::new(1, 1, 1);
                assert_eq!(e.buffer_stats(), BufferStats::default());
                e.train_epoch(config, None);
                let warm = e.buffer_stats();
                let who = format!("{kind:?}: {warm:?}");
                assert_eq!(warm.input_buffers, operands, "one batch in flight: {who}");
                assert_eq!(warm.arenas, 1, "one batch in flight: {who}");
                assert!(warm.input_bytes > 0, "the operands came back: {who}");
                assert!(warm.workspace_bytes > 0, "{who}");
                let tel = Telemetry::new();
                e.train_epoch(config, Some(&tel));
                let scratch_allocs = tel.logger.events().into_iter().find_map(|(_, e)| match e {
                    argo_rt::RunEvent::BytesSummary { record, .. } => Some(record.scratch_allocs),
                    _ => None,
                });
                assert_eq!(scratch_allocs, Some(0), "{who}");
                // (Parked workspace bytes may shift: a best-fit reuse can leave
                // a buffer at another capacity. What is pinned is that nothing
                // new was made: no operand buffer, no arena.)
                let again = BufferStats {
                    workspace_bytes: warm.workspace_bytes,
                    ..e.buffer_stats()
                };
                assert_eq!(again, warm, "{who}");
            }
        });
    }

    #[test]
    fn retained_buffers_stay_bounded_over_cached_epochs() {
        argo_rt::watchdog(120, || {
            // The trap this pins: replicas that persist while every loader-made
            // input is parked in their workspace retain one input per batch (up
            // to the arena's 32 slots) — 613 MB instead of 264 on the DDP
            // benchmark. With the return path the operands live in the ring,
            // which holds only what was in flight at once: per rank one set
            // queued and one being filled per worker, one in the step — and a
            // set is two `n_dst × F` operands (GraphSAGE), never an `n_src × F`
            // gathered input. The epochs are the DDP benchmark's shape, config
            // and (no-op) cache setter included.
            let d = tiny();
            let (n_proc, n_samp) = (2, 1);
            let mut e = Engine::new(Arc::clone(&d), neighbor(), opts(64));
            for _ in 0..5 {
                e.train_epoch(Config::new(n_proc, n_samp, 1).with_cache_rows(512), None);
            }
            let s = e.buffer_stats();
            let sets = n_proc * (2 * n_samp + 1);
            assert!((2 * n_proc..=2 * sets).contains(&s.input_buffers), "{s:?}");
            assert!((n_proc..=sets).contains(&s.arenas), "{s:?}");
            // An operand has a row per layer-0 output node only: with fanouts
            // [8, 4] from 32 seeds, far fewer than every node's row. The arena's
            // share is activations, far smaller on this 500-feature dataset.
            let one_input = d.graph.num_nodes() * d.feat_dim() * 4;
            assert!(s.input_bytes <= s.input_buffers * one_input / 2, "{s:?}");
            assert!(s.workspace_bytes < 2 * one_input, "{s:?}");
        });
    }

    #[test]
    fn replicas_survive_process_count_changes() {
        argo_rt::watchdog(120, || {
            // (1,1,1) → (2,1,1) → (1,1,1): rank 0's replica is reused warm across
            // all three epochs, rank 1's is built for the second and then idles.
            // The three pins that hold for fresh replicas hold for these.
            let (one, two) = (Config::new(1, 1, 1), Config::new(2, 1, 1));
            let run =
                |d: &Arc<Dataset>, s: &Arc<dyn Sampler>, o: &EngineOptions, seq: &[Config]| {
                    let mut e = Engine::new(Arc::clone(d), Arc::clone(s), o.clone());
                    for &c in seq {
                        e.train_epoch(c, None);
                    }
                    e.params().to_vec()
                };
            // Deterministic on multi-batch epochs.
            let (d, s) = (tiny(), neighbor());
            let plain = run(&d, &s, &opts(64), &[one, two, one]);
            assert_eq!(plain, run(&d, &s, &opts(64), &[one, two, one]));
            // DDP ≡ single process (to accumulation tolerance) where sampling is
            // exhaustive and an epoch is one global batch.
            let (d, s, o) = same_shape_every_epoch();
            let mixed = run(&d, &s, &o, &[one, two, one]);
            let single = run(&d, &s, &o, &[one, one, one]);
            let max_diff = mixed
                .iter()
                .zip(&single)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(max_diff < 2e-3, "divergence {max_diff}");
        });
    }

    #[test]
    fn sampler_accessor_shares_the_training_sampler() {
        let e = Engine::new(tiny(), neighbor(), opts(64));
        assert_eq!(e.sampler().name(), "Neighbor");
        assert_eq!(e.sampler().num_layers(), e.options().num_layers);
    }

    #[test]
    fn engine_options_builder_matches_struct_literal() {
        let built = EngineOptions::builder()
            .with_hidden(16)
            .with_num_layers(2)
            .with_global_batch(64)
            .with_lr(5e-3)
            .with_seed(3)
            .with_total_cores(8);
        let lit = opts(64);
        assert_eq!(built.hidden, lit.hidden);
        assert_eq!(built.global_batch, lit.global_batch);
        assert_eq!(built.total_cores, lit.total_cores);
    }
}
