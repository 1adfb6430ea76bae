//! The epoch-time performance model.
//!
//! [`PerfModel::epoch_time`] predicts the wall-clock epoch time of one
//! (platform, library, sampler, model, dataset) *task* under a given ARGO
//! [`Config`], from the mechanisms the paper identifies in Section V-A:
//!
//! 1. **Pipelined sampling vs training** — libraries overlap the two stages;
//!    the iteration takes the max of the two (Section V-A2).
//! 2. **Gather/compute interleaving across processes** — within the training
//!    stage, the memory-bound feature gather and the compute-bound kernels
//!    alternate; a single process serializes them (Figure 2-A) while `p`
//!    staggered processes overlap them (Figure 2-B):
//!    `t = max(G, C) + min(G, C)/p`.
//! 3. **Memory-bandwidth roofline** — gather traffic flows at
//!    `min(effective peak, streams × per-core-bw)`, where the stream count
//!    grows with processes and training cores; the 4-socket machine's
//!    UPI/NUMA ceiling caps the effective peak (Section IX).
//! 4. **Amdahl limits** — the sampler and the sparse training kernels each
//!    have a library-specific parallel fraction; ShaDow's is tiny, which is
//!    why only multi-processing (not more sampling cores) speeds it up.
//! 5. **Workload inflation** — more processes ⇒ smaller per-process batches
//!    ⇒ fewer shared neighbors ⇒ more edges and more gather bytes
//!    (Figure 5/6), modeled in [`crate::workload`].
//! 6. **Synchronization and launch overheads** — gradient all-reduce cost
//!    grows with the process count; re-partitioning on process-count changes
//!    adds a per-epoch cost (Section V-A1).

use argo_rt::{
    enumerate_space, Config, EpochRecord, RunEvent, Stage, StageSummaryRecord, Telemetry,
};

use crate::library::Library;
use crate::spec::PlatformSpec;
use crate::workload::{ModelKind, SamplerKind, WorkloadModel};

/// One evaluation task: everything that determines the design-space surface
/// except the configuration itself (one subplot of Figure 7).
#[derive(Clone, Copy, Debug)]
pub struct Setup {
    /// Hardware platform.
    pub platform: PlatformSpec,
    /// GNN library backend.
    pub library: Library,
    /// Sampling algorithm.
    pub sampler: SamplerKind,
    /// GNN model.
    pub model: ModelKind,
    /// Dataset statistics.
    pub dataset: argo_graph::DatasetSpec,
}

impl Setup {
    /// The paper's task label, e.g. `"Neighbor-SAGE / ogbn-products"`.
    pub fn label(&self) -> String {
        format!(
            "{}-{} / {}",
            self.sampler.name(),
            self.model.name(),
            self.dataset.name
        )
    }

    /// The workload model of this task (batch 1024, hidden 128).
    pub fn workload(&self) -> WorkloadModel {
        WorkloadModel::paper(self.dataset, self.sampler, self.model)
    }
}

/// Stream count cap per process: coarse-grained library scheduling cannot
/// keep more than this many cores of one process streaming memory at once.
const STREAMS_CAP_PER_PROC: f64 = 8.0;

/// Extra memory traffic beyond the raw feature gather (SpMM re-reads,
/// intermediate writes), as a multiplier on gather bytes.
const MEM_AMPLIFICATION: f64 = 2.2;

/// Per-epoch process-launch cost in seconds per process (fork, dataloader
/// spin-up).
const LAUNCH_COST_PER_PROC: f64 = 0.012;

/// Per-epoch data-partitioning cost in seconds per training node, growing
/// mildly with process count (Section V-A1: "increased workload of graph
/// partitioning").
const PARTITION_COST_PER_NODE: f64 = 18e-9;

/// The deterministic epoch-time model.
#[derive(Clone, Copy, Debug)]
pub struct PerfModel {
    setup: Setup,
}

/// Builder for [`PerfModel`] — the same `builder()` + `with_*` shape as
/// `EngineOptions`/`ArgoOptions`, starting from the paper's most common
/// task (Ice Lake, DGL, Neighbor-SAGE on Flickr) so callers override only
/// what differs.
#[derive(Clone, Copy, Debug)]
pub struct PerfModelBuilder {
    setup: Setup,
}

impl PerfModelBuilder {
    /// Hardware platform (default [`crate::spec::ICE_LAKE_8380H`]).
    pub fn with_platform(mut self, platform: PlatformSpec) -> Self {
        self.setup.platform = platform;
        self
    }

    /// Library backend (default [`Library::Dgl`]).
    pub fn with_library(mut self, library: Library) -> Self {
        self.setup.library = library;
        self
    }

    /// Sampling algorithm (default [`SamplerKind::Neighbor`]).
    pub fn with_sampler(mut self, sampler: SamplerKind) -> Self {
        self.setup.sampler = sampler;
        self
    }

    /// GNN model (default [`ModelKind::Sage`]).
    pub fn with_model(mut self, model: ModelKind) -> Self {
        self.setup.model = model;
        self
    }

    /// Dataset statistics (default Flickr).
    pub fn with_dataset(mut self, dataset: argo_graph::DatasetSpec) -> Self {
        self.setup.dataset = dataset;
        self
    }

    /// Finalizes the model.
    pub fn build(self) -> PerfModel {
        PerfModel::new(self.setup)
    }
}

impl PerfModel {
    /// A model for `setup`.
    pub fn new(setup: Setup) -> Self {
        Self { setup }
    }

    /// Starts a builder from the paper's default task; override fields with
    /// the `with_*` methods and finish with [`PerfModelBuilder::build`].
    pub fn builder() -> PerfModelBuilder {
        PerfModelBuilder {
            setup: Setup {
                platform: crate::spec::ICE_LAKE_8380H,
                library: Library::Dgl,
                sampler: SamplerKind::Neighbor,
                model: ModelKind::Sage,
                dataset: argo_graph::datasets::FLICKR,
            },
        }
    }

    /// The task being modeled.
    pub fn setup(&self) -> &Setup {
        &self.setup
    }

    /// Amdahl speedup of `cores` cores with parallel fraction `f`.
    fn amdahl(cores: usize, f: f64) -> f64 {
        1.0 / ((1.0 - f) + f / cores as f64)
    }

    /// Cache/TLB-miss penalty of graph traversal: CSR structures far larger
    /// than the LLC make every neighbor access a memory round-trip. Grows
    /// with graph size; ≈1 for Flickr, ≈2.6 for ogbn-products, ≈5.6 for
    /// ogbn-papers100M.
    fn sampler_size_penalty(&self) -> f64 {
        let n = self.setup.dataset.num_nodes as f64;
        let x = (n / 1e5).log10().max(0.0);
        let full = (1.0 + 0.45 * x).powi(2);
        match self.setup.sampler {
            // Layer-wise sampling hops across the whole CSR.
            SamplerKind::Neighbor => full,
            // ShaDow walks localized subgraphs with much better locality.
            SamplerKind::Shadow => full.sqrt(),
        }
    }

    /// Locality factor of feature gathering: random row gathers from a
    /// feature table much larger than the LLC achieve only a fraction of the
    /// streaming bandwidth.
    fn gather_locality(&self) -> f64 {
        let table_bytes = self.setup.dataset.num_nodes as f64 * self.setup.dataset.f0 as f64 * 4.0;
        let llc_bytes = self.setup.platform.llc_mb * 1e6;
        1.0 / (1.0 + 0.8 * (table_bytes / llc_bytes).max(1.0).log10())
    }

    /// Wall-clock duration of the *sampling* stage of one iteration
    /// (per process; processes run concurrently).
    pub fn sampling_time(&self, config: Config) -> f64 {
        let w = self.setup.workload().iteration(config.n_proc);
        let prof = self.setup.library.profile();
        let per_proc_visits = w.sampler_edge_visits / config.n_proc as f64;
        let cpu = per_proc_visits
            * prof.sampler_cost_per_edge(self.setup.sampler)
            * self.sampler_size_penalty()
            / self.setup.platform.core_speed_factor;
        let speedup = Self::amdahl(
            config.n_samp,
            prof.sampler_parallel_fraction(self.setup.sampler),
        );
        // Mild contention penalty for piling cores onto a serial sampler
        // (Section V-A2: extra sampling cores can even slow things down).
        let contention = 1.0
            + 0.015
                * (config.n_samp.saturating_sub(1) as f64)
                * (1.0 - prof.sampler_parallel_fraction(self.setup.sampler));
        cpu / speedup * contention
    }

    /// Wall-clock duration of the memory-bound phase of one iteration
    /// (global across processes — they share the memory system): feature
    /// gathering plus the library's scatter/message traffic.
    pub fn gather_time(&self, config: Config) -> f64 {
        let w = self.setup.workload().iteration(config.n_proc);
        let prof = self.setup.library.profile();
        let d = self.setup.dataset;
        // Mean feature width of aggregated messages over the three layers.
        let f_avg = (d.f0 as f64 + 2.0 * 128.0) / 3.0;
        let scatter_bytes = w.edges * f_avg * 4.0 * prof.scatter_traffic_factor;
        let bytes = w.gather_bytes * MEM_AMPLIFICATION + scatter_bytes;
        bytes / 1e9 / self.achievable_bandwidth(config)
    }

    /// Achievable memory bandwidth in GB/s under `config`, including the
    /// dataset's gather-locality penalty.
    fn achievable_bandwidth(&self, config: Config) -> f64 {
        let plat = &self.setup.platform;
        let prof = self.setup.library.profile();
        let streams = config.n_proc as f64 * (config.n_train as f64).min(STREAMS_CAP_PER_PROC);
        (streams * plat.per_core_bw_gbs * prof.gather_efficiency).min(plat.effective_bw_gbs())
            * self.gather_locality()
    }

    /// Fraction of the platform's peak bandwidth the configuration utilizes
    /// (the Figure 6 bandwidth curve).
    pub fn bandwidth_utilization(&self, config: Config) -> f64 {
        self.achievable_bandwidth(config) / self.setup.platform.peak_bw_gbs
    }

    /// Epoch time under a **NUMA-aware** deployment (the paper's Section IX
    /// future work): processes are pinned socket-locally
    /// ([`argo_rt::CoreBinder::plan_numa`]) and their feature shards are
    /// allocated on the local node, so the fraction of remote (UPI) accesses
    /// drops from the >50% the paper profiled to the residual share of
    /// neighbors living in other processes' shards.
    ///
    /// Modeled as a recovery of the platform's NUMA bandwidth penalty:
    /// `numa_bw_factor` is blended toward 1.0 when the configuration admits
    /// a socket-local plan; otherwise the time equals the plain
    /// [`PerfModel::epoch_time`].
    pub fn epoch_time_numa_aware(&self, config: Config) -> f64 {
        let plat = &self.setup.platform;
        let binder = argo_rt::CoreBinder::new(plat.total_cores);
        let local_plan_exists = binder
            .plan_numa(
                plat.sockets.max(1),
                config.n_proc,
                config.n_samp,
                config.n_train,
            )
            .is_some();
        if !local_plan_exists {
            return self.epoch_time(config);
        }
        // Remote traffic falls to ~35% of the non-aware deployment's,
        // recovering both aggregate bandwidth (UPI ceiling) and per-access
        // latency (local DDR instead of remote hops).
        const REMOTE_REDUCTION: f64 = 0.65;
        let recovered = plat.numa_bw_factor + (1.0 - plat.numa_bw_factor) * REMOTE_REDUCTION;
        let mut improved = *self;
        improved.setup.platform.numa_bw_factor = recovered;
        improved.setup.platform.per_core_bw_gbs =
            plat.per_core_bw_gbs * (1.0 + 0.12 * (1.0 - plat.numa_bw_factor));
        improved.epoch_time(config)
    }

    /// Wall-clock duration of the compute phase of one iteration, per
    /// process.
    pub fn compute_time(&self, config: Config) -> f64 {
        let w = self.setup.workload().iteration(config.n_proc);
        let prof = self.setup.library.profile();
        let per_proc_flops = w.flops / config.n_proc as f64;
        let cpu =
            per_proc_flops / (prof.gflops_per_core * 1e9 * self.setup.platform.core_speed_factor);
        cpu / Self::amdahl(config.n_train, prof.train_parallel_fraction)
            + prof.per_batch_overhead / self.setup.platform.core_speed_factor
    }

    /// Wall-clock time of one synchronized iteration under `config`.
    fn iteration_time(&self, config: Config) -> f64 {
        let prof = self.setup.library.profile();
        let g = self.gather_time(config);
        let c = self.compute_time(config);
        // Gather/compute interleaving across staggered processes (Figure 2).
        let train = g.max(c) + g.min(c) / config.n_proc as f64;
        let sample = self.sampling_time(config);
        let sync = prof.sync_cost_per_proc * config.n_proc as f64;
        sample.max(train) + sync
    }

    /// Modeled epoch time in seconds — the auto-tuner's objective function.
    pub fn epoch_time(&self, config: Config) -> f64 {
        assert!(
            config.fits(self.setup.platform.total_cores),
            "{config} exceeds {} cores",
            self.setup.platform.total_cores
        );
        let w = self.setup.workload();
        let iters = w.iterations_per_epoch();
        let launch = LAUNCH_COST_PER_PROC * config.n_proc as f64;
        let partition =
            PARTITION_COST_PER_NODE * w.train_nodes() * (1.0 + 0.2 * (config.n_proc as f64 - 1.0));
        iters * self.iteration_time(config) + launch + partition
    }

    /// Epoch time with small multiplicative measurement noise (deterministic
    /// in `seed`) — used where the paper averages five runs and reports a
    /// standard deviation.
    pub fn epoch_time_noisy(&self, config: Config, seed: u64) -> f64 {
        let t = self.epoch_time(config);
        // Two splitmix draws → Box-Muller standard normal.
        let u1 = (splitmix(seed ^ hash_config(config)) as f64 / u64::MAX as f64).clamp(1e-12, 1.0);
        let u2 = splitmix(seed.wrapping_add(0x9E37) ^ hash_config(config)) as f64 / u64::MAX as f64;
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        t * (1.0 + 0.015 * z).max(0.8)
    }

    /// The library's official "default" CPU setup (paper Section VI-D):
    /// a single training process with four sampling workers and all
    /// remaining cores for training.
    pub fn default_config(&self) -> Config {
        let cores = self.setup.platform.total_cores;
        let n_samp = 4.min(cores.saturating_sub(1)).max(1);
        Config::new(1, n_samp, (cores - n_samp).max(1))
    }

    /// Epoch time of the baseline library (default config) when restricted
    /// to `cores` cores — the Figure 1/8 scalability curves.
    pub fn baseline_epoch_time(&self, cores: usize) -> f64 {
        assert!(cores >= 2);
        let n_samp = 4.min(cores - 1).max(1);
        let cfg = Config::new(1, n_samp, cores - n_samp);
        let mut restricted = *self;
        restricted.setup.platform.total_cores = cores;
        restricted.epoch_time(cfg)
    }

    /// Best epoch time ARGO can reach with `cores` cores (exhaustive over
    /// the restricted space) — the Figure 8 "with ARGO" curves.
    pub fn argo_best_epoch_time(&self, cores: usize) -> (Config, f64) {
        let mut restricted = *self;
        restricted.setup.platform.total_cores = cores;
        let mut best: Option<(Config, f64)> = None;
        for config in enumerate_space(cores) {
            let t = restricted.epoch_time(config);
            if best.is_none_or(|(_, bt)| t < bt) {
                best = Some((config, t));
            }
        }
        best.expect("non-empty space")
    }

    /// The stage the model predicts to be the binding constraint under
    /// `config`: the largest of the per-iteration sample/gather/compute/sync
    /// durations, by the same stage labels the span profiler's
    /// critical-path attribution uses — so a measured run can be audited
    /// against the model's prediction (`argo report`'s bottleneck audit).
    pub fn predicted_bottleneck(&self, config: Config) -> &'static str {
        let prof = self.setup.library.profile();
        let candidates = [
            ("sample", self.sampling_time(config)),
            ("gather", self.gather_time(config)),
            ("compute", self.compute_time(config)),
            ("sync", prof.sync_cost_per_proc * config.n_proc as f64),
        ];
        let mut best = candidates[0];
        for c in &candidates[1..] {
            if c.1 > best.1 {
                best = *c;
            }
        }
        best.0
    }

    /// Emits the modeled telemetry of one epoch under `config` — the same
    /// event schema and stage histograms a measured `argo_engine` epoch
    /// produces, so real and modeled runs are directly comparable. Pass a
    /// [`Telemetry`] built with `Source::Modeled` so consumers can tell the
    /// provenance apart. Returns the modeled epoch time.
    pub fn record_epoch(&self, telemetry: &Telemetry, epoch: u64, config: Config) -> f64 {
        let epoch_time = self.epoch_time(config);
        let w = self.setup.workload();
        let iters = w.iterations_per_epoch().round().max(1.0);
        let prof = self.setup.library.profile();
        // Per-iteration modeled stage durations (sample/gather/compute are
        // concurrent across stages; sync is serial per iteration).
        let per_iter = [
            (Stage::Sample, self.sampling_time(config)),
            (Stage::Gather, self.gather_time(config)),
            (Stage::Compute, self.compute_time(config)),
            (Stage::Sync, prof.sync_cost_per_proc * config.n_proc as f64),
        ];

        telemetry.logger.log(RunEvent::EpochStart { epoch, config });
        for (stage, t) in per_iter {
            telemetry.metrics.stage_histogram(stage).observe(t);
            telemetry.logger.log(RunEvent::StageSummary {
                epoch,
                summary: StageSummaryRecord {
                    stage: stage.label().to_string(),
                    seconds: t * iters,
                    count: iters as u64,
                },
            });
        }
        telemetry.logger.log(RunEvent::EpochEnd {
            epoch,
            config,
            record: EpochRecord {
                epoch_time,
                // The performance model predicts time, not convergence.
                loss: 0.0,
                train_accuracy: 0.0,
                iterations: iters as u64,
                minibatches: iters as u64 * config.n_proc as u64,
                edges: w.epoch_edges(config.n_proc) as u64,
                sync_time: prof.sync_cost_per_proc * config.n_proc as f64 * iters,
            },
        });
        epoch_time
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn hash_config(c: Config) -> u64 {
    splitmix((c.n_proc as u64) << 32 | (c.n_samp as u64) << 16 | c.n_train as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ICE_LAKE_8380H, SAPPHIRE_RAPIDS_6430L};
    use argo_graph::datasets::{FLICKR, OGBN_PAPERS100M, OGBN_PRODUCTS, REDDIT};

    fn setup(
        platform: PlatformSpec,
        library: Library,
        sampler: SamplerKind,
        model: ModelKind,
        dataset: argo_graph::DatasetSpec,
    ) -> PerfModel {
        PerfModel::new(Setup {
            platform,
            library,
            sampler,
            model,
            dataset,
        })
    }

    fn products_dgl_il() -> PerfModel {
        setup(
            ICE_LAKE_8380H,
            Library::Dgl,
            SamplerKind::Neighbor,
            ModelKind::Sage,
            OGBN_PRODUCTS,
        )
    }

    #[test]
    fn record_epoch_shares_measured_schema() {
        use argo_rt::Source;
        let model = products_dgl_il();
        let tel = Telemetry::with_source(Source::Modeled);
        let config = model.default_config();
        let t = model.record_epoch(&tel, 0, config);
        assert!((t - model.epoch_time(config)).abs() < 1e-12);

        // Events round-trip through JSONL with the modeled tag.
        let parsed = argo_rt::RunLogger::parse_jsonl(&tel.logger.to_jsonl()).unwrap();
        assert_eq!(parsed.len(), 6); // start + 4 stage summaries + end
        assert!(parsed.iter().all(|(_, _, s)| *s == Source::Modeled));
        match &parsed.last().unwrap().0 {
            RunEvent::EpochEnd { record, .. } => {
                assert!((record.epoch_time - t).abs() < 1e-12);
                assert!(record.iterations > 0);
                assert!(record.sync_time > 0.0 && record.sync_time < t);
            }
            other => panic!("expected epoch_end, got {other:?}"),
        }

        // Metric names match the engine's.
        let names_seen: Vec<String> = tel
            .metrics
            .histograms()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let mut want: Vec<String> = Stage::ALL
            .map(Telemetry::stage_histogram_name)
            .into_iter()
            .collect();
        want.sort();
        assert_eq!(names_seen, want);
    }

    #[test]
    fn space_sizes_near_paper() {
        assert_eq!(enumerate_space(112).len(), 694);
        assert_eq!(enumerate_space(64).len(), 362);
        // All enumerated configs fit.
        for cores in [64, 112] {
            for c in enumerate_space(cores) {
                assert!(c.fits(cores), "{c} does not fit {cores}");
            }
        }
    }

    #[test]
    fn epoch_time_positive_and_finite_everywhere() {
        for platform in [ICE_LAKE_8380H, SAPPHIRE_RAPIDS_6430L] {
            for library in [Library::Dgl, Library::Pyg] {
                for (sampler, model) in [
                    (SamplerKind::Neighbor, ModelKind::Sage),
                    (SamplerKind::Shadow, ModelKind::Gcn),
                ] {
                    for dataset in [FLICKR, REDDIT, OGBN_PRODUCTS, OGBN_PAPERS100M] {
                        let m = setup(platform, library, sampler, model, dataset);
                        for c in enumerate_space(platform.total_cores).iter().step_by(37) {
                            let t = m.epoch_time(*c);
                            assert!(t.is_finite() && t > 0.0, "{} {c}", m.setup().label());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn default_is_slower_than_tuned() {
        // Table IV: the default setup is sub-optimal on every task.
        for library in [Library::Dgl, Library::Pyg] {
            for (sampler, model) in [
                (SamplerKind::Neighbor, ModelKind::Sage),
                (SamplerKind::Shadow, ModelKind::Gcn),
            ] {
                let m = setup(ICE_LAKE_8380H, library, sampler, model, OGBN_PRODUCTS);
                let default = m.epoch_time(m.default_config());
                let (_, best) = m.argo_best_epoch_time(112);
                assert!(
                    best < default,
                    "{}: tuned {best} !< default {default}",
                    m.setup().label()
                );
            }
        }
    }

    #[test]
    fn shadow_speedup_exceeds_neighbor_speedup() {
        // Section VI-E: ShaDow benefits more from ARGO because only
        // multi-processing parallelizes its sampler.
        let nb = setup(
            ICE_LAKE_8380H,
            Library::Dgl,
            SamplerKind::Neighbor,
            ModelKind::Sage,
            OGBN_PRODUCTS,
        );
        let sh = setup(
            ICE_LAKE_8380H,
            Library::Dgl,
            SamplerKind::Shadow,
            ModelKind::Gcn,
            OGBN_PRODUCTS,
        );
        let sp_nb = nb.epoch_time(nb.default_config()) / nb.argo_best_epoch_time(112).1;
        let sp_sh = sh.epoch_time(sh.default_config()) / sh.argo_best_epoch_time(112).1;
        assert!(
            sp_sh > sp_nb,
            "shadow speedup {sp_sh} should exceed neighbor speedup {sp_nb}"
        );
        assert!(sp_sh > 2.0, "shadow speedup {sp_sh} too small");
    }

    #[test]
    fn baseline_scaling_saturates_early() {
        // Figure 1/8: the baseline stops scaling around 16 cores.
        let m = products_dgl_il();
        let t4 = m.baseline_epoch_time(4);
        let t16 = m.baseline_epoch_time(16);
        let t112 = m.baseline_epoch_time(112);
        assert!(t16 < t4, "some speedup to 16 cores");
        let gain_late = t16 / t112;
        assert!(
            gain_late < 1.35,
            "baseline gained {gain_late}x from 16→112 cores; should be nearly flat"
        );
        // ARGO keeps scaling past 16 cores (the paper's curves also flatten
        // near 64 cores on the 4-socket machine due to the UPI ceiling).
        let (_, a16) = m.argo_best_epoch_time(16);
        let (_, a112) = m.argo_best_epoch_time(112);
        assert!(
            a16 / a112 > 1.3,
            "ARGO should keep scaling: 16-core {a16}, 112-core {a112}"
        );
        assert!(
            a16 / a112 > t16 / t112 * 1.15,
            "ARGO must out-scale the baseline past 16 cores"
        );
    }

    #[test]
    fn optimal_process_count_is_plural_but_bounded() {
        // Figure 7: optima lie between 2 and 8 processes.
        let m = products_dgl_il();
        let (best, _) = m.argo_best_epoch_time(112);
        assert!(best.n_proc >= 2 && best.n_proc <= 8, "{best}");
    }

    #[test]
    fn bandwidth_utilization_flattens_with_processes() {
        // Figure 6: bandwidth rises with the process count and flattens.
        let m = products_dgl_il();
        let u = |p: usize| m.bandwidth_utilization(Config::new(p, 2, 6));
        assert!(u(2) > u(1) * 1.5);
        assert!(u(8) >= u(4));
        let late_gain = u(16) / u(8);
        assert!(late_gain < 1.2, "bandwidth should flatten: {late_gain}");
        assert!(u(16) <= 1.0);
    }

    #[test]
    fn noisy_times_center_on_truth() {
        let m = products_dgl_il();
        let c = Config::new(4, 2, 8);
        let t = m.epoch_time(c);
        let mean: f64 = (0..200).map(|s| m.epoch_time_noisy(c, s)).sum::<f64>() / 200.0;
        assert!((mean - t).abs() / t < 0.01, "noisy mean {mean} vs {t}");
    }

    #[test]
    fn pyg_is_slower_than_dgl() {
        for dataset in [REDDIT, OGBN_PRODUCTS] {
            let d = setup(
                ICE_LAKE_8380H,
                Library::Dgl,
                SamplerKind::Neighbor,
                ModelKind::Sage,
                dataset,
            );
            let p = setup(
                ICE_LAKE_8380H,
                Library::Pyg,
                SamplerKind::Neighbor,
                ModelKind::Sage,
                dataset,
            );
            assert!(
                p.argo_best_epoch_time(112).1 > d.argo_best_epoch_time(112).1,
                "{}",
                dataset.name
            );
        }
    }

    #[test]
    fn epoch_times_within_factor_of_paper() {
        // Order-of-magnitude calibration against Table IV (DGL, Ice Lake,
        // exhaustive-optimal epoch times).
        let cases = [
            (SamplerKind::Neighbor, ModelKind::Sage, FLICKR, 1.98),
            (SamplerKind::Neighbor, ModelKind::Sage, REDDIT, 13.83),
            (SamplerKind::Neighbor, ModelKind::Sage, OGBN_PRODUCTS, 11.19),
            (
                SamplerKind::Neighbor,
                ModelKind::Sage,
                OGBN_PAPERS100M,
                115.4,
            ),
            (SamplerKind::Shadow, ModelKind::Gcn, FLICKR, 1.34),
            (SamplerKind::Shadow, ModelKind::Gcn, REDDIT, 32.68),
            (SamplerKind::Shadow, ModelKind::Gcn, OGBN_PRODUCTS, 14.68),
            (SamplerKind::Shadow, ModelKind::Gcn, OGBN_PAPERS100M, 107.8),
        ];
        for (sampler, model, dataset, paper) in cases {
            let m = setup(ICE_LAKE_8380H, Library::Dgl, sampler, model, dataset);
            let (_, ours) = m.argo_best_epoch_time(112);
            let ratio = ours / paper;
            assert!(
                (0.2..5.0).contains(&ratio),
                "{}: modeled {ours:.2}s vs paper {paper}s (ratio {ratio:.2})",
                m.setup().label()
            );
        }
    }

    #[test]
    fn numa_aware_helps_most_on_the_4_socket_machine() {
        // Section IX: the Ice Lake's UPI ceiling is the bigger bottleneck,
        // so NUMA-aware placement recovers more there. Scan tasks and
        // configurations: awareness must never hurt, must help on some
        // bandwidth-bound point, and must help the 4-socket machine most.
        let max_gain = |platform: PlatformSpec| -> f64 {
            let mut best: f64 = 1.0;
            for (sampler, model) in [
                (SamplerKind::Neighbor, ModelKind::Sage),
                (SamplerKind::Shadow, ModelKind::Gcn),
            ] {
                for dataset in [REDDIT, OGBN_PRODUCTS, OGBN_PAPERS100M] {
                    let m = setup(platform, Library::Pyg, sampler, model, dataset);
                    for cfg in enumerate_space(platform.total_cores).iter().step_by(7) {
                        let g = m.epoch_time(*cfg) / m.epoch_time_numa_aware(*cfg);
                        assert!(g >= 1.0 - 1e-12, "NUMA awareness hurt at {cfg}: {g}");
                        best = best.max(g);
                    }
                }
            }
            best
        };
        let il = max_gain(ICE_LAKE_8380H);
        let spr = max_gain(SAPPHIRE_RAPIDS_6430L);
        assert!(
            il >= spr,
            "4-socket gain {il} should be >= 2-socket gain {spr}"
        );
        // In this calibration, per-batch framework overheads dominate the
        // gather phase, so the recovered bandwidth yields a measurable but
        // modest gain (the ablation bench reports the full sweep).
        assert!(
            il > 1.004,
            "Ice Lake should see a visible gain somewhere, got {il}"
        );
    }

    #[test]
    fn numa_aware_falls_back_when_no_local_plan() {
        // A process larger than a socket cannot be socket-local.
        let m = products_dgl_il();
        let cfg = Config::new(2, 4, 40); // 44 cores/process > 28-core socket
        assert_eq!(m.epoch_time_numa_aware(cfg), m.epoch_time(cfg));
    }

    #[test]
    #[should_panic]
    fn oversized_config_panics() {
        let m = products_dgl_il();
        m.epoch_time(Config::new(16, 4, 4)); // 128 > 112 cores
    }

    #[test]
    fn predicted_bottleneck_is_the_slowest_stage() {
        let m = products_dgl_il();
        let c = Config::new(2, 2, 4);
        let prof = m.setup().library.profile();
        let mut times = [
            ("sample", m.sampling_time(c)),
            ("gather", m.gather_time(c)),
            ("compute", m.compute_time(c)),
            ("sync", prof.sync_cost_per_proc * c.n_proc as f64),
        ];
        times.sort_by(|a, b| b.1.total_cmp(&a.1));
        let predicted = m.predicted_bottleneck(c);
        assert_eq!(predicted, times[0].0);
        // The label vocabulary matches the span profiler's, so measured
        // critical-path attribution can be compared against the prediction.
        assert!(argo_rt::CRITICAL_PATH_STAGES.contains(&predicted));
    }

    #[test]
    fn predicted_bottleneck_tracks_the_config() {
        // Piling processes on shifts the prediction toward sync-dominated
        // or memory-bound regimes, never toward a fixed answer: at minimum
        // the function is total over the search space.
        let m = products_dgl_il();
        for config in enumerate_space(16) {
            let b = m.predicted_bottleneck(config);
            assert!(["sample", "gather", "compute", "sync"].contains(&b));
        }
    }

    #[test]
    fn builder_defaults_match_the_paper_task_and_overrides_stick() {
        // The zero-argument builder is the Neighbor-SAGE / Flickr / DGL /
        // Ice Lake task verbatim.
        let built = PerfModel::builder().build();
        let explicit = setup(
            ICE_LAKE_8380H,
            Library::Dgl,
            SamplerKind::Neighbor,
            ModelKind::Sage,
            FLICKR,
        );
        assert_eq!(built.setup().label(), explicit.setup().label());
        let c = built.default_config();
        assert_eq!(built.epoch_time(c), explicit.epoch_time(c));

        // Every with_* override lands, producing the same model as new(Setup).
        let overridden = PerfModel::builder()
            .with_platform(SAPPHIRE_RAPIDS_6430L)
            .with_library(Library::Pyg)
            .with_sampler(SamplerKind::Shadow)
            .with_model(ModelKind::Gcn)
            .with_dataset(REDDIT)
            .build();
        let expect = setup(
            SAPPHIRE_RAPIDS_6430L,
            Library::Pyg,
            SamplerKind::Shadow,
            ModelKind::Gcn,
            REDDIT,
        );
        assert_eq!(overridden.setup().label(), expect.setup().label());
        let c = overridden.default_config();
        assert_eq!(overridden.epoch_time(c), expect.epoch_time(c));
    }
}
