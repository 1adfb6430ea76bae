//! # argo-core — the ARGO runtime, as a user-facing API
//!
//! The paper's Listing 1 enables ARGO with a two-line wrapper:
//!
//! ```python
//! runtime = ARGO(n_search=20, epoch=200)
//! runtime.run(train, args=(...))
//! ```
//!
//! [`Argo`] is the Rust equivalent. The training function receives the
//! configuration the runtime chose (number of processes, sampling cores,
//! training cores) and how many epochs to run under it, and returns the
//! measured time — exactly the contract Listing 3 imposes on the modified
//! DGL training script (`num_workers` and `ep` become variables the runtime
//! controls).
//!
//! ```
//! use argo_core::{Argo, ArgoOptions};
//!
//! // A toy "training function": epoch time depends on the configuration.
//! let mut runtime = Argo::new(
//!     ArgoOptions::builder()
//!         .with_n_search(10)
//!         .with_epochs(40)
//!         .with_total_cores(16),
//! );
//! let report = runtime.run(
//!     |config, epochs| {
//!         let per_epoch = 1.0 + (config.n_proc as f64 - 4.0).powi(2) * 0.05
//!             + (config.n_samp as f64 - 2.0).powi(2) * 0.1;
//!         per_epoch * epochs as f64
//!     },
//!     None, // pass Some(&telemetry) to record tuner introspection
//! );
//! assert_eq!(report.epochs_run, 40);
//! assert!(report.config_opt.fits(16));
//! ```
//!
//! For training real models, [`Argo::train`] drives an
//! [`argo_engine::Engine`] directly; for paper-scale studies,
//! [`Argo::run_modeled`] drives an [`argo_platform::PerfModel`]. Each entry
//! point takes an `Option<&Telemetry>` (the pre-0.2 `*_telemetry` variants
//! have been removed).

#![forbid(unsafe_code)]

use std::fmt;
use std::sync::Arc;

use argo_engine::{Engine, EpochStats};
use argo_platform::PerfModel;
use argo_rt::{Config, RunEvent, Telemetry};
use argo_tune::{BayesOpt, OnlineAutoTuner, SearchSpace};

pub use argo_rt::Config as ArgoConfig;

/// Errors surfaced by ARGO entry points (CLI flag parsing, telemetry
/// sinks). Each renders as a one-line diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Error {
    /// A command-line flag or option had an invalid value.
    InvalidArgument(String),
    /// An I/O operation (e.g. writing `--metrics-out`) failed.
    Io(String),
    /// A serving request could not finish before its deadline budget.
    DeadlineExceeded(String),
    /// The serving admission queue was at capacity; the request was shed.
    QueueFull(String),
    /// A serving query named a seed node outside the loaded graph.
    UnknownSeedNode(String),
    /// Any other runtime failure.
    Other(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            Error::Io(msg) => write!(f, "i/o error: {msg}"),
            Error::DeadlineExceeded(msg) => write!(f, "deadline exceeded: {msg}"),
            Error::QueueFull(msg) => write!(f, "queue full: {msg}"),
            Error::UnknownSeedNode(msg) => write!(f, "unknown seed node: {msg}"),
            Error::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<String> for Error {
    fn from(msg: String) -> Self {
        Error::Other(msg)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e.to_string())
    }
}

/// Options of the ARGO runtime (mirrors `ARGO(n_search=…, epoch=…)`).
#[derive(Clone, Copy, Debug)]
pub struct ArgoOptions {
    /// Online-learning searches before the best configuration is reused
    /// (the paper uses 5–6% of the design space, Table VI).
    pub n_search: usize,
    /// Total training epochs.
    pub epochs: usize,
    /// Cores the runtime may allocate (defaults to the host's).
    pub total_cores: usize,
    /// RNG seed for the tuner.
    pub seed: u64,
}

impl Default for ArgoOptions {
    fn default() -> Self {
        // On hosts with fewer than 4 cores the plan is logical: threads
        // oversubscribe and core binding degrades to a no-op, so ARGO stays
        // functional (if not faster) on small machines.
        let total_cores = argo_rt::num_available_cores().max(4);
        Self {
            n_search: 10,
            epochs: 200,
            total_cores,
            seed: 0,
        }
    }
}

impl ArgoOptions {
    /// Fluent starting point: defaults, refined with the `with_*` methods.
    pub fn builder() -> Self {
        Self::default()
    }

    /// Sets the number of online-learning search epochs.
    pub fn with_n_search(mut self, n_search: usize) -> Self {
        self.n_search = n_search;
        self
    }

    /// Sets the total training epochs.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the core budget the runtime may allocate.
    pub fn with_total_cores(mut self, total_cores: usize) -> Self {
        self.total_cores = total_cores;
        self
    }

    /// Sets the tuner's RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Report of a completed ARGO run.
#[derive(Clone, Debug)]
pub struct ArgoReport {
    /// The configuration selected by the auto-tuner and reused after online
    /// learning.
    pub config_opt: Config,
    /// Epoch time of `config_opt` when it was found.
    pub best_epoch_time: f64,
    /// Every configuration evaluated during online learning with its epoch
    /// time.
    pub history: Vec<(Config, f64)>,
    /// End-to-end time including auto-tuning overhead and sub-optimal
    /// search epochs (what Figures 10/11 report).
    pub total_time: f64,
    /// Epochs actually run.
    pub epochs_run: usize,
    /// Design-space size for this machine.
    pub space_size: usize,
}

/// The ARGO runtime (paper Listing 1).
pub struct Argo {
    opts: ArgoOptions,
    space: SearchSpace,
}

impl Argo {
    /// Creates a runtime. Panics if the machine is too small to host even
    /// the smallest multi-process configuration (4 cores).
    pub fn new(opts: ArgoOptions) -> Self {
        assert!(opts.n_search >= 1, "need at least one search epoch");
        assert!(
            opts.epochs >= opts.n_search,
            "epochs ({}) must cover n_search ({})",
            opts.epochs,
            opts.n_search
        );
        let mut opts = opts;
        opts.total_cores = opts.total_cores.max(4);
        let space = SearchSpace::for_cores(opts.total_cores);
        Self { opts, space }
    }

    /// Runtime options.
    pub fn options(&self) -> &ArgoOptions {
        &self.opts
    }

    /// Search epochs actually run: `n_search`, but no more than the space
    /// has configurations (tiny hosts).
    fn n_search(&self) -> usize {
        self.opts.n_search.min(self.space.len())
    }

    /// The design space the tuner searches.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// Runs training under ARGO: `train(config, epochs)` must train for
    /// `epochs` epochs under `config` and return the elapsed time in
    /// seconds. During online learning it is called with `epochs = 1`;
    /// afterwards once with the remaining epochs (mirroring the `ep`
    /// variable of Listing 3).
    ///
    /// With `Some(telemetry)`, the tuner's introspection is recorded: one
    /// `tuner_trial` event per search epoch (candidate configuration,
    /// observed epoch time, incumbent best, suggest/observe CPU seconds) and
    /// a `config_applied` event on every configuration switch. `None` runs
    /// without any recording.
    pub fn run(
        &mut self,
        train: impl FnMut(Config, usize) -> f64,
        telemetry: Option<&Telemetry>,
    ) -> ArgoReport {
        let tuner = BayesOpt::new(self.space.clone(), self.opts.seed);
        let report =
            OnlineAutoTuner::new(tuner, self.n_search()).run(self.opts.epochs, train, telemetry);
        ArgoReport {
            config_opt: report.config_opt,
            best_epoch_time: report.best_epoch_time,
            history: report.history,
            total_time: report.total_time,
            epochs_run: self.opts.epochs,
            space_size: self.space.len(),
        }
    }

    /// Trains a real [`Engine`] under ARGO, reporting per-epoch statistics
    /// through `on_epoch`. With `Some(telemetry)`, the full layer is
    /// recorded: per-epoch engine telemetry (stage histograms, structured
    /// epoch events, cache summaries) plus the tuner introspection of
    /// [`Argo::run`], all into the same sinks.
    pub fn train(
        &mut self,
        engine: &mut Engine,
        telemetry: Option<&Telemetry>,
        mut on_epoch: impl FnMut(usize, Config, &EpochStats),
    ) -> ArgoReport {
        let mut epoch_idx = 0usize;
        self.run(
            |config, epochs| {
                let mut elapsed = 0.0;
                for _ in 0..epochs {
                    let stats = engine.train_epoch(config, telemetry);
                    on_epoch(epoch_idx, config, &stats);
                    epoch_idx += 1;
                    elapsed += stats.epoch_time;
                }
                elapsed
            },
            telemetry,
        )
    }

    /// Like [`Argo::train`], but audits the span profiler's measured
    /// critical-path attribution against `model`'s predicted bottleneck.
    ///
    /// After each search epoch, the most recent `critical_path` event the
    /// engine logged is compared with [`PerfModel::predicted_bottleneck`]
    /// for that epoch's configuration, and one `bottleneck_check` event is
    /// emitted carrying both labels — `argo report` renders per-trial
    /// agreement or disagreement. Requires an enabled event logger in
    /// `telemetry`; with `None` (or events off) this is exactly
    /// [`Argo::train`].
    pub fn train_audited(
        &mut self,
        engine: &mut Engine,
        model: &PerfModel,
        telemetry: Option<&Telemetry>,
        mut on_epoch: impl FnMut(usize, Config, &EpochStats),
    ) -> ArgoReport {
        let n_search = self.n_search();
        let logger = telemetry.map(|t| Arc::clone(&t.logger));
        self.train(engine, telemetry, move |epoch_idx, config, stats| {
            if epoch_idx < n_search {
                if let Some(l) = logger.as_ref().filter(|l| l.is_enabled()) {
                    let measured = l.events().iter().rev().find_map(|(_, e)| match e {
                        RunEvent::CriticalPath { fractions, .. } => fractions
                            .iter()
                            .max_by(|a, b| a.1.total_cmp(&b.1))
                            .map(|(stage, _)| stage.clone()),
                        _ => None,
                    });
                    if let Some(measured) = measured {
                        l.log(RunEvent::BottleneckCheck {
                            epoch: epoch_idx as u64,
                            config,
                            predicted: model.predicted_bottleneck(config).to_string(),
                            measured,
                        });
                    }
                }
            }
            on_epoch(epoch_idx, config, stats);
        })
    }

    /// Runs the full schedule against a modeled platform (paper-scale
    /// studies on hardware this host does not have). With
    /// `Some(telemetry)`, per-epoch modeled telemetry is emitted through
    /// [`PerfModel::record_epoch`] alongside the tuner events — the same
    /// schema a measured run produces. Build such telemetry with
    /// [`argo_rt::Source::Modeled`] so the provenance is tagged.
    pub fn run_modeled(&mut self, model: &PerfModel, telemetry: Option<&Telemetry>) -> ArgoReport {
        match telemetry {
            Some(tel) => {
                let mut epoch_idx = 0u64;
                self.run(
                    |config, epochs| {
                        let mut elapsed = 0.0;
                        for _ in 0..epochs {
                            elapsed += model.record_epoch(tel, epoch_idx, config);
                            epoch_idx += 1;
                        }
                        elapsed
                    },
                    Some(tel),
                )
            }
            None => self.run(
                |config, epochs| model.epoch_time(config) * epochs as f64,
                None,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo_engine::EngineOptions;
    use argo_graph::datasets::{FLICKR, OGBN_PRODUCTS};
    use argo_platform::{Library, ModelKind, SamplerKind, Setup, ICE_LAKE_8380H};
    use argo_sample::NeighborSampler;
    use std::sync::Arc;

    fn toy_objective(config: Config, epochs: usize) -> f64 {
        let per = 1.0
            + 0.05 * (config.n_proc as f64 - 5.0).powi(2)
            + 0.08 * (config.n_samp as f64 - 2.0).powi(2)
            + 0.01 * (config.n_train as f64 - 6.0).powi(2);
        per * epochs as f64
    }

    #[test]
    fn run_respects_epoch_budget() {
        let mut argo = Argo::new(ArgoOptions {
            n_search: 8,
            epochs: 50,
            total_cores: 32,
            seed: 1,
        });
        let mut search_calls = 0usize;
        let mut reuse_epochs = 0usize;
        let report = argo.run(
            |c, e| {
                if e == 1 {
                    search_calls += 1;
                } else {
                    reuse_epochs += e;
                }
                toy_objective(c, e)
            },
            None,
        );
        assert_eq!(search_calls, 8);
        assert_eq!(reuse_epochs, 42);
        assert_eq!(report.epochs_run, 50);
        assert_eq!(report.history.len(), 8);
        assert!(report.config_opt.fits(32));
    }

    #[test]
    fn total_time_accounts_search_and_reuse() {
        let mut argo = Argo::new(ArgoOptions {
            n_search: 5,
            epochs: 20,
            total_cores: 16,
            seed: 2,
        });
        let report = argo.run(toy_objective, None);
        let search_sum: f64 = report.history.iter().map(|(_, t)| t).sum();
        let expect = search_sum + toy_objective(report.config_opt, 15);
        assert!((report.total_time - expect).abs() < 1e-9);
    }

    #[test]
    fn n_search_equal_epochs_is_all_search() {
        let mut argo = Argo::new(ArgoOptions {
            n_search: 6,
            epochs: 6,
            total_cores: 16,
            seed: 3,
        });
        let report = argo.run(toy_objective, None);
        assert_eq!(report.history.len(), 6);
    }

    #[test]
    #[should_panic]
    fn epochs_below_n_search_panics() {
        Argo::new(ArgoOptions {
            n_search: 10,
            epochs: 5,
            total_cores: 16,
            seed: 0,
        });
    }

    #[test]
    fn run_modeled_matches_direct_model_calls() {
        let model = PerfModel::new(Setup {
            platform: ICE_LAKE_8380H,
            library: Library::Dgl,
            sampler: SamplerKind::Neighbor,
            model: ModelKind::Sage,
            dataset: OGBN_PRODUCTS,
        });
        let mut argo = Argo::new(ArgoOptions {
            n_search: 35,
            epochs: 200,
            total_cores: 112,
            seed: 4,
        });
        let report = argo.run_modeled(&model, None);
        // The reused configuration is near-optimal (≥85% of exhaustive).
        let opt = model.argo_best_epoch_time(112).1;
        assert!(
            opt / report.best_epoch_time > 0.85,
            "found {} vs optimal {opt}",
            report.best_epoch_time
        );
        assert_eq!(report.space_size, 694);
    }

    #[test]
    fn run_is_algorithm_1_of_the_online_tuner() {
        // `Argo::run` is a thin wrapper: on a modeled paper task, the
        // tuner it drives sees the same trials in the same order as a
        // hand-built `OnlineAutoTuner` over the same space and seed.
        let model = PerfModel::new(Setup {
            platform: ICE_LAKE_8380H,
            library: Library::Dgl,
            sampler: SamplerKind::Shadow,
            model: ModelKind::Gcn,
            dataset: FLICKR,
        });
        let objective = |c: Config, e: usize| model.epoch_time_noisy(c, 17) * e as f64;
        let mut argo = Argo::new(ArgoOptions {
            n_search: 12,
            epochs: 30,
            total_cores: 112,
            seed: 3,
        });
        let via_argo = argo.run(objective, None);
        let tuner = BayesOpt::new(SearchSpace::for_cores(112), 3);
        let direct = OnlineAutoTuner::new(tuner, 12).run(30, objective, None);
        assert_eq!(via_argo.history, direct.history);
        assert_eq!(via_argo.config_opt, direct.config_opt);
        assert_eq!(via_argo.total_time, direct.total_time);
    }

    fn tiny_engine() -> Engine {
        let dataset = Arc::new(FLICKR.synthesize(0.008, 3));
        let sampler: Arc<dyn argo_sample::Sampler> = Arc::new(NeighborSampler::new(vec![6, 3]));
        Engine::new(
            dataset,
            sampler,
            EngineOptions {
                hidden: 8,
                num_layers: 2,
                global_batch: 64,
                total_cores: 16,
                ..Default::default()
            },
        )
    }

    fn flickr_model() -> PerfModel {
        PerfModel::new(Setup {
            platform: ICE_LAKE_8380H,
            library: Library::Dgl,
            sampler: SamplerKind::Neighbor,
            model: ModelKind::Sage,
            dataset: FLICKR,
        })
    }

    #[test]
    fn train_drives_a_real_engine() {
        let mut engine = tiny_engine();
        let mut argo = Argo::new(ArgoOptions {
            n_search: 3,
            epochs: 5,
            total_cores: 16,
            seed: 5,
        });
        let mut epochs_seen = Vec::new();
        let report = argo.train(&mut engine, None, |i, c, stats| {
            epochs_seen.push((i, c, stats.loss));
        });
        assert_eq!(epochs_seen.len(), 5);
        assert_eq!(engine.epochs_done(), 5);
        // Epoch indices in order.
        assert!(epochs_seen.windows(2).all(|w| w[1].0 == w[0].0 + 1));
        // Final epochs reuse config_opt.
        assert_eq!(epochs_seen.last().unwrap().1, report.config_opt);
        assert!(report.total_time > 0.0);
    }

    #[test]
    fn run_telemetry_traces_convergence() {
        use argo_rt::RunEvent;
        let tel = Telemetry::new();
        let mut argo = Argo::new(ArgoOptions {
            n_search: 6,
            epochs: 30,
            total_cores: 32,
            seed: 7,
        });
        let report = argo.run(toy_objective, Some(&tel));
        let events = tel.logger.events();
        let trials: Vec<_> = events
            .iter()
            .filter_map(|(_, e)| match e {
                RunEvent::TunerTrial(t) => Some(t),
                _ => None,
            })
            .collect();
        assert_eq!(trials.len(), 6);
        assert_eq!(trials.last().unwrap().best_config, report.config_opt);
        // Incumbent-best trajectory is non-increasing.
        assert!(trials
            .windows(2)
            .all(|w| w[1].best_epoch_time <= w[0].best_epoch_time));
        // Telemetry must not change the outcome.
        let mut argo2 = Argo::new(ArgoOptions {
            n_search: 6,
            epochs: 30,
            total_cores: 32,
            seed: 7,
        });
        let plain = argo2.run(toy_objective, None);
        assert_eq!(plain.config_opt, report.config_opt);
        assert_eq!(plain.history, report.history);
    }

    #[test]
    fn modeled_telemetry_tags_source_and_covers_all_epochs() {
        use argo_rt::{RunEvent, Source};
        let model = PerfModel::new(Setup {
            platform: ICE_LAKE_8380H,
            library: Library::Dgl,
            sampler: SamplerKind::Neighbor,
            model: ModelKind::Sage,
            dataset: OGBN_PRODUCTS,
        });
        let tel = Telemetry::with_source(Source::Modeled);
        let mut argo = Argo::new(ArgoOptions {
            n_search: 5,
            epochs: 12,
            total_cores: 112,
            seed: 4,
        });
        let report = argo.run_modeled(&model, Some(&tel));
        let parsed = argo_rt::RunLogger::parse_jsonl(&tel.logger.to_jsonl()).unwrap();
        assert!(parsed.iter().all(|(_, _, s)| *s == Source::Modeled));
        let ends: Vec<_> = parsed
            .iter()
            .filter_map(|(e, _, _)| match e {
                RunEvent::EpochEnd { epoch, .. } => Some(*epoch),
                _ => None,
            })
            .collect();
        assert_eq!(ends, (0..12).collect::<Vec<u64>>());
        // Sum of modeled epoch times equals the report's total.
        let total: f64 = parsed
            .iter()
            .filter_map(|(e, _, _)| match e {
                RunEvent::EpochEnd { record, .. } => Some(record.epoch_time),
                _ => None,
            })
            .sum();
        assert!((total - report.total_time).abs() < 1e-9 * report.total_time.max(1.0));
    }

    #[test]
    fn train_audited_emits_bottleneck_checks() {
        use argo_rt::RunEvent;
        let mut engine = tiny_engine();
        let model = flickr_model();
        let tel = Telemetry::new();
        let mut argo = Argo::new(ArgoOptions {
            n_search: 3,
            epochs: 5,
            total_cores: 16,
            seed: 5,
        });
        argo.train_audited(&mut engine, &model, Some(&tel), |_, _, _| {});
        let checks: Vec<_> = tel
            .logger
            .events()
            .iter()
            .filter_map(|(_, e)| match e {
                RunEvent::BottleneckCheck {
                    epoch,
                    predicted,
                    measured,
                    ..
                } => Some((*epoch, predicted.clone(), measured.clone())),
                _ => None,
            })
            .collect();
        // One audit per search epoch, none for the reuse phase.
        assert_eq!(checks.len(), 3);
        for (epoch, predicted, measured) in &checks {
            assert!(*epoch < 3);
            assert!(["sample", "gather", "compute", "sync"].contains(&predicted.as_str()));
            assert!(argo_rt::CRITICAL_PATH_STAGES.contains(&measured.as_str()));
        }

        // Without telemetry the audited path is exactly Argo::train.
        let mut engine2 = tiny_engine();
        let mut argo2 = Argo::new(ArgoOptions {
            n_search: 3,
            epochs: 5,
            total_cores: 16,
            seed: 5,
        });
        let mut n = 0usize;
        argo2.train_audited(&mut engine2, &model, None, |_, _, _| n += 1);
        assert_eq!(n, 5);
    }

    #[test]
    fn train_audited_audits_only_the_search_epochs_the_space_allows() {
        // 4 cores hold one configuration, so `n_search: 3` runs one search
        // epoch: the other three reuse it and are not audited.
        let tel = Telemetry::new();
        let mut argo = Argo::new(ArgoOptions {
            n_search: 3,
            epochs: 4,
            total_cores: 4,
            seed: 5,
        });
        assert_eq!(argo.space().len(), 1);
        argo.train_audited(
            &mut tiny_engine(),
            &flickr_model(),
            Some(&tel),
            |_, _, _| {},
        );
        let count = |kind: &str| {
            tel.logger
                .events()
                .iter()
                .filter(|(_, e)| e.kind() == kind)
                .count()
        };
        assert_eq!(count("tuner_trial"), 1);
        assert_eq!(count("bottleneck_check"), count("tuner_trial"));
        assert_eq!(count("epoch_end"), 4);
    }

    #[test]
    fn options_builder_matches_struct_literal() {
        let b = ArgoOptions::builder()
            .with_n_search(7)
            .with_epochs(42)
            .with_total_cores(24)
            .with_seed(9);
        assert_eq!(b.n_search, 7);
        assert_eq!(b.epochs, 42);
        assert_eq!(b.total_cores, 24);
        assert_eq!(b.seed, 9);
    }

    #[test]
    fn error_renders_one_line_diagnostics() {
        let e = Error::InvalidArgument("--cache-rows wants a number, got 'many'".into());
        let line = e.to_string();
        assert!(line.starts_with("invalid argument:"), "{line}");
        assert!(!line.contains('\n'));
        let io: Error = std::io::Error::new(std::io::ErrorKind::NotFound, "no dir").into();
        assert!(matches!(io, Error::Io(_)));
        let other: Error = String::from("boom").into();
        assert_eq!(other.to_string(), "boom");
    }

    #[test]
    fn serving_errors_render_one_line_diagnostics() {
        let d = Error::DeadlineExceeded("request 4 queued 900us".into());
        assert_eq!(d.to_string(), "deadline exceeded: request 4 queued 900us");
        let q = Error::QueueFull("1024 requests pending (cap 1024)".into());
        assert_eq!(
            q.to_string(),
            "queue full: 1024 requests pending (cap 1024)"
        );
        let u = Error::UnknownSeedNode("node 9000 out of range".into());
        assert_eq!(u.to_string(), "unknown seed node: node 9000 out of range");
    }
}
