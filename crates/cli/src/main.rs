//! The `argo` binary. See [`argo_cli::usage`] for commands.

use std::process::ExitCode;
use std::sync::Arc;

use argo_cli::{
    dataset_by_name, library_by_name, model_kind_by_name, parse_args, platform_by_name,
    report::render_report, sampler_kind_by_name, usage, Cli,
};
use argo_core::{Argo, ArgoOptions, Error};
use argo_engine::{evaluate_confusion, Engine, EngineOptions};
use argo_graph::Dataset;
use argo_nn::Arch;
use argo_platform::{Library, ModelKind, PerfModel, SamplerKind, Setup, ICE_LAKE_8380H};
use argo_rt::{RunEvent, RunLogger, Source, Telemetry};
use argo_sample::{ClusterGcnSampler, NeighborSampler, SaintRwSampler, Sampler, ShadowSampler};
use argo_tune::{paper_num_searches, SearchSpace};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // One-line diagnostic; the full usage only for argument errors.
            eprintln!("error: {e}");
            if matches!(e, Error::InvalidArgument(_)) {
                eprintln!("\n{}", usage());
            }
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), Error> {
    let cli = parse_args(args).map_err(Error::InvalidArgument)?;
    match cli.command.as_str() {
        "train" => train(&cli),
        "simulate" => simulate(&cli),
        "report" => report(&cli),
        "top" => top(&cli),
        "space" => space(&cli),
        "info" => {
            info();
            Ok(())
        }
        "help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(Error::InvalidArgument(format!(
            "unknown subcommand '{other}'"
        ))),
    }
}

/// Builds the run's telemetry sinks: active iff any telemetry flag
/// (`--metrics-out`, `--trace-out`, `--report true`) is present. Returns
/// the handle plus whether to print the report afterwards.
fn telemetry_for(cli: &Cli, source: Source) -> Result<(Telemetry, bool), Error> {
    let want_report = cli.get_bool("report").map_err(Error::InvalidArgument)?;
    // Reject an unwritable --metrics-out/--trace-out destination up front,
    // before the (potentially long) run produces events it cannot flush.
    for key in ["metrics-out", "trace-out"] {
        if let Some(path) = cli.options.get(key) {
            if path.is_empty() {
                return Err(Error::InvalidArgument(format!("--{key} needs a file path")));
            }
            let parent = std::path::Path::new(path).parent();
            if let Some(dir) = parent.filter(|d| !d.as_os_str().is_empty()) {
                if !dir.is_dir() {
                    return Err(Error::InvalidArgument(format!(
                        "--{key} {path}: directory {} does not exist",
                        dir.display()
                    )));
                }
            }
        }
    }
    let active = want_report
        || cli.options.contains_key("metrics-out")
        || cli.options.contains_key("trace-out");
    let tel = if active {
        Telemetry::with_source(source)
    } else {
        Telemetry::disabled()
    };
    Ok((tel, want_report))
}

/// Writes the `--metrics-out` JSONL and `--trace-out` Chrome-trace files
/// and prints the report when requested.
fn flush_telemetry(cli: &Cli, tel: &Telemetry, want_report: bool) -> Result<(), Error> {
    if let Some(path) = cli.options.get("metrics-out") {
        std::fs::write(path, tel.logger.to_jsonl())
            .map_err(|e| Error::Io(format!("write {path}: {e}")))?;
        println!("wrote {} events to {path}", tel.logger.len());
    }
    if let Some(path) = cli.options.get("trace-out") {
        std::fs::write(path, tel.trace.to_chrome_json())
            .map_err(|e| Error::Io(format!("write {path}: {e}")))?;
        println!(
            "wrote {} trace events to {path} (open in chrome://tracing or ui.perfetto.dev)",
            tel.trace.events().len()
        );
    }
    if want_report {
        let events: Vec<_> = tel
            .logger
            .events()
            .into_iter()
            .map(|(ts, e)| (e, ts, tel.logger.source()))
            .collect();
        print!("\n{}", render_report(&events, Some(tel)));
    }
    Ok(())
}

/// `argo top` — compact live view of the most recent epoch in a metrics
/// JSONL. Re-reads the file every `--refresh` seconds for `--frames`
/// iterations, so it can watch a run that is appending with `--metrics-out`.
fn top(cli: &Cli) -> Result<(), Error> {
    let path = cli.options.get("metrics").ok_or_else(|| {
        Error::InvalidArgument(
            "top needs --metrics FILE (a JSONL written with --metrics-out)".into(),
        )
    })?;
    let refresh: f64 = cli.get_num("refresh", 2.0)?;
    let frames: usize = cli.get_num("frames", 1)?;
    for frame in 0..frames.max(1) {
        if frame > 0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(refresh.clamp(0.1, 60.0)));
            // ANSI clear + home so successive frames overwrite in place.
            print!("\x1b[2J\x1b[H");
        }
        // A file that does not exist yet (run not started) or a torn tail
        // line renders as "waiting" rather than an error.
        let events = std::fs::read_to_string(path)
            .ok()
            .and_then(|text| RunLogger::parse_jsonl(&text).ok())
            .unwrap_or_default();
        print!("{}", render_top(&events));
    }
    Ok(())
}

/// One-screen live view of a run's most recent telemetry, rendered from the
/// structured events (`argo top --metrics run.jsonl` re-reads and re-renders
/// the file as the run appends to it).
fn render_top(events: &[(RunEvent, f64, Source)]) -> String {
    let mut out = String::new();
    let mut last_epoch: Option<(u64, &argo_rt::EpochRecord)> = None;
    let mut last_cp: Option<&Vec<(String, f64)>> = None;
    let mut last_bytes: Option<&argo_rt::BytesRecord> = None;
    let mut last_cache: Option<&argo_rt::CacheSummaryRecord> = None;
    let mut last_trial: Option<&argo_rt::TrialRecord> = None;
    let mut last_check: Option<(&String, &String)> = None;
    let mut modeled = false;
    for (e, _, s) in events {
        modeled |= *s == Source::Modeled;
        match e {
            RunEvent::EpochEnd { epoch, record, .. } => last_epoch = Some((*epoch, record)),
            RunEvent::CriticalPath { fractions, .. } => last_cp = Some(fractions),
            RunEvent::BytesSummary { record, .. } => last_bytes = Some(record),
            RunEvent::CacheSummary { summary, .. } => last_cache = Some(summary),
            RunEvent::TunerTrial(t) => last_trial = Some(t),
            RunEvent::BottleneckCheck {
                predicted,
                measured,
                ..
            } => last_check = Some((predicted, measured)),
            _ => {}
        }
    }
    let Some((epoch, r)) = last_epoch else {
        return "argo top — waiting for events…\n".to_string();
    };
    out.push_str(&format!(
        "argo top — epoch {epoch}{}\n",
        if modeled { " (modeled)" } else { "" }
    ));
    out.push_str(&format!(
        "  epoch: {:.3}s, loss {:.4}, acc {:.3}, {} iterations, {} edges\n",
        r.epoch_time, r.loss, r.train_accuracy, r.iterations, r.edges
    ));
    if let Some(fractions) = last_cp {
        let mut sorted: Vec<&(String, f64)> = fractions.iter().filter(|(_, f)| *f > 0.0).collect();
        sorted.sort_by(|a, b| b.1.total_cmp(&a.1));
        let parts: Vec<String> = sorted
            .iter()
            .map(|(s, f)| format!("{s} {:.0}%", f * 100.0))
            .collect();
        out.push_str(&format!("  critical path: {}\n", parts.join(" | ")));
    }
    if let Some(b) = last_bytes {
        out.push_str(&format!(
            "  bytes/batch: {:.1} KB metadata, {:.1} MB cache-served, {} scratch allocs\n",
            b.metadata_bytes_per_batch() / 1e3,
            b.cache_bytes as f64 / 1e6,
            b.scratch_allocs
        ));
    }
    if let Some(c) = last_cache {
        out.push_str(&format!(
            "  cache: hit rate {:.1}%, {} / {} rows resident\n",
            c.hit_rate() * 100.0,
            c.resident_rows,
            c.capacity_rows
        ));
    }
    if let Some((predicted, measured)) = last_check {
        out.push_str(&format!(
            "  bottleneck: predicted {predicted}, measured {measured} ({})\n",
            if predicted == measured {
                "agree"
            } else {
                "DISAGREE"
            }
        ));
    }
    if let Some(t) = last_trial {
        out.push_str(&format!(
            "  tuner: trial {} — best {:.3}s at {}\n",
            t.trial, t.best_epoch_time, t.best_config
        ));
    }
    out
}

fn report(cli: &Cli) -> Result<(), Error> {
    let path = cli.options.get("metrics").ok_or_else(|| {
        Error::InvalidArgument(
            "report needs --metrics FILE (a JSONL written with --metrics-out)".into(),
        )
    })?;
    let text = std::fs::read_to_string(path).map_err(|e| Error::Io(format!("read {path}: {e}")))?;
    let events = RunLogger::parse_jsonl(&text)?;
    print!("{}", render_report(&events, None));
    Ok(())
}

fn load_or_synthesize(cli: &Cli) -> Result<Arc<Dataset>, Error> {
    if let Some(path) = cli.options.get("load") {
        let mut f =
            std::fs::File::open(path).map_err(|e| Error::Io(format!("open {path}: {e}")))?;
        let d = argo_graph::io::read_dataset(&mut f)
            .map_err(|e| Error::Io(format!("read {path}: {e}")))?;
        return Ok(Arc::new(d));
    }
    let spec = dataset_by_name(cli.get("dataset", "flickr"))?;
    let scale: f64 = cli.get_num("scale", 0.02)?;
    let seed: u64 = cli.get_num("seed", 0)?;
    Ok(Arc::new(spec.synthesize(scale, seed)))
}

fn train(cli: &Cli) -> Result<(), Error> {
    // Validate telemetry flags before the (potentially long) run starts.
    let (tel, want_report) = telemetry_for(cli, Source::Measured)?;
    let dataset = load_or_synthesize(cli)?;
    if let Some(path) = cli.options.get("save") {
        let mut f =
            std::fs::File::create(path).map_err(|e| Error::Io(format!("create {path}: {e}")))?;
        argo_graph::io::write_dataset(&mut f, &dataset)
            .map_err(|e| Error::Io(format!("write: {e}")))?;
        println!("saved dataset to {path}");
    }
    let layers: usize = cli.get_num("layers", 2)?;
    let sampler: Arc<dyn Sampler> = match cli.get("sampler", "neighbor") {
        "neighbor" => Arc::new(NeighborSampler::new(
            vec![10, 5, 5][..layers.min(3)].to_vec(),
        )),
        "shadow" => Arc::new(ShadowSampler::new(vec![10, 5], layers)),
        "saint" => Arc::new(SaintRwSampler::new(3, layers)),
        "cluster" => Arc::new(ClusterGcnSampler::new(&dataset.graph, 32, layers)),
        other => return Err(Error::InvalidArgument(format!("unknown sampler '{other}'"))),
    };
    let arch = match cli.get("model", "sage") {
        "sage" | "graphsage" => Arch::Sage,
        "gcn" => Arch::Gcn,
        other => return Err(Error::InvalidArgument(format!("unknown model '{other}'"))),
    };
    let epochs: usize = cli.get_num("epochs", 20)?;
    let n_search: usize = cli.get_num("n-search", 5)?;
    let cache_rows: usize = cli
        .get_num("cache-rows", 0)
        .map_err(Error::InvalidArgument)?;
    let mut engine = Engine::new(
        Arc::clone(&dataset),
        sampler,
        EngineOptions::builder()
            .with_kind(arch)
            .with_hidden(cli.get_num("hidden", 64)?)
            .with_num_layers(layers)
            .with_global_batch(cli.get_num("batch", 512)?)
            .with_lr(cli.get_num("lr", 3e-3)?)
            .with_seed(cli.get_num("seed", 0)?)
            .with_cache_capacity(cache_rows),
    );
    println!(
        "training {} on {} ({} nodes, {} classes) for {epochs} epochs, {n_search} searches",
        arch.name(),
        dataset.spec.name,
        dataset.graph.num_nodes(),
        dataset.num_classes
    );
    let mut runtime = Argo::new(ArgoOptions {
        n_search: n_search.max(1),
        epochs: epochs.max(n_search.max(1)),
        ..Default::default()
    });
    // During the search phase, cross-check the measured critical path
    // against the stage the analytic model predicts to be binding (the
    // `bottleneck_check` events rendered by `argo report`).
    let audit_model = PerfModel::new(Setup {
        platform: ICE_LAKE_8380H,
        library: Library::Dgl,
        sampler: match cli.get("sampler", "neighbor") {
            "shadow" => SamplerKind::Shadow,
            _ => SamplerKind::Neighbor,
        },
        model: match cli.get("model", "sage") {
            "gcn" => ModelKind::Gcn,
            _ => ModelKind::Sage,
        },
        dataset: dataset.spec,
    });
    let tel_opt = if tel.is_enabled() { Some(&tel) } else { None };
    let report = runtime.train_audited(
        &mut engine,
        &audit_model,
        tel_opt,
        |epoch, config, stats| {
            println!(
                "epoch {epoch:>3} {config}: {:.3}s loss {:.4} acc {:.3}",
                stats.epoch_time, stats.loss, stats.train_accuracy
            );
        },
    );
    println!(
        "\nselected {} (space: {} configs)",
        report.config_opt, report.space_size
    );
    println!("total time {:.2}s (tuning included)", report.total_time);
    // Final metrics on the validation split.
    let model = engine.model();
    let cm = evaluate_confusion(&model, &dataset, &dataset.val_nodes);
    println!(
        "validation: accuracy {:.3}, macro-F1 {:.3}, micro-F1 {:.3} (n={})",
        cm.accuracy(),
        cm.macro_f1(),
        cm.micro_f1(),
        dataset.val_nodes.len()
    );
    flush_telemetry(cli, &tel, want_report)?;
    Ok(())
}

fn simulate(cli: &Cli) -> Result<(), Error> {
    // Validate telemetry flags before the (potentially long) run starts.
    let (tel, want_report) = telemetry_for(cli, Source::Modeled)?;
    let platform = platform_by_name(cli.get("platform", "icelake"))?;
    let library = library_by_name(cli.get("library", "dgl"))?;
    let sampler = sampler_kind_by_name(cli.get("sampler", "neighbor"))?;
    let model = model_kind_by_name(cli.get("model", "sage"))?;
    let dataset = dataset_by_name(cli.get("dataset", "products"))?;
    let m = PerfModel::new(Setup {
        platform,
        library,
        sampler,
        model,
        dataset,
    });
    println!(
        "task: {} on {} ({})",
        m.setup().label(),
        platform.name,
        library.name()
    );
    let (best_cfg, best) = m.argo_best_epoch_time(platform.total_cores);
    let default = m.epoch_time(m.default_config());
    println!(
        "  default setup    : {:.2}s/epoch at {}",
        default,
        m.default_config()
    );
    println!("  exhaustive best  : {best:.2}s/epoch at {best_cfg}");
    let n_search = paper_num_searches(
        platform.total_cores,
        matches!(sampler, argo_platform::SamplerKind::Shadow),
    );
    let mut runtime = Argo::new(ArgoOptions {
        n_search,
        epochs: 200,
        total_cores: platform.total_cores,
        seed: cli.get_num("seed", 0)?,
    });
    let tel_opt = if tel.is_enabled() { Some(&tel) } else { None };
    let report = runtime.run_modeled(&m, tel_opt);
    println!(
        "  auto-tuner       : {:.2}s/epoch at {} ({} searches, {:.2}x of optimal)",
        report.best_epoch_time,
        report.config_opt,
        n_search,
        best / report.best_epoch_time
    );
    println!(
        "  200-epoch total  : default {:.0}s vs ARGO {:.0}s ({:.2}x speedup)",
        200.0 * default,
        report.total_time,
        200.0 * default / report.total_time
    );
    flush_telemetry(cli, &tel, want_report)?;
    Ok(())
}

fn space(cli: &Cli) -> Result<(), Error> {
    let cores: usize = cli.get_num("cores", argo_rt::num_available_cores().max(4))?;
    check_space_cores(cores)?;
    let space = SearchSpace::for_cores(cores);
    println!(
        "design space for {cores} cores: {} configurations",
        space.len()
    );
    println!("  processes 2..8, sampling cores 1..4, training cores 1..(cores/p − s)");
    let show = 8.min(space.len());
    for i in 0..show {
        println!("  {}", space.get(i));
    }
    if space.len() > show {
        println!("  … {} more", space.len() - show);
    }
    Ok(())
}

/// `SearchSpace::for_cores` panics on a machine with no valid configuration;
/// `--cores` is outside input, so it is checked here first.
fn check_space_cores(cores: usize) -> Result<(), Error> {
    if argo_rt::enumerate_space(cores).is_empty() {
        return Err(Error::InvalidArgument(format!(
            "--cores {cores}: the design space needs at least 4 cores \
             (2 processes x (1 sampling + 1 training core))"
        )));
    }
    Ok(())
}

fn info() {
    println!("datasets (paper Table III):");
    for s in argo_graph::datasets::ALL_SPECS {
        println!(
            "  {:<16} |V|={:<11} |E|={:<13} f0={:<4} classes={}",
            s.name, s.num_nodes, s.num_edges, s.f0, s.f2
        );
    }
    println!("\nplatforms (paper Table II):");
    for p in [
        argo_platform::ICE_LAKE_8380H,
        argo_platform::SAPPHIRE_RAPIDS_6430L,
    ] {
        println!(
            "  {:<34} {} sockets, {} cores, {} GB/s peak",
            p.name, p.sockets, p.total_cores, p.peak_bw_gbs
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo_rt::{BytesRecord, Config, EpochRecord};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn space_rejects_machines_with_an_empty_design_space() {
        for cores in 0..4 {
            match run(&argv(&format!("space --cores {cores}"))) {
                Err(Error::InvalidArgument(msg)) => {
                    assert!(msg.contains(&format!("--cores {cores}")), "{msg}")
                }
                other => panic!("--cores {cores}: expected InvalidArgument, got {other:?}"),
            }
        }
        assert!(run(&argv("space --cores 4")).is_ok());
    }

    #[test]
    fn unknown_flags_and_subcommands_are_invalid_arguments() {
        for args in ["train --metric-out run.jsonl", "info --verbose 1", "tune"] {
            match run(&argv(args)) {
                Err(Error::InvalidArgument(_)) => {}
                other => panic!("{args}: expected InvalidArgument, got {other:?}"),
            }
        }
        // GCN and GraphSAGE are the models: `--heads` is no flag of `train`
        // (the error names the ones it takes) and `gat` no model name.
        match run(&argv("train --heads 2")) {
            Err(Error::InvalidArgument(msg)) => {
                assert!(msg.contains("--heads"), "{msg}");
                for flag in argo_cli::accepted_flags("train").expect("known subcommand") {
                    assert!(msg.contains(&format!("--{flag}")), "{msg}");
                }
            }
            other => panic!("--heads: expected InvalidArgument, got {other:?}"),
        }
        match run(&argv("train --scale 0.001 --model gat")) {
            Err(Error::InvalidArgument(msg)) => {
                assert!(msg.contains("unknown model 'gat'"), "{msg}")
            }
            other => panic!("--model gat: expected InvalidArgument, got {other:?}"),
        }
    }

    #[test]
    fn top_renders_latest_state() {
        let c = Config::new(2, 1, 2);
        let mk = |e: RunEvent| (e, 0.0, Source::Measured);
        let events = vec![
            mk(RunEvent::EpochEnd {
                epoch: 0,
                config: c,
                record: EpochRecord {
                    epoch_time: 2.0,
                    loss: 0.9,
                    train_accuracy: 0.5,
                    iterations: 4,
                    minibatches: 8,
                    edges: 100,
                    sync_time: 0.1,
                },
            }),
            mk(RunEvent::CriticalPath {
                epoch: 1,
                fractions: vec![("compute".to_string(), 0.7), ("heap_wait".to_string(), 0.3)],
                spans: 10,
                dropped: 0,
            }),
            mk(RunEvent::BytesSummary {
                epoch: 1,
                record: BytesRecord {
                    batches: 4,
                    metadata_bytes: 8_000,
                    cache_bytes: 0,
                    scratch_allocs: 2,
                },
            }),
            mk(RunEvent::BottleneckCheck {
                epoch: 1,
                config: c,
                predicted: "compute".to_string(),
                measured: "compute".to_string(),
            }),
            mk(RunEvent::EpochEnd {
                epoch: 1,
                config: c,
                record: EpochRecord {
                    epoch_time: 1.5,
                    loss: 0.7,
                    train_accuracy: 0.6,
                    iterations: 4,
                    minibatches: 8,
                    edges: 100,
                    sync_time: 0.1,
                },
            }),
        ];
        let text = render_top(&events);
        assert!(text.contains("epoch 1"), "{text}");
        assert!(text.contains("1.500s"), "{text}");
        assert!(text.contains("compute 70% | heap_wait 30%"), "{text}");
        assert!(text.contains("2.0 KB metadata"), "{text}");
        assert!(text.contains("2 scratch allocs"), "{text}");
        assert!(
            text.contains("predicted compute, measured compute (agree)"),
            "{text}"
        );
        assert!(render_top(&[]).contains("waiting for events"));
    }
}
