//! The `argo` binary. See [`argo_cli::usage`] for commands.

use std::process::ExitCode;
use std::sync::Arc;

use argo_cli::{
    dataset_by_name, library_by_name, model_kind_by_name, parse_args,
    perf::{diff_all, diff_serving, render_top, DEFAULT_TOLERANCE},
    platform_by_name,
    report::render_report,
    sampler_kind_by_name, usage, Cli,
};
use argo_core::{Argo, ArgoOptions, Error};
use argo_engine::{evaluate_accuracy, Engine, EngineOptions};
use argo_graph::Dataset;
use argo_nn::{Arch, ConfusionMatrix};
use argo_platform::{Library, ModelKind, PerfModel, SamplerKind, Setup, ICE_LAKE_8380H};
use argo_rt::{RunLogger, Source, Telemetry};
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
        "perf-diff" => perf_diff(&cli),
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

/// `argo perf-diff` — the perf-regression gate. Compares speedup ratios in
/// a fresh bench run against the committed baselines and fails (non-zero
/// exit) when any ratio falls more than the tolerance below its baseline.
fn perf_diff(cli: &Cli) -> Result<(), Error> {
    let quick = cli.get_bool("quick").map_err(Error::InvalidArgument)?;
    let tolerance: f64 = cli.get_num("tolerance", DEFAULT_TOLERANCE)?;
    if !(0.0..1.0).contains(&tolerance) {
        return Err(Error::InvalidArgument(format!(
            "--tolerance must be in [0, 1), got {tolerance}"
        )));
    }
    // Quick and full bench modes use different shapes, so ratios are only
    // comparable within a mode: quick runs diff against the committed
    // quick baselines (conservative min-of-several-runs), full runs against
    // the committed full-mode baselines. Full-mode bench runs write to the
    // full baseline paths themselves, so a non-quick diff needs explicit
    // current paths.
    let (def_base_s, def_base_k, def_base_v, def_cur_s, def_cur_k, def_cur_v) = if quick {
        (
            "BENCH_sampling.quick.json",
            "BENCH_kernels.quick.json",
            "BENCH_serving.quick.json",
            "target/BENCH_sampling.quick.json",
            "target/BENCH_kernels.quick.json",
            "target/BENCH_serving.quick.json",
        )
    } else {
        (
            "BENCH_sampling.json",
            "BENCH_kernels.json",
            "BENCH_serving.json",
            "",
            "",
            "",
        )
    };
    let base_s = cli.get("baseline-sampling", def_base_s);
    let base_k = cli.get("baseline-kernels", def_base_k);
    let base_v = cli.get("baseline-serving", def_base_v);
    let cur_s = cli.get("current-sampling", def_cur_s);
    let cur_k = cli.get("current-kernels", def_cur_k);
    let cur_v = cli.get("current-serving", def_cur_v);
    if cur_s.is_empty() || cur_k.is_empty() {
        return Err(Error::InvalidArgument(
            "perf-diff needs --quick true (compares target/BENCH_*.quick.json) or explicit \
             --current-sampling/--current-kernels paths"
                .into(),
        ));
    }
    let load = |path: &str| -> Result<argo_rt::Json, Error> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Error::Io(format!("read {path}: {e} (run the bench first)")))?;
        argo_rt::Json::parse(&text).map_err(|e| Error::Io(format!("parse {path}: {e}")))
    };
    let mut rep = diff_all(
        &load(base_s)?,
        &load(cur_s)?,
        &load(base_k)?,
        &load(cur_k)?,
        tolerance,
    );
    // The serving artifact arrived later than the training pair; tolerate a
    // missing current file (e.g. the serving bench wasn't run) with a note
    // rather than failing the whole diff.
    if !cur_v.is_empty() {
        match (load(base_v), load(cur_v)) {
            (Ok(b), Ok(c)) => rep.merge(diff_serving(&b, &c, tolerance)),
            (Err(e), _) | (_, Err(e)) => rep.notes.push(format!("serving diff skipped: {e}")),
        }
    }
    print!("{}", rep.render());
    if rep.regressions() > 0 {
        return Err(Error::Other(format!(
            "{} perf metric(s) regressed past tolerance",
            rep.regressions()
        )));
    }
    Ok(())
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
        "gat" => Arch::Gat {
            heads: cli.get_num("heads", 2)?,
        },
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
    let acc = evaluate_accuracy(&model, &dataset, &dataset.val_nodes);
    let sampler_eval = NeighborSampler::new(vec![dataset.graph.max_degree().max(1); layers]);
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
    let mut preds: Vec<u32> = Vec::new();
    let mut truth: Vec<u32> = Vec::new();
    for chunk in dataset.val_nodes.chunks(256) {
        let batch = argo_sample::Sampler::sample(&sampler_eval, &dataset.graph, chunk, &mut rng);
        let logits = model.forward(&batch, &dataset.features, None);
        for (i, &v) in chunk.iter().enumerate() {
            let row = logits.row(i);
            let mut best = 0usize;
            for (j, &x) in row.iter().enumerate() {
                if x > row[best] {
                    best = j;
                }
            }
            preds.push(best as u32);
            truth.push(dataset.labels[v as usize]);
        }
    }
    let cm = ConfusionMatrix::from_predictions(&preds, &truth, dataset.num_classes);
    println!(
        "validation: accuracy {:.3}, macro-F1 {:.3}, micro-F1 {:.3} (n={})",
        acc,
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
    }
}
