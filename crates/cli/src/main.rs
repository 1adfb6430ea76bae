//! The `argo` binary. See [`argo_cli::usage`] for commands.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::process::ExitCode;
use std::sync::Arc;

use argo_cli::{
    dataset_by_name, library_by_name, model_kind_by_name, parse_args, platform_by_name,
    report::render_report, sampler_kind_by_name, train_sampler, usage, Cli,
};
use argo_core::{Argo, ArgoOptions, Error};
use argo_engine::{evaluate_confusion, Engine, EngineOptions};
use argo_graph::Dataset;
use argo_nn::Arch;
use argo_platform::{Library, ModelKind, PerfModel, SamplerKind, Setup, ICE_LAKE_8380H};
use argo_rt::{RunLogger, Source, Telemetry};
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
    let sampler = train_sampler(cli.get("sampler", "neighbor"), layers)?;
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
        sampler: sampler_kind_by_name(cli.get("sampler", "neighbor"))
            .map_err(Error::InvalidArgument)?,
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
    let n_search = paper_num_searches(platform.total_cores, matches!(sampler, SamplerKind::Shadow));
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
        for args in [
            "train --metric-out run.jsonl",
            "info --verbose 1",
            "tune",
            "top",
        ] {
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
}
