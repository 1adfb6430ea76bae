//! # argo-cli — command-line front end
//!
//! `argo train` runs real auto-tuned GNN training on a synthetic dataset;
//! `argo simulate` evaluates the paper-scale platform model for one task;
//! `argo space` inspects the design space. The argument parser is a tiny
//! hand-rolled `--key value` reader (no external dependency) that checks
//! every flag against the set its subcommand declares.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::collections::HashMap;
use std::sync::Arc;

pub mod report;

use argo_core::Error;
use argo_graph::datasets::{DatasetSpec, FLICKR, OGBN_PAPERS100M, OGBN_PRODUCTS, REDDIT};
use argo_platform::{
    Library, ModelKind, PlatformSpec, SamplerKind, ICE_LAKE_8380H, SAPPHIRE_RAPIDS_6430L,
};
use argo_sample::{NeighborSampler, Sampler, ShadowSampler};

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cli {
    /// First positional argument.
    pub command: String,
    /// `--key value` pairs (keys without the leading dashes).
    pub options: HashMap<String, String>,
}

/// The flags each subcommand accepts (without the leading dashes), or
/// `None` for an unknown subcommand. [`parse_args`] rejects everything else,
/// so a typo such as `--metric-out` is an error instead of a run that
/// silently falls back to the default.
pub fn accepted_flags(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "train" => &[
            "dataset",
            "scale",
            "sampler",
            "model",
            "epochs",
            "n-search",
            "batch",
            "hidden",
            "layers",
            "lr",
            "seed",
            "save",
            "load",
            "metrics-out",
            "trace-out",
            "report",
        ],
        "simulate" => &[
            "platform",
            "library",
            "sampler",
            "model",
            "dataset",
            "seed",
            "metrics-out",
            "report",
        ],
        "report" => &["metrics"],
        "space" => &["cores"],
        "info" | "help" | "-h" => &[],
        _ => return None,
    })
}

/// Parses `args` (without the program name). Flags must be `--key value`
/// pairs the subcommand declares in [`accepted_flags`]; a missing value, an
/// unknown subcommand or an unknown flag is an error.
pub fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut it = args.iter();
    let command = it.next().cloned().ok_or("missing subcommand")?;
    if command.starts_with("--") {
        return Err(format!("expected subcommand, got flag {command}"));
    }
    let accepted =
        accepted_flags(&command).ok_or_else(|| format!("unknown subcommand '{command}'"))?;
    let mut options = HashMap::new();
    while let Some(key) = it.next() {
        let stripped = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {key}"))?;
        if !accepted.contains(&stripped) {
            return Err(if accepted.is_empty() {
                format!("unknown flag --{stripped}: `argo {command}` takes no flags")
            } else {
                format!(
                    "unknown flag --{stripped} for `argo {command}` (accepted: --{})",
                    accepted.join(", --")
                )
            });
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{stripped} needs a value"))?;
        options.insert(stripped.to_string(), value.clone());
    }
    Ok(Cli { command, options })
}

impl Cli {
    /// String option with a default.
    pub fn get<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.options.get(key).map(String::as_str).unwrap_or(default)
    }

    /// Numeric option with a default.
    pub fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse '{v}'")),
        }
    }

    /// Boolean option (`--key true|false|1|0|yes|no`), default `false`.
    pub fn get_bool(&self, key: &str) -> Result<bool, String> {
        match self.options.get(key).map(String::as_str) {
            None => Ok(false),
            Some("true" | "1" | "yes" | "on") => Ok(true),
            Some("false" | "0" | "no" | "off") => Ok(false),
            Some(v) => Err(format!("--{key}: expected true|false, got '{v}'")),
        }
    }
}

/// Resolves a dataset name.
pub fn dataset_by_name(name: &str) -> Result<DatasetSpec, String> {
    match name.to_ascii_lowercase().as_str() {
        "flickr" => Ok(FLICKR),
        "reddit" => Ok(REDDIT),
        "products" | "ogbn-products" => Ok(OGBN_PRODUCTS),
        "papers" | "papers100m" | "ogbn-papers100m" => Ok(OGBN_PAPERS100M),
        other => Err(format!(
            "unknown dataset '{other}' (expected flickr|reddit|products|papers100m)"
        )),
    }
}

/// Resolves a platform name.
pub fn platform_by_name(name: &str) -> Result<PlatformSpec, String> {
    match name.to_ascii_lowercase().as_str() {
        "icelake" | "ice-lake" | "8380h" => Ok(ICE_LAKE_8380H),
        "spr" | "sapphirerapids" | "sapphire-rapids" | "6430l" => Ok(SAPPHIRE_RAPIDS_6430L),
        other => Err(format!("unknown platform '{other}' (expected icelake|spr)")),
    }
}

/// Resolves a library name.
pub fn library_by_name(name: &str) -> Result<Library, String> {
    match name.to_ascii_lowercase().as_str() {
        "dgl" => Ok(Library::Dgl),
        "pyg" => Ok(Library::Pyg),
        other => Err(format!("unknown library '{other}' (expected dgl|pyg)")),
    }
}

/// Resolves a modeled sampler name.
pub fn sampler_kind_by_name(name: &str) -> Result<SamplerKind, String> {
    match name.to_ascii_lowercase().as_str() {
        "neighbor" => Ok(SamplerKind::Neighbor),
        "shadow" => Ok(SamplerKind::Shadow),
        other => Err(format!(
            "unknown sampler '{other}' (expected neighbor|shadow)"
        )),
    }
}

/// The sampler `argo train --sampler name --layers layers` trains with:
/// Neighbor with one fanout per layer (10, then 5s), or ShaDow `[10, 5]`
/// feeding a `layers`-deep model. Either way its depth is `layers`, the
/// depth `Engine::new` requires of it.
pub fn train_sampler(name: &str, layers: usize) -> Result<Arc<dyn Sampler>, Error> {
    if layers == 0 {
        return Err(Error::InvalidArgument("--layers must be at least 1".into()));
    }
    let kind = sampler_kind_by_name(name).map_err(Error::InvalidArgument)?;
    Ok(match kind {
        SamplerKind::Neighbor => {
            let fanouts = (0..layers).map(|l| if l == 0 { 10 } else { 5 }).collect();
            Arc::new(NeighborSampler::new(fanouts))
        }
        SamplerKind::Shadow => Arc::new(ShadowSampler::new(vec![10, 5], layers)),
    })
}

/// Resolves a modeled model name.
pub fn model_kind_by_name(name: &str) -> Result<ModelKind, String> {
    match name.to_ascii_lowercase().as_str() {
        "sage" | "graphsage" => Ok(ModelKind::Sage),
        "gcn" => Ok(ModelKind::Gcn),
        other => Err(format!("unknown model '{other}' (expected sage|gcn)")),
    }
}

/// Help text.
pub fn usage() -> &'static str {
    "argo — auto-tuning runtime for scalable GNN training (paper reproduction)

USAGE:
  argo train    [--dataset flickr] [--scale 0.02] [--sampler neighbor|shadow]
                [--model sage|gcn] [--epochs 20] [--n-search 5]
                [--batch 512] [--hidden 64] [--layers 2] [--lr 0.003] [--seed 0]
                [--save FILE] [--load FILE]
                [--metrics-out run.jsonl] [--trace-out trace.json] [--report true]
      run real auto-tuned training on a synthetic (or saved) dataset

  argo simulate [--platform icelake|spr] [--library dgl|pyg]
                [--sampler neighbor|shadow] [--model sage|gcn] [--dataset products]
                [--seed 0] [--metrics-out run.jsonl] [--report true]
      evaluate the paper-scale platform model: default vs auto-tuned vs optimal

  argo report   --metrics run.jsonl
      render a telemetry report (per-stage p50/p95/max, critical-path
      attribution, bytes/batch, bottleneck audit,
      tuner convergence) from a JSONL file written with --metrics-out

  argo space    [--cores 112]
      inspect the configuration design space (needs at least 4 cores)

  argo info
      list datasets and platforms

TELEMETRY:
  --metrics-out FILE   write structured run events (epoch_start/epoch_end,
                       stage_summary, tuner_trial, config_applied) as JSONL
  --trace-out FILE     write a Chrome-tracing JSON of stage intervals
                       (load in chrome://tracing or https://ui.perfetto.dev)
  --report true        print the telemetry report after the run"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let cli = parse_args(&argv("train --dataset reddit --epochs 30")).unwrap();
        assert_eq!(cli.command, "train");
        assert_eq!(cli.get("dataset", "flickr"), "reddit");
        assert_eq!(cli.get_num::<usize>("epochs", 0).unwrap(), 30);
        assert_eq!(cli.get_num::<usize>("n-search", 5).unwrap(), 5);
    }

    #[test]
    fn rejects_missing_value_and_bad_flag() {
        assert!(parse_args(&argv("train --dataset")).is_err());
        assert!(parse_args(&argv("train dataset reddit")).is_err());
        assert!(parse_args(&argv("--train")).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn every_subcommand_rejects_flags_it_does_not_declare() {
        for command in ["train", "simulate", "report", "space", "info", "help"] {
            let accepted = accepted_flags(command).expect("known subcommand");
            let err = parse_args(&argv(&format!("{command} --bogus 1"))).unwrap_err();
            assert!(err.contains("--bogus"), "{command}: {err}");
            // The error names what would have been accepted.
            for flag in accepted {
                assert!(err.contains(&format!("--{flag}")), "{command}: {err}");
                let ok = parse_args(&argv(&format!("{command} --{flag} 1")));
                assert!(ok.is_ok(), "{command} --{flag}: {ok:?}");
            }
        }
        // The typo that used to run a whole training with telemetry off.
        let err = parse_args(&argv("train --metric-out run.jsonl")).unwrap_err();
        assert!(
            err.contains("--metric-out") && err.contains("--metrics-out"),
            "{err}"
        );
        // A flag of another subcommand is still unknown here.
        assert!(parse_args(&argv("report --cores 8")).is_err());
        assert!(parse_args(&argv("frobnicate --cores 8"))
            .unwrap_err()
            .contains("unknown subcommand 'frobnicate'"));
    }

    #[test]
    fn rejects_bad_numbers() {
        let cli = parse_args(&argv("train --epochs abc")).unwrap();
        assert!(cli.get_num::<usize>("epochs", 1).is_err());
    }

    #[test]
    fn name_resolution() {
        assert_eq!(dataset_by_name("Products").unwrap().name, "ogbn-products");
        assert_eq!(
            dataset_by_name("papers100m").unwrap().name,
            "ogbn-papers100M"
        );
        assert!(dataset_by_name("imagenet").is_err());
        assert_eq!(platform_by_name("ICELAKE").unwrap().total_cores, 112);
        assert_eq!(platform_by_name("spr").unwrap().total_cores, 64);
        assert!(library_by_name("jax").is_err());
        assert_eq!(sampler_kind_by_name("shadow").unwrap(), SamplerKind::Shadow);
        assert_eq!(model_kind_by_name("graphsage").unwrap(), ModelKind::Sage);
    }

    #[test]
    fn train_sampler_has_the_model_depth() {
        for layers in 1..=4 {
            for name in ["neighbor", "shadow"] {
                let s = train_sampler(name, layers).unwrap();
                assert_eq!(s.num_layers(), layers, "{name} --layers {layers}");
            }
        }
        for (name, layers) in [("neighbor", 0), ("shadow", 0), ("saint", 2), ("cluster", 2)] {
            assert!(
                matches!(train_sampler(name, layers), Err(Error::InvalidArgument(_))),
                "{name} --layers {layers}"
            );
        }
    }
}
