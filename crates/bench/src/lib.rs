//! # argo-bench — the experiment harness
//!
//! One bench target per table/figure of the paper's evaluation (run with
//! `cargo bench --bench <name>`, or all of them with `cargo bench`). Each
//! prints the rows/series of its exhibit; EXPERIMENTS.md records paper-vs-
//! measured values.
//!
//! This library holds the shared task definitions, and the provenance the
//! micro-benchmarks write into their `BENCH_*.json` baselines.

#![forbid(unsafe_code)]

use argo_graph::datasets::{DatasetSpec, FLICKR, OGBN_PAPERS100M, OGBN_PRODUCTS, REDDIT};
use argo_platform::{
    Library, ModelKind, PerfModel, PlatformSpec, SamplerKind, Setup, ICE_LAKE_8380H,
    SAPPHIRE_RAPIDS_6430L,
};
use argo_rt::json::Json;

/// The four paper datasets in Table III order.
pub const DATASETS: [DatasetSpec; 4] = [FLICKR, REDDIT, OGBN_PRODUCTS, OGBN_PAPERS100M];

/// The two sampler-model pairings the paper evaluates.
pub const SAMPLER_MODELS: [(SamplerKind, ModelKind); 2] = [
    (SamplerKind::Neighbor, ModelKind::Sage),
    (SamplerKind::Shadow, ModelKind::Gcn),
];

/// The two platforms of Table II.
pub const PLATFORMS: [PlatformSpec; 2] = [ICE_LAKE_8380H, SAPPHIRE_RAPIDS_6430L];

/// Short platform tag used in printed tables.
pub fn platform_tag(p: &PlatformSpec) -> &'static str {
    if p.total_cores >= 100 {
        "Ice Lake 8380H"
    } else {
        "Sapphire Rapids 6430L"
    }
}

/// All 16 rows of Table IV/V for one library, in paper order.
pub fn table_rows(library: Library) -> Vec<PerfModel> {
    let mut out = Vec::new();
    for platform in PLATFORMS {
        for (sampler, model) in SAMPLER_MODELS {
            for dataset in DATASETS {
                out.push(PerfModel::new(Setup {
                    platform,
                    library,
                    sampler,
                    model,
                    dataset,
                }));
            }
        }
    }
    out
}

/// Prints Figure 10/11 — overall 200-epoch training time, library default
/// vs. ARGO (auto-tuning overhead and sub-optimal search epochs included),
/// for every task on both platforms.
pub fn overall_performance(library: Library) {
    use argo_core::{Argo, ArgoOptions};
    println!(
        "=== Figure {}: overall training time (200 epochs), {} vs {}+ARGO ===\n",
        if library == Library::Dgl { 10 } else { 11 },
        library.name(),
        library.name()
    );
    let mut max_speedup: f64 = 0.0;
    for platform in PLATFORMS {
        println!("-- {} --", platform_tag(&platform));
        println!(
            "{:<15} {:<16} {:>12} {:>12} {:>9}  ARGO config",
            "task", "dataset", "default (s)", "ARGO (s)", "speedup"
        );
        for (sampler, model) in SAMPLER_MODELS {
            for dataset in DATASETS {
                let m = PerfModel::new(Setup {
                    platform,
                    library,
                    sampler,
                    model,
                    dataset,
                });
                let n_search = argo_tune::paper_num_searches(
                    platform.total_cores,
                    matches!(sampler, SamplerKind::Shadow),
                );
                let default_total = 200.0 * m.epoch_time(m.default_config());
                let mut argo = Argo::new(ArgoOptions {
                    n_search,
                    epochs: 200,
                    total_cores: platform.total_cores,
                    seed: 7,
                });
                let report = argo.run_modeled(&m, None);
                let speedup = default_total / report.total_time;
                max_speedup = max_speedup.max(speedup);
                println!(
                    "{:<15} {:<16} {:>12.1} {:>12.1} {:>8.2}x  {}",
                    format!("{}-{}", sampler.name(), model.name()),
                    dataset.name,
                    default_total,
                    report.total_time,
                    speedup,
                    report.config_opt
                );
            }
        }
        println!();
    }
    println!(
        "max speedup: {max_speedup:.2}x (paper: up to 5.06x for ShaDow-GCN, 2.65x for Neighbor-SAGE)"
    );
}

/// Prints Table IV (DGL) or Table V (PyG) — epoch time of the configuration
/// found by Exhaustive / Default / Simulated Annealing / Auto-Tuner, with
/// the parenthesized value normalized to the exhaustive optimum. Random
/// algorithms are averaged over five seeded runs on the noisy objective,
/// exactly as the paper averages five experiment runs.
pub fn search_quality_table(library: Library) {
    use argo_tune::{BayesOpt, SearchSpace, Searcher, SimulatedAnnealing};
    println!(
        "=== Table {}: epoch time (sec) of the configuration found ({}) ===\n",
        if library == Library::Dgl { "IV" } else { "V" },
        library.name()
    );
    const RUNS: u64 = 5;
    for platform in PLATFORMS {
        println!("-- {} --", platform_tag(&platform));
        println!(
            "{:<15} {:<16} {:>11} {:>15} {:>22} {:>16}",
            "sampler-model", "dataset", "Exhaustive", "Default", "Sim. Anneal.", "Auto-Tuner"
        );
        for (sampler, model) in SAMPLER_MODELS {
            for dataset in DATASETS {
                let m = PerfModel::new(Setup {
                    platform,
                    library,
                    sampler,
                    model,
                    dataset,
                });
                let budget = argo_tune::paper_num_searches(
                    platform.total_cores,
                    matches!(sampler, SamplerKind::Shadow),
                );
                let space = SearchSpace::for_cores(platform.total_cores);
                // Exhaustive: true optimum of the deterministic surface.
                let exhaustive = m.argo_best_epoch_time(platform.total_cores).1;
                let default = m.epoch_time(m.default_config());
                // Baselines search the noisy surface, then the found config
                // is re-measured on the deterministic surface (the paper
                // reports the epoch time of the *found configuration*).
                let run_searcher = |mut s: Box<dyn Searcher>, seed: u64| -> f64 {
                    for i in 0..budget {
                        let c = s.suggest();
                        s.observe(c, m.epoch_time_noisy(c, seed.wrapping_mul(1000) + i as u64));
                    }
                    m.epoch_time(s.best().unwrap().0)
                };
                let sa: Vec<f64> = (0..RUNS)
                    .map(|seed| {
                        run_searcher(Box::new(SimulatedAnnealing::new(space.clone(), seed)), seed)
                    })
                    .collect();
                let bo: Vec<f64> = (0..RUNS)
                    .map(|seed| {
                        run_searcher(Box::new(BayesOpt::new(space.clone(), seed)), seed + 100)
                    })
                    .collect();
                let (sa_m, sa_s) = mean_std(&sa);
                let (bo_m, _) = mean_std(&bo);
                println!(
                    "{:<15} {:<16} {:>8.2}(1x) {:>8.2} ({:.2}x) {:>10.2}±{:<4.2} ({:.2}x) {:>8.2} ({:.2}x)",
                    format!("{}-{}", sampler.name(), model.name()),
                    dataset.name,
                    exhaustive,
                    default,
                    exhaustive / default,
                    sa_m,
                    sa_s,
                    exhaustive / sa_m,
                    bo_m,
                    exhaustive / bo_m,
                );
            }
        }
        println!();
    }
    println!("(x) = speed of the found configuration relative to the exhaustive optimum;");
    println!("the auto-tuner stays >=0.9x everywhere while exploring ~5% of the space.");
}

/// Renders a unit-interval value as a short ASCII bar.
pub fn bar(frac: f64, width: usize) -> String {
    let filled = ((frac.clamp(0.0, 1.0)) * width as f64).round() as usize;
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled { '#' } else { '.' });
    }
    s
}

/// Mean and standard deviation of a sample.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    let n = xs.len().max(1) as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Where the numbers come from: the commit (`git rev-parse --short HEAD`,
/// `"unknown"` outside a checkout), `rustc --version`, the CPU model named
/// in `/proc/cpuinfo`, the vCPU count, the UTC date of the run (`date -u
/// +%F`), and that they are measured, not modeled.
pub fn provenance(vcpus: usize) -> Json {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj(vec![
        (
            "commit",
            Json::str(&run("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", Json::str(&run("rustc", &["--version"]))),
        ("cpu_model", Json::str(&cpu_model)),
        ("vcpus", Json::Num(vcpus as f64)),
        ("date", Json::str(&run("date", &["-u", "+%F"]))),
        ("measured", Json::Bool(true)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_rows_per_library() {
        assert_eq!(table_rows(Library::Dgl).len(), 16);
        assert_eq!(table_rows(Library::Pyg).len(), 16);
    }

    #[test]
    fn bar_renders() {
        assert_eq!(bar(0.5, 4), "##..");
        assert_eq!(bar(2.0, 3), "###");
        assert_eq!(bar(-1.0, 3), "...");
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0]);
        assert!((m - 3.0).abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
    }
}
