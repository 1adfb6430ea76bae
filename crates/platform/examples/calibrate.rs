//! Calibration dashboard: prints modeled epoch times next to the paper's
//! Table IV/V values plus the Figure 1/8 scaling curves, so the platform
//! model's coefficients can be tuned against the published numbers. The
//! paper rows come from `argo_platform::calibration` (one source of truth,
//! shared with the table benches); setups are built with
//! `PerfModel::builder()`.

use argo_graph::datasets::OGBN_PRODUCTS;
use argo_platform::{table4_dgl, table5_pyg, Library, ModelKind, PerfModel, SamplerKind};

fn main() {
    println!(
        "{:<26} {:<34} {:>9} {:>9} {:>6} | {:>7} {:>7} | best",
        "platform", "task", "paper(s)", "model(s)", "ratio", "pap d\u{d7}", "mod d\u{d7}"
    );
    for row in table4_dgl().into_iter().chain(table5_pyg()) {
        let m = PerfModel::new(row.setup());
        let (best, t) = m.argo_best_epoch_time(row.platform.total_cores);
        let def = m.epoch_time(m.default_config());
        let paper = row
            .exhaustive_s
            .map_or_else(|| "      --".into(), |s| format!("{s:>8.2}"));
        let ratio = row
            .exhaustive_s
            .map_or_else(|| "    --".into(), |s| format!("{:>6.2}", t / s));
        println!(
            "{:<26} {:<34} {paper:>9} {t:>9.2} {ratio:>6} | {:>7.2} {:>7.2} | {best}",
            row.platform.name,
            m.setup().label(),
            row.default_x,
            def / t,
        );
    }

    // Figure 1/8 baseline scaling (DGL Neighbor-SAGE products, Ice Lake).
    let m = PerfModel::builder()
        .with_library(Library::Dgl)
        .with_sampler(SamplerKind::Neighbor)
        .with_model(ModelKind::Sage)
        .with_dataset(OGBN_PRODUCTS)
        .build();
    println!("\nbaseline scaling (normalized to 4 cores): cores -> speedup (paper: flat after 16)");
    let t4 = m.baseline_epoch_time(4);
    for cores in [4usize, 8, 16, 32, 64, 112] {
        let (bc, ta) = m.argo_best_epoch_time(cores);
        println!(
            "  {:>3} cores: baseline {:>5.2}x  argo {:>5.2}x  (argo best {})",
            cores,
            t4 / m.baseline_epoch_time(cores),
            t4 / ta,
            bc
        );
    }
}
