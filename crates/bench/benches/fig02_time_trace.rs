//! **Figure 2** — time-trace of (A) a single GNN training process and
//! (B) two processes in parallel, on a real (scaled-down) training run.
//! With two processes, the memory-intensive phases (sampling/gather) of one
//! process overlap the compute phases of the other.

use std::sync::Arc;

use argo_engine::{Engine, EngineOptions};
use argo_graph::datasets::OGBN_PRODUCTS;
use argo_rt::{Config, Stage, Telemetry, TraceRecorder};
use argo_sample::NeighborSampler;

fn run_trace(n_proc: usize) -> (Arc<TraceRecorder>, f64) {
    let dataset = Arc::new(OGBN_PRODUCTS.synthesize(0.002, 7));
    let sampler: Arc<dyn argo_sample::Sampler> = Arc::new(NeighborSampler::new(vec![10, 5]));
    let mut engine = Engine::new(
        dataset,
        sampler,
        EngineOptions {
            hidden: 32,
            num_layers: 2,
            global_batch: 256,
            total_cores: 2 * n_proc.max(2),
            seed: 1,
            ..Default::default()
        },
    );
    let tel = Telemetry::new();
    let stats = engine.train_epoch(Config::new(n_proc, 1, 1), Some(&tel));
    (tel.trace, stats.epoch_time)
}

fn render(trace: &TraceRecorder, horizon: f64, n_proc: usize) {
    const COLS: usize = 96;
    for p in 0..n_proc {
        for stage in Stage::ALL {
            let mut row = vec!['.'; COLS];
            for ev in trace.events() {
                if ev.process != p || ev.stage != stage {
                    continue;
                }
                let lo = ((ev.start / horizon) * COLS as f64) as usize;
                let hi = (((ev.end / horizon) * COLS as f64).ceil() as usize).min(COLS);
                let ch = match stage {
                    Stage::Sample => 's',
                    Stage::Gather => 'g',
                    Stage::Compute => 'C',
                    Stage::Sync => '|',
                };
                for c in row.iter_mut().take(hi.max(lo + 1).min(COLS)).skip(lo) {
                    *c = ch;
                }
            }
            println!(
                "  P{p} {:>7}: {}",
                stage.label(),
                row.iter().collect::<String>()
            );
        }
    }
}

fn main() {
    println!("=== Figure 2: time-trace, single process vs two processes ===");
    println!("(s = sampling, g = gather/index_select, C = compute, | = gradient sync)\n");

    println!("(A) one GNN training process:");
    let (trace1, t1) = run_trace(1);
    render(&trace1, t1, 1);
    println!(
        "  memory/compute overlap fraction: {:.2} (single process cannot overlap)\n",
        trace1.overlap_fraction(t1)
    );

    println!("(B) two GNN training processes:");
    let (trace2, t2) = run_trace(2);
    render(&trace2, t2, 2);
    let overlap = trace2.overlap_fraction(t2);
    println!("  memory/compute overlap fraction: {overlap:.2} (communication of one process hides under computation of the other)");
    assert!(
        overlap > 0.0,
        "two processes must exhibit memory/compute overlap"
    );
    // Export the two-process trace for chrome://tracing / Perfetto.
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    if std::fs::create_dir_all(&out_dir).is_ok() {
        let path = out_dir.join("fig02_trace.json");
        if std::fs::write(&path, trace2.to_chrome_json()).is_ok() {
            println!("\n  chrome-trace written to {}", path.display());
        }
    }
}
