//! Sampler zoo: the paper's two mini-batch samplers, Neighbor and ShaDow,
//! side by side on one dataset — their subgraph sizes, workload, and
//! end-to-end accuracy after a short auto-tuned training run.
//!
//! Run with: `cargo run --release --example sampler_zoo`

use std::sync::Arc;

use argo::core::{Argo, ArgoOptions};
use argo::engine::{evaluate_accuracy, Engine, EngineOptions};
use argo::graph::datasets::FLICKR;
use argo::nn::Arch;
use argo::sample::{NeighborSampler, Normalization, Sampler, ShadowSampler};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let dataset = Arc::new(FLICKR.synthesize(0.02, 17));
    println!(
        "dataset: synthetic Flickr at 2% scale — {} nodes, {} edges, {} classes\n",
        dataset.graph.num_nodes(),
        dataset.graph.num_edges(),
        dataset.num_classes
    );
    let samplers: Vec<(&str, Arc<dyn Sampler>)> = vec![
        (
            "Neighbor [10,5]",
            Arc::new(NeighborSampler::new(vec![10, 5])),
        ),
        (
            "ShaDow [10,5]",
            Arc::new(ShadowSampler::new(vec![10, 5], 2)),
        ),
    ];
    println!(
        "{:<20} {:>12} {:>12} {:>10} {:>10}",
        "sampler", "edges/batch", "inputs/batch", "val acc", "time (s)"
    );
    for (name, sampler) in samplers {
        // Workload of a representative batch of 128 seeds.
        let seeds: Vec<u32> = dataset.train_nodes.iter().copied().take(128).collect();
        let rng = &mut SmallRng::seed_from_u64(1);
        let batch = sampler.sample(&dataset.graph, &seeds, Normalization::None, rng);
        let edges = batch.total_edges(2);
        let inputs = batch.input_nodes().len();
        // Short auto-tuned training run.
        let mut engine = Engine::new(
            Arc::clone(&dataset),
            Arc::clone(&sampler),
            EngineOptions {
                kind: Arch::Sage,
                hidden: 32,
                num_layers: 2,
                global_batch: 256,
                lr: 5e-3,
                seed: 2,
                ..Default::default()
            },
        );
        let mut runtime = Argo::new(ArgoOptions {
            n_search: 3,
            epochs: 10,
            ..Default::default()
        });
        let report = runtime.train(&mut engine, None, |_, _, _| {});
        let acc = evaluate_accuracy(&engine.model(), &dataset, &dataset.val_nodes);
        println!(
            "{:<20} {:>12} {:>12} {:>10.3} {:>10.2}",
            name, edges, inputs, acc, report.total_time
        );
        assert!(acc > 0.5, "{name} failed to learn");
    }
    println!("\nBoth samplers train through the same ARGO runtime; their different");
    println!("subgraph shapes are exactly why the auto-tuner must learn a per-setup model");
    println!("(paper Section V-B).");
}
