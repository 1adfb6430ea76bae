//! End-to-end integration: the full ARGO stack — dataset synthesis, sampling
//! pipeline, multi-process engine, gradient sync, online auto-tuning —
//! trains real models to convergence under every sampler/model pairing.

use std::sync::Arc;

use argo::core::{Argo, ArgoOptions};
use argo::engine::{evaluate_accuracy, Engine, EngineOptions};
use argo::graph::datasets::{Dataset, FLICKR, REDDIT};
use argo::nn::Arch;
use argo::sample::{NeighborSampler, Sampler, ShadowSampler};

fn tiny(seed: u64) -> Arc<Dataset> {
    Arc::new(FLICKR.synthesize(0.015, seed))
}

fn train_and_eval(kind: Arch, sampler: Arc<dyn Sampler>, dataset: Arc<Dataset>) -> (f64, f64) {
    let layers = sampler.num_layers();
    let mut engine = Engine::new(
        Arc::clone(&dataset),
        sampler,
        EngineOptions {
            kind,
            hidden: 16,
            num_layers: layers,
            global_batch: 128,
            lr: 5e-3,
            seed: 3,
            total_cores: 8,
            ..Default::default()
        },
    );
    let before = evaluate_accuracy(&engine.model(), &dataset, &dataset.val_nodes);
    let mut runtime = Argo::new(ArgoOptions {
        n_search: 3,
        epochs: 10,
        total_cores: 8,
        seed: 1,
    });
    let report = runtime.train(&mut engine, None, |_, _, _| {});
    assert!(report.total_time > 0.0);
    assert!(report.config_opt.fits(8));
    let after = evaluate_accuracy(&engine.model(), &dataset, &dataset.val_nodes);
    (before, after)
}

#[test]
fn neighbor_sage_learns() {
    let (before, after) = train_and_eval(
        Arch::Sage,
        Arc::new(NeighborSampler::new(vec![8, 4])),
        tiny(1),
    );
    assert!(after > before + 0.25, "SAGE: {before} -> {after}");
}

#[test]
fn neighbor_gcn_learns() {
    let (before, after) = train_and_eval(
        Arch::Gcn,
        Arc::new(NeighborSampler::new(vec![8, 4])),
        tiny(2),
    );
    assert!(after > before + 0.25, "GCN: {before} -> {after}");
}

#[test]
fn shadow_gcn_learns() {
    let (before, after) = train_and_eval(
        Arch::Gcn,
        Arc::new(ShadowSampler::new(vec![6, 3], 2)),
        tiny(3),
    );
    assert!(after > before + 0.25, "ShaDow-GCN: {before} -> {after}");
}

#[test]
fn shadow_sage_learns() {
    let (before, after) = train_and_eval(
        Arch::Sage,
        Arc::new(ShadowSampler::new(vec![6, 3], 2)),
        tiny(4),
    );
    assert!(after > before + 0.25, "ShaDow-SAGE: {before} -> {after}");
}

#[test]
fn three_layer_paper_model_runs() {
    // The paper's exact depth: 3-layer model with fanouts [15, 10, 5].
    let dataset = tiny(5);
    let mut engine = Engine::new(
        Arc::clone(&dataset),
        Arc::new(NeighborSampler::paper_default()),
        EngineOptions {
            hidden: 16,
            num_layers: 3,
            global_batch: 128,
            total_cores: 8,
            ..Default::default()
        },
    );
    let stats = engine.train_epoch(argo::rt::Config::new(2, 1, 2), None);
    assert!(stats.loss.is_finite());
    assert!(stats.edges > 0);
}

#[test]
fn reddit_like_density_works() {
    // Denser synthetic dataset (Reddit-like capped degree) exercises the
    // samplers under heavier neighborhoods.
    let dataset = Arc::new(REDDIT.synthesize(0.004, 6));
    assert!(dataset.graph.avg_degree() > 15.0);
    let mut engine = Engine::new(
        Arc::clone(&dataset),
        Arc::new(NeighborSampler::new(vec![10, 5])),
        EngineOptions {
            hidden: 16,
            num_layers: 2,
            global_batch: 256,
            total_cores: 8,
            ..Default::default()
        },
    );
    let s1 = engine.train_epoch(argo::rt::Config::new(2, 2, 1), None);
    let s2 = engine.train_epoch(argo::rt::Config::new(4, 1, 1), None);
    assert!(
        s2.loss < s1.loss * 1.5,
        "training must not diverge across configs"
    );
}
