//! Model evaluation on held-out nodes (the Figure 9 convergence experiment
//! and `argo train`'s validation report).

use argo_graph::Dataset;
use argo_nn::{ConfusionMatrix, Gnn};
use argo_rt::{SeedSequence, WorkerRing};
use argo_sample::{InputRing, NeighborSampler, PreparedInput, SampleRun, Sampler, SamplerScratch};
use argo_tensor::Matrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Seeds per evaluation batch.
const CHUNK: usize = 256;

/// Runs `model` over `nodes`, [`CHUNK`] seeds at a time, with
/// full-neighborhood aggregation (fanout = max degree, so evaluation is
/// deterministic) and hands each chunk's labels and logits to `visit`. Every
/// chunk is sampled into `scratch`, with the model's normalization fused as
/// training samples it, and runs the serving recipe: the prologue, which
/// reads layer 0 straight from the feature table, then the forward pass
/// from the first GEMM.
fn for_each_chunk(
    model: &Gnn,
    dataset: &Dataset,
    nodes: &[u32],
    scratch: &mut SamplerScratch,
    mut visit: impl FnMut(&[u32], &Matrix),
) {
    let fanout = dataset.graph.max_degree().max(1);
    let sampler = NeighborSampler::new(vec![fanout; model.num_layers()]);
    let mut rng = SmallRng::seed_from_u64(0);
    let (ring, spans) = (InputRing::new(), WorkerRing::detached());
    let mut labels = Vec::new();
    for chunk in nodes.chunks(CHUNK) {
        let run = SampleRun::new(SeedSequence::new(rng.next_u64()), scratch)
            .with_norm(model.kind().normalization());
        let batch = sampler.sample_into(&dataset.graph, chunk, run);
        let depth = model.num_layers();
        let input = PreparedInput::prepare(&batch, &dataset.features, depth, &ring, &spans, 0);
        let logits = model.forward_prepared(&batch, &input, None);
        input.recycle(&ring);
        labels.clear();
        labels.extend(chunk.iter().map(|&v| dataset.labels[v as usize]));
        visit(&labels, &logits);
    }
}

/// Accuracy of `model` on `nodes` (see [`evaluate_confusion`] for the
/// per-class view of the same pass).
pub fn evaluate_accuracy(model: &Gnn, dataset: &Dataset, nodes: &[u32]) -> f64 {
    if nodes.is_empty() {
        return 0.0;
    }
    let mut correct = 0.0f64;
    let mut scratch = SamplerScratch::new();
    for_each_chunk(model, dataset, nodes, &mut scratch, |labels, logits| {
        correct += argo_tensor::ops::accuracy(logits, labels) * labels.len() as f64;
    });
    correct / nodes.len() as f64
}

/// Confusion matrix of `model` on `nodes`.
pub fn evaluate_confusion(model: &Gnn, dataset: &Dataset, nodes: &[u32]) -> ConfusionMatrix {
    let mut cm = ConfusionMatrix::new(dataset.num_classes);
    let mut scratch = SamplerScratch::new();
    for_each_chunk(model, dataset, nodes, &mut scratch, |labels, logits| {
        cm.add_logits(logits, labels);
    });
    cm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineOptions};
    use argo_graph::datasets::FLICKR;
    use argo_nn::Arch;
    use argo_rt::Config;
    use std::sync::Arc;

    #[test]
    fn accuracy_improves_with_training() {
        let d = Arc::new(FLICKR.synthesize(0.012, 5));
        let sampler: Arc<dyn Sampler> = Arc::new(NeighborSampler::new(vec![8, 4]));
        let mut e = Engine::new(
            Arc::clone(&d),
            sampler,
            EngineOptions {
                hidden: 16,
                num_layers: 2,
                global_batch: 64,
                lr: 5e-3,
                seed: 2,
                total_cores: 4,
                ..Default::default()
            },
        );
        let before = evaluate_accuracy(&e.model(), &d, &d.val_nodes);
        for _ in 0..8 {
            e.train_epoch(Config::new(2, 1, 1), None);
        }
        let after = evaluate_accuracy(&e.model(), &d, &d.val_nodes);
        assert!(
            after > before + 0.1,
            "val accuracy {before} -> {after} shows no learning"
        );
    }

    #[test]
    fn empty_nodes_give_zero() {
        let d = FLICKR.synthesize(0.01, 5);
        let model = Gnn::new(Arch::Gcn, d.feat_dim(), 8, d.num_classes, 2, 1);
        assert_eq!(evaluate_accuracy(&model, &d, &[]), 0.0);
    }

    /// `f64::to_bits` of `evaluate_accuracy` as the gather-inside
    /// `AnyModel::forward` over `Sampler::sample` returned it at commit
    /// d25464c, on the validation split (one chunk) and the training split
    /// (two chunks, the second partial).
    #[test]
    fn accuracy_reproduces_the_recorded_bits() {
        let d = FLICKR.synthesize(0.01, 6);
        assert_eq!((d.val_nodes.len(), d.train_nodes.len()), (149, 446));
        for (arch, layers, val, train) in [
            (Arch::Sage, 2, 0x3fb9c59579fc9052u64, 0x3fbefeda1dd8f7f7u64),
            (Arch::Gcn, 3, 0x3fd0527844b98e9b, 0x3fd0a54f35f4852a),
        ] {
            let model = Gnn::new(arch, d.feat_dim(), 8, d.num_classes, layers, 3);
            let got = evaluate_accuracy(&model, &d, &d.val_nodes).to_bits();
            assert_eq!(got, val, "{arch:?} val {got:#018x}");
            let got = evaluate_accuracy(&model, &d, &d.train_nodes).to_bits();
            assert_eq!(got, train, "{arch:?} train {got:#018x}");
        }
    }

    #[test]
    fn confusion_counts_the_same_pass() {
        let d = FLICKR.synthesize(0.01, 6);
        let model = Gnn::new(Arch::Gcn, d.feat_dim(), 8, d.num_classes, 3, 3);
        let cm = evaluate_confusion(&model, &d, &d.train_nodes);
        assert_eq!(cm.total(), d.train_nodes.len());
        let acc = evaluate_accuracy(&model, &d, &d.train_nodes);
        assert!(
            (cm.accuracy() - acc).abs() < 1e-12,
            "{} vs {acc}",
            cm.accuracy()
        );
    }

    #[test]
    fn every_chunk_after_the_first_reuses_the_one_scratch() {
        let d = FLICKR.synthesize(0.01, 6);
        let model = Gnn::new(Arch::Sage, d.feat_dim(), 8, d.num_classes, 2, 3);
        let mut scratch = SamplerScratch::new();
        let mut chunks = 0;
        let mut pass = |scratch: &mut SamplerScratch| {
            for_each_chunk(&model, &d, &d.train_nodes, scratch, |_, _| chunks += 1);
        };
        pass(&mut scratch);
        let cold = scratch.allocs();
        assert!(cold > 0, "the first chunk sizes the scratch");
        pass(&mut scratch);
        assert_eq!(scratch.allocs(), cold, "a warm pass allocates nothing");
        assert_eq!(chunks, 4);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let d = FLICKR.synthesize(0.01, 6);
        let model = Gnn::new(Arch::Sage, d.feat_dim(), 8, d.num_classes, 2, 3);
        let a = evaluate_accuracy(&model, &d, &d.val_nodes);
        let b = evaluate_accuracy(&model, &d, &d.val_nodes);
        assert_eq!(a, b);
    }
}
