//! Quantized inference models: a [`QuantizedGnn`] is built *after*
//! training from a [`Gnn`]'s f32 weights ([`Gnn::quantize`]) and serves
//! forward passes against bf16 or int8 weight matrices.
//!
//! Only the weights are quantized — activations, biases and the adjacency
//! stay f32, and the GEMMs dequantize weight panels on the fly inside the
//! kernel (see `argo_tensor::quant`). That bounds the accuracy delta to
//! the weight-rounding error: ≤ 2⁻⁸ relative per weight for bf16, ≤ half
//! a per-column quantization step for int8 — small enough that predicted
//! classes on the planted-community datasets agree with f32 almost
//! everywhere (pinned by this module's and `argo-serve`'s tests).
//!
//! The forward pass *is* the f32 model's (`model::Forward`): same
//! aggregation, same fused bias/ReLU epilogue, same workspace recycling,
//! same GEMM — handed a quantized weight operand instead of an f32 one.
//! There is no backward pass: quantized models are inference-only by
//! construction.

use std::borrow::Borrow;
use std::cell::RefCell;

use argo_rt::ThreadPool;
use argo_sample::batch::SampledBatch;
use argo_sample::view::SampledBatchView;
use argo_tensor::{BSrc, DispatchPolicy, Matrix, QuantKind, QuantizedMatrix, Workspace};

use crate::model::{Cascade, Forward, Gnn, GnnKind, LayerParams};

struct QuantLayer {
    w: QuantizedMatrix,
    b: Vec<f32>,
}

impl LayerParams for QuantLayer {
    fn params(&self) -> (BSrc<'_>, &[f32]) {
        ((&self.w).into(), &self.b)
    }
}

/// An inference-only GNN with post-training-quantized weights.
pub struct QuantizedGnn {
    kind: GnnKind,
    quant: QuantKind,
    layers: Vec<QuantLayer>,
    dispatch: DispatchPolicy,
    ws: RefCell<Workspace>,
    cascade: RefCell<Cascade>,
}

impl Gnn {
    /// Builds a quantized inference model from this model's trained
    /// weights. The original f32 model is untouched; the quantized copy
    /// inherits its dispatch policy.
    pub fn quantize(&self, quant: QuantKind) -> QuantizedGnn {
        let layers = (0..self.num_layers())
            .map(|l| {
                let (w, b) = self.layer_params(l);
                QuantLayer {
                    w: QuantizedMatrix::quantize(w, quant),
                    b: b.to_vec(),
                }
            })
            .collect();
        QuantizedGnn {
            kind: self.kind(),
            quant,
            layers,
            dispatch: self.dispatch(),
            ws: RefCell::new(Workspace::new()),
            cascade: RefCell::default(),
        }
    }
}

impl QuantizedGnn {
    /// Aggregation rule of the underlying model.
    pub fn kind(&self) -> GnnKind {
        self.kind
    }

    /// The weight quantization scheme.
    pub fn quant_kind(&self) -> QuantKind {
        self.quant
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total quantized weight payload in bytes (biases excluded).
    pub fn weight_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.w.payload_bytes()).sum()
    }

    fn fwd(&self) -> Forward<'_, QuantLayer> {
        Forward {
            kind: self.kind,
            layers: &self.layers,
            dispatch: self.dispatch,
            ws: &self.ws,
            cascade: &self.cascade,
        }
    }

    /// Inference forward pass over the gathered input-node feature rows;
    /// returns logits over the batch's seeds (same contract as
    /// [`Gnn::forward_gathered`]).
    pub fn forward_gathered(
        &self,
        batch: &SampledBatch,
        input: impl Borrow<Matrix>,
        pool: Option<&ThreadPool>,
    ) -> Matrix {
        self.fwd().forward_gathered(batch, input.borrow(), pool)
    }

    /// [`QuantizedGnn::forward_gathered`] over a borrowed
    /// [`SampledBatchView`]: adjacencies are consumed straight out of the
    /// sampler's batch arena with zero copies. Falls back to the owned path
    /// when the fused normalization does not match this model.
    pub fn forward_gathered_view(
        &self,
        batch: &SampledBatchView<'_>,
        input: impl Borrow<Matrix>,
        pool: Option<&ThreadPool>,
    ) -> Matrix {
        self.fwd()
            .forward_gathered_view(batch, input.borrow(), pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gathered;
    use argo_graph::datasets::FLICKR;
    use argo_sample::{NeighborSampler, Sampler};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tiny_dataset() -> argo_graph::Dataset {
        FLICKR.synthesize(0.01, 11)
    }

    fn sample_blocks(d: &argo_graph::Dataset, n: usize, layers: usize) -> SampledBatch {
        let s = NeighborSampler::new(vec![5; layers]);
        let seeds: Vec<u32> = d.train_nodes.iter().copied().take(n).collect();
        s.sample(&d.graph, &seeds, &mut SmallRng::seed_from_u64(3))
    }

    /// Relative Frobenius distance between quantized and f32 logits.
    fn rel_delta(q: &Matrix, f: &Matrix) -> f32 {
        let num: f32 = q
            .data()
            .iter()
            .zip(f.data())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        let den: f32 = f.data().iter().map(|x| x * x).sum::<f32>().sqrt();
        num / den.max(1e-12)
    }

    fn argmax_agreement(q: &Matrix, f: &Matrix) -> f64 {
        let argmax = |m: &Matrix, r: usize| {
            m.row(r)
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                .map(|(i, _)| i)
                .expect("non-empty row")
        };
        let same = (0..q.rows())
            .filter(|&r| argmax(q, r) == argmax(f, r))
            .count();
        same as f64 / q.rows() as f64
    }

    #[test]
    fn quantized_forward_tracks_f32_on_planted_communities() {
        let d = tiny_dataset();
        for kind in [GnnKind::Gcn, GnnKind::Sage] {
            let model = Gnn::new(kind, d.feat_dim(), 16, d.num_classes, 2, 1);
            let batch = sample_blocks(&d, 32, 2);
            let f32_logits =
                model.forward_gathered(&batch, gathered(&d.features, batch.input_nodes()), None);
            for (quant, max_delta) in [(QuantKind::Bf16, 0.02f32), (QuantKind::Int8, 0.08)] {
                let qm = model.quantize(quant);
                assert_eq!(qm.quant_kind(), quant);
                assert_eq!(qm.kind(), kind);
                let q_logits =
                    qm.forward_gathered(&batch, gathered(&d.features, batch.input_nodes()), None);
                assert_eq!(
                    (q_logits.rows(), q_logits.cols()),
                    (f32_logits.rows(), f32_logits.cols())
                );
                let delta = rel_delta(&q_logits, &f32_logits);
                assert!(
                    delta <= max_delta,
                    "{kind:?}/{quant:?}: logits delta {delta} > {max_delta}"
                );
                let agree = argmax_agreement(&q_logits, &f32_logits);
                assert!(
                    agree >= 0.9,
                    "{kind:?}/{quant:?}: class agreement {agree} < 0.9"
                );
            }
        }
    }

    #[test]
    fn quantized_forward_pool_matches_serial() {
        let d = tiny_dataset();
        let pool = ThreadPool::new("t", 2);
        let model = Gnn::new(GnnKind::Sage, d.feat_dim(), 16, d.num_classes, 2, 4);
        // 80 seeds: every layer's GEMM has at least the 64 output rows that
        // put it on the pool.
        let batch = sample_blocks(&d, 80, 2);
        assert!(model.dispatch().goes_parallel(80, Some(&pool)));
        let qm = model.quantize(QuantKind::Bf16);
        let serial = qm.forward_gathered(&batch, gathered(&d.features, batch.input_nodes()), None);
        let par = qm.forward_gathered(
            &batch,
            gathered(&d.features, batch.input_nodes()),
            Some(&pool),
        );
        // The quantized GEMM is partition-invariant per element.
        assert_eq!(serial.data(), par.data());
    }

    #[test]
    fn weight_bytes_shrink_with_scheme() {
        let model = Gnn::new(GnnKind::Gcn, 32, 16, 4, 2, 1);
        let bf16 = model.quantize(QuantKind::Bf16).weight_bytes();
        let int8 = model.quantize(QuantKind::Int8).weight_bytes();
        let f32_bytes = (32 * 16 + 16 * 4) * 4;
        assert_eq!(bf16, f32_bytes / 2);
        assert_eq!(int8, f32_bytes / 4);
    }
}
