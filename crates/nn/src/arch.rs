//! Architecture selection and the type-erased model used by the engine.
//!
//! The Multi-Process Engine replicates one model per process; [`AnyModel`]
//! lets it hold any of the supported architectures (GCN, GraphSAGE, GAT)
//! behind one concrete, `Send` type with the flat parameter/gradient API
//! DDP-style synchronization needs.

use std::borrow::Borrow;

use argo_rt::ThreadPool;
use argo_sample::batch::SampledBatch;
use argo_sample::loader::PreparedInput;
use argo_sample::view::SampledBatchView;
use argo_tensor::{DispatchPolicy, Matrix};

use crate::gat::Gat;
use crate::model::{Gnn, GnnKind, StepStats};

/// Which GNN architecture to train.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arch {
    /// Graph Convolutional Network (paper Eq. 1).
    Gcn,
    /// GraphSAGE with mean aggregator (paper Eq. 2).
    Sage,
    /// Graph Attention Network with `heads` attention heads (extension).
    Gat {
        /// Number of attention heads (hidden dim must divide evenly).
        heads: usize,
    },
}

impl Arch {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Arch::Gcn => "GCN",
            Arch::Sage => "GraphSAGE",
            Arch::Gat { .. } => "GAT",
        }
    }

    /// The adjacency normalization this architecture consumes — what the
    /// loader asks the samplers to fuse into batch values at assembly time.
    /// GAT computes attention coefficients instead of fixed weights, so its
    /// batches stay unnormalized.
    pub fn normalization(&self) -> argo_sample::Normalization {
        match self {
            Arch::Gcn => argo_sample::Normalization::Gcn,
            Arch::Sage => argo_sample::Normalization::Mean,
            Arch::Gat { .. } => argo_sample::Normalization::None,
        }
    }
}

impl From<GnnKind> for Arch {
    fn from(k: GnnKind) -> Self {
        match k {
            GnnKind::Gcn => Arch::Gcn,
            GnnKind::Sage => Arch::Sage,
        }
    }
}

/// A trained model of any supported architecture.
pub enum AnyModel {
    /// GCN or GraphSAGE.
    Gnn(Gnn),
    /// Graph attention network.
    Gat(Gat),
}

impl AnyModel {
    /// Builds the architecture `arch` with the given dimensions.
    pub fn build(
        arch: Arch,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        num_layers: usize,
        seed: u64,
    ) -> Self {
        match arch {
            Arch::Gcn => AnyModel::Gnn(Gnn::new(
                GnnKind::Gcn,
                in_dim,
                hidden,
                out_dim,
                num_layers,
                seed,
            )),
            Arch::Sage => AnyModel::Gnn(Gnn::new(
                GnnKind::Sage,
                in_dim,
                hidden,
                out_dim,
                num_layers,
                seed,
            )),
            Arch::Gat { heads } => {
                AnyModel::Gat(Gat::new(in_dim, hidden, out_dim, num_layers, heads, seed))
            }
        }
    }

    /// The kernel dispatch policy in effect.
    pub fn dispatch(&self) -> DispatchPolicy {
        match self {
            AnyModel::Gnn(m) => m.dispatch(),
            AnyModel::Gat(m) => m.dispatch(),
        }
    }

    /// Inference logits over the batch seeds, from the input-node feature
    /// rows already gathered (in `input_nodes()` order). `input` is only
    /// read: pass `&Matrix` to keep a recycled buffer, or a `Matrix` to have
    /// it dropped afterwards — a caller's buffer is never parked in the
    /// model.
    pub fn forward_gathered(
        &self,
        batch: &SampledBatch,
        input: impl Borrow<Matrix>,
        pool: Option<&ThreadPool>,
    ) -> Matrix {
        let input = input.borrow();
        match self {
            AnyModel::Gnn(m) => m.forward_gathered(batch, input, pool),
            AnyModel::Gat(m) => m.forward_gathered(batch, input, pool),
        }
    }

    /// [`AnyModel::forward_gathered`] over a borrowed [`SampledBatchView`] —
    /// adjacencies consumed in place from the sampler's batch arena. GAT
    /// recomputes attention over an owned adjacency, so it materializes the
    /// batch (same cost as before the view path existed).
    pub fn forward_gathered_view(
        &self,
        batch: &SampledBatchView<'_>,
        input: impl Borrow<Matrix>,
        pool: Option<&ThreadPool>,
    ) -> Matrix {
        let input = input.borrow();
        match self {
            AnyModel::Gnn(m) => m.forward_gathered_view(batch, input, pool),
            AnyModel::Gat(m) => m.forward_gathered(&batch.to_owned(), input, pool),
        }
    }

    /// One training step (loss + backward into the gradient buffers) over
    /// the batch's gathered input-node feature rows; same `input` contract
    /// as [`AnyModel::forward_gathered`].
    pub fn train_step_gathered(
        &mut self,
        batch: &SampledBatch,
        input: impl Borrow<Matrix>,
        labels: &[u32],
        pool: Option<&ThreadPool>,
    ) -> StepStats {
        let input = input.borrow();
        match self {
            AnyModel::Gnn(m) => m.train_step_gathered(batch, input, labels, pool),
            AnyModel::Gat(m) => m.train_step_gathered(batch, input, labels, pool),
        }
    }

    /// [`AnyModel::train_step_gathered`] over what a loader worker prepared
    /// for the batch under this architecture's [`Arch::normalization`]:
    /// GCN and GraphSAGE start at their first GEMM
    /// ([`Gnn::train_step_prepared`]); GAT, whose first aggregation is
    /// parameterised, is handed the gathered rows.
    pub fn train_step_prepared(
        &mut self,
        batch: &SampledBatch,
        input: &PreparedInput,
        labels: &[u32],
        pool: Option<&ThreadPool>,
    ) -> StepStats {
        match (self, input) {
            (AnyModel::Gnn(m), input) => m.train_step_prepared(batch, input, labels, pool),
            (AnyModel::Gat(m), PreparedInput::Gathered(rows)) => {
                m.train_step_gathered(batch, rows, labels, pool)
            }
            (AnyModel::Gat(_), PreparedInput::Aggregated { .. }) => {
                panic!("GAT's first aggregation is parameterised: it takes the gathered rows")
            }
        }
    }

    /// Workspace arena counters `(fresh allocations, reuses)`; GAT keeps
    /// no arena and reports zeros.
    pub fn workspace_stats(&self) -> (usize, usize) {
        match self {
            AnyModel::Gnn(m) => m.workspace_stats(),
            AnyModel::Gat(_) => (0, 0),
        }
    }

    /// Bytes parked in the workspace arena between steps.
    pub fn workspace_bytes(&self) -> usize {
        match self {
            AnyModel::Gnn(m) => m.workspace_bytes(),
            AnyModel::Gat(_) => 0,
        }
    }

    /// Flat parameter vector.
    pub fn params_flat(&self, out: &mut Vec<f32>) {
        match self {
            AnyModel::Gnn(m) => m.params_flat(out),
            AnyModel::Gat(m) => m.params_flat(out),
        }
    }

    /// Restores parameters from a flat vector.
    pub fn set_params_flat(&mut self, flat: &[f32]) {
        match self {
            AnyModel::Gnn(m) => m.set_params_flat(flat),
            AnyModel::Gat(m) => m.set_params_flat(flat),
        }
    }

    /// Flat gradient vector.
    pub fn grads_flat(&self, out: &mut Vec<f32>) {
        match self {
            AnyModel::Gnn(m) => m.grads_flat(out),
            AnyModel::Gat(m) => m.grads_flat(out),
        }
    }

    /// Restores gradients from a flat vector.
    pub fn set_grads_flat(&mut self, flat: &[f32]) {
        match self {
            AnyModel::Gnn(m) => m.set_grads_flat(flat),
            AnyModel::Gat(m) => m.set_grads_flat(flat),
        }
    }

    /// Total scalar parameters.
    pub fn num_params(&self) -> usize {
        match self {
            AnyModel::Gnn(m) => m.num_params(),
            AnyModel::Gat(m) => m.num_params(),
        }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        match self {
            AnyModel::Gnn(m) => m.num_layers(),
            AnyModel::Gat(m) => m.num_layers(),
        }
    }

    /// Architecture name.
    pub fn name(&self) -> &'static str {
        match self {
            AnyModel::Gnn(m) => m.kind().name(),
            AnyModel::Gat(_) => "GAT",
        }
    }
}

impl From<Gnn> for AnyModel {
    fn from(m: Gnn) -> Self {
        AnyModel::Gnn(m)
    }
}

impl From<Gat> for AnyModel {
    fn from(m: Gat) -> Self {
        AnyModel::Gat(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_dispatches() {
        let g = AnyModel::build(Arch::Gcn, 10, 8, 3, 2, 1);
        assert_eq!(g.name(), "GCN");
        assert_eq!(g.num_layers(), 2);
        let s = AnyModel::build(Arch::Sage, 10, 8, 3, 2, 1);
        assert_eq!(s.name(), "GraphSAGE");
        assert!(
            s.num_params() > g.num_params(),
            "SAGE concat doubles fan-in"
        );
        let a = AnyModel::build(Arch::Gat { heads: 2 }, 10, 8, 3, 2, 1);
        assert_eq!(a.name(), "GAT");
        assert!(a.num_params() > 0);
    }

    #[test]
    fn flat_roundtrip_through_erasure() {
        for arch in [Arch::Gcn, Arch::Sage, Arch::Gat { heads: 2 }] {
            let mut m = AnyModel::build(arch, 6, 4, 3, 2, 9);
            let mut p = Vec::new();
            m.params_flat(&mut p);
            assert_eq!(p.len(), m.num_params(), "{arch:?}");
            let scaled: Vec<f32> = p.iter().map(|x| x * 0.5).collect();
            m.set_params_flat(&scaled);
            let mut p2 = Vec::new();
            m.params_flat(&mut p2);
            assert_eq!(p2, scaled);
        }
    }

    #[test]
    fn used_replica_matches_a_fresh_model_bitwise() {
        // The engine keeps one replica per rank across epochs. Whatever it
        // ran before — other batches, other shapes, other parameters — a
        // step depends only on (params, batch, input): same loss, same
        // gradients, bit for bit, as a model built for this one step.
        use crate::gathered;
        use argo_graph::datasets::FLICKR;
        use argo_sample::{NeighborSampler, Sampler};
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let d = FLICKR.synthesize(0.01, 11);
        let sampler = NeighborSampler::new(vec![5, 4]);
        let batch_of = |skip: usize, n: usize| {
            let seeds: Vec<u32> = d.train_nodes.iter().copied().skip(skip).take(n).collect();
            sampler.sample(&d.graph, &seeds, &mut SmallRng::seed_from_u64(n as u64))
        };
        for arch in [Arch::Sage, Arch::Gcn, Arch::Gat { heads: 2 }] {
            let build = || AnyModel::build(arch, d.feat_dim(), 16, d.num_classes, 2, 5);
            let mut used = build();
            for (skip, n) in [(0, 24), (30, 8), (3, 40)] {
                let batch = batch_of(skip, n);
                used.train_step_gathered(
                    &batch,
                    gathered(&d.features, batch.input_nodes()),
                    &d.labels,
                    None,
                );
            }
            let mut params = Vec::new();
            used.params_flat(&mut params);
            for p in &mut params {
                *p *= 0.75;
            }
            used.set_params_flat(&params);
            let mut fresh = build();
            fresh.set_params_flat(&params);

            let batch = batch_of(11, 32);
            let input = gathered(&d.features, batch.input_nodes());
            // Borrowed on the replica, by value on the fresh model: the two
            // calling conventions are one implementation.
            let a = used.train_step_gathered(&batch, &input, &d.labels, None);
            let b = fresh.train_step_gathered(&batch, input.clone(), &d.labels, None);
            assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "{arch:?}");
            let (mut ga, mut gb) = (Vec::new(), Vec::new());
            used.grads_flat(&mut ga);
            fresh.grads_flat(&mut gb);
            assert!(
                ga.iter().zip(&gb).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{arch:?} gradients differ"
            );
            let (fa, fb) = (
                used.forward_gathered(&batch, &input, None),
                fresh.forward_gathered(&batch, gathered(&d.features, batch.input_nodes()), None),
            );
            assert_eq!(fa.data(), fb.data(), "{arch:?}");
        }
    }

    #[test]
    fn gnnkind_converts() {
        assert_eq!(Arch::from(GnnKind::Gcn), Arch::Gcn);
        assert_eq!(Arch::from(GnnKind::Sage), Arch::Sage);
        assert_eq!(Arch::Gat { heads: 4 }.name(), "GAT");
    }
}
