//! Architecture selection: the two GNNs the paper evaluates, and the
//! normalization each one consumes.

use argo_sample::Normalization;

use crate::model::Gnn;

/// Which GNN architecture to train — the aggregation rule of a [`Gnn`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arch {
    /// Graph Convolutional Network — Eq. 1.
    Gcn,
    /// GraphSAGE with mean aggregator and self-concat — Eq. 2.
    Sage,
}

impl Arch {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Arch::Gcn => "GCN",
            Arch::Sage => "GraphSAGE",
        }
    }

    /// The adjacency normalization this architecture consumes — what the
    /// loader asks the samplers to fuse into batch values at assembly time.
    pub fn normalization(&self) -> Normalization {
        match self {
            Arch::Gcn => Normalization::Gcn,
            Arch::Sage => Normalization::Mean,
        }
    }
}

/// The model type, under the name the benchmark's adapter
/// (`benchmark/src/layers.rs`) uses; kept for the benchmark.
pub type AnyModel = Gnn;

impl Gnn {
    /// [`Gnn::new`] under the name the benchmark's adapter calls; kept for
    /// the benchmark.
    pub fn build(
        arch: Arch,
        in_dim: usize,
        hidden: usize,
        out: usize,
        layers: usize,
        seed: u64,
    ) -> Self {
        Gnn::new(arch, in_dim, hidden, out, layers, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_dispatches() {
        let g = AnyModel::build(Arch::Gcn, 10, 8, 3, 2, 1);
        assert_eq!(g.kind().name(), "GCN");
        assert_eq!(g.num_layers(), 2);
        let s = AnyModel::build(Arch::Sage, 10, 8, 3, 2, 1);
        assert_eq!(s.kind().name(), "GraphSAGE");
        assert!(
            s.num_params() > g.num_params(),
            "SAGE concat doubles fan-in"
        );
    }

    #[test]
    fn arch_names_and_normalizations() {
        assert_eq!(Arch::Gcn.name(), "GCN");
        assert_eq!(Arch::Sage.name(), "GraphSAGE");
        assert_eq!(Arch::Gcn.normalization(), Normalization::Gcn);
        assert_eq!(Arch::Sage.normalization(), Normalization::Mean);
    }

    #[test]
    fn flat_roundtrip_through_erasure() {
        for arch in [Arch::Gcn, Arch::Sage] {
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
        for arch in [Arch::Sage, Arch::Gcn] {
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
}
