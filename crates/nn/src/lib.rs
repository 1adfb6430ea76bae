//! # argo-nn — GNN models with hand-written backward passes
//!
//! The model substrate of the ARGO reproduction: the two representative GNN
//! architectures the paper evaluates (Section II-A) —
//!
//! * **GCN** (Eq. 1): symmetric-normalized sum aggregation;
//! * **GraphSAGE** (Eq. 2): mean aggregation concatenated with the node's own
//!   previous-layer feature —
//!
//! each followed by the shared feature-update step `ReLU(a W + b)` (Eq. 3),
//! with full manual backpropagation (no autograd), mini-batch training over
//! [`argo_sample::SampledBatch`]es, and SGD/Adam optimizers. Parameters and
//! gradients can be flattened to a single `Vec<f32>` for the engine's DDP
//! gradient all-reduce.

pub mod arch;
pub mod metrics;
pub mod model;
pub mod optim;
pub mod schedule;

pub use arch::{AnyModel, Arch};
pub use metrics::ConfusionMatrix;
pub use model::{Gnn, StepStats};
pub use optim::{clip_grad_norm, Adam, AnyOptimizer, Optimizer, OptimizerKind, Sgd};
pub use schedule::LrSchedule;

/// Rows `ids` of `feats` as the gathered input the models' forward and
/// training steps take.
#[cfg(test)]
pub(crate) fn gathered(feats: &argo_graph::features::Features, ids: &[u32]) -> argo_tensor::Matrix {
    let mut input = argo_tensor::Matrix::zeros(ids.len(), feats.dim());
    feats.gather_into(ids, input.data_mut());
    input
}
