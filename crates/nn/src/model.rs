//! GCN / GraphSAGE models with manual forward and backward passes.
//!
//! Every matmul/SpMM goes through the crate-wide [`DispatchPolicy`] (kernel
//! tier and serial vs pool-parallel decided in one place), bias+ReLU are
//! fused into the GEMM write-back, GraphSAGE's `[h ‖ agg]` concatenation is
//! eliminated by multiplying against the self/neighbor halves of the stacked
//! weight, and activations/gradient buffers round-trip through a per-model
//! [`Workspace`] and the lists that hold them are the model's own, so a warm
//! training step allocates nothing (`tests/allocations.rs` pins it).
//!
//! Layer 0 reaches the model one way: as a [`PreparedInput`], the product
//! of the parameter-free prologue — layer 0's aggregation (and GraphSAGE's
//! self rows), the batch's needed-row [`Cascade`] and, for training, every
//! layer's transposed adjacency, which backward gathers over. Every entry
//! point starts at the first GEMM: [`Gnn::train_step_prepared`] and
//! [`Gnn::forward_prepared`] read what a loader worker or the serving
//! prologue (which evaluation runs too) built, and the gathered entry points
//! are adapters that build it from the caller's rows ([`PreparedInput::aggregate`]) in the model's
//! own [`InputRing`], then run the same body.
//!
//! Every entry point runs the normalized adjacency values the batch carries:
//! the sampler fuses them while it assembles the batch
//! ([`Arch::normalization`]), and a batch fused with another normalization
//! than the model's is refused with a panic that names both.

use std::borrow::Borrow;
use std::cell::RefCell;

use argo_rt::ThreadPool;
use argo_sample::batch::SampledBatch;
use argo_sample::cascade::{Cascade, LayerIn};
use argo_sample::loader::{InputRing, PreparedInput};
use argo_sample::view::SampledBatchView;
use argo_sample::Normalization;
use argo_tensor::ops::{
    accuracy, bias_grad_into, relu_backward_from_output, softmax_cross_entropy_into,
};
use argo_tensor::{DispatchPolicy, Epilogue, Matrix, SparseView, Workspace};

use crate::arch::Arch;

struct Layer {
    w: Matrix,
    b: Vec<f32>,
    dw: Matrix,
    db: Vec<f32>,
}

impl Layer {
    fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        Self {
            w: Matrix::xavier(in_dim, out_dim, seed),
            b: vec![0.0; out_dim],
            dw: Matrix::zeros(in_dim, out_dim),
            db: vec![0.0; out_dim],
        }
    }
}

/// Statistics of one training step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepStats {
    /// Mean cross-entropy loss over the batch.
    pub loss: f32,
    /// Training accuracy on the batch.
    pub accuracy: f64,
    /// Number of target nodes.
    pub num_seeds: usize,
}

impl Gnn {
    /// The parameter-free half of a layer: `adj · h` in a workspace buffer,
    /// taken unzeroed (the kernel overwrites it).
    fn aggregate(&self, adj: &SparseView<'_>, h: &Matrix, pool: Option<&ThreadPool>) -> Matrix {
        let mut agg = self.ws.borrow_mut().take_unzeroed(adj.rows(), h.cols());
        self.dispatch.aggregate_view_into(adj, h, pool, &mut agg);
        agg
    }

    /// The parameterised half of layer `l`, over its aggregation `agg`:
    ///
    /// * GCN: `z = agg W + b`, `agg = Â h`
    /// * SAGE: `z = h_self W_self + agg W_neigh + b`, `agg = mean(h)` — the
    ///   fused form of `[h_self ‖ agg] W + b` with `W = [W_self; W_neigh]`
    ///   stacked; the concatenation is never materialized. `h_self` holds
    ///   the self features of the `n_dst` output rows in its first `n_dst`
    ///   rows — `h` itself whenever the outputs are a prefix of the inputs;
    ///   GCN ignores it.
    ///
    /// Bias (and ReLU on all layers except the last) are fused into the GEMM
    /// write-back, into a workspace buffer taken unzeroed. This is where
    /// every entry point starts layer 0.
    fn dense(
        &self,
        l: usize,
        agg: &Matrix,
        h_self: Option<&Matrix>,
        pool: Option<&ThreadPool>,
    ) -> Matrix {
        let Layer { w, b, .. } = &self.layers[l];
        let mut z = self.ws.borrow_mut().take_unzeroed(agg.rows(), w.cols());
        let epi = if l + 1 < self.layers.len() {
            Epilogue::bias_relu(b)
        } else {
            Epilogue::bias(b)
        };
        match (self.kind, h_self) {
            (Arch::Gcn, _) => self.dispatch.gemm_into(agg, w, epi, pool, &mut z),
            (Arch::Sage, Some(h_self)) => self
                .dispatch
                .sage_gemm_into(h_self, agg, w, epi, pool, &mut z),
            (Arch::Sage, None) => panic!("GraphSAGE's GEMM reads the layer's self rows"),
        }
        z
    }

    /// The one forward body, training's and inference's: runs layer `l`
    /// over `layer(l)` and keeps every layer's buffers in `kept` (empty on
    /// entry). Layer 0 starts at its GEMM, over the operands `input`
    /// carries.
    fn forward<'l>(
        &self,
        kept: &mut Kept,
        layer: impl Fn(usize) -> LayerIn<'l>,
        input: &PreparedInput,
        pool: Option<&ThreadPool>,
    ) {
        let PreparedInput { agg, self_rows, .. } = input;
        assert_eq!(
            (agg.rows(), agg.cols()),
            (layer(0).0.rows(), self.dims[0]),
            "prepared aggregation does not fit the batch"
        );
        kept.outs.push(self.dense(0, agg, self_rows.as_ref(), pool));
        for l in 1..self.layers.len() {
            let (adj, self_rows) = layer(l);
            let h = &kept.outs[l - 1];
            let picked = self_rows.map(|pos| select_rows(&self.ws, h, pos));
            let agg = self.aggregate(&adj, h, pool);
            let z = self.dense(l, &agg, Some(picked.as_ref().unwrap_or(h)), pool);
            kept.outs.push(z);
            kept.aggs.push(agg);
            kept.selfs.push(picked);
        }
    }

    /// Inference: [`Gnn::forward`] with everything but the logits (one row
    /// per row of the last adjacency) recycled.
    fn run<'l>(
        &self,
        layer: impl Fn(usize) -> LayerIn<'l>,
        input: &PreparedInput,
        pool: Option<&ThreadPool>,
    ) -> Matrix {
        let mut kept = self.kept.borrow_mut();
        self.forward(&mut kept, layer, input, pool);
        let logits = kept.outs.swap_remove(self.layers.len() - 1);
        drop(kept);
        self.recycle();
        logits
    }

    /// Inference over a borrowed [`SampledBatchView`] and its gathered input
    /// rows, in `input_nodes()` order (pass `&Matrix` to keep the buffer for
    /// the next batch): the call-table adapter over
    /// [`Gnn::forward_prepared`]. It builds the view's cascade and layer 0's
    /// operands in the model's own ring ([`PreparedInput::aggregate`]), runs
    /// the prepared forward and recycles them — bitwise the logits of
    /// [`PreparedInput::prepare`] + [`Gnn::forward_prepared`]. The model
    /// only reads `input`; it never parks it. Panics as
    /// [`Gnn::forward_prepared`] does.
    pub fn forward_gathered_view(
        &self,
        batch: &SampledBatchView<'_>,
        input: impl Borrow<Matrix>,
        pool: Option<&ThreadPool>,
    ) -> Matrix {
        let (ring, rows) = (&self.ring, input.borrow());
        let mut cascade = ring.take_cascade();
        cascade.for_view(self.layers.len(), batch);
        let adj = batch.layer_adj(0);
        let input = PreparedInput::aggregate(cascade, adj, rows, self.dispatch, ring, pool);
        let logits = self.forward_prepared(batch, &input, pool);
        input.recycle(ring);
        logits
    }

    /// Inference from the first GEMM over what [`PreparedInput::prepare`]
    /// made of this view — its layer-0 operands and its cascade; returns
    /// logits over the batch's seeds. The adjacencies are consumed straight
    /// out of the sampler's batch arena. Panics unless the view fuses this
    /// model's normalization (and, for blocks, has its depth) and the input
    /// was prepared for this model's depth.
    pub fn forward_prepared(
        &self,
        batch: &SampledBatchView<'_>,
        input: &PreparedInput,
        pool: Option<&ThreadPool>,
    ) -> Matrix {
        self.assert_runs_view(batch);
        let cascade = self.carried(input);
        self.run(|l| cascade.layer(l, batch.layer_adj(l)), input, pool)
    }

    /// Panics unless this model runs over a batch fused with `norm`, of
    /// `blocks` blocks if it is a block batch, as it is: the values must be
    /// the model's normalization, and there must be one block per layer.
    fn assert_runs(&self, norm: Normalization, blocks: Option<usize>) {
        let (name, want) = (self.kind.name(), self.kind.normalization());
        assert_eq!(
            norm, want,
            "a {name} model runs batches fused with {want:?}; this one is fused with {norm:?}"
        );
        let depth = self.layers.len();
        assert!(
            blocks.is_none_or(|n| n == depth),
            "a {depth}-layer model runs batches of {depth} blocks; this one has {blocks:?}"
        );
    }

    fn assert_runs_owned(&self, batch: &SampledBatch) {
        let blocks = match batch {
            SampledBatch::Blocks(mb) => Some(mb.blocks.len()),
            SampledBatch::Subgraph(_) => None,
        };
        self.assert_runs(batch.norm(), blocks);
    }

    fn assert_runs_view(&self, batch: &SampledBatchView<'_>) {
        let blocks = match batch {
            SampledBatchView::Blocks(mb) => Some(mb.num_blocks()),
            SampledBatchView::Subgraph(_) => None,
        };
        self.assert_runs(batch.norm(), blocks);
    }

    /// The cascade `input` carries, checked against this model.
    fn carried<'a>(&self, input: &'a PreparedInput) -> &'a Cascade {
        let cascade = &input.cascade;
        assert_eq!(
            (cascade.depth(), cascade.keeps_self_rows()),
            (self.layers.len(), self.kind == Arch::Sage),
            "the input was prepared for another model"
        );
        cascade
    }
}

/// What a forward pass keeps (a step's, for its backward pass), in lists
/// the model reuses from pass to pass: per layer the output, and from layer
/// 1 on the aggregation and the self rows SAGE read where they are not the
/// first rows of the layer's input (`aggs[l - 1]`, `selfs[l - 1]`). All are
/// workspace buffers; layer 0's operands are the [`PreparedInput`]'s.
#[derive(Default)]
struct Kept {
    outs: Vec<Matrix>,
    aggs: Vec<Matrix>,
    selfs: Vec<Option<Matrix>>,
    /// The seeds' labels, the loss's targets.
    labels: Vec<u32>,
    /// The last gradient matrix of the backward pass; `None` after inference.
    grad: Option<Matrix>,
}

/// A multi-layer GNN (hidden dims all equal, ReLU between layers, no
/// activation after the last layer — paper's standard 3-layer setup).
pub struct Gnn {
    kind: Arch,
    layers: Vec<Layer>,
    dims: Vec<usize>, // layer input/output dims: [in, hidden, ..., out]
    dispatch: DispatchPolicy,
    // Interior mutability so the forward pass (&self) can recycle buffers
    // too; a model is only ever driven from one thread at a time.
    ws: RefCell<Workspace>,
    kept: RefCell<Kept>,
    /// The cascades and layer-0 buffers the gathered adapters build in,
    /// recycled from call to call.
    ring: InputRing,
}

impl Gnn {
    /// Builds an `num_layers`-deep model `in_dim → hidden × (L-1) → out_dim`,
    /// deterministic in `seed`.
    pub fn new(
        kind: Arch,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        num_layers: usize,
        seed: u64,
    ) -> Self {
        assert!(num_layers >= 1 && in_dim > 0 && hidden > 0 && out_dim > 0);
        let mut dims = Vec::with_capacity(num_layers + 1);
        dims.push(in_dim);
        for _ in 1..num_layers {
            dims.push(hidden);
        }
        dims.push(out_dim);
        let layers = (0..num_layers)
            .map(|l| {
                let fan_in = match kind {
                    Arch::Gcn => dims[l],
                    Arch::Sage => 2 * dims[l],
                };
                Layer::new(fan_in, dims[l + 1], seed.wrapping_add(l as u64 * 7919))
            })
            .collect();
        Self {
            kind,
            layers,
            dims,
            dispatch: DispatchPolicy::default(),
            ws: RefCell::new(Workspace::new()),
            kept: RefCell::default(),
            ring: InputRing::new(),
        }
    }

    /// Replaces the kernel dispatch policy (builder-style) — how a test puts
    /// a model on the scalar tier ([`DispatchPolicy::force_scalar`]).
    pub fn with_dispatch(mut self, dispatch: DispatchPolicy) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// The active kernel dispatch policy.
    pub fn dispatch(&self) -> DispatchPolicy {
        self.dispatch
    }

    /// Bytes parked in the workspace arena between steps.
    pub fn workspace_bytes(&self) -> usize {
        self.ws.borrow().parked_bytes()
    }

    /// Model kind.
    pub fn kind(&self) -> Arch {
        self.kind
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.w.data().len() + l.b.len())
            .sum()
    }

    /// One training step over the batch's gathered input-node feature rows
    /// (`input_nodes()` order; pass `&Matrix` to keep the buffer): the
    /// call-table adapter over [`Gnn::train_step_prepared`]. It builds the
    /// batch's cascade, its transposes and layer 0's operands in the model's
    /// own ring ([`PreparedInput::aggregate`]), runs the prepared step and
    /// recycles them. The model only reads `input`; it never parks it.
    pub fn train_step_gathered(
        &mut self,
        batch: &SampledBatch,
        input: impl Borrow<Matrix>,
        labels: &[u32],
        pool: Option<&ThreadPool>,
    ) -> StepStats {
        // Before the transposes read one block per layer.
        self.assert_runs_owned(batch);
        let (full, rows) = (|l| batch.layer_adj(l).view(), input.borrow());
        let mut cascade = self.ring.take_cascade();
        cascade.for_owned(self.layers.len(), batch);
        cascade.transpose_layers(full);
        let dispatch = self.dispatch;
        let input = PreparedInput::aggregate(cascade, full(0), rows, dispatch, &self.ring, pool);
        let stats = self.step(batch.seeds(), full, &input, labels, pool);
        input.recycle(&self.ring);
        stats
    }

    /// One training step — forward, loss, full backward — starting at the
    /// first GEMM, over the batch as the sampler assembled it (the arena a
    /// loader worker sent): `input` is what that worker prepared for it
    /// ([`PreparedInput::prepare_for_training`]). Layer 0's aggregation, the
    /// cascade and the transposes depend on the batch and the features only,
    /// so they were built where the batch was made. The step builds no
    /// cascade and transposes nothing. Gradients are written into the
    /// model's gradient buffers (overwriting previous contents); parameters
    /// are *not* updated — the engine averages gradients across processes
    /// first, then calls an optimizer. Panics as [`Gnn::forward_prepared`]
    /// does: the batch must fuse this model's normalization
    /// ([`Arch::normalization`]), as the operands were aggregated over it.
    pub fn train_step_prepared(
        &mut self,
        batch: &SampledBatchView<'_>,
        input: &PreparedInput,
        labels: &[u32],
        pool: Option<&ThreadPool>,
    ) -> StepStats {
        self.assert_runs_view(batch);
        self.step(batch.seeds(), |l| batch.layer_adj(l), input, labels, pool)
    }

    /// The one training step over a batch of `seeds` whose layer `l` has
    /// the full-height adjacency `full(l)`: [`Gnn::forward`] over the layers
    /// of the cascade `input` carries, then the loss over the seeds' labels
    /// and the full backward pass over what the forward kept, gathering over
    /// the cascade's transposes; then every per-pass buffer is recycled.
    fn step<'b>(
        &mut self,
        seeds: &[u32],
        full: impl Fn(usize) -> SparseView<'b>,
        input: &PreparedInput,
        labels: &[u32],
        pool: Option<&ThreadPool>,
    ) -> StepStats {
        let depth = self.layers.len();
        let cascade = self.carried(input);
        let mut kept = self.kept.borrow_mut();
        let layer = |l| cascade.layer(l, full(l));
        self.forward(&mut kept, layer, input, pool);
        let Kept {
            outs,
            aggs,
            selfs,
            labels: seed_labels,
            grad: last_grad,
        } = &mut *kept;
        // Loss over seeds: the last layer's rows are the seed rows.
        let logits = &outs[depth - 1];
        seed_labels.clear();
        seed_labels.extend(seeds.iter().map(|&v| labels[v as usize]));
        let mut grad = self
            .ws
            .borrow_mut()
            .take_unzeroed(logits.rows(), logits.cols());
        let loss = softmax_cross_entropy_into(logits, seed_labels, &mut grad);
        let acc = accuracy(logits, seed_labels);
        // Backward through the layers. Weight/bias gradients are written in
        // place into the model's persistent `dw`/`db` buffers; intermediate
        // gradient matrices cycle through the workspace, taken unzeroed
        // because `grad_input_into` and the gather overwrite them.
        let dispatch = self.dispatch;
        for l in (0..depth).rev() {
            let (agg, h_self) = match l {
                0 => (&input.agg, input.self_rows.as_ref()),
                _ => (&aggs[l - 1], selfs[l - 1].as_ref()),
            };
            if l + 1 < depth {
                // The fused ReLU recorded no mask: `outs[l] > 0` is it.
                relu_backward_from_output(&mut grad, &outs[l]);
            }
            bias_grad_into(&grad, &mut self.layers[l].db);
            match self.kind {
                Arch::Gcn => {
                    // dW = aggᵀ grad (agg is the layer's GEMM input).
                    dispatch.grad_weights_into(&[agg], &grad, pool, &mut self.layers[l].dw);
                }
                Arch::Sage => {
                    // Stacked halves of dW, no concatenation: the top f_in
                    // rows reduce against the self features — the layer's
                    // selection, or the first `n_dst` rows of its input —
                    // the bottom against the aggregation.
                    let h_self = h_self.unwrap_or_else(|| &outs[l - 1]);
                    let xs = [h_self, agg];
                    dispatch.grad_weights_into(&xs, &grad, pool, &mut self.layers[l].dw);
                }
            }
            if l == 0 {
                break; // input features get no gradient
            }
            let w = &self.layers[l].w;
            let f_in = self.dims[l];
            // The layer's adjacency transposed: `n_src × n_dst`.
            let adj_t = cascade.transposed(l);
            let n_dst = adj_t.cols();
            let take = |rows: usize| self.ws.borrow_mut().take_unzeroed(rows, f_in);
            let mut dh = take(adj_t.rows());
            match self.kind {
                Arch::Gcn => {
                    let mut dagg = take(n_dst);
                    dispatch.grad_input_into(&grad, w, 0..f_in, pool, &mut dagg);
                    dispatch.aggregate_transposed_into(adj_t, &dagg, pool, &mut dh);
                    self.ws.borrow_mut().put(dagg);
                }
                Arch::Sage => {
                    // Pull d_self / d_neigh out of the stacked weight by row
                    // window instead of splitting a concatenated gradient.
                    let (mut dself, mut dmean) = (take(n_dst), take(n_dst));
                    dispatch.grad_input_into(&grad, w, 0..f_in, pool, &mut dself);
                    dispatch.grad_input_into(&grad, w, f_in..2 * f_in, pool, &mut dmean);
                    dispatch.aggregate_transposed_into(adj_t, &dmean, pool, &mut dh);
                    // Self-path gradient lands on the rows the self features
                    // were read from.
                    let picked = cascade.self_rows(l);
                    for r in 0..n_dst {
                        let at = picked.map_or(r, |pos| pos[r]);
                        for (a, b) in dh.row_mut(at).iter_mut().zip(dself.row(r)) {
                            *a += b;
                        }
                    }
                    let mut ws = self.ws.borrow_mut();
                    ws.put(dself);
                    ws.put(dmean);
                }
            }
            self.ws.borrow_mut().put(std::mem::replace(&mut grad, dh));
        }
        let stats = StepStats {
            loss,
            accuracy: acc,
            num_seeds: seeds.len(),
        };
        *last_grad = Some(grad);
        drop(kept);
        self.recycle();
        stats
    }

    /// Recycles every per-pass buffer of the model's own for the next batch,
    /// and empties the kept lists, keeping their storage.
    fn recycle(&self) {
        let mut ws = self.ws.borrow_mut();
        let mut kept = self.kept.borrow_mut();
        let Kept {
            outs,
            aggs,
            selfs,
            grad,
            ..
        } = &mut *kept;
        let parked = aggs
            .drain(..)
            .chain(selfs.drain(..).flatten())
            .chain(outs.drain(..))
            .chain(grad.take());
        for m in parked {
            ws.put(m);
        }
    }

    /// Flattens all gradients (layer order, `W` then `b`) into `out`.
    pub fn grads_flat(&self, out: &mut Vec<f32>) {
        out.clear();
        for l in &self.layers {
            out.extend_from_slice(l.dw.data());
            out.extend_from_slice(&l.db);
        }
    }

    /// Flattens all parameters into `out` (same layout as gradients).
    pub fn params_flat(&self, out: &mut Vec<f32>) {
        out.clear();
        for l in &self.layers {
            out.extend_from_slice(l.w.data());
            out.extend_from_slice(&l.b);
        }
    }

    /// Overwrites parameters from a flat buffer.
    pub fn set_params_flat(&mut self, flat: &[f32]) {
        let mut at = 0usize;
        for l in &mut self.layers {
            let nw = l.w.data().len();
            l.w.data_mut().copy_from_slice(&flat[at..at + nw]);
            at += nw;
            let nb = l.b.len();
            l.b.copy_from_slice(&flat[at..at + nb]);
            at += nb;
        }
        assert_eq!(at, flat.len(), "flat parameter length mismatch");
    }

    /// Layer dimensions `[in, hidden…, out]`.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }
}

/// Rows `rows` of `m`, in that order, in a buffer of the workspace `ws`.
fn select_rows(ws: &RefCell<Workspace>, m: &Matrix, rows: &[usize]) -> Matrix {
    let mut out = ws.borrow_mut().take_unzeroed(rows.len(), m.cols());
    for (i, &r) in rows.iter().enumerate() {
        out.row_mut(i).copy_from_slice(m.row(r));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gathered;
    use argo_graph::datasets::FLICKR;
    use argo_rt::{SeedSequence, WorkerRing};
    use argo_sample::{
        InputRing, LoaderSpec, NeighborSampler, SampleRun, Sampler, SamplerScratch, ShadowSampler,
    };
    use argo_tensor::ops::softmax_cross_entropy;
    use argo_tensor::SparseMatrix;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn tiny_dataset() -> argo_graph::Dataset {
        FLICKR.synthesize(0.01, 11)
    }

    /// `n` seeds' `layers`-deep Neighbor batch, fused for a `kind` model.
    fn sample_blocks(d: &argo_graph::Dataset, n: usize, layers: usize, kind: Arch) -> SampledBatch {
        let s = NeighborSampler::new(vec![5; layers]);
        let seeds: Vec<u32> = d.train_nodes.iter().copied().take(n).collect();
        let norm = kind.normalization();
        s.sample(&d.graph, &seeds, norm, &mut SmallRng::seed_from_u64(3))
    }

    /// The logits of a `kind` model over `n` seeds' batch of `sampler`,
    /// through the gathered adapter, on `pool`.
    fn view_logits(
        d: &argo_graph::Dataset,
        kind: Arch,
        sampler: &dyn Sampler,
        n: usize,
        pool: Option<&ThreadPool>,
    ) -> Matrix {
        let mut scratch = SamplerScratch::new();
        let seeds = &d.train_nodes[..n];
        let view = sampler.sample_into(&d.graph, seeds, fused_run(kind, &mut scratch));
        let model = Gnn::new(kind, d.feat_dim(), 16, d.num_classes, 2, 1);
        model.forward_gathered_view(&view, gathered(&d.features, view.input_nodes()), pool)
    }

    #[test]
    fn forward_shapes() {
        let d = tiny_dataset();
        let logits = view_logits(&d, Arch::Sage, &NeighborSampler::new(vec![5; 2]), 8, None);
        assert_eq!(logits.rows(), 8);
        assert_eq!(logits.cols(), d.num_classes);
    }

    #[test]
    fn forward_shadow_shapes() {
        let d = tiny_dataset();
        let logits = view_logits(&d, Arch::Gcn, &ShadowSampler::new(vec![5, 3], 2), 6, None);
        assert_eq!(logits.rows(), 6);
        assert_eq!(logits.cols(), d.num_classes);
    }

    #[test]
    fn num_params_counts() {
        let m = Gnn::new(Arch::Gcn, 10, 8, 3, 2, 1);
        // L1: 10*8 + 8; L2: 8*3 + 3.
        assert_eq!(m.num_params(), 80 + 8 + 24 + 3);
        let s = Gnn::new(Arch::Sage, 10, 8, 3, 2, 1);
        // SAGE doubles fan-in: 20*8+8 + 16*3+3.
        assert_eq!(s.num_params(), 160 + 8 + 48 + 3);
    }

    #[test]
    fn flat_roundtrip() {
        let mut m = Gnn::new(Arch::Sage, 6, 4, 3, 2, 7);
        let mut p = Vec::new();
        m.params_flat(&mut p);
        assert_eq!(p.len(), m.num_params());
        let doubled: Vec<f32> = p.iter().map(|x| x * 2.0).collect();
        m.set_params_flat(&doubled);
        let mut p2 = Vec::new();
        m.params_flat(&mut p2);
        assert_eq!(p2, doubled);
    }

    #[test]
    fn train_step_fills_grads() {
        let d = tiny_dataset();
        let batch = sample_blocks(&d, 16, 2, Arch::Sage);
        let mut m = Gnn::new(Arch::Sage, d.feat_dim(), 16, d.num_classes, 2, 3);
        let stats = m.train_step_gathered(
            &batch,
            gathered(&d.features, batch.input_nodes()),
            &d.labels,
            None,
        );
        assert!(stats.loss.is_finite() && stats.loss > 0.0);
        assert_eq!(stats.num_seeds, 16);
        let mut g = Vec::new();
        m.grads_flat(&mut g);
        assert_eq!(g.len(), m.num_params());
        let nonzero = g.iter().filter(|x| **x != 0.0).count();
        assert!(
            nonzero > g.len() / 4,
            "gradients mostly zero: {nonzero}/{}",
            g.len()
        );
    }

    /// Finite-difference check of the full backward pass (the core
    /// correctness test for manual backprop).
    fn fd_check(kind: Arch, use_shadow: bool) {
        let d = tiny_dataset();
        let batch = if use_shadow {
            let s = ShadowSampler::new(vec![4, 3], 2);
            let seeds: Vec<u32> = d.train_nodes.iter().copied().take(5).collect();
            let norm = kind.normalization();
            s.sample(&d.graph, &seeds, norm, &mut SmallRng::seed_from_u64(9))
        } else {
            sample_blocks(&d, 5, 2, kind)
        };
        let mut m = Gnn::new(kind, d.feat_dim(), 6, d.num_classes, 2, 5);
        m.train_step_gathered(
            &batch,
            gathered(&d.features, batch.input_nodes()),
            &d.labels,
            None,
        );
        let mut analytic = Vec::new();
        m.grads_flat(&mut analytic);
        let mut params = Vec::new();
        m.params_flat(&mut params);
        let input = gathered(&d.features, batch.input_nodes());
        let loss_at = |m: &mut Gnn, p: &[f32]| -> f32 {
            m.set_params_flat(p);
            m.train_step_gathered(&batch, &input, &d.labels, None).loss
        };
        let eps = 3e-3f32;
        // Spot-check a spread of parameter coordinates.
        let n = params.len();
        for &i in &[0usize, n / 5, n / 3, n / 2, 2 * n / 3, n - 1] {
            let mut p = params.clone();
            p[i] += eps;
            let lp = loss_at(&mut m, &p);
            p[i] = params[i] - eps;
            let lm = loss_at(&mut m, &p);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - analytic[i]).abs() < 2e-2_f32.max(0.2 * fd.abs()),
                "{kind:?} shadow={use_shadow} param {i}: fd {fd} vs analytic {}",
                analytic[i]
            );
        }
        m.set_params_flat(&params);
    }

    #[test]
    fn backward_matches_finite_difference_gcn_blocks() {
        fd_check(Arch::Gcn, false);
    }

    #[test]
    fn backward_matches_finite_difference_sage_blocks() {
        fd_check(Arch::Sage, false);
    }

    #[test]
    fn backward_matches_finite_difference_gcn_shadow() {
        fd_check(Arch::Gcn, true);
    }

    #[test]
    fn backward_matches_finite_difference_sage_shadow() {
        fd_check(Arch::Sage, true);
    }

    #[test]
    fn pool_and_serial_forward_agree() {
        let d = tiny_dataset();
        let sampler = NeighborSampler::new(vec![5; 2]);
        let a = view_logits(&d, Arch::Sage, &sampler, 64, None);
        let pool = ThreadPool::new("t", 3);
        let b = view_logits(&d, Arch::Sage, &sampler, 64, Some(&pool));
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    /// The pool-parallel backward (dW, the transposed gather and the
    /// input-gradient GEMMs, each over windows of its output rows) equals
    /// the serial backward bitwise.
    fn backward_agree(kind: Arch, use_shadow: bool) {
        let d = tiny_dataset();
        let batch = if use_shadow {
            let s = ShadowSampler::new(vec![4, 3], 2);
            let seeds: Vec<u32> = d.train_nodes.iter().copied().take(64).collect();
            let norm = kind.normalization();
            s.sample(&d.graph, &seeds, norm, &mut SmallRng::seed_from_u64(17))
        } else {
            sample_blocks(&d, 64, 2, kind)
        };
        // 64 seeds: every layer has at least the 64 output rows that put
        // its GEMMs, input gradients and weight-gradient reduction on the
        // pool (the aggregations stay below the sparse work constant and
        // run inline either way).
        let mk = || Gnn::new(kind, d.feat_dim(), 16, d.num_classes, 2, 6);
        let mut serial = mk();
        serial.train_step_gathered(
            &batch,
            gathered(&d.features, batch.input_nodes()),
            &d.labels,
            None,
        );
        let mut gs = Vec::new();
        serial.grads_flat(&mut gs);
        let pool = ThreadPool::new("t", 4);
        let mut pooled = mk();
        assert!(pooled
            .dispatch()
            .goes_parallel(batch.seeds().len(), Some(&pool)));
        pooled.train_step_gathered(
            &batch,
            gathered(&d.features, batch.input_nodes()),
            &d.labels,
            Some(&pool),
        );
        let mut gp = Vec::new();
        pooled.grads_flat(&mut gp);
        assert_eq!(gs.len(), gp.len());
        for (i, (a, b)) in gs.iter().zip(&gp).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{kind:?} shadow={use_shadow} grad {i}: serial {a} vs pooled {b}"
            );
        }
    }

    #[test]
    fn pool_and_serial_backward_agree_gcn() {
        backward_agree(Arch::Gcn, false);
    }

    #[test]
    fn pool_and_serial_backward_agree_sage() {
        backward_agree(Arch::Sage, false);
    }

    #[test]
    fn pool_and_serial_backward_agree_sage_shadow() {
        backward_agree(Arch::Sage, true);
    }

    /// Plain row selection and its inverse, for the full-height oracles.
    fn select_rows(m: &Matrix, rows: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(rows.len(), m.cols());
        for (i, &r) in rows.iter().enumerate() {
            out.row_mut(i).copy_from_slice(m.row(r));
        }
        out
    }

    /// Adds, so that a row selected twice gets both gradients.
    fn scatter_rows(m: &Matrix, rows: &[usize], total: usize) -> Matrix {
        let mut out = Matrix::zeros(total, m.cols());
        for (i, &r) in rows.iter().enumerate() {
            for (o, x) in out.row_mut(r).iter_mut().zip(m.row(i)) {
                *o += x;
            }
        }
        out
    }

    /// One training step the way it was before the ReLU mask stopped being
    /// recorded and before the layers of a subgraph batch were cut down to
    /// the rows the next one reads: the same kernels in the same order as
    /// [`Gnn::train_step_gathered`], but **every layer runs at full height**
    /// (the seed rows are selected from the last output and the loss
    /// gradient scattered back to all rows), and every hidden layer is
    /// computed to its pre-activation `z` (bias-only epilogue), its mask
    /// recorded as `z > 0` by `relu_inplace` and applied with
    /// `relu_backward`. Returns the loss and the flat gradient.
    fn grads_with_recorded_masks(
        m: &Gnn,
        batch: &SampledBatch,
        input: &Matrix,
        labels: &[u32],
    ) -> (f32, Vec<f32>) {
        use argo_tensor::ops::{bias_grad, relu_backward, relu_inplace};
        let d = m.dispatch;
        let depth = m.layers.len();
        let (mut outs, mut aggs, mut masks) = (Vec::new(), Vec::new(), Vec::new());
        for (l, layer) in m.layers.iter().enumerate() {
            let h = if l == 0 { input } else { &outs[l - 1] };
            let norm = batch.layer_adj(l);
            let agg = d.aggregate(norm, h, None);
            let mut z = Matrix::zeros(norm.rows(), layer.w.cols());
            let epi = Epilogue::bias(&layer.b);
            match m.kind {
                Arch::Gcn => d.gemm_into(&agg, &layer.w, epi, None, &mut z),
                Arch::Sage => d.sage_gemm_into(h, &agg, &layer.w, epi, None, &mut z),
            }
            masks.push((l + 1 < depth).then(|| relu_inplace(&mut z)));
            outs.push(z);
            aggs.push(agg);
        }
        let h = &outs[depth - 1];
        let seed_labels: Vec<u32> = batch.seeds().iter().map(|&v| labels[v as usize]).collect();
        let (loss, mut grad) = match batch {
            SampledBatch::Blocks(_) => softmax_cross_entropy(h, &seed_labels),
            SampledBatch::Subgraph(sb) => {
                let logits = select_rows(h, &sb.seed_positions);
                let (loss, dlogits) = softmax_cross_entropy(&logits, &seed_labels);
                (loss, scatter_rows(&dlogits, &sb.seed_positions, h.rows()))
            }
        };
        let mut per_layer = vec![Vec::new(); depth];
        for l in (0..depth).rev() {
            if let Some(mask) = &masks[l] {
                relu_backward(&mut grad, mask);
            }
            let x = if l == 0 { input } else { &outs[l - 1] };
            let (norm, w, f_in) = (batch.layer_adj(l), &m.layers[l].w, m.dims[l]);
            let n_dst = norm.rows();
            let mut dw = Matrix::zeros(w.rows(), w.cols());
            match m.kind {
                Arch::Gcn => d.grad_weights_into(&[&aggs[l]], &grad, None, &mut dw),
                Arch::Sage => d.grad_weights_into(&[x, &aggs[l]], &grad, None, &mut dw),
            }
            per_layer[l] = [dw.data(), &bias_grad(&grad)].concat();
            if l == 0 {
                break;
            }
            grad = match m.kind {
                Arch::Gcn => {
                    let dagg = d.grad_input(&grad, w, 0..w.rows(), None);
                    d.aggregate_transpose(norm, &dagg, None)
                }
                Arch::Sage => {
                    let dself = d.grad_input(&grad, w, 0..f_in, None);
                    let dmean = d.grad_input(&grad, w, f_in..2 * f_in, None);
                    let mut dh = d.aggregate_transpose(norm, &dmean, None);
                    for r in 0..n_dst {
                        for (a, b) in dh.row_mut(r).iter_mut().zip(dself.row(r)) {
                            *a += b;
                        }
                    }
                    dh
                }
            };
        }
        (loss, per_layer.concat())
    }

    /// The sampled batch kinds of the tests below, `depth` layers deep.
    /// "shadow 3-hop" reaches far enough from its seeds that the cascade
    /// renumbers the columns of consecutive layers (pinned by
    /// `three_hop_shadow_compacts_consecutive_layers`).
    fn samplers(depth: usize) -> Vec<(&'static str, Box<dyn Sampler>)> {
        vec![
            ("neighbor", Box::new(NeighborSampler::new(vec![5; depth]))),
            ("shadow", Box::new(ShadowSampler::new(vec![4, 3], depth))),
            (
                "shadow 3-hop",
                Box::new(ShadowSampler::new(vec![3, 2, 2], depth)),
            ),
        ]
    }

    fn seeds_of(d: &argo_graph::Dataset) -> Vec<u32> {
        d.train_nodes.iter().copied().take(24).collect()
    }

    /// A run that fuses `kind`'s normalization into the adjacency values,
    /// as the engine's loader and the serving path sample.
    fn fused_run(kind: Arch, scratch: &mut SamplerScratch) -> SampleRun<'_> {
        SampleRun::new(SeedSequence::new(9), scratch).with_norm(kind.normalization())
    }

    /// One owned batch of every kind a `depth`-layer model of `kind` trains
    /// on: each sampler's batch, fused for `kind`, and the whole graph with
    /// its seeds scattered in ascending order.
    fn every_batch_kind(
        d: &argo_graph::Dataset,
        kind: Arch,
        depth: usize,
    ) -> Vec<(String, SampledBatch)> {
        let seeds = seeds_of(d);
        let mut scratch = SamplerScratch::new();
        let mut out = Vec::new();
        for (name, s) in samplers(depth) {
            let fused = s
                .sample_into(&d.graph, &seeds, fused_run(kind, &mut scratch))
                .to_owned();
            out.push((name.to_string(), fused));
        }
        let mut scattered: Vec<u32> = (d.train_nodes.iter().copied().skip(3).step_by(7))
            .take(24)
            .collect();
        scattered.sort_unstable();
        assert_ne!(scattered, (0..24).collect::<Vec<u32>>());
        let positions = scattered.iter().map(|&v| v as usize).collect();
        out.push((
            "full graph".to_string(),
            hand_built(graph_csr(&d.graph), positions, kind),
        ));
        out
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Loss and flat gradient of one production step, as bits.
    fn step_bits(
        m: &mut Gnn,
        batch: &SampledBatch,
        input: &Matrix,
        labels: &[u32],
    ) -> (u32, Vec<u32>) {
        let stats = m.train_step_gathered(batch, input, labels, None);
        let mut g = Vec::new();
        m.grads_flat(&mut g);
        (stats.loss.to_bits(), bits(&g))
    }

    /// What a loader worker hands over for `batch`: the cascade and
    /// transposes of its adjacencies, and `input` aggregated over layer 0's,
    /// through the loader's own reference entry point.
    fn prepared(m: &Gnn, batch: &SampledBatch, input: &Matrix) -> PreparedInput {
        let full = |l| batch.layer_adj(l).view();
        let mut cascade = Cascade::default();
        cascade.for_owned(m.layers.len(), batch);
        cascade.transpose_layers(full);
        PreparedInput::aggregate(cascade, full(0), input, m.dispatch, &InputRing::new(), None)
    }

    /// The cascade a `depth`-layer model runs `batch` over.
    fn cascade_of(depth: usize, batch: &SampledBatch) -> Cascade {
        let mut c = Cascade::default();
        c.for_owned(depth, batch);
        c
    }

    /// The forward pass over an owned batch: the gathered adapters' layer 0,
    /// then the one body.
    fn forward_owned(m: &Gnn, batch: &SampledBatch, input: &Matrix) -> Matrix {
        let input = prepared(m, batch, input);
        let layer = |l| input.cascade.layer(l, batch.layer_adj(l).view());
        m.run(layer, &input, None)
    }

    /// The gathered step against the full-height oracle, bit for bit — and
    /// the step over what the loader prepares against the gathered step:
    /// loss and every gradient.
    fn assert_step_is_the_oracles(
        m: &mut Gnn,
        batch: &SampledBatch,
        input: &Matrix,
        labels: &[u32],
        who: &str,
    ) {
        let (loss, grads) = step_bits(m, batch, input, labels);
        let (want_loss, want) = grads_with_recorded_masks(m, batch, input, labels);
        assert_eq!(loss, want_loss.to_bits(), "{who}: loss");
        assert_eq!(grads, bits(&want), "{who}: gradients");
        let handoff = prepared(m, batch, input);
        let stats = m.step(
            batch.seeds(),
            |l| batch.layer_adj(l).view(),
            &handoff,
            labels,
            None,
        );
        let mut g = Vec::new();
        m.grads_flat(&mut g);
        assert_eq!((stats.loss.to_bits(), bits(&g)), (loss, grads), "{who}");
    }

    /// Both models at two, three and four layers.
    fn kinds_and_depths() -> impl Iterator<Item = (Arch, usize)> {
        [Arch::Sage, Arch::Gcn]
            .into_iter()
            .flat_map(|kind| [2, 3, 4].map(|depth| (kind, depth)))
    }

    fn both_tiers() -> [DispatchPolicy; 2] {
        [
            DispatchPolicy::default(),
            DispatchPolicy::default().force_scalar(),
        ]
    }

    /// The pruned step (mask read off the output, every subgraph layer cut
    /// down to the rows the next one reads) against the full-height
    /// recorded-mask oracle: loss and every gradient bit, every batch kind,
    /// both models, both tiers, two to four layers.
    #[test]
    fn mask_from_output_matches_recorded_mask_bitwise() {
        let d = tiny_dataset();
        for (kind, depth) in kinds_and_depths() {
            for (name, batch) in &every_batch_kind(&d, kind, depth) {
                let input = gathered(&d.features, batch.input_nodes());
                for policy in both_tiers() {
                    let mut m = Gnn::new(kind, d.feat_dim(), 16, d.num_classes, depth, 5)
                        .with_dispatch(policy);
                    let who = format!("{kind:?}×{depth} {name} simd={}", policy.simd_enabled());
                    assert_step_is_the_oracles(&mut m, batch, &input, &d.labels, &who);
                    let mut got = Vec::new();
                    m.grads_flat(&mut got);
                    assert!(got.iter().any(|g| *g != 0.0));
                    // Two layers over a ShaDow subgraph read the seeds'
                    // neighbours only: layer 0 is cut, and the prepared step
                    // above ran over operands of `R[0]`'s rows alone.
                    if depth == 2 && name == "shadow" {
                        let c = prepared(&m, batch, &input).cascade;
                        let cut = c.input_rows().expect("layer 0 is cut");
                        assert!(cut.len() < batch.input_nodes().len(), "{who}");
                    }
                }
            }
        }
    }

    fn subgraph_of(batch: &SampledBatch) -> &argo_sample::batch::SubgraphBatch {
        match batch {
            SampledBatch::Subgraph(sb) => sb,
            SampledBatch::Blocks(_) => panic!("expected a subgraph batch"),
        }
    }

    /// The batch the pins above rely on for a cascade that compacts more than
    /// one layer: under a 4-layer model a 3-hop ShaDow subgraph has its seeds,
    /// their 1-hop and their 2-hop neighbourhoods as strictly nested row sets,
    /// so layers 3, 2 and 1 are slices and the upper two have renumbered
    /// columns.
    #[test]
    fn three_hop_shadow_compacts_consecutive_layers() {
        let d = tiny_dataset();
        for kind in [Arch::Sage, Arch::Gcn] {
            let batch = ShadowSampler::new(vec![3, 2, 2], 4).sample(
                &d.graph,
                &seeds_of(&d),
                kind.normalization(),
                &mut SmallRng::seed_from_u64(9),
            );
            let n = subgraph_of(&batch).nodes.len();
            let c = cascade_of(4, &batch);
            assert!(
                c.first() <= 1,
                "{kind:?}: layers {}.. are slices",
                c.first()
            );
            let rows: Vec<usize> = (1..4).map(|l| c.slices()[l].rows()).collect();
            assert!(rows.windows(2).all(|w| w[0] > w[1]), "{kind:?}: {rows:?}");
            assert!(
                rows[0] < n && rows[2] == batch.num_seeds(),
                "{kind:?}: {rows:?}"
            );
            // A slice's columns are the rows of the layer below.
            assert_eq!(c.slices()[3].cols(), rows[1], "{kind:?}");
            assert_eq!(c.slices()[2].cols(), rows[0], "{kind:?}");
            if kind == Arch::Sage {
                // Ranks of `R[l]` in `R[l-1]`: ascending, and not a prefix.
                let pos = c.self_rows(2).unwrap();
                assert!(pos.windows(2).all(|w| w[0] < w[1]));
                assert!(pos.iter().copied().ne(0..pos.len()));
            }
        }
    }

    /// A hand-built subgraph batch over the graph whose adjacency is `adj`,
    /// with the given seed positions, fused for a `kind` model as a sampler
    /// fuses it: `1/k` over a row of `k` entries, or `inv(v)·inv(u)` with
    /// `inv(x) = 1/sqrt(max(deg(x), 1))`, a node's degree being its row's
    /// length.
    fn hand_built(adj: SparseMatrix, seed_positions: Vec<usize>, kind: Arch) -> SampledBatch {
        let n = adj.rows();
        let len = |i: usize| adj.row_range(i).len();
        let inv = |i: usize| 1.0 / (len(i).max(1) as f32).sqrt();
        let mut values = Vec::with_capacity(adj.nnz());
        for i in 0..n {
            for &j in &adj.indices()[adj.row_range(i)] {
                values.push(match kind {
                    Arch::Sage => 1.0 / len(i) as f32,
                    Arch::Gcn => inv(i) * inv(j as usize),
                });
            }
        }
        let (indptr, indices) = (adj.indptr().to_vec(), adj.indices().to_vec());
        SampledBatch::Subgraph(argo_sample::batch::SubgraphBatch {
            nodes: (0..n as u32).collect(),
            seeds: seed_positions.iter().map(|&p| p as u32).collect(),
            adj: SparseMatrix::new(n, n, indptr, indices, Some(values)),
            seed_positions,
            norm: kind.normalization(),
        })
    }

    /// The whole graph's CSR as a batch adjacency: under [`hand_built`] its
    /// row lengths are the graph's degrees, so the batch is the full graph.
    fn graph_csr(g: &argo_graph::Graph) -> SparseMatrix {
        let indptr = g.indptr().iter().map(|&p| p as u32).collect();
        SparseMatrix::new(
            g.num_nodes(),
            g.num_nodes(),
            indptr,
            g.indices().to_vec(),
            None,
        )
    }

    /// The 9-node path `0 – 1 – … – 8` followed by `isolated` nodes without
    /// an entry.
    fn path_graph(isolated: usize) -> SparseMatrix {
        let n = 9 + isolated;
        let (mut indptr, mut indices) = (vec![0u32], Vec::new());
        for i in 0..n as u32 {
            if i < 9 {
                indices.extend(i.checked_sub(1));
                indices.extend((i + 1 < 9).then_some(i + 1));
            }
            indptr.push(indices.len() as u32);
        }
        SparseMatrix::new(n, n, indptr, indices, None)
    }

    /// Seeds without a single in-subgraph entry: their slice rows are empty,
    /// and when every seed is isolated the cascade hands 0-row and 0-column
    /// matrices to SpMM, GEMM, `grad_weights_into` and the transposed gather.
    /// Bitwise the oracle all the same.
    #[test]
    fn isolated_seeds_run_through_empty_slices_bitwise() {
        let d = tiny_dataset();
        for (seeds, empty_layers) in [(vec![4, 9], false), (vec![9, 10], true)] {
            for (kind, depth) in kinds_and_depths() {
                let batch = hand_built(path_graph(2), seeds.clone(), kind);
                let input = gathered(&d.features, batch.input_nodes());
                for policy in both_tiers() {
                    let mut m = Gnn::new(kind, d.feat_dim(), 8, d.num_classes, depth, 5)
                        .with_dispatch(policy);
                    let who = format!("{kind:?}×{depth} simd={}", policy.simd_enabled());
                    assert_step_is_the_oracles(&mut m, &batch, &input, &d.labels, &who);
                    // GCN reads nothing below an isolated seed; SAGE still
                    // reads the seed's own row.
                    if empty_layers && kind == Arch::Gcn {
                        let c = cascade_of(depth, &batch);
                        assert_eq!(c.slices()[depth - 1].cols(), 0, "{who}");
                        assert_eq!(c.slices()[depth - 2].rows(), 0, "{who}");
                    }
                    let logits = forward_owned(&m, &batch, &input);
                    let want = full_height_logits(&m, &batch, &input);
                    assert_eq!(bits(logits.data()), bits(want.data()), "{who}: forward");
                }
            }
        }
    }

    /// Hand-built seed positions that repeat or do not ascend: the top
    /// slice's rows then come in another order than the full-height
    /// reductions visit them, so the step is the oracle's to tolerance only
    /// — documented on [`Cascade`]; every sampler's positions ascend.
    #[test]
    fn repeated_and_unordered_seed_positions_are_tolerance_equal() {
        let d = tiny_dataset();
        for kind in [Arch::Sage, Arch::Gcn] {
            let batch = hand_built(path_graph(2), vec![6, 2, 6, 0, 9, 3], kind);
            let input = gathered(&d.features, batch.input_nodes());
            let mut m = Gnn::new(kind, d.feat_dim(), 8, d.num_classes, 3, 5);
            let stats = m.train_step_gathered(&batch, &input, &d.labels, None);
            let mut got = Vec::new();
            m.grads_flat(&mut got);
            let (loss, want) = grads_with_recorded_masks(&m, &batch, &input, &d.labels);
            assert!((stats.loss - loss).abs() <= 1e-6, "{kind:?}: loss");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (g - w).abs() <= 1e-5 * 1.0f32.max(w.abs()),
                    "{kind:?} grad {i}: {g} vs {w}"
                );
            }
        }
    }

    /// Where the next layer reads every row there is nothing to cut: the
    /// cascade stops, builds no slice for the layers below, and they run over
    /// the batch's own adjacency.
    #[test]
    fn a_layer_that_needs_every_row_gets_no_slice() {
        let d = tiny_dataset();
        let all: Vec<usize> = (0..d.graph.num_nodes()).collect();
        // Every node a seed: no layer is cut. Every third node of a path:
        // SAGE's last layer reads the seeds and both neighbours of each,
        // which is every node, so only that layer is.
        for (batch, first) in [
            (hand_built(graph_csr(&d.graph), all, Arch::Sage), 3),
            (hand_built(path_graph(0), vec![1, 4, 7], Arch::Sage), 2),
        ] {
            let c = cascade_of(3, &batch);
            assert_eq!(c.first(), first);
            for l in 0..first {
                assert!(c.slice(l).is_none());
                assert_eq!(c.slices()[l], SparseMatrix::default(), "layer {l}: no copy");
            }
            // The slice above a full-height layer keeps the batch's columns.
            for l in first..3 {
                assert_eq!(c.slices()[l].cols(), subgraph_of(&batch).nodes.len());
            }
        }
    }

    /// The cascade is what sizes a step's buffers: a fresh 3-layer model's
    /// ShaDow step allocates exactly three matrices of layer 0's height —
    /// its aggregation, in the model's ring, and in its workspace its output
    /// and the gradient of that output (six when every layer ran at full
    /// height) — and layer 1's are `|R[1]|` rows.
    #[test]
    fn a_shadow_step_takes_needed_row_buffers_for_the_middle_layer() {
        let d = tiny_dataset();
        let hidden = 16;
        let batch = ShadowSampler::new(vec![4, 3], 3).sample(
            &d.graph,
            &seeds_of(&d),
            Normalization::Gcn,
            &mut SmallRng::seed_from_u64(9),
        );
        let mut m = Gnn::new(Arch::Gcn, d.feat_dim(), hidden, d.num_classes, 3, 5);
        m.train_step_gathered(
            &batch,
            gathered(&d.features, batch.input_nodes()),
            &d.labels,
            None,
        );
        let c = cascade_of(3, &batch);
        let bottom = c
            .slice(0)
            .map_or(subgraph_of(&batch).nodes.len(), SparseMatrix::rows);
        let middle = c.slices()[1].rows();
        assert!(
            c.first() <= 1 && 2 * middle < 2 * bottom,
            "{middle} of {bottom}"
        );
        let mut ws = m.ws.borrow_mut();
        let mut caps = Vec::new();
        while ws.free_len() > 0 {
            caps.push(ws.take_unzeroed(1, 1).into_data().capacity());
        }
        let at_least = |rows: usize| caps.iter().filter(|&&c| c >= rows * hidden).count();
        assert_eq!(at_least(bottom), 2, "{caps:?}");
        // Layer 1's aggregation, output and aggregation gradient, and the
        // gradient of its output.
        assert_eq!(at_least(middle), 2 + 4, "{caps:?}");
        // Layer 0's aggregation is back in the ring.
        assert_eq!(m.ring.parked_bytes(), 4 * bottom * d.feat_dim());
    }

    /// Full-height forward built from the dispatch operations alone: every
    /// layer computes all of its rows, the seed rows are selected at the end.
    fn full_height_logits(m: &Gnn, batch: &SampledBatch, input: &Matrix) -> Matrix {
        let d = m.dispatch;
        let depth = m.layers.len();
        let mut h = input.clone();
        for (l, Layer { w, b, .. }) in m.layers.iter().enumerate() {
            let norm = batch.layer_adj(l);
            let agg = d.aggregate(norm, &h, None);
            let mut z = Matrix::zeros(norm.rows(), w.cols());
            let epi = if l + 1 < depth {
                Epilogue::bias_relu(b)
            } else {
                Epilogue::bias(b)
            };
            match m.kind {
                Arch::Gcn => d.gemm_into(&agg, w, epi, None, &mut z),
                Arch::Sage => d.sage_gemm_into(&h, &agg, w, epi, None, &mut z),
            }
            h = z;
        }
        match batch {
            SampledBatch::Blocks(_) => h,
            SampledBatch::Subgraph(sb) => select_rows(&h, &sb.seed_positions),
        }
    }

    /// Every forward entry point returns the seed rows of the full-height
    /// forward, bit for bit: owned batches through the one body over their
    /// gathered layer 0, arena views through `forward_gathered_view`, and
    /// fused views through `forward_prepared` over what the shared prologue
    /// makes of them.
    #[test]
    fn forward_returns_the_seed_rows_of_the_full_height_forward_bitwise() {
        let d = tiny_dataset();
        for (kind, depth, policy) in
            kinds_and_depths().flat_map(|(k, depth)| both_tiers().map(|p| (k, depth, p)))
        {
            let m = Gnn::new(kind, d.feat_dim(), 16, d.num_classes, depth, 5).with_dispatch(policy);
            // `got`: the logits of one entry point.
            let check = |who: String, batch: &SampledBatch, input: &Matrix, got: Matrix| {
                let want = full_height_logits(&m, batch, input);
                assert_eq!(want.rows(), batch.num_seeds());
                let who = format!("{kind:?}×{depth} simd={} {who}", policy.simd_enabled());
                assert_eq!(bits(got.data()), bits(want.data()), "{who}");
            };
            for (name, batch) in &every_batch_kind(&d, kind, depth) {
                let input = gathered(&d.features, batch.input_nodes());
                let got = forward_owned(&m, batch, &input);
                check(format!("{name}: owned"), batch, &input, got);
            }
            let seeds = seeds_of(&d);
            let mut scratch = SamplerScratch::new();
            for (name, s) in samplers(depth) {
                let view = s.sample_into(&d.graph, &seeds, fused_run(kind, &mut scratch));
                let batch = view.to_owned();
                let input = gathered(&d.features, batch.input_nodes());
                let got = m.forward_gathered_view(&view, &input, None);
                check(format!("{name}: view"), &batch, &input, got);
                // The serving path: the view's prologue, then the forward
                // pass from the first GEMM.
                let (ring, spans) = (InputRing::new(), WorkerRing::detached());
                let prepared = PreparedInput::prepare(&view, &d.features, depth, &ring, &spans, 0);
                let got = m.forward_prepared(&view, &prepared, None);
                check(format!("{name}: prepared"), &batch, &input, got);
            }
        }
    }

    /// Feeds a SAGE model a `norm`-fused batch: an owned Neighbor batch to
    /// `train_step_gathered`, or a ShaDow arena view to
    /// `forward_gathered_view`.
    fn feed_sage(norm: Normalization, as_view: bool) {
        let d = tiny_dataset();
        let mut m = Gnn::new(Arch::Sage, d.feat_dim(), 8, d.num_classes, 2, 5);
        let seeds = seeds_of(&d);
        if as_view {
            let mut scratch = SamplerScratch::new();
            let run = SampleRun::new(SeedSequence::new(9), &mut scratch).with_norm(norm);
            let view = ShadowSampler::new(vec![4, 3], 2).sample_into(&d.graph, &seeds, run);
            m.forward_gathered_view(&view, gathered(&d.features, view.input_nodes()), None);
        } else {
            let rng = &mut SmallRng::seed_from_u64(9);
            let batch = NeighborSampler::new(vec![5; 2]).sample(&d.graph, &seeds, norm, rng);
            let input = gathered(&d.features, batch.input_nodes());
            m.train_step_gathered(&batch, input, &d.labels, None);
        }
    }

    #[test]
    #[should_panic(expected = "fused with Mean; this one is fused with Gcn")]
    fn an_owned_batch_fused_for_the_other_model_panics() {
        feed_sage(Normalization::Gcn, false);
    }

    #[test]
    #[should_panic(expected = "fused with Mean; this one is fused with None")]
    fn an_unfused_owned_batch_panics() {
        feed_sage(Normalization::None, false);
    }

    #[test]
    #[should_panic(expected = "fused with Mean; this one is fused with Gcn")]
    fn a_view_fused_for_the_other_model_panics() {
        feed_sage(Normalization::Gcn, true);
    }

    #[test]
    #[should_panic(expected = "fused with Mean; this one is fused with None")]
    fn an_unfused_view_panics() {
        feed_sage(Normalization::None, true);
    }

    /// What the engine's loader hands over is what the step over the
    /// gathered rows computes for itself: every ShaDow batch of an epoch
    /// loaded by 1, 2 and 4 workers, stepped from its prepared input —
    /// layer-0 operands, cascade and transposes built on the worker — equals
    /// the gathered step in loss and every gradient bit, both models, both
    /// tiers. A prepared step takes nothing from the model's own ring.
    #[test]
    fn loaded_shadow_batches_step_as_gathered_bitwise_at_any_worker_count() {
        argo_rt::watchdog(60, || {
            let d = tiny_dataset();
            let (graph, feats) = (Arc::new(d.graph.clone()), Arc::new(d.features.clone()));
            let seeds: Arc<Vec<u32>> = Arc::new(d.train_nodes.iter().copied().take(72).collect());
            let sampler: Arc<dyn Sampler> = Arc::new(ShadowSampler::new(vec![4, 3], 3));
            let step_bits = |m: &mut Gnn, stats: StepStats| {
                let mut g = Vec::new();
                m.grads_flat(&mut g);
                (stats.loss.to_bits(), bits(&g))
            };
            for (kind, n_samp) in [Arch::Gcn, Arch::Sage]
                .into_iter()
                .flat_map(|kind| [1, 2, 4].map(|n| (kind, n)))
            {
                let loader = LoaderSpec::builder(graph.clone(), sampler.clone(), seeds.clone())
                    .batch_size(24)
                    .epoch_seeds(SeedSequence::new(5))
                    .n_samp(n_samp)
                    .normalization(kind.normalization())
                    .features(feats.clone())
                    .start();
                for (i, lb) in loader {
                    let (view, input) = (lb.view(), lb.input.as_ref());
                    let input = input.expect("the spec carries the features");
                    assert!(input.cascade.first() < 3, "the top layer is a slice");
                    let (batch, rows) =
                        (view.to_owned(), gathered(&d.features, view.input_nodes()));
                    for policy in both_tiers() {
                        let who = format!("{kind:?} {n_samp} workers batch {i} {policy:?}");
                        let mk = || {
                            Gnn::new(kind, d.feat_dim(), 16, d.num_classes, 3, 5)
                                .with_dispatch(policy)
                        };
                        let (mut prepared, mut own) = (mk(), mk());
                        let stats = prepared.train_step_prepared(&view, input, &d.labels, None);
                        let got = step_bits(&mut prepared, stats);
                        let stats = own.train_step_gathered(&batch, &rows, &d.labels, None);
                        assert_eq!(got, step_bits(&mut own, stats), "{who}");
                        assert!(own.ring.buffers_made() > 0, "{who}");
                        assert_eq!(prepared.ring.buffers_made(), 0, "{who}: took nothing");
                    }
                }
            }
        });
    }

    /// The tier chooses how fast a model trains, not what it learns:
    /// SAGE over Neighbor batches and GCN over ShaDow batches, two and three
    /// layers deep, each batch prepared as the loader prepares it, trained
    /// for four steps of `train_step_prepared` + Adam, end with equal losses
    /// and parameters, bit for bit, on every tier.
    #[test]
    fn every_tier_trains_the_same_bits() {
        let d = tiny_dataset();
        let (f, ring, spans) = (&d.features, InputRing::new(), WorkerRing::detached());
        for (kind, depth) in [Arch::Sage, Arch::Gcn]
            .into_iter()
            .flat_map(|kind| [2, 3].map(|depth| (kind, depth)))
        {
            let sampler: Box<dyn Sampler> = match kind {
                Arch::Sage => Box::new(NeighborSampler::new(vec![5; depth])),
                Arch::Gcn => Box::new(ShadowSampler::new(vec![4, 3], depth)),
            };
            let train = |policy| {
                let mut m =
                    Gnn::new(kind, f.dim(), 16, d.num_classes, depth, 5).with_dispatch(policy);
                let mut opt = crate::optim::Adam::new(m.num_params(), 0.01);
                let (mut scratch, mut losses, mut p, mut g) =
                    (SamplerScratch::new(), vec![], vec![], vec![]);
                for step in 0..4 {
                    let seeds = &d.train_nodes[24 * step..][..24];
                    let run = SampleRun::new(SeedSequence::new(step as u64), &mut scratch);
                    let view =
                        sampler.sample_into(&d.graph, seeds, run.with_norm(kind.normalization()));
                    let input =
                        PreparedInput::prepare_for_training(&view, f, depth, &ring, &spans, 0);
                    let stats = m.train_step_prepared(&view, &input, &d.labels, None);
                    losses.push(stats.loss.to_bits());
                    m.grads_flat(&mut g);
                    m.params_flat(&mut p);
                    crate::optim::Optimizer::step(&mut opt, &mut p, &g);
                    m.set_params_flat(&p);
                }
                (losses, bits(&p))
            };
            let [(vl, vp), (sl, sp)] = both_tiers().map(train);
            let apart = |a: &[u32], b: &[u32]| a.iter().zip(b).filter(|(x, y)| x != y).count();
            let (apart, n) = ((apart(&vl, &sl), apart(&vp, &sp)), vp.len());
            assert_eq!(
                apart,
                (0, 0),
                "{kind:?}×{depth}: (losses, parameters) of (4, {n}) apart"
            );
        }
    }

    /// Every buffer a step takes unzeroed is overwritten in full: a model
    /// whose workspace holds NaN-filled buffers of exactly the sizes the
    /// step asks for computes the bits a fresh model does.
    #[test]
    fn stale_workspace_contents_never_reach_a_step() {
        let d = tiny_dataset();
        let seeds = seeds_of(&d);
        let rng = || SmallRng::seed_from_u64(9);
        let (mean, gcn) = (Normalization::Mean, Normalization::Gcn);
        let blocks = NeighborSampler::new(vec![5; 3]).sample(&d.graph, &seeds, mean, &mut rng());
        let shadow = ShadowSampler::new(vec![4, 3], 3).sample(&d.graph, &seeds, gcn, &mut rng());
        for (kind, batch) in [(Arch::Sage, blocks), (Arch::Gcn, shadow)] {
            let input = gathered(&d.features, batch.input_nodes());
            let step = |m: &mut Gnn| {
                let stats = m.train_step_gathered(&batch, &input, &d.labels, None);
                let mut g = Vec::new();
                m.grads_flat(&mut g);
                (stats.loss.to_bits(), bits(&g))
            };
            let mk = || Gnn::new(kind, d.feat_dim(), 16, d.num_classes, 3, 5);
            let want = step(&mut mk());
            // One step parks every buffer the next one will take; poison them.
            let mut used = mk();
            step(&mut used);
            let parked = |m: &Gnn| {
                let mut ws = m.ws.borrow_mut();
                let mut bufs = Vec::new();
                while ws.free_len() > 0 {
                    bufs.push(ws.take_unzeroed(1, 1).into_data());
                }
                bufs
            };
            let poison = |mut buf: Vec<f32>| {
                let cap = buf.capacity();
                buf.clear();
                buf.resize(cap, f32::NAN);
                Matrix::from_vec(1, cap, buf)
            };
            let bufs = parked(&used);
            assert!(bufs.len() >= 2 * 3, "outputs and aggregations");
            let mut poisoned: Vec<_> = bufs.iter().map(|b| b.as_ptr()).collect();
            for buf in bufs {
                used.ws.borrow_mut().put(poison(buf));
            }
            // Layer 0's operands, in the model's ring, are taken unzeroed too.
            let made = used.ring.buffers_made();
            let ring: Vec<_> = (0..made).map(|_| used.ring.take(0, 0)).collect();
            for buf in ring {
                used.ring.put(poison(buf.into_data()));
            }
            assert_eq!(step(&mut used), want, "{kind:?}");
            assert_eq!(used.ring.buffers_made(), made, "{kind:?}: ring reuse");
            // Every take was a reuse: the poisoned buffers, and only they,
            // came back.
            let mut back: Vec<_> = parked(&used).iter().map(|b| b.as_ptr()).collect();
            poisoned.sort();
            back.sort();
            assert_eq!(back, poisoned, "{kind:?}");
        }
    }

    #[test]
    fn caller_supplied_input_is_never_parked() {
        // The 613 MB trap: a persistent replica fed one loader-made input per
        // batch must not collect them in its free list. Borrowed or by value,
        // the input is only read; the model holds its own buffers.
        let d = tiny_dataset();
        let mut scratch = SamplerScratch::new();
        let run = fused_run(Arch::Sage, &mut scratch);
        let view =
            NeighborSampler::new(vec![5; 2]).sample_into(&d.graph, &d.train_nodes[..16], run);
        let batch = view.to_owned();
        let input = gathered(&d.features, view.input_nodes());
        let mut m = Gnn::new(Arch::Sage, d.feat_dim(), 16, d.num_classes, 2, 3);
        let input_bytes = input.data().len() * 4;
        let first = m.train_step_gathered(&batch, &input, &d.labels, None);
        for _ in 0..6 {
            let again = m.train_step_gathered(&batch, input.clone(), &d.labels, None);
            assert_eq!(again, first);
            m.forward_gathered_view(&view, input.clone(), None);
        }
        let held = m.workspace_bytes() + m.ring.parked_bytes();
        assert!(
            held < input_bytes,
            "the model ({held} B) holds activations and layer-0 operands, not {input_bytes}-byte inputs"
        );
    }

    #[test]
    fn training_reduces_loss() {
        let d = tiny_dataset();
        let mut m = Gnn::new(Arch::Sage, d.feat_dim(), 16, d.num_classes, 2, 4);
        let mut opt = crate::optim::Adam::new(m.num_params(), 0.01);
        let mut first = None;
        let mut last = 0.0;
        for step in 0..30 {
            let s = NeighborSampler::new(vec![5, 5]);
            let seeds: Vec<u32> = d
                .train_nodes
                .iter()
                .copied()
                .skip((step * 32) % d.train_nodes.len().saturating_sub(32).max(1))
                .take(32)
                .collect();
            let rng = &mut SmallRng::seed_from_u64(step as u64);
            let batch = s.sample(&d.graph, &seeds, Normalization::Mean, rng);
            let stats = m.train_step_gathered(
                &batch,
                gathered(&d.features, batch.input_nodes()),
                &d.labels,
                None,
            );
            if first.is_none() {
                first = Some(stats.loss);
            }
            last = stats.loss;
            let mut g = Vec::new();
            m.grads_flat(&mut g);
            let mut p = Vec::new();
            m.params_flat(&mut p);
            crate::optim::Optimizer::step(&mut opt, &mut p, &g);
            m.set_params_flat(&p);
        }
        assert!(
            last < first.unwrap() * 0.7,
            "loss {last} did not drop from {}",
            first.unwrap()
        );
    }
}
