//! GCN / GraphSAGE models with manual forward and backward passes.
//!
//! Every matmul/SpMM goes through the crate-wide [`DispatchPolicy`] (blocked
//! kernels, serial vs pool-parallel decided in one place), bias+ReLU are
//! fused into the GEMM write-back, GraphSAGE's `[h ‖ agg]` concatenation is
//! eliminated by multiplying against the self/neighbor halves of the stacked
//! weight, and activations/gradient buffers round-trip through a per-model
//! [`Workspace`] so steady-state training steps allocate (almost) nothing.

use std::borrow::{Borrow, Cow};
use std::cell::RefCell;

use argo_rt::ThreadPool;
use argo_sample::batch::SampledBatch;
use argo_sample::loader::PreparedInput;
use argo_sample::view::SampledBatchView;
use argo_tensor::ops::{
    accuracy, bias_grad_into, relu_backward_from_output, softmax_cross_entropy,
};
use argo_tensor::{DispatchPolicy, Epilogue, Matrix, SparseMatrix, SparseView, Workspace};

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

/// The needed-row cascade of one subgraph batch and the storage it reuses
/// from batch to batch: slot `l` of `slices` and `self_rows` belongs to layer
/// `l`, so a model's steady-state steps build their slices in place.
///
/// Every layer of the forward pass ([`Gnn::forward`]; inference keeps the
/// logits, training every layer's buffers for backward) takes its normalized
/// adjacency as a borrowed [`SparseView`] (`n_dst × n_src`; the output has
/// one row per adjacency row) — a view of an owned batch's matrix, one still
/// sitting in the sampler's arena or a slice of the cascade, the forward
/// pass cannot tell. Only backward needs the owned [`SparseMatrix`], for the
/// transpose cached on it.
///
/// # What a subgraph batch computes
///
/// A block batch shrinks from layer to layer by construction. A subgraph
/// batch (ShaDow, or a whole graph built by hand) shares one `N × N`
/// adjacency `Â` between its layers, but only its seed rows are ever read,
/// so each layer computes only the rows the next one reads — the
/// **needed-row cascade** [`Cascade::build`] computes per batch, for owned
/// batches and arena views alike: `R[L-1]` is the seed positions; layer `l`
/// runs over `Â.select_rows(R[l])`; `R[l-1]` is the distinct columns that
/// slice names, ascending (for SAGE joined with `R[l]`, so every self row is
/// there); and the slice's columns are renumbered to their ranks in
/// `R[l-1]`, which makes it `|R[l]| × |R[l-1]|`. Once `R[l-1]` is every
/// row, the layers below run over `Â` itself. Activations, gradients, the
/// `dW`/`db` reductions and the transposed gather (over each slice's own
/// cached transpose) are all sized by the adjacency, so they shrink with it.
///
/// This is bitwise the full-height computation followed by a row selection.
/// SpMM and GEMM rows are independent of each other (the GEMM is pinned
/// row-partition-invariant), so a kept row has the bits it had. A rank map
/// over an ascending set is monotone, so the entries of every slice row, and
/// of every row of its transpose, stay in the order they had in `Â`. And
/// every dropped row of layer `l`'s output had an exactly zero gradient at
/// full height — no kept row of layer `l + 1` names it — so it contributed
/// `acc + x·0` to `db`/`dW`, which add rows in ascending order, and
/// `d + w·0` to the input gradient: `acc` and `d`. That holds on the serial
/// path; the pooled weight-gradient reduction splits its partial sums by row
/// count and is equal to tolerance, as it always was. A hand-built batch
/// whose seed positions repeat or do not ascend is equal to tolerance only.
#[derive(Default)]
struct Cascade {
    /// Layers `first..` run over their slice, the layers below over `Â`.
    first: usize,
    slices: Vec<SparseMatrix>,
    /// Where the rows layer `l` computes sit in its input (SAGE only).
    self_rows: Vec<Vec<usize>>,
    /// `R[l]` while layer `l` is built.
    rows: Vec<usize>,
    /// Per column of `Â`: its rank in `R[l-1]`, `u32::MAX` outside it.
    rank: Vec<u32>,
}

/// What one layer runs over: its normalized adjacency and, where the self
/// rows SAGE reads are not the first rows of the layer's input, their
/// positions in it.
type LayerIn<'a> = (SparseView<'a>, Option<&'a [usize]>);

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
    /// write-back, into a workspace buffer taken unzeroed. This is where a
    /// step whose first aggregation was run by the loader starts.
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

    /// The one forward body, training's and inference's: runs `layers` and
    /// keeps every layer's buffers. Layer 0 starts from `first`; a prepared
    /// input has every row of the batch, so a subgraph layer 0 cut to
    /// `input_rows` copies its own (rows are independent).
    fn forward<'a>(
        &self,
        layers: &[LayerIn<'_>],
        first: FirstLayer<'a>,
        input_rows: Option<&[usize]>,
        pool: Option<&ThreadPool>,
    ) -> Kept<'a> {
        let (adj, self_rows) = &layers[0];
        let (agg, h_self) = match first {
            FirstLayer::Gathered(input) => {
                let agg = self.aggregate(adj, input, pool);
                // SAGE's self rows: the layer's selection, or the first rows
                // of the input.
                let h_self = (self.kind == Arch::Sage).then(|| match self_rows {
                    Some(pos) => Cow::Owned(select_rows(&self.ws, input, pos)),
                    None => Cow::Borrowed(input),
                });
                (Cow::Owned(agg), h_self)
            }
            FirstLayer::Prepared(PreparedInput { agg, self_rows }) => {
                let cut = |m: &'a Matrix| match input_rows {
                    Some(rows) => Cow::Owned(select_rows(&self.ws, m, rows)),
                    None => Cow::Borrowed(m),
                };
                let agg = cut(agg);
                assert_eq!(
                    (agg.rows(), agg.cols()),
                    (adj.rows(), self.dims[0]),
                    "prepared aggregation does not fit the batch"
                );
                (agg, self_rows.as_ref().map(cut))
            }
        };
        let mut kept = Kept {
            outs: vec![self.dense(0, &agg, h_self.as_deref(), pool)],
            aggs: vec![agg],
            selfs: vec![h_self],
            grad: None,
        };
        for (l, (adj, self_rows)) in layers.iter().enumerate().skip(1) {
            let h = &kept.outs[l - 1];
            let picked = self_rows.map(|pos| select_rows(&self.ws, h, pos));
            let agg = self.aggregate(adj, h, pool);
            let z = self.dense(l, &agg, Some(picked.as_ref().unwrap_or(h)), pool);
            kept.outs.push(z);
            kept.aggs.push(Cow::Owned(agg));
            kept.selfs.push(picked.map(Cow::Owned));
        }
        kept
    }

    /// Inference: [`Gnn::forward`] with everything but the logits (one row
    /// per row of the last adjacency) recycled.
    fn run(
        &self,
        layers: &[LayerIn<'_>],
        first: FirstLayer<'_>,
        input_rows: Option<&[usize]>,
        pool: Option<&ThreadPool>,
    ) -> Matrix {
        let mut kept = self.forward(layers, first, input_rows, pool);
        let logits = kept.outs.swap_remove(layers.len() - 1);
        self.recycle(kept);
        logits
    }

    /// Inference forward pass; returns logits over the batch's seeds.
    /// `input` must be the batch's input-node feature rows in
    /// `input_nodes()` order (`Features::gather_into`, or the cross-batch
    /// feature cache); pass `&Matrix` to keep the buffer for the next batch.
    /// The model only ever reads it — a caller's buffer is never parked in
    /// the workspace.
    pub fn forward_gathered(
        &self,
        batch: &SampledBatch,
        input: impl Borrow<Matrix>,
        pool: Option<&ThreadPool>,
    ) -> Matrix {
        let depth = self.layers.len();
        let fulls = normalized_adjs(self.kind, depth, batch);
        let mut cascade = self.cascade.borrow_mut();
        cascade.for_owned(self.kind, depth, batch, &fulls);
        let layers: Vec<_> = (0..depth)
            .map(|l| cascade.layer(self.kind, l, full_of(&fulls, l).view()))
            .collect();
        let first = FirstLayer::Gathered(input.borrow());
        self.run(&layers, first, cascade.input_rows(), pool)
    }

    /// [`Gnn::forward_gathered`] over a borrowed [`SampledBatchView`]: the
    /// adjacencies are consumed straight out of the sampler's batch arena —
    /// every block, and a subgraph's full-height layers, with zero copies.
    /// Falls back to materializing the owned batch when the fused
    /// normalization does not match this model (the owned path then
    /// re-normalizes).
    pub fn forward_gathered_view(
        &self,
        batch: &SampledBatchView<'_>,
        input: impl Borrow<Matrix>,
        pool: Option<&ThreadPool>,
    ) -> Matrix {
        self.forward_view(batch, FirstLayer::Gathered(input.borrow()), pool)
    }

    /// [`Gnn::forward_gathered_view`] from the first GEMM, over what
    /// [`PreparedInput::prepare`] made of this view: bitwise the same logits.
    /// Panics unless the view fuses this model's normalization (and, for
    /// blocks, has its depth).
    pub fn forward_prepared(
        &self,
        batch: &SampledBatchView<'_>,
        input: &PreparedInput,
        pool: Option<&ThreadPool>,
    ) -> Matrix {
        self.forward_view(batch, FirstLayer::Prepared(input), pool)
    }

    fn forward_view(
        &self,
        batch: &SampledBatchView<'_>,
        first: FirstLayer<'_>,
        pool: Option<&ThreadPool>,
    ) -> Matrix {
        let depth = self.layers.len();
        let fused = batch.norm() == self.kind.normalization();
        match batch {
            SampledBatchView::Blocks(mb) if fused && mb.num_blocks() == depth => {
                let layers: Vec<_> = (0..depth).map(|l| (mb.block(l).adj, None)).collect();
                self.run(&layers, first, None, pool)
            }
            SampledBatchView::Subgraph(sb) if fused => {
                // Subgraph-view seeds are the node-list prefix.
                let mut cascade = self.cascade.borrow_mut();
                cascade.build(self.kind, depth, sb.adj(), 0..sb.num_seeds());
                let layers: Vec<_> = (0..depth)
                    .map(|l| cascade.layer(self.kind, l, sb.adj()))
                    .collect();
                self.run(&layers, first, cascade.input_rows(), pool)
            }
            _ => match first {
                FirstLayer::Gathered(h) => self.forward_gathered(&batch.to_owned(), h, pool),
                FirstLayer::Prepared(_) => panic!("a prepared input needs a fused view"),
            },
        }
    }
}

impl Cascade {
    /// The cascade of an owned batch over its normalized adjacencies; a
    /// block batch has none (every layer runs over its own block).
    fn for_owned(
        &mut self,
        kind: Arch,
        depth: usize,
        batch: &SampledBatch,
        fulls: &[Cow<'_, SparseMatrix>],
    ) {
        match batch {
            SampledBatch::Blocks(_) => self.first = depth,
            SampledBatch::Subgraph(sb) => {
                let seeds = sb.seed_positions.iter().copied();
                self.build(kind, depth, fulls[0].view(), seeds);
            }
        }
    }

    /// Builds the per-layer adjacencies of a `depth`-layer model over the
    /// normalized `N × N` adjacency `full` whose outputs are read at rows
    /// `seeds` — the one place a subgraph batch's layers are cut down.
    fn build(
        &mut self,
        kind: Arch,
        depth: usize,
        full: SparseView<'_>,
        seeds: impl Iterator<Item = usize>,
    ) {
        let n = full.rows();
        self.slices.resize_with(depth, SparseMatrix::default);
        self.self_rows.resize_with(depth, Vec::new);
        self.rows.clear();
        self.rows.extend(seeds);
        let mut l = depth;
        // Once a layer computes every row, it and the layers below it run
        // over `full` itself: no slice, no copy.
        while l > 0 && !self.rows.iter().copied().eq(0..n) {
            l -= 1;
            let (slice, self_rows) = (&mut self.slices[l], &mut self.self_rows[l]);
            full.select_rows_into(&self.rows, slice);
            self_rows.clear();
            if kind == Arch::Sage {
                self_rows.extend_from_slice(&self.rows);
            }
            if l == 0 {
                break; // reads the caller's input, which has every row
            }
            // R[l-1]: mark what layer `l` reads, then list and rank the marks.
            self.rank.clear();
            self.rank.resize(n, u32::MAX);
            for &c in slice.indices() {
                self.rank[c as usize] = 0;
            }
            for &r in self_rows.iter() {
                self.rank[r] = 0;
            }
            self.rows.clear();
            for (c, r) in self.rank.iter_mut().enumerate() {
                if *r == 0 {
                    *r = self.rows.len() as u32;
                    self.rows.push(c);
                }
            }
            if self.rows.len() < n {
                slice.rank_columns(&self.rank, self.rows.len());
                for p in self_rows.iter_mut() {
                    *p = self.rank[*p] as usize;
                }
            }
        }
        self.first = l;
    }

    /// `R[0]`, the rows of the batch a cut layer 0 computes; `None` when it
    /// computes them all. (`build` stops at layer 0 before replacing them.)
    fn input_rows(&self) -> Option<&[usize]> {
        (self.first == 0).then_some(&self.rows[..])
    }

    /// Layer `l`'s slice; `None` below the cascade.
    fn slice(&self, l: usize) -> Option<&SparseMatrix> {
        (l >= self.first).then(|| &self.slices[l])
    }

    /// Where SAGE's layer `l` finds its self rows in its input; `None` where
    /// they are its first rows (below the cascade, and for GCN nowhere read).
    fn self_rows(&self, kind: Arch, l: usize) -> Option<&[usize]> {
        (kind == Arch::Sage && l >= self.first).then(|| &self.self_rows[l][..])
    }

    /// What layer `l` runs over, `full` being its full-height adjacency.
    fn layer<'a>(&'a self, kind: Arch, l: usize, full: SparseView<'a>) -> LayerIn<'a> {
        let adj = self.slice(l).map_or(full, SparseMatrix::view);
        (adj, self.self_rows(kind, l))
    }
}

/// Where a step finds layer 0's GEMM operands.
enum FirstLayer<'a> {
    /// The gathered input rows: the step aggregates them itself.
    Gathered(&'a Matrix),
    /// What a loader worker aggregated: the step starts at the GEMM.
    Prepared(&'a PreparedInput),
}

/// What a forward pass kept (a step's, for its backward pass), per layer:
/// the output, the aggregation and the self rows SAGE read — workspace
/// buffers, or the caller's matrices where layer 0 read them in place.
struct Kept<'a> {
    outs: Vec<Matrix>,
    aggs: Vec<Cow<'a, Matrix>>,
    selfs: Vec<Option<Cow<'a, Matrix>>>,
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
    cascade: RefCell<Cascade>,
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
            cascade: RefCell::default(),
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

    /// Workspace arena counters `(fresh allocations, reuses)` — observability
    /// for the cross-batch buffer recycling.
    pub fn workspace_stats(&self) -> (usize, usize) {
        let ws = self.ws.borrow();
        (ws.allocs(), ws.reuses())
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

    /// One training step — forward, loss, full backward — over the batch's
    /// gathered input-node feature rows; see [`Gnn::forward_gathered`] for
    /// the `input` contract. Gradients are written into the model's gradient
    /// buffers (overwriting previous contents); parameters are *not* updated
    /// — the engine averages gradients across processes first, then calls an
    /// optimizer.
    pub fn train_step_gathered(
        &mut self,
        batch: &SampledBatch,
        input: impl Borrow<Matrix>,
        labels: &[u32],
        pool: Option<&ThreadPool>,
    ) -> StepStats {
        let (stats, kept) = self.step(batch, FirstLayer::Gathered(input.borrow()), labels, pool);
        self.recycle(kept);
        stats
    }

    /// [`Gnn::train_step_gathered`] starting at the first GEMM: `input` is
    /// what a loader worker prepared for this batch. Layer 0's aggregation
    /// depends on the batch and the features only, so it was run where the
    /// batch was made — with the kernel this model would have used, over the
    /// adjacency it would have used, row by row in the same entry order:
    /// bitwise the step over the gathered rows. The operands must have been
    /// aggregated over this model's normalization
    /// ([`Arch::normalization`] fused by the sampler).
    pub fn train_step_prepared(
        &mut self,
        batch: &SampledBatch,
        input: &PreparedInput,
        labels: &[u32],
        pool: Option<&ThreadPool>,
    ) -> StepStats {
        let (stats, kept) = self.step(batch, FirstLayer::Prepared(input), labels, pool);
        self.recycle(kept);
        stats
    }

    /// The one training step: [`Gnn::forward`], layer 0 from `first`, then
    /// the loss and the full backward pass over what the forward kept.
    fn step<'a>(
        &mut self,
        batch: &SampledBatch,
        first: FirstLayer<'a>,
        labels: &[u32],
        pool: Option<&ThreadPool>,
    ) -> (StepStats, Kept<'a>) {
        let depth = self.layers.len();
        let fulls = normalized_adjs(self.kind, depth, batch);
        let mut cascade = self.cascade.borrow_mut();
        cascade.for_owned(self.kind, depth, batch, &fulls);
        let (kind, cascade) = (self.kind, &*cascade);
        let norm_of = |l: usize| cascade.slice(l).unwrap_or(full_of(&fulls, l));
        let layers: Vec<_> = (0..depth)
            .map(|l| cascade.layer(kind, l, full_of(&fulls, l).view()))
            .collect();
        let mut kept = self.forward(&layers, first, cascade.input_rows(), pool);
        let Kept {
            outs, aggs, selfs, ..
        } = &kept;
        // Loss over seeds: the last layer's rows are the seed rows.
        let logits = &outs[depth - 1];
        let seeds = batch.seeds();
        let seed_labels: Vec<u32> = seeds.iter().map(|&v| labels[v as usize]).collect();
        let (loss, mut grad) = softmax_cross_entropy(logits, &seed_labels);
        let acc = accuracy(logits, &seed_labels);
        // Backward through the layers. Weight/bias gradients are written in
        // place into the model's persistent `dw`/`db` buffers; intermediate
        // gradient matrices cycle through the workspace, taken unzeroed
        // because `grad_input_into` and the gather overwrite them.
        let dispatch = self.dispatch;
        for l in (0..depth).rev() {
            let agg = &*aggs[l];
            if l + 1 < depth {
                // The fused ReLU recorded no mask: `outs[l] > 0` is it.
                relu_backward_from_output(&mut grad, &outs[l]);
            }
            let norm = norm_of(l);
            let n_dst = norm.rows();
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
                    let h_self = selfs[l].as_deref().unwrap_or_else(|| &outs[l - 1]);
                    let xs = [h_self, agg];
                    dispatch.grad_weights_into(&xs, &grad, pool, &mut self.layers[l].dw);
                }
            }
            if l == 0 {
                break; // input features get no gradient
            }
            let w = &self.layers[l].w;
            let f_in = self.dims[l];
            let take = |rows: usize| self.ws.borrow_mut().take_unzeroed(rows, f_in);
            let mut dh = take(norm.cols());
            match self.kind {
                Arch::Gcn => {
                    let mut dagg = take(n_dst);
                    dispatch.grad_input_into(&grad, w, 0..f_in, pool, &mut dagg);
                    dispatch.aggregate_transpose_into(norm, &dagg, pool, &mut dh);
                    self.ws.borrow_mut().put(dagg);
                }
                Arch::Sage => {
                    // Pull d_self / d_neigh out of the stacked weight by row
                    // window instead of splitting a concatenated gradient.
                    let (mut dself, mut dmean) = (take(n_dst), take(n_dst));
                    dispatch.grad_input_into(&grad, w, 0..f_in, pool, &mut dself);
                    dispatch.grad_input_into(&grad, w, f_in..2 * f_in, pool, &mut dmean);
                    dispatch.aggregate_transpose_into(norm, &dmean, pool, &mut dh);
                    // Self-path gradient lands on the rows the self features
                    // were read from.
                    let picked = cascade.self_rows(kind, l);
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
        kept.grad = Some(grad);
        (stats, kept)
    }

    /// Recycles every per-pass buffer of the model's own for the next batch.
    fn recycle(&self, kept: Kept<'_>) {
        let mut ws = self.ws.borrow_mut();
        let Kept {
            outs,
            aggs,
            selfs,
            grad,
        } = kept;
        // Layer 0's operands may be the caller's: those are not ours to park.
        for m in aggs.into_iter().chain(selfs.into_iter().flatten()) {
            if let Cow::Owned(m) = m {
                ws.put(m);
            }
        }
        for out in outs.into_iter().chain(grad) {
            ws.put(out);
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

/// The full-height normalized adjacencies of an owned batch for a
/// `depth`-layer model of the given kind — one per block, or the single one a
/// subgraph batch's layers share ([`full_of`]): a borrow where the sampler
/// already fused the wanted normalization into the adjacency values, a matrix
/// normalized here, once, otherwise (batches sampled without fusion).
fn normalized_adjs(kind: Arch, depth: usize, batch: &SampledBatch) -> Vec<Cow<'_, SparseMatrix>> {
    let want = kind.normalization();
    match batch {
        SampledBatch::Blocks(mb) => {
            assert_eq!(mb.blocks.len(), depth, "batch depth != model depth");
            mb.blocks
                .iter()
                .map(|b| {
                    if b.norm == want && b.adj.values().is_some() {
                        Cow::Borrowed(&b.adj)
                    } else {
                        Cow::Owned(match kind {
                            Arch::Gcn => b.gcn_normalized(),
                            Arch::Sage => b.mean_normalized(),
                        })
                    }
                })
                .collect()
        }
        SampledBatch::Subgraph(sb) if sb.norm == want && sb.adj.values().is_some() => {
            vec![Cow::Borrowed(&sb.adj)]
        }
        SampledBatch::Subgraph(sb) => vec![Cow::Owned(match kind {
            Arch::Gcn => sb.gcn_normalized(),
            Arch::Sage => sb.mean_normalized(),
        })],
    }
}

/// Layer `l`'s entry of [`normalized_adjs`].
fn full_of<'a>(fulls: &'a [Cow<'_, SparseMatrix>], l: usize) -> &'a SparseMatrix {
    fulls.get(l).unwrap_or(&fulls[0])
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
    use argo_sample::batch::Normalization;
    use argo_sample::{
        InputRing, NeighborSampler, SampleRun, Sampler, SamplerScratch, ShadowSampler,
    };
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

    #[test]
    fn forward_shapes() {
        let d = tiny_dataset();
        let batch = sample_blocks(&d, 8, 2);
        let model = Gnn::new(Arch::Sage, d.feat_dim(), 16, d.num_classes, 2, 1);
        let logits =
            model.forward_gathered(&batch, gathered(&d.features, batch.input_nodes()), None);
        assert_eq!(logits.rows(), 8);
        assert_eq!(logits.cols(), d.num_classes);
    }

    #[test]
    fn forward_shadow_shapes() {
        let d = tiny_dataset();
        let s = ShadowSampler::new(vec![5, 3], 2);
        let seeds: Vec<u32> = d.train_nodes.iter().copied().take(6).collect();
        let batch = s.sample(&d.graph, &seeds, &mut SmallRng::seed_from_u64(5));
        let model = Gnn::new(Arch::Gcn, d.feat_dim(), 16, d.num_classes, 2, 2);
        let logits =
            model.forward_gathered(&batch, gathered(&d.features, batch.input_nodes()), None);
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
        let batch = sample_blocks(&d, 16, 2);
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
            s.sample(&d.graph, &seeds, &mut SmallRng::seed_from_u64(9))
        } else {
            sample_blocks(&d, 5, 2)
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
        let seeds = batch.seeds();
        let seed_labels: Vec<u32> = seeds.iter().map(|&v| d.labels[v as usize]).collect();
        let loss_at = |m: &mut Gnn, p: &[f32]| -> f32 {
            m.set_params_flat(p);
            let logits =
                m.forward_gathered(&batch, gathered(&d.features, batch.input_nodes()), None);
            softmax_cross_entropy(&logits, &seed_labels).0
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
        let batch = sample_blocks(&d, 64, 2);
        let model = Gnn::new(Arch::Sage, d.feat_dim(), 16, d.num_classes, 2, 1);
        let a = model.forward_gathered(&batch, gathered(&d.features, batch.input_nodes()), None);
        let pool = ThreadPool::new("t", 3);
        let b = model.forward_gathered(
            &batch,
            gathered(&d.features, batch.input_nodes()),
            Some(&pool),
        );
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    /// The pool-parallel backward (per-worker partial dW reduction, CSC
    /// gather, parallel input-grad GEMMs) must agree with the serial
    /// backward to accumulation-order tolerance.
    fn backward_agree(kind: Arch, use_shadow: bool) {
        let d = tiny_dataset();
        let batch = if use_shadow {
            let s = ShadowSampler::new(vec![4, 3], 2);
            let seeds: Vec<u32> = d.train_nodes.iter().copied().take(64).collect();
            s.sample(&d.graph, &seeds, &mut SmallRng::seed_from_u64(17))
        } else {
            sample_blocks(&d, 64, 2)
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
            assert!(
                (a - b).abs() <= 1e-4,
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
        let norms = normalized_adjs(m.kind, depth, batch);
        let (mut outs, mut aggs, mut masks) = (Vec::new(), Vec::new(), Vec::new());
        for (l, layer) in m.layers.iter().enumerate() {
            let h = if l == 0 { input } else { &outs[l - 1] };
            let norm = full_of(&norms, l);
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
            let (norm, w, f_in) = (full_of(&norms, l), &m.layers[l].w, m.dims[l]);
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
    /// on: each sampler's batch with the normalization fused by the sampler
    /// and with it left to the model, and the whole graph with its seeds
    /// scattered in ascending order.
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
            out.push((format!("{name} (fused)"), fused));
            let plain = s.sample(&d.graph, &seeds, &mut SmallRng::seed_from_u64(9));
            out.push((format!("{name} (unfused)"), plain));
        }
        let mut scattered: Vec<u32> = (d.train_nodes.iter().copied().skip(3).step_by(7))
            .take(24)
            .collect();
        scattered.sort_unstable();
        assert_ne!(scattered, (0..24).collect::<Vec<u32>>());
        let positions = scattered.iter().map(|&v| v as usize).collect();
        out.push((
            "full graph".to_string(),
            hand_built(graph_csr(&d.graph), positions),
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

    /// What a loader worker hands over for `batch`: `input` aggregated over
    /// the model's own layer-0 adjacency (the fused one where the sampler
    /// fused it), through the loader's own entry point.
    fn prepared(m: &Gnn, batch: &SampledBatch, input: &Matrix) -> PreparedInput {
        let norms = normalized_adjs(m.kind, m.layers.len(), batch);
        PreparedInput::aggregate(
            full_of(&norms, 0).view(),
            input,
            m.kind == Arch::Sage,
            m.dispatch,
            &InputRing::new(),
        )
    }

    /// Loss, flat gradient and every activation one step kept for its
    /// backward pass — per layer the output, the aggregation and the self
    /// rows SAGE read (the layer's height of them) — as bits.
    fn kept_bits(
        m: &mut Gnn,
        batch: &SampledBatch,
        first: FirstLayer<'_>,
        labels: &[u32],
    ) -> (u32, Vec<u32>, Vec<Vec<u32>>) {
        let (stats, kept) = m.step(batch, first, labels, None);
        let mut activations = Vec::new();
        for (l, out) in kept.outs.iter().enumerate() {
            activations.push(bits(out.data()));
            activations.push(bits(kept.aggs[l].data()));
            if let Some(h_self) = &kept.selfs[l] {
                activations.push(bits(&h_self.data()[..out.rows() * h_self.cols()]));
            }
        }
        m.recycle(kept);
        let mut g = Vec::new();
        m.grads_flat(&mut g);
        (stats.loss.to_bits(), bits(&g), activations)
    }

    /// The production step against the full-height oracle, bit for bit —
    /// and the step started at the first GEMM, over what the loader
    /// prepares, against the production step: loss, every gradient and every
    /// kept activation.
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

        let gathered = kept_bits(m, batch, FirstLayer::Gathered(input), labels);
        assert_eq!((gathered.0, &gathered.1), (loss, &grads), "{who}: kept");
        let handoff = prepared(m, batch, input);
        let from_gemm = kept_bits(m, batch, FirstLayer::Prepared(&handoff), labels);
        assert_eq!(from_gemm.0, gathered.0, "{who}: prepared loss");
        assert_eq!(from_gemm.1, gathered.1, "{who}: prepared gradients");
        assert_eq!(from_gemm.2, gathered.2, "{who}: prepared activations");
        // And through the public entry point.
        let stats = m.train_step_prepared(batch, &handoff, labels, None);
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
                    // neighbours only: the prepared step above copied its
                    // rows out of the loader's full-height aggregation.
                    if depth == 2 && name == "shadow (fused)" {
                        let c = m.cascade.borrow();
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
        let batch = ShadowSampler::new(vec![3, 2, 2], 4).sample(
            &d.graph,
            &seeds_of(&d),
            &mut SmallRng::seed_from_u64(9),
        );
        let n = subgraph_of(&batch).nodes.len();
        for kind in [Arch::Sage, Arch::Gcn] {
            let m = Gnn::new(kind, d.feat_dim(), 16, d.num_classes, 4, 5);
            m.forward_gathered(&batch, gathered(&d.features, batch.input_nodes()), None);
            let c = m.cascade.borrow();
            assert!(c.first <= 1, "{kind:?}: layers {}.. are slices", c.first);
            let rows: Vec<usize> = (1..4).map(|l| c.slices[l].rows()).collect();
            assert!(rows.windows(2).all(|w| w[0] > w[1]), "{kind:?}: {rows:?}");
            assert!(
                rows[0] < n && rows[2] == batch.num_seeds(),
                "{kind:?}: {rows:?}"
            );
            // A slice's columns are the rows of the layer below.
            assert_eq!(c.slices[3].cols(), rows[1], "{kind:?}");
            assert_eq!(c.slices[2].cols(), rows[0], "{kind:?}");
            if kind == Arch::Sage {
                // Ranks of `R[l]` in `R[l-1]`: ascending, and not a prefix.
                let pos = c.self_rows(kind, 2).unwrap();
                assert!(pos.windows(2).all(|w| w[0] < w[1]));
                assert!(pos.iter().copied().ne(0..pos.len()));
            }
        }
    }

    /// A hand-built subgraph batch over `adj` (no values: the model
    /// normalizes) with the given seed positions.
    fn hand_built(adj: SparseMatrix, seed_positions: Vec<usize>) -> SampledBatch {
        let n = adj.rows();
        SampledBatch::Subgraph(argo_sample::batch::SubgraphBatch {
            nodes: (0..n as u32).collect(),
            degree: (0..n).map(|i| adj.row_range(i).len() as f32).collect(),
            seeds: seed_positions.iter().map(|&p| p as u32).collect(),
            adj,
            seed_positions,
            norm: Normalization::None,
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
            let batch = hand_built(path_graph(2), seeds);
            let input = gathered(&d.features, batch.input_nodes());
            for (kind, depth) in kinds_and_depths() {
                for policy in both_tiers() {
                    let mut m = Gnn::new(kind, d.feat_dim(), 8, d.num_classes, depth, 5)
                        .with_dispatch(policy);
                    let who = format!("{kind:?}×{depth} simd={}", policy.simd_enabled());
                    assert_step_is_the_oracles(&mut m, &batch, &input, &d.labels, &who);
                    let c = m.cascade.borrow();
                    // GCN reads nothing below an isolated seed; SAGE still
                    // reads the seed's own row.
                    if empty_layers && kind == Arch::Gcn {
                        assert_eq!(c.slices[depth - 1].cols(), 0, "{who}");
                        assert_eq!(c.slices[depth - 2].rows(), 0, "{who}");
                    }
                    drop(c);
                    let logits = m.forward_gathered(&batch, &input, None);
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
        let batch = hand_built(path_graph(2), vec![6, 2, 6, 0, 9, 3]);
        let input = gathered(&d.features, batch.input_nodes());
        for kind in [Arch::Sage, Arch::Gcn] {
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
            (hand_built(graph_csr(&d.graph), all), 3),
            (hand_built(path_graph(0), vec![1, 4, 7]), 2),
        ] {
            let m = Gnn::new(Arch::Sage, d.feat_dim(), 16, d.num_classes, 3, 5);
            m.forward_gathered(&batch, gathered(&d.features, batch.input_nodes()), None);
            let c = m.cascade.borrow();
            assert_eq!(c.first, first);
            for l in 0..first {
                assert!(c.slice(l).is_none());
                assert_eq!(c.slices[l], SparseMatrix::default(), "layer {l}: no copy");
            }
            // The slice above a full-height layer keeps the batch's columns.
            for l in first..3 {
                assert_eq!(c.slices[l].cols(), subgraph_of(&batch).nodes.len());
            }
        }
    }

    /// The cascade is what sizes a step's buffers: a fresh 3-layer model's
    /// ShaDow step allocates exactly three matrices of layer 0's height —
    /// its aggregation, its output and the gradient of that output (six when
    /// every layer ran at full height) — and layer 1's are `|R[1]|` rows.
    #[test]
    fn a_shadow_step_takes_needed_row_buffers_for_the_middle_layer() {
        let d = tiny_dataset();
        let hidden = 16;
        let batch = ShadowSampler::new(vec![4, 3], 3).sample(
            &d.graph,
            &seeds_of(&d),
            &mut SmallRng::seed_from_u64(9),
        );
        let mut m = Gnn::new(Arch::Gcn, d.feat_dim(), hidden, d.num_classes, 3, 5);
        m.train_step_gathered(
            &batch,
            gathered(&d.features, batch.input_nodes()),
            &d.labels,
            None,
        );
        let c = m.cascade.borrow();
        let bottom = c
            .slice(0)
            .map_or(subgraph_of(&batch).nodes.len(), SparseMatrix::rows);
        let middle = c.slices[1].rows();
        assert!(
            c.first <= 1 && 2 * middle < 2 * bottom,
            "{middle} of {bottom}"
        );
        let mut ws = m.ws.borrow_mut();
        let mut caps = Vec::new();
        while ws.free_len() > 0 {
            caps.push(ws.take_unzeroed(1, 1).into_data().capacity());
        }
        let at_least = |rows: usize| caps.iter().filter(|&&c| c >= rows * hidden).count();
        assert_eq!(at_least(bottom), 3, "{caps:?}");
        // Layer 1's aggregation, output and aggregation gradient, and the
        // gradient of its output.
        assert_eq!(at_least(middle), 3 + 4, "{caps:?}");
    }

    /// Full-height forward built from the dispatch operations alone: every
    /// layer computes all of its rows, the seed rows are selected at the end.
    fn full_height_logits(m: &Gnn, batch: &SampledBatch, input: &Matrix) -> Matrix {
        let d = m.dispatch;
        let depth = m.layers.len();
        let norms = normalized_adjs(m.kind, depth, batch);
        let mut h = input.clone();
        for (l, Layer { w, b, .. }) in m.layers.iter().enumerate() {
            let norm = full_of(&norms, l);
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
    /// forward, bit for bit: owned batches through `forward_gathered`, arena
    /// views through `forward_gathered_view`, and fused views through
    /// `forward_prepared` over what the shared prologue makes of them.
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
                let got = m.forward_gathered(batch, &input, None);
                check(format!("{name}: owned"), batch, &input, got);
            }
            let seeds = seeds_of(&d);
            let mut scratch = SamplerScratch::new();
            // Fused as the loader and serving sample; unfused as evaluation
            // does, where the view falls back to the owned batch and the
            // model's own normalization.
            for (name, s) in samplers(depth) {
                for norm in [kind.normalization(), Normalization::None] {
                    let run = SampleRun::new(SeedSequence::new(9), &mut scratch).with_norm(norm);
                    let view = s.sample_into(&d.graph, &seeds, run);
                    let batch = view.to_owned();
                    let input = gathered(&d.features, batch.input_nodes());
                    let got = m.forward_gathered_view(&view, &input, None);
                    check(format!("{name}: view fused {norm:?}"), &batch, &input, got);
                    // The serving path: the fused view's prologue, then the
                    // forward pass from the first GEMM.
                    if norm == Normalization::None {
                        continue;
                    }
                    let (ring, spans) = (InputRing::new(), WorkerRing::detached());
                    let prepared = PreparedInput::prepare(&view, &d.features, &ring, &spans, 0);
                    let got = m.forward_prepared(&view, &prepared, None);
                    check(format!("{name}: prepared"), &batch, &input, got);
                }
            }
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
        let blocks = NeighborSampler::new(vec![5; 3]).sample(&d.graph, &seeds, &mut rng());
        let shadow = ShadowSampler::new(vec![4, 3], 3).sample(&d.graph, &seeds, &mut rng());
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
            {
                let mut ws = used.ws.borrow_mut();
                let mut bufs = Vec::new();
                while ws.free_len() > 0 {
                    bufs.push(ws.take_unzeroed(1, 1).into_data());
                }
                assert!(bufs.len() >= 2 * 3, "outputs and aggregations");
                for mut buf in bufs {
                    let cap = buf.capacity();
                    buf.clear();
                    buf.resize(cap, f32::NAN);
                    ws.put(Matrix::from_vec(1, cap, buf));
                }
            }
            let allocs = used.workspace_stats().0;
            assert_eq!(step(&mut used), want, "{kind:?}");
            assert_eq!(used.workspace_stats().0, allocs, "every take was a reuse");
        }
    }

    #[test]
    fn workspace_recycles_buffers_across_steps() {
        let d = tiny_dataset();
        let batch = sample_blocks(&d, 16, 2);
        let mut m = Gnn::new(Arch::Sage, d.feat_dim(), 16, d.num_classes, 2, 3);
        m.train_step_gathered(
            &batch,
            gathered(&d.features, batch.input_nodes()),
            &d.labels,
            None,
        );
        let (allocs_first, _) = m.workspace_stats();
        assert!(allocs_first > 0, "first step should allocate");
        m.train_step_gathered(
            &batch,
            gathered(&d.features, batch.input_nodes()),
            &d.labels,
            None,
        );
        let (allocs_second, reuses) = m.workspace_stats();
        assert!(
            reuses >= allocs_first,
            "second step should reuse first-step buffers: {reuses} reuses, {allocs_first} first-step allocs"
        );
        assert_eq!(
            allocs_second, allocs_first,
            "steady state should allocate nothing new"
        );
    }

    #[test]
    fn caller_supplied_input_is_never_parked() {
        // The 613 MB trap: a persistent replica fed one loader-made input per
        // batch must not collect them in its free list. Borrowed or by value,
        // the input is only read; the arena holds the step's own buffers.
        let d = tiny_dataset();
        let batch = sample_blocks(&d, 16, 2);
        let ids = batch.input_nodes();
        let input = Matrix::from_vec(
            ids.len(),
            d.feat_dim(),
            d.features.gather(ids).data().to_vec(),
        );
        let mut m = Gnn::new(Arch::Sage, d.feat_dim(), 16, d.num_classes, 2, 3);
        let input_bytes = input.data().len() * 4;
        let first = m.train_step_gathered(&batch, &input, &d.labels, None);
        let allocs = m.workspace_stats().0;
        for _ in 0..6 {
            let again = m.train_step_gathered(&batch, input.clone(), &d.labels, None);
            assert_eq!(again, first);
            m.forward_gathered(&batch, input.clone(), None);
        }
        assert_eq!(m.workspace_stats().0, allocs);
        assert!(
            m.workspace_bytes() < input_bytes,
            "the arena ({} B) holds activations, not {input_bytes}-byte inputs",
            m.workspace_bytes()
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
            let batch = s.sample(&d.graph, &seeds, &mut SmallRng::seed_from_u64(step as u64));
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
