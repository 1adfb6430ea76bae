//! Graph Attention Network (Veličković et al. 2018) with manual backward.
//!
//! GAT is the model family whose edge-score computation is exactly the SDDMM
//! kernel DGL's backend is built around (paper Section II-C): per edge
//! `(i ← j)` and head `h`,
//!
//! ```text
//! z   = x W_h                     (feature update)
//! e_ij = LeakyReLU(aₗ·z_i + aᵣ·z_j)  (SDDMM u_add_v)
//! α_ij = softmax_i(e_ij)            (edge softmax per destination)
//! out_i = Σ_j α_ij z_j              (attention-weighted SpMM)
//! ```
//!
//! Hidden layers concatenate the heads; the output layer averages them.
//! Included as the reproduction's model extension beyond the paper's
//! GCN/GraphSAGE pair — it exercises every sparse kernel in `argo-tensor`.

use std::borrow::Borrow;

use argo_rt::ThreadPool;
use argo_sample::batch::SampledBatch;
use argo_tensor::ops::{
    accuracy, add_bias, bias_grad_into, leaky_relu_inplace, relu_backward, relu_inplace,
    softmax_cross_entropy,
};
use argo_tensor::{DispatchPolicy, Matrix, SparseMatrix};

use crate::model::StepStats;

/// LeakyReLU slope used for attention logits (the GAT paper's 0.2).
const ATTN_SLOPE: f32 = 0.2;

struct GatLayer {
    /// `in_dim × heads·out_dim`.
    w: Matrix,
    /// Attention vector for destination features, `heads × out_dim`.
    al: Matrix,
    /// Attention vector for source features, `heads × out_dim`.
    ar: Matrix,
    /// Bias over the layer output.
    b: Vec<f32>,
    dw: Matrix,
    dal: Matrix,
    dar: Matrix,
    db: Vec<f32>,
    heads: usize,
    out_dim: usize,
    /// Concatenate heads (hidden layers) or average them (output layer).
    concat: bool,
}

impl GatLayer {
    fn new(in_dim: usize, out_dim: usize, heads: usize, concat: bool, seed: u64) -> Self {
        Self {
            w: Matrix::xavier(in_dim, heads * out_dim, seed),
            al: Matrix::xavier(heads, out_dim, seed ^ 0xA1),
            ar: Matrix::xavier(heads, out_dim, seed ^ 0xA2),
            b: vec![0.0; if concat { heads * out_dim } else { out_dim }],
            dw: Matrix::zeros(in_dim, heads * out_dim),
            dal: Matrix::zeros(heads, out_dim),
            dar: Matrix::zeros(heads, out_dim),
            db: vec![0.0; if concat { heads * out_dim } else { out_dim }],
            heads,
            out_dim,
            concat,
        }
    }

    fn output_dim(&self) -> usize {
        if self.concat {
            self.heads * self.out_dim
        } else {
            self.out_dim
        }
    }
}

/// Per-layer forward cache needed by the backward pass (the layer input
/// stays with the caller: the batch input or the previous layer's output).
struct GatCache {
    /// Projected features z = x W (src rows × heads·out_dim).
    z: Matrix,
    /// Per head: attention matrix (values = α) and LeakyReLU derivative.
    heads: Vec<(SparseMatrix, Vec<f32>)>,
    /// ReLU mask of the layer output (hidden layers only).
    relu_mask: Option<Vec<bool>>,
}

/// A multi-layer GAT model operating on [`SampledBatch`]es, with the same
/// flat parameter/gradient API as [`crate::Gnn`].
pub struct Gat {
    layers: Vec<GatLayer>,
    dispatch: DispatchPolicy,
}

impl Gat {
    /// Builds `num_layers` GAT layers `in_dim → hidden×(L−1) → out_dim` with
    /// `heads` attention heads (hidden layers concat; output layer averages).
    pub fn new(
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        num_layers: usize,
        heads: usize,
        seed: u64,
    ) -> Self {
        assert!(num_layers >= 1 && heads >= 1 && in_dim > 0 && hidden > 0 && out_dim > 0);
        assert!(
            hidden.is_multiple_of(heads),
            "hidden dim must divide evenly into heads"
        );
        let mut layers = Vec::with_capacity(num_layers);
        let mut d_in = in_dim;
        for l in 0..num_layers {
            let last = l + 1 == num_layers;
            let (d_out, concat) = if last {
                (out_dim, false)
            } else {
                (hidden / heads, true)
            };
            layers.push(GatLayer::new(
                d_in,
                d_out,
                heads,
                concat,
                seed.wrapping_add(l as u64 * 131),
            ));
            d_in = layers[l].output_dim();
        }
        Self {
            layers,
            dispatch: DispatchPolicy::default(),
        }
    }

    /// The kernel dispatch policy in effect.
    pub fn dispatch(&self) -> DispatchPolicy {
        self.dispatch
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.layers[0].heads
    }

    /// Total scalar parameters.
    pub fn num_params(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.w.data().len() + l.al.data().len() + l.ar.data().len() + l.b.len())
            .sum()
    }

    /// Raw (un-normalized) adjacency of every layer, plus dst counts.
    fn layer_adjs(&self, batch: &SampledBatch) -> Vec<(SparseMatrix, usize)> {
        match batch {
            SampledBatch::Blocks(mb) => {
                assert_eq!(
                    mb.blocks.len(),
                    self.layers.len(),
                    "batch depth != model depth"
                );
                mb.blocks
                    .iter()
                    .map(|b| (b.adj.clone(), b.dst_nodes.len()))
                    .collect()
            }
            SampledBatch::Subgraph(sb) => (0..self.layers.len())
                .map(|_| (sb.adj.clone(), sb.nodes.len()))
                .collect(),
        }
    }

    /// One layer forward. Returns `(output, cache)`.
    fn layer_forward(
        &self,
        l: usize,
        adj: &SparseMatrix,
        n_dst: usize,
        x: &Matrix,
        relu: bool,
        pool: Option<&ThreadPool>,
    ) -> (Matrix, GatCache) {
        let layer = &self.layers[l];
        let z = self.dispatch.gemm(x, &layer.w, pool);
        let (h, d) = (layer.heads, layer.out_dim);
        let mut out = Matrix::zeros(n_dst, layer.output_dim());
        let mut head_caches = Vec::with_capacity(h);
        for head in 0..h {
            let zc = slice_cols(&z, head * d, d);
            // sl_i = aₗ·z_i over dst rows (prefix of src), sr_j = aᵣ·z_j.
            let al = layer.al.row(head);
            let ar = layer.ar.row(head);
            let mut sl = vec![0.0f32; n_dst];
            let mut sr = vec![0.0f32; zc.rows()];
            for j in 0..zc.rows() {
                let row = zc.row(j);
                let mut dot_r = 0.0f32;
                for (a, v) in ar.iter().zip(row) {
                    dot_r += a * v;
                }
                sr[j] = dot_r;
                if j < n_dst {
                    let mut dot_l = 0.0f32;
                    for (a, v) in al.iter().zip(row) {
                        dot_l += a * v;
                    }
                    sl[j] = dot_l;
                }
            }
            // e = LeakyReLU(sl_i + sr_j) per edge (SDDMM u_add_v).
            let e = adj.sddmm_add(&sl, &sr);
            let mut logits = e.values().expect("sddmm_add sets values").to_vec();
            let deriv = leaky_relu_inplace(&mut logits, ATTN_SLOPE);
            let alpha = adj.with_values(logits).row_softmax();
            // out_head = α @ z_head (attention-weighted aggregation).
            let agg = self.dispatch.aggregate(&alpha, &zc, pool);
            if layer.concat {
                copy_into_cols(&mut out, &agg, head * d);
            } else {
                out.axpy(1.0 / h as f32, &pad_cols(&agg, out.cols()));
            }
            head_caches.push((alpha, deriv));
        }
        add_bias(&mut out, &layer.b);
        let relu_mask = if relu {
            Some(relu_inplace(&mut out))
        } else {
            None
        };
        (
            out,
            GatCache {
                z,
                heads: head_caches,
                relu_mask,
            },
        )
    }

    /// Inference forward; logits over the batch seeds, from the input-node
    /// feature rows already gathered (in `input_nodes()` order); pass
    /// `&Matrix` to keep the buffer.
    pub fn forward_gathered(
        &self,
        batch: &SampledBatch,
        input: impl Borrow<Matrix>,
        pool: Option<&ThreadPool>,
    ) -> Matrix {
        let input = input.borrow();
        let adjs = self.layer_adjs(batch);
        // Each layer's backward cache is dropped as soon as the next layer
        // has its input; only the newest output is kept.
        let mut hcur: Option<Matrix> = None;
        for (l, (adj, n_dst)) in adjs.iter().enumerate() {
            let relu = l + 1 < self.layers.len();
            let x = hcur.as_ref().unwrap_or(input);
            let (out, _) = self.layer_forward(l, adj, *n_dst, x, relu, pool);
            hcur = Some(out);
        }
        let hcur = hcur.expect("a model has at least one layer");
        match batch {
            SampledBatch::Blocks(_) => hcur,
            SampledBatch::Subgraph(sb) => select_rows(&hcur, &sb.seed_positions),
        }
    }

    /// One training step: forward, loss, full backward into the gradient
    /// buffers (overwritten), over the input-node feature rows already
    /// gathered; see [`Gat::forward_gathered`]. Parameters are not updated.
    pub fn train_step_gathered(
        &mut self,
        batch: &SampledBatch,
        input: impl Borrow<Matrix>,
        labels: &[u32],
        pool: Option<&ThreadPool>,
    ) -> StepStats {
        let input = input.borrow();
        let adjs = self.layer_adjs(batch);
        // Layer `l` reads `input` (l = 0) or `outs[l - 1]`.
        let mut outs: Vec<Matrix> = Vec::with_capacity(adjs.len());
        let mut caches = Vec::with_capacity(adjs.len());
        for (l, (adj, n_dst)) in adjs.iter().enumerate() {
            let relu = l + 1 < self.layers.len();
            let x = if l == 0 { input } else { &outs[l - 1] };
            let (out, cache) = self.layer_forward(l, adj, *n_dst, x, relu, pool);
            outs.push(out);
            caches.push(cache);
        }
        let hcur = &outs[outs.len() - 1];
        let seeds = batch.seeds();
        let seed_labels: Vec<u32> = seeds.iter().map(|&v| labels[v as usize]).collect();
        let logits = match batch {
            SampledBatch::Blocks(_) => hcur.clone(),
            SampledBatch::Subgraph(sb) => select_rows(hcur, &sb.seed_positions),
        };
        let (loss, dlogits) = softmax_cross_entropy(&logits, &seed_labels);
        let acc = accuracy(&logits, &seed_labels);
        let mut grad = match batch {
            SampledBatch::Blocks(_) => dlogits,
            SampledBatch::Subgraph(sb) => scatter_rows(&dlogits, &sb.seed_positions, hcur.rows()),
        };
        for l in (0..self.layers.len()).rev() {
            let cache = &caches[l];
            if let Some(mask) = &cache.relu_mask {
                relu_backward(&mut grad, mask);
            }
            let x = if l == 0 { input } else { &outs[l - 1] };
            grad = self.layer_backward(l, x, cache, grad, pool);
        }
        StepStats {
            loss,
            accuracy: acc,
            num_seeds: seeds.len(),
        }
    }

    /// Backward of one layer over its input `x`: consumes d(output) and
    /// produces d(input).
    fn layer_backward(
        &mut self,
        l: usize,
        x: &Matrix,
        cache: &GatCache,
        dout: Matrix,
        pool: Option<&ThreadPool>,
    ) -> Matrix {
        let (h, d) = (self.layers[l].heads, self.layers[l].out_dim);
        let n_dst = dout.rows();
        let concat = self.layers[l].concat;
        bias_grad_into(&dout, &mut self.layers[l].db);
        let mut dz = Matrix::zeros(cache.z.rows(), cache.z.cols());
        for head in 0..h {
            let (alpha, deriv) = &cache.heads[head];
            let zc = slice_cols(&cache.z, head * d, d);
            // Head's share of the output gradient.
            let dh = if concat {
                slice_cols(&dout, head * d, d)
            } else {
                let mut m = slice_cols(&dout, 0, d.min(dout.cols()));
                m.scale(1.0 / h as f32);
                m
            };
            // dz from the aggregation: αᵀ dh (CSC gather).
            let dz_head = self.dispatch.aggregate_transpose(alpha, &dh, pool);
            // dα_k = dh_i · z_j per edge (SDDMM).
            let dalpha = alpha.sddmm(&dh, &zc);
            // Softmax and LeakyReLU backward to edge logits.
            let mut de = alpha.row_softmax_backward(dalpha.values().expect("values"));
            for (g, sl) in de.iter_mut().zip(deriv) {
                *g *= sl;
            }
            let de_mat = alpha.with_values(de);
            // dsl_i = Σ_{k∈row i} de_k; dsr_j = column-scatter of de.
            let dsl = de_mat.row_value_sums();
            let dsr = de_mat.col_value_sums();
            // Gradients to attention vectors and z.
            let al = self.layers[l].al.row(head).to_vec();
            let ar = self.layers[l].ar.row(head).to_vec();
            let mut dal = vec![0.0f32; d];
            let mut dar = vec![0.0f32; d];
            for j in 0..zc.rows() {
                let zr = zc.row(j);
                let base = head * d;
                let dz_row = &mut dz.row_mut(j)[base..base + d];
                // Aggregation path.
                for (out_v, v) in dz_row.iter_mut().zip(dz_head.row(j)) {
                    *out_v += v;
                }
                // Source attention path.
                let s = dsr[j];
                if s != 0.0 {
                    for k in 0..d {
                        dar[k] += s * zr[k];
                        dz_row[k] += s * ar[k];
                    }
                }
                // Destination attention path (dst rows are the src prefix).
                if j < n_dst {
                    let s = dsl[j];
                    if s != 0.0 {
                        for k in 0..d {
                            dal[k] += s * zr[k];
                            dz_row[k] += s * al[k];
                        }
                    }
                }
            }
            self.layers[l].dal.row_mut(head).copy_from_slice(&dal);
            self.layers[l].dar.row_mut(head).copy_from_slice(&dar);
        }
        // Through the projection: dW = xᵀ dz, dx = dz Wᵀ.
        let dispatch = self.dispatch;
        dispatch.grad_weights_into(x, 0..x.rows(), &dz, pool, &mut self.layers[l].dw, 0);
        let w = &self.layers[l].w;
        dispatch.grad_input(&dz, w, 0..w.rows(), pool)
    }

    /// Flattens parameters (layer order: W, aₗ, aᵣ, b).
    pub fn params_flat(&self, out: &mut Vec<f32>) {
        out.clear();
        for l in &self.layers {
            out.extend_from_slice(l.w.data());
            out.extend_from_slice(l.al.data());
            out.extend_from_slice(l.ar.data());
            out.extend_from_slice(&l.b);
        }
    }

    /// Restores parameters from a flat buffer.
    pub fn set_params_flat(&mut self, flat: &[f32]) {
        let mut at = 0usize;
        for l in &mut self.layers {
            for m in [&mut l.w, &mut l.al, &mut l.ar] {
                let n = m.data().len();
                m.data_mut().copy_from_slice(&flat[at..at + n]);
                at += n;
            }
            let nb = l.b.len();
            l.b.copy_from_slice(&flat[at..at + nb]);
            at += nb;
        }
        assert_eq!(at, flat.len(), "flat parameter length mismatch");
    }

    /// Flattens gradients (same layout as parameters).
    pub fn grads_flat(&self, out: &mut Vec<f32>) {
        out.clear();
        for l in &self.layers {
            out.extend_from_slice(l.dw.data());
            out.extend_from_slice(l.dal.data());
            out.extend_from_slice(l.dar.data());
            out.extend_from_slice(&l.db);
        }
    }

    /// Restores gradients from a flat buffer.
    pub fn set_grads_flat(&mut self, flat: &[f32]) {
        let mut at = 0usize;
        for l in &mut self.layers {
            for m in [&mut l.dw, &mut l.dal, &mut l.dar] {
                let n = m.data().len();
                m.data_mut().copy_from_slice(&flat[at..at + n]);
                at += n;
            }
            let nb = l.db.len();
            l.db.copy_from_slice(&flat[at..at + nb]);
            at += nb;
        }
        assert_eq!(at, flat.len(), "flat gradient length mismatch");
    }
}

fn slice_cols(m: &Matrix, start: usize, len: usize) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), len);
    for r in 0..m.rows() {
        out.row_mut(r)
            .copy_from_slice(&m.row(r)[start..start + len]);
    }
    out
}

fn copy_into_cols(dst: &mut Matrix, src: &Matrix, start: usize) {
    for r in 0..src.rows() {
        dst.row_mut(r)[start..start + src.cols()].copy_from_slice(src.row(r));
    }
}

fn pad_cols(m: &Matrix, cols: usize) -> Matrix {
    if m.cols() == cols {
        return m.clone();
    }
    let mut out = Matrix::zeros(m.rows(), cols);
    for r in 0..m.rows() {
        out.row_mut(r)[..m.cols()].copy_from_slice(m.row(r));
    }
    out
}

fn select_rows(m: &Matrix, rows: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(rows.len(), m.cols());
    for (i, &r) in rows.iter().enumerate() {
        out.row_mut(i).copy_from_slice(m.row(r));
    }
    out
}

fn scatter_rows(m: &Matrix, rows: &[usize], total: usize) -> Matrix {
    let mut out = Matrix::zeros(total, m.cols());
    for (i, &r) in rows.iter().enumerate() {
        out.row_mut(r).copy_from_slice(m.row(i));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gathered;
    use argo_graph::datasets::FLICKR;
    use argo_sample::{NeighborSampler, Sampler, ShadowSampler};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tiny() -> argo_graph::Dataset {
        FLICKR.synthesize(0.01, 31)
    }

    fn blocks(d: &argo_graph::Dataset, n: usize) -> SampledBatch {
        let s = NeighborSampler::new(vec![4, 3]);
        let seeds: Vec<u32> = d.train_nodes.iter().copied().take(n).collect();
        s.sample(&d.graph, &seeds, &mut SmallRng::seed_from_u64(2))
    }

    #[test]
    fn forward_shapes_blocks_and_shadow() {
        let d = tiny();
        let gat = Gat::new(d.feat_dim(), 8, d.num_classes, 2, 2, 1);
        let b = blocks(&d, 6);
        let out = gat.forward_gathered(&b, gathered(&d.features, b.input_nodes()), None);
        assert_eq!(out.rows(), 6);
        assert_eq!(out.cols(), d.num_classes);

        let sh = ShadowSampler::new(vec![4, 3], 2);
        let seeds: Vec<u32> = d.train_nodes.iter().copied().take(5).collect();
        let sb = sh.sample(&d.graph, &seeds, &mut SmallRng::seed_from_u64(3));
        let out = gat.forward_gathered(&sb, gathered(&d.features, sb.input_nodes()), None);
        assert_eq!(out.rows(), 5);
        assert_eq!(out.cols(), d.num_classes);
    }

    #[test]
    fn params_roundtrip() {
        let mut g = Gat::new(10, 8, 3, 2, 2, 5);
        let mut p = Vec::new();
        g.params_flat(&mut p);
        assert_eq!(p.len(), g.num_params());
        let doubled: Vec<f32> = p.iter().map(|x| x * 2.0).collect();
        g.set_params_flat(&doubled);
        let mut p2 = Vec::new();
        g.params_flat(&mut p2);
        assert_eq!(p2, doubled);
    }

    #[test]
    fn attention_rows_are_distributions() {
        // α rows sum to 1 for every dst with at least one in-edge.
        let d = tiny();
        let gat = Gat::new(d.feat_dim(), 8, d.num_classes, 2, 2, 7);
        let SampledBatch::Blocks(mb) = blocks(&d, 8) else {
            panic!()
        };
        let block = &mb.blocks[0];
        // Recompute a head's α through the public kernels.
        let x = gathered(&d.features, &block.src_nodes);
        let z = argo_tensor::reference::matmul(&x, &gat.layers[0].w);
        let zc = slice_cols(&z, 0, gat.layers[0].out_dim);
        let n_dst = block.dst_nodes.len();
        let mut sl = vec![0.0f32; n_dst];
        let mut sr = vec![0.0f32; zc.rows()];
        for j in 0..zc.rows() {
            sr[j] = gat.layers[0]
                .ar
                .row(0)
                .iter()
                .zip(zc.row(j))
                .map(|(a, v)| a * v)
                .sum();
            if j < n_dst {
                sl[j] = gat.layers[0]
                    .al
                    .row(0)
                    .iter()
                    .zip(zc.row(j))
                    .map(|(a, v)| a * v)
                    .sum();
            }
        }
        let mut logits = block.adj.sddmm_add(&sl, &sr).values().unwrap().to_vec();
        leaky_relu_inplace(&mut logits, ATTN_SLOPE);
        let alpha = block.adj.with_values(logits).row_softmax();
        for i in 0..alpha.rows() {
            let row = alpha.row_range(i);
            if !row.is_empty() {
                let s: f32 = alpha.values().unwrap()[row].iter().sum();
                assert!((s - 1.0).abs() < 1e-5, "row {i} sums to {s}");
            }
        }
    }

    fn fd_check(use_shadow: bool, heads: usize) {
        let d = tiny();
        let batch = if use_shadow {
            let s = ShadowSampler::new(vec![3, 2], 2);
            let seeds: Vec<u32> = d.train_nodes.iter().copied().take(4).collect();
            s.sample(&d.graph, &seeds, &mut SmallRng::seed_from_u64(9))
        } else {
            blocks(&d, 4)
        };
        let mut gat = Gat::new(d.feat_dim(), 4 * heads, d.num_classes, 2, heads, 13);
        gat.train_step_gathered(
            &batch,
            gathered(&d.features, batch.input_nodes()),
            &d.labels,
            None,
        );
        let mut analytic = Vec::new();
        gat.grads_flat(&mut analytic);
        let mut params = Vec::new();
        gat.params_flat(&mut params);
        let seeds = batch.seeds();
        let labels: Vec<u32> = seeds.iter().map(|&v| d.labels[v as usize]).collect();
        let loss_at = |g: &mut Gat, p: &[f32]| -> f32 {
            g.set_params_flat(p);
            let logits =
                g.forward_gathered(&batch, gathered(&d.features, batch.input_nodes()), None);
            softmax_cross_entropy(&logits, &labels).0
        };
        let eps = 2e-3f32;
        let n = params.len();
        for &i in &[0usize, n / 7, n / 3, n / 2, 3 * n / 4, n - 1] {
            let mut p = params.clone();
            p[i] += eps;
            let lp = loss_at(&mut gat, &p);
            p[i] = params[i] - eps;
            let lm = loss_at(&mut gat, &p);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - analytic[i]).abs() < 2e-2_f32.max(0.25 * fd.abs()),
                "shadow={use_shadow} heads={heads} param {i}: fd {fd} vs analytic {}",
                analytic[i]
            );
        }
        gat.set_params_flat(&params);
    }

    #[test]
    fn backward_matches_finite_difference_blocks_1head() {
        fd_check(false, 1);
    }

    #[test]
    fn backward_matches_finite_difference_blocks_2heads() {
        fd_check(false, 2);
    }

    #[test]
    fn backward_matches_finite_difference_shadow_2heads() {
        fd_check(true, 2);
    }

    #[test]
    fn pool_and_serial_backward_agree() {
        use argo_rt::ThreadPool;
        let d = tiny();
        // 64 seeds: every layer has at least the 64 output rows that put
        // its row-partitioned kernels on the pool.
        let b = blocks(&d, 64);
        let mk = || Gat::new(d.feat_dim(), 8, d.num_classes, 2, 2, 11);
        let mut serial = mk();
        serial.train_step_gathered(&b, gathered(&d.features, b.input_nodes()), &d.labels, None);
        let mut gs = Vec::new();
        serial.grads_flat(&mut gs);
        let pool = ThreadPool::new("t", 4);
        let mut pooled = mk();
        pooled.train_step_gathered(
            &b,
            gathered(&d.features, b.input_nodes()),
            &d.labels,
            Some(&pool),
        );
        let mut gp = Vec::new();
        pooled.grads_flat(&mut gp);
        assert_eq!(gs.len(), gp.len());
        for (i, (a, b)) in gs.iter().zip(&gp).enumerate() {
            assert!((a - b).abs() <= 1e-4, "grad {i}: serial {a} vs pooled {b}");
        }
    }

    #[test]
    fn training_reduces_loss() {
        let d = tiny();
        let mut gat = Gat::new(d.feat_dim(), 8, d.num_classes, 2, 2, 3);
        let mut opt = crate::optim::Adam::new(gat.num_params(), 0.01);
        let sampler = NeighborSampler::new(vec![5, 3]);
        let mut first = None;
        let mut last = 0.0;
        for step in 0..25 {
            let start = (step * 24) % d.train_nodes.len().saturating_sub(24).max(1);
            let seeds: Vec<u32> = d.train_nodes.iter().copied().skip(start).take(24).collect();
            let batch = sampler.sample(&d.graph, &seeds, &mut SmallRng::seed_from_u64(step as u64));
            let stats = gat.train_step_gathered(
                &batch,
                gathered(&d.features, batch.input_nodes()),
                &d.labels,
                None,
            );
            first.get_or_insert(stats.loss);
            last = stats.loss;
            let mut g = Vec::new();
            gat.grads_flat(&mut g);
            let mut p = Vec::new();
            gat.params_flat(&mut p);
            crate::optim::Optimizer::step(&mut opt, &mut p, &g);
            gat.set_params_flat(&p);
        }
        assert!(
            last < first.unwrap() * 0.8,
            "GAT loss {last} did not drop from {}",
            first.unwrap()
        );
    }

    #[test]
    #[should_panic]
    fn hidden_must_divide_heads() {
        Gat::new(10, 7, 3, 2, 2, 1);
    }
}
