//! Sampled mini-batch structures.

use argo_graph::NodeId;
use argo_tensor::SparseMatrix;

/// Which normalization the values of a sampled adjacency carry.
///
/// Samplers fuse normalization into block construction: the values are
/// written while the adjacency is assembled, using the graph's precomputed
/// `inv_sqrt_degrees` table. This is the program's only normalization; a
/// model runs the values a batch carries and refuses a batch fused with
/// another scheme.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Normalization {
    /// `adj` carries no values (binary adjacency).
    #[default]
    None,
    /// Row-mean: `1/k_i` per sampled in-edge of dst `i` (GraphSAGE, Eq. 2).
    Mean,
    /// Symmetric GCN (Eq. 1) with *global* degrees, fused as
    /// `inv_sqrt(v)·inv_sqrt(u)` for the edge from src `u` to dst `v`, where
    /// `inv_sqrt(x) = 1/sqrt(max(D(x), 1))` is the graph's
    /// `inv_sqrt_degrees` table (a degree-0 node counts as degree 1).
    Gcn,
}

/// One bipartite message-passing layer of a sampled mini-batch
/// (DGL calls this a *block*).
///
/// Rows of `adj` are the `dst_nodes` (outputs of this layer), columns are the
/// `src_nodes` (inputs). By construction `src_nodes` starts with a copy of
/// `dst_nodes`, so a layer can read its own previous-layer embedding at row
/// `i` from source position `i` (needed by GraphSAGE's concat, Eq. 2).
#[derive(Clone, Debug)]
pub struct Block {
    /// Global ids of input nodes; the first `dst_nodes.len()` entries equal
    /// `dst_nodes`.
    pub src_nodes: Vec<NodeId>,
    /// Global ids of output nodes.
    pub dst_nodes: Vec<NodeId>,
    /// Sampled adjacency: `dst_nodes.len() x src_nodes.len()`.
    pub adj: SparseMatrix,
    /// Normalization fused into `adj`'s values (if any).
    pub norm: Normalization,
}

impl Block {
    /// Number of sampled edges in this block.
    pub fn num_edges(&self) -> usize {
        self.adj.nnz()
    }
}

/// A layered mini-batch from neighbor sampling.
///
/// `blocks[0]` is the *input-side* layer: its `src_nodes` are the nodes whose
/// raw features must be gathered. `blocks.last()` has `dst_nodes == seeds`.
#[derive(Clone, Debug)]
pub struct MiniBatch {
    /// Target (output) nodes of this batch.
    pub seeds: Vec<NodeId>,
    /// Blocks ordered input layer → output layer.
    pub blocks: Vec<Block>,
}

impl MiniBatch {
    /// Nodes whose input features are needed.
    pub fn input_nodes(&self) -> &[NodeId] {
        &self.blocks[0].src_nodes
    }

    /// Total sampled edges across all layers — the paper's workload proxy
    /// ("the number of aggregations performed is proportional to the number
    /// of edges", Section V-A1).
    pub fn total_edges(&self) -> usize {
        self.blocks.iter().map(Block::num_edges).sum()
    }
}

/// A ShaDow-style batch: one induced localized subgraph shared by all GNN
/// layers; outputs are read at `seed_positions`.
#[derive(Clone, Debug)]
pub struct SubgraphBatch {
    /// Global ids of subgraph nodes (features gathered for all of them).
    pub nodes: Vec<NodeId>,
    /// Square relabeled adjacency over `nodes`.
    pub adj: SparseMatrix,
    /// Positions of the seeds within `nodes`.
    pub seed_positions: Vec<usize>,
    /// Global ids of the seeds (`nodes[p]` for each `p` in `seed_positions`),
    /// precomputed so [`SampledBatch::seeds`] can borrow instead of allocate.
    pub seeds: Vec<NodeId>,
    /// Normalization fused into `adj`'s values (if any).
    pub norm: Normalization,
}

/// Either shape of sampled batch.
#[derive(Clone, Debug)]
pub enum SampledBatch {
    /// Layered bipartite blocks (neighbor sampling).
    Blocks(MiniBatch),
    /// One induced subgraph (ShaDow sampling).
    Subgraph(SubgraphBatch),
}

impl SampledBatch {
    /// Target nodes of the batch. Borrows — the engine calls this per batch,
    /// and cloning a seed vector per step was a measurable allocation.
    pub fn seeds(&self) -> &[NodeId] {
        match self {
            SampledBatch::Blocks(mb) => &mb.seeds,
            SampledBatch::Subgraph(sb) => &sb.seeds,
        }
    }

    /// Nodes whose raw features must be gathered.
    pub fn input_nodes(&self) -> &[NodeId] {
        match self {
            SampledBatch::Blocks(mb) => mb.input_nodes(),
            SampledBatch::Subgraph(sb) => &sb.nodes,
        }
    }

    /// Layer `l`'s full-height adjacency: block `l`, or the subgraph's,
    /// which every layer shares. Layer 0's reads the gathered input rows
    /// (`n_dst × input_nodes().len()`). The owned twin of
    /// [`SampledBatchView::layer_adj`](crate::SampledBatchView::layer_adj).
    pub fn layer_adj(&self, l: usize) -> &SparseMatrix {
        match self {
            SampledBatch::Blocks(mb) => &mb.blocks[l].adj,
            SampledBatch::Subgraph(sb) => &sb.adj,
        }
    }

    /// Normalization fused into the adjacency values: one for the whole
    /// batch, as the sampler writes it.
    pub fn norm(&self) -> Normalization {
        match self {
            SampledBatch::Blocks(mb) => mb.blocks.first().map_or(Normalization::None, |b| b.norm),
            SampledBatch::Subgraph(sb) => sb.norm,
        }
    }

    /// The batch's *sampled workload*: block edges summed over the layers,
    /// or the subgraph's edges once per layer — the paper's proxy ("the
    /// number of aggregations performed is proportional to the number of
    /// edges"), and the per-epoch count `benchmark/expected.json` pins. It
    /// describes what was sampled, not what the kernels traverse: a model
    /// aggregates a subgraph layer over the rows the next layer reads only
    /// (`argo_nn`'s needed-row cascade), which is fewer entries than this.
    pub fn total_edges(&self, num_layers: usize) -> usize {
        match self {
            SampledBatch::Blocks(mb) => mb.total_edges(),
            SampledBatch::Subgraph(sb) => sb.adj.nnz() * num_layers,
        }
    }

    /// Number of seed (target) nodes.
    pub fn num_seeds(&self) -> usize {
        match self {
            SampledBatch::Blocks(mb) => mb.seeds.len(),
            SampledBatch::Subgraph(sb) => sb.seed_positions.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> Block {
        // 2 dst, 3 src; dst0 <- {src0, src2}, dst1 <- {src1}
        Block {
            src_nodes: vec![10, 11, 12],
            dst_nodes: vec![10, 11],
            adj: SparseMatrix::new(2, 3, vec![0, 2, 3], vec![0, 2, 1], None),
            norm: Normalization::None,
        }
    }

    #[test]
    fn minibatch_accessors() {
        let b0 = block();
        let b1 = block();
        let mb = MiniBatch {
            seeds: vec![10, 11],
            blocks: vec![b0, b1],
        };
        assert_eq!(mb.input_nodes(), &[10, 11, 12]);
        assert_eq!(mb.total_edges(), 6);
        let sb = SampledBatch::Blocks(mb);
        assert_eq!(sb.seeds(), vec![10, 11]);
        assert_eq!(sb.num_seeds(), 2);
        assert_eq!(sb.total_edges(3), 6);
    }

    #[test]
    fn subgraph_batch_accessors() {
        let sb = SubgraphBatch {
            nodes: vec![5, 6, 7],
            adj: SparseMatrix::new(3, 3, vec![0, 1, 2, 2], vec![1, 0], None),
            seed_positions: vec![0],
            seeds: vec![5],
            norm: Normalization::None,
        };
        let s = SampledBatch::Subgraph(sb);
        assert_eq!(s.seeds(), vec![5]);
        assert_eq!(s.input_nodes(), &[5, 6, 7]);
        assert_eq!(s.total_edges(3), 6); // 2 edges × 3 layers
    }
}
