//! Borrowed batch views over the sampler's batch arena.
//!
//! [`Sampler::sample_into`](crate::Sampler::sample_into) assembles a batch
//! directly inside [`SamplerScratch`](crate::SamplerScratch)'s batch arena
//! and returns a [`SampledBatchView`] — slices into that arena plus
//! [`SparseView`] adjacencies. Every consumer runs the batch through this
//! view, with no copy: serving, evaluation and the loader's prologue
//! aggregate and transpose straight out of the arena, and the training step
//! reads the arena a loader worker sent ([`LoadedBatch::view`](crate::LoadedBatch::view)).
//! [`SampledBatchView::to_owned`] makes the owned [`SampledBatch`] that the
//! call-table adapter `Gnn::train_step_gathered`,
//! [`Sampler::sample`](crate::Sampler::sample) and the tests take (pinned
//! bitwise against the test oracle in `tests/oracle/mod.rs`).

use argo_graph::NodeId;
use argo_tensor::SparseView;

use crate::batch::{Block, MiniBatch, Normalization, SampledBatch, SubgraphBatch};
use crate::scratch::{BatchArena, LayerRec};

/// One bipartite message-passing layer borrowed from the arena — the view
/// twin of [`Block`].
#[derive(Clone, Copy, Debug)]
pub struct BlockView<'a> {
    /// Global ids of input nodes; the first `dst_nodes.len()` entries equal
    /// `dst_nodes`.
    pub src_nodes: &'a [NodeId],
    /// Global ids of output nodes.
    pub dst_nodes: &'a [NodeId],
    /// Sampled adjacency: `dst_nodes.len() x src_nodes.len()`.
    pub adj: SparseView<'a>,
    /// Normalization already fused into `adj`'s values (if any).
    pub norm: Normalization,
}

impl BlockView<'_> {
    /// Materializes an owned [`Block`].
    pub fn to_owned(&self) -> Block {
        Block {
            src_nodes: self.src_nodes.to_vec(),
            dst_nodes: self.dst_nodes.to_vec(),
            adj: self.adj.to_owned(),
            norm: self.norm,
        }
    }
}

/// A layered mini-batch borrowed from the arena — the view twin of
/// [`MiniBatch`]. Blocks are ordered input layer → output layer, as in the
/// owned type; interior node lists are shared between adjacent blocks
/// (block `l`'s dst slice *is* block `l+1`'s src prefix range), which is
/// exactly the copy an owned [`MiniBatch`] pays per layer.
#[derive(Clone, Copy, Debug)]
pub struct MiniBatchView<'a> {
    pub(crate) arena: &'a BatchArena,
}

impl<'a> MiniBatchView<'a> {
    /// Number of blocks (layers).
    pub fn num_blocks(&self) -> usize {
        self.arena.layers.len()
    }

    /// Target (output) nodes of this batch.
    pub fn seeds(&self) -> &'a [NodeId] {
        &self.arena.nodes[..self.arena.n_seeds]
    }

    /// Block `l` in forward (input layer → output layer) order.
    pub fn block(&self, l: usize) -> BlockView<'a> {
        let num = self.arena.layers.len();
        // Records are stored in assembly order (output layer first).
        let p = num - 1 - l;
        let rec = &self.arena.layers[p];
        let dst = if p == 0 {
            0..self.arena.n_seeds
        } else {
            let d = &self.arena.layers[p - 1].nodes;
            d.start..d.end
        };
        block_view(self.arena, rec, dst)
    }

    /// Nodes whose input features are needed (src of the input-side block).
    pub fn input_nodes(&self) -> &'a [NodeId] {
        let rec = &self.arena.layers[self.arena.layers.len() - 1];
        &self.arena.nodes[rec.nodes.start..rec.nodes.end]
    }

    /// Total sampled edges across all layers.
    pub fn total_edges(&self) -> usize {
        self.arena.layers.iter().map(|r| r.entries.len()).sum()
    }

    /// Materializes an owned [`MiniBatch`].
    pub fn to_owned(&self) -> MiniBatch {
        MiniBatch {
            seeds: self.seeds().to_vec(),
            blocks: (0..self.num_blocks())
                .map(|l| self.block(l).to_owned())
                .collect(),
        }
    }
}

/// A subgraph batch borrowed from the arena — the view twin of
/// [`SubgraphBatch`]. Seeds are the prefix of `nodes` (every subgraph
/// sampler puts them there), so seed positions are implicitly
/// `0..num_seeds` and never stored.
#[derive(Clone, Copy, Debug)]
pub struct SubgraphView<'a> {
    pub(crate) arena: &'a BatchArena,
}

impl<'a> SubgraphView<'a> {
    /// Global ids of subgraph nodes (features gathered for all of them).
    pub fn nodes(&self) -> &'a [NodeId] {
        &self.arena.nodes
    }

    /// Square relabeled adjacency over `nodes`.
    pub fn adj(&self) -> SparseView<'a> {
        let rec = &self.arena.layers[0];
        adj_view(self.arena, rec)
    }

    /// Global ids of the seeds — the prefix of `nodes`.
    pub fn seeds(&self) -> &'a [NodeId] {
        &self.arena.nodes[..self.arena.n_seeds]
    }

    /// Number of seeds.
    pub fn num_seeds(&self) -> usize {
        self.arena.n_seeds
    }

    /// Normalization fused into the adjacency values (if any).
    pub fn norm(&self) -> Normalization {
        self.arena.norm
    }

    /// Materializes an owned [`SubgraphBatch`].
    pub fn to_owned(&self) -> SubgraphBatch {
        SubgraphBatch {
            nodes: self.nodes().to_vec(),
            adj: self.adj().to_owned(),
            seed_positions: (0..self.arena.n_seeds).collect(),
            seeds: self.seeds().to_vec(),
            norm: self.arena.norm,
        }
    }
}

fn adj_view<'a>(arena: &'a BatchArena, rec: &LayerRec) -> SparseView<'a> {
    let values = if arena.values.is_empty() {
        None
    } else {
        Some(&arena.values[rec.entries.start..rec.entries.end])
    };
    SparseView::new(
        rec.rows,
        rec.nodes.len(),
        &arena.indptr[rec.indptr.start..rec.indptr.end],
        &arena.indices[rec.entries.start..rec.entries.end],
        values,
    )
}

fn block_view<'a>(
    arena: &'a BatchArena,
    rec: &LayerRec,
    dst: std::ops::Range<usize>,
) -> BlockView<'a> {
    BlockView {
        src_nodes: &arena.nodes[rec.nodes.start..rec.nodes.end],
        dst_nodes: &arena.nodes[dst.start..dst.end],
        adj: adj_view(arena, rec),
        norm: arena.norm,
    }
}

/// Either shape of borrowed batch — the view twin of [`SampledBatch`].
#[derive(Clone, Copy, Debug)]
pub enum SampledBatchView<'a> {
    /// Layered bipartite blocks (neighbor sampling).
    Blocks(MiniBatchView<'a>),
    /// One induced subgraph (ShaDow sampling).
    Subgraph(SubgraphView<'a>),
}

impl BatchArena {
    /// The resident batch, in the shape it was assembled in.
    pub(crate) fn view(&self) -> SampledBatchView<'_> {
        if self.subgraph {
            SampledBatchView::Subgraph(SubgraphView { arena: self })
        } else {
            SampledBatchView::Blocks(MiniBatchView { arena: self })
        }
    }
}

impl<'a> SampledBatchView<'a> {
    fn arena(&self) -> &'a BatchArena {
        match self {
            SampledBatchView::Blocks(mb) => mb.arena,
            SampledBatchView::Subgraph(sb) => sb.arena,
        }
    }

    /// Target nodes of the batch.
    pub fn seeds(&self) -> &'a [NodeId] {
        let arena = self.arena();
        &arena.nodes[..arena.n_seeds]
    }

    /// Nodes whose raw features must be gathered.
    pub fn input_nodes(&self) -> &'a [NodeId] {
        match self {
            SampledBatchView::Blocks(mb) => mb.input_nodes(),
            SampledBatchView::Subgraph(sb) => sb.nodes(),
        }
    }

    /// Layer `l`'s full-height adjacency: block `l`, or the subgraph's,
    /// which every layer shares (see [`SampledBatch::layer_adj`]).
    pub fn layer_adj(&self, l: usize) -> SparseView<'a> {
        match self {
            SampledBatchView::Blocks(mb) => mb.block(l).adj,
            SampledBatchView::Subgraph(sb) => sb.adj(),
        }
    }

    /// The batch's sampled workload — see [`SampledBatch::total_edges`]: a
    /// subgraph's edges count once per layer, whatever the model traverses.
    pub fn total_edges(&self, num_layers: usize) -> usize {
        match self {
            SampledBatchView::Blocks(mb) => mb.total_edges(),
            SampledBatchView::Subgraph(sb) => sb.adj().nnz() * num_layers,
        }
    }

    /// Number of seed (target) nodes.
    pub fn num_seeds(&self) -> usize {
        self.arena().n_seeds
    }

    /// Normalization fused into the adjacency values (if any).
    pub fn norm(&self) -> Normalization {
        self.arena().norm
    }

    /// Bytes of batch metadata resident in the arena — the compact layout
    /// the `bytes_summary` accounting reports (node ids, `u32` row
    /// pointers, column indices, fused values).
    pub fn metadata_bytes(&self) -> usize {
        self.arena().metadata_bytes()
    }

    /// Materializes an owned [`SampledBatch`], for callers that hold a batch
    /// past its arena's next use: `Gnn::train_step_gathered`'s callers,
    /// [`Sampler::sample`](crate::Sampler::sample) and tests.
    pub fn to_owned(&self) -> SampledBatch {
        match self {
            SampledBatchView::Blocks(mb) => SampledBatch::Blocks(mb.to_owned()),
            SampledBatchView::Subgraph(sb) => SampledBatch::Subgraph(sb.to_owned()),
        }
    }
}
