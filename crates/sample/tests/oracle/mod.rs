//! The assembly oracle: every batch a sampler can emit, built the obvious
//! way from public API alone — a `BTreeSet` Floyd draw per row, a `HashMap`
//! relabel, a per-row sort, `SparseMatrix::new`. It shares no code with the
//! arena assembly (`scratch.rs`, `neighbor.rs`) it checks; the proptests in
//! `sampler_properties.rs` pin `sample_into(..).to_owned()` to it bit for
//! bit.

use std::collections::{BTreeSet, HashMap};

use argo_graph::{Graph, NodeId};
use argo_rt::{SeedSequence, StreamRng};
use argo_sample::{Block, MiniBatch, Normalization, SampledBatch, SubgraphBatch};
use argo_tensor::SparseMatrix;

/// `1/sqrt(deg(v))`, an isolated node counting as degree 1.
fn inv_sqrt(graph: &Graph, v: NodeId) -> f32 {
    1.0 / (graph.degree(v).max(1) as f32).sqrt()
}

/// The fused value of entry `(v, u)` in a row of `cnt` entries: `1/cnt` for
/// the row mean, `inv_sqrt(v)·inv_sqrt(u)` (row factor first) for GCN.
fn value(graph: &Graph, norm: Normalization, v: NodeId, u: NodeId, cnt: usize) -> f32 {
    match norm {
        Normalization::Mean => 1.0 / cnt as f32,
        _ => inv_sqrt(graph, v) * inv_sqrt(graph, u),
    }
}

/// Local ids by first occurrence.
fn first_ids(nodes: &[NodeId]) -> HashMap<NodeId, u32> {
    let mut ids = HashMap::new();
    for (i, &v) in nodes.iter().enumerate() {
        ids.entry(v).or_insert(i as u32);
    }
    ids
}

/// Row `v`'s picks: the whole row when it fits the fanout; otherwise
/// Floyd's draw of `fanout` distinct positions, read in ascending order.
fn picks(graph: &Graph, v: NodeId, fanout: usize, mut rng: StreamRng) -> Vec<NodeId> {
    let row = graph.neighbors(v);
    if row.len() <= fanout {
        return row.to_vec();
    }
    let mut chosen = BTreeSet::new();
    for j in row.len() - fanout..row.len() {
        let t = rng.index(j + 1);
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    chosen.into_iter().map(|p| row[p]).collect()
}

/// A CSR from per-row `(local id, value)` entries; values dropped under
/// [`Normalization::None`].
fn csr(rows: Vec<Vec<(u32, f32)>>, cols: usize, norm: Normalization) -> SparseMatrix {
    let mut indptr = vec![0u32];
    for row in &rows {
        indptr.push(indptr[indptr.len() - 1] + row.len() as u32);
    }
    let (indices, values): (Vec<u32>, Vec<f32>) = rows.iter().flatten().copied().unzip();
    let values = (norm != Normalization::None).then_some(values);
    SparseMatrix::new(rows.len(), cols, indptr, indices, values)
}

/// The layered batch `NeighborSampler::new(fanouts)` must build for `seeds`
/// from `stream`: row `i` of the layer at depth `layer` picks from
/// `StreamRng::new(stream.seed_for(layer, i))`, and each block's src list is
/// its dst list followed by new picks in first-seen order.
pub fn blocks(
    graph: &Graph,
    seeds: &[NodeId],
    fanouts: &[usize],
    stream: SeedSequence,
    norm: Normalization,
) -> SampledBatch {
    let mut blocks = Vec::new();
    let mut dst = seeds.to_vec();
    for layer in (0..fanouts.len()).rev() {
        let mut src = dst.clone();
        let mut ids = first_ids(&dst);
        let mut rows = Vec::new();
        for (i, &v) in dst.iter().enumerate() {
            let rng = StreamRng::new(stream.seed_for(layer as u64, i as u64));
            let picked = picks(graph, v, fanouts[layer], rng);
            let mut row = Vec::new();
            for &u in &picked {
                let j = *ids.entry(u).or_insert_with(|| {
                    src.push(u);
                    src.len() as u32 - 1
                });
                row.push((j, value(graph, norm, v, u, picked.len())));
            }
            rows.push(row);
        }
        blocks.push(Block {
            adj: csr(rows, src.len(), norm),
            dst_nodes: dst,
            src_nodes: src.clone(),
            norm,
        });
        dst = src;
    }
    blocks.reverse();
    SampledBatch::Blocks(MiniBatch {
        seeds: seeds.to_vec(),
        blocks,
    })
}

/// The subgraph induced on `nodes` (seeds first): row `i` lists the local
/// ids of `nodes[i]`'s neighbors inside the set, ascending.
pub fn induced(
    graph: &Graph,
    nodes: &[NodeId],
    n_seeds: usize,
    norm: Normalization,
) -> SampledBatch {
    let ids = first_ids(nodes);
    let rows = nodes
        .iter()
        .map(|&v| {
            let mut row: Vec<u32> = graph
                .neighbors(v)
                .iter()
                .filter_map(|u| ids.get(u).copied())
                .collect();
            row.sort_unstable();
            let cnt = row.len();
            row.into_iter()
                .map(|j| (j, value(graph, norm, v, nodes[j as usize], cnt)))
                .collect()
        })
        .collect();
    SampledBatch::Subgraph(SubgraphBatch {
        nodes: nodes.to_vec(),
        adj: csr(rows, nodes.len(), norm),
        seed_positions: (0..n_seeds).collect(),
        seeds: nodes[..n_seeds].to_vec(),
        norm,
    })
}
