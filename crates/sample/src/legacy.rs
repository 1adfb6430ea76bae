//! The legacy (pre-arena) batch assembly, preserved verbatim.
//!
//! Before the arena-CSR refactor, every sampler materialized its batch
//! through per-batch `Vec` growth — a fresh `src` edge list, fresh row
//! pointers, a validating [`SparseMatrix::new`] conversion and two degree
//! collects per block. That *metadata tax* is what
//! [`Sampler::sample_into`](crate::Sampler::sample_into) eliminates; this
//! module keeps the old path alive for two consumers only:
//!
//! * the `sampler_properties` proptests, which pin the arena assembly
//!   **bitwise-equal** to this path across all four samplers;
//! * the `micro_sampling` benchmark, which times legacy vs arena assembly
//!   on identical node sets to report the assembly speedup.
//!
//! Nothing in the runtime calls into here. The module is exempt from the
//! `sampler-scratch` lint rule precisely because it preserves the
//! allocation behavior the hot path no longer has.

use argo_graph::{Graph, NodeId};
use argo_tensor::SparseMatrix;

use crate::batch::{Block, MiniBatch, Normalization, SampledBatch, SubgraphBatch};
use crate::neighbor::pick_layer;
use crate::scratch::{arena_induced, SamplerScratch};
use crate::{ClusterGcnSampler, NeighborSampler, SaintRwSampler, SampleRun, ShadowSampler};

/// Builds the induced, relabeled [`SubgraphBatch`] over `nodes` with
/// per-batch `Vec` growth — the legacy assembly. The scratch's *current*
/// dedup session is the relabel map (every entry of `nodes` must be
/// registered in it); fused normalization values are written during row
/// assembly.
pub fn induced_batch(
    graph: &Graph,
    nodes: Vec<NodeId>,
    seed_positions: Vec<usize>,
    seeds: Vec<NodeId>,
    scratch: &SamplerScratch,
    norm: Normalization,
) -> SubgraphBatch {
    let inv_sqrt: &[f32] = if norm == Normalization::Gcn {
        graph.inv_sqrt_degrees()
    } else {
        &[]
    };
    let n = nodes.len();
    let mut indptr = Vec::with_capacity(n + 1);
    indptr.push(0u32);
    let mut indices: Vec<u32> = Vec::new();
    let mut values: Option<Vec<f32>> = (norm != Normalization::None).then(Vec::new);
    for &v in &nodes {
        let start = indices.len();
        for &u in graph.neighbors(v) {
            if let Some(j) = scratch.dedup_get(u) {
                indices.push(j);
            }
        }
        // The graph's adjacency is sorted by *global* id; local ids follow
        // discovery order, so re-sort the row segment in place.
        indices[start..].sort_unstable();
        if let Some(vals) = &mut values {
            let cnt = indices.len() - start;
            if norm == Normalization::Mean {
                let inv = 1.0 / (cnt.max(1)) as f32;
                for _ in 0..cnt {
                    vals.push(inv);
                }
            } else {
                let dv = inv_sqrt[v as usize];
                for &j in &indices[start..] {
                    vals.push(dv * inv_sqrt[nodes[j as usize] as usize]);
                }
            }
        }
        indptr.push(indices.len() as u32);
    }
    let adj = SparseMatrix::new(n, n, indptr, indices, values);
    let degree = nodes.iter().map(|&v| graph.degree(v) as f32).collect();
    SubgraphBatch {
        nodes,
        adj,
        seed_positions,
        seeds,
        degree,
        norm,
    }
}

/// The legacy layered assembly of [`NeighborSampler`]: per layer a fresh
/// `src` list grown through dedup, per-batch `indptr`/`indices`/`values`
/// `Vec`s, a validating [`SparseMatrix::new`], two degree collects and a
/// copy of `src` into the next layer's `dst`. Shares the pick phase with
/// the arena path, so outputs differ only in how assembly materializes.
pub fn neighbor_sample(
    sampler: &NeighborSampler,
    graph: &Graph,
    seeds: &[NodeId],
    run: SampleRun<'_>,
) -> SampledBatch {
    let SampleRun {
        stream,
        norm,
        scratch,
        pool,
    } = run;
    let fanouts = sampler.fanouts();
    let num_layers = fanouts.len();
    let inv_sqrt: &[f32] = if norm == Normalization::Gcn {
        graph.inv_sqrt_degrees()
    } else {
        &[]
    };
    let mut blocks_rev: Vec<Block> = Vec::with_capacity(num_layers);
    let mut dst: Vec<NodeId> = seeds.to_vec();
    for layer in (0..num_layers).rev() {
        let fanout = fanouts[layer];
        let rows = dst.len();
        pick_layer(graph, &dst, fanout, stream, layer as u64, scratch, pool);
        scratch.begin_dedup(graph.num_nodes());
        let mut src: Vec<NodeId> = Vec::with_capacity(rows * (fanout / 2 + 1));
        src.extend_from_slice(&dst);
        for (i, &v) in dst.iter().enumerate() {
            scratch.dedup_insert(v, i as u32);
        }
        let mut indptr = Vec::with_capacity(rows + 1);
        indptr.push(0u32);
        let mut indices: Vec<u32> = Vec::with_capacity(rows * fanout);
        let mut values: Option<Vec<f32>> =
            (norm != Normalization::None).then(|| Vec::with_capacity(rows * fanout));
        let picked = std::mem::take(&mut scratch.picked);
        let counts = std::mem::take(&mut scratch.counts);
        for i in 0..rows {
            let cnt = counts[i] as usize;
            let row = &picked[i * fanout..i * fanout + cnt];
            for &u in row {
                let idx = match scratch.dedup_get(u) {
                    Some(idx) => idx,
                    None => {
                        let idx = src.len() as u32;
                        scratch.dedup_insert(u, idx);
                        src.push(u);
                        idx
                    }
                };
                indices.push(idx);
            }
            if let Some(vals) = &mut values {
                if norm == Normalization::Mean {
                    let inv = 1.0 / (cnt.max(1)) as f32;
                    for _ in 0..cnt {
                        vals.push(inv);
                    }
                } else {
                    let dv = inv_sqrt[dst[i] as usize];
                    for &u in row {
                        vals.push(dv * inv_sqrt[u as usize]);
                    }
                }
            }
            indptr.push(indices.len() as u32);
        }
        scratch.picked = picked;
        scratch.counts = counts;
        let adj = SparseMatrix::new(rows, src.len(), indptr, indices, values);
        let dst_degree = dst.iter().map(|&v| graph.degree(v) as f32).collect();
        let src_degree = src.iter().map(|&v| graph.degree(v) as f32).collect();
        let mut next: Vec<NodeId> = Vec::with_capacity(src.len());
        next.extend_from_slice(&src);
        blocks_rev.push(Block {
            src_nodes: src,
            dst_nodes: dst,
            adj,
            dst_degree,
            src_degree,
            norm,
        });
        dst = next;
    }
    blocks_rev.reverse();
    SampledBatch::Blocks(MiniBatch {
        seeds: seeds.to_vec(),
        blocks: blocks_rev,
    })
}

/// Legacy ShaDow sampling: shared discovery + legacy induced assembly.
pub fn shadow_sample(
    sampler: &ShadowSampler,
    graph: &Graph,
    seeds: &[NodeId],
    run: SampleRun<'_>,
) -> SampledBatch {
    let SampleRun {
        stream,
        norm,
        scratch,
        ..
    } = run;
    let mut nodes: Vec<NodeId> = Vec::with_capacity(seeds.len() * 8);
    sampler.discover_into(graph, seeds, stream, scratch, &mut nodes);
    SampledBatch::Subgraph(induced_batch(
        graph,
        nodes,
        (0..seeds.len()).collect(),
        seeds.to_vec(),
        scratch,
        norm,
    ))
}

/// Legacy SAINT-RW sampling: shared discovery + legacy induced assembly.
pub fn saint_sample(
    sampler: &SaintRwSampler,
    graph: &Graph,
    seeds: &[NodeId],
    run: SampleRun<'_>,
) -> SampledBatch {
    let SampleRun {
        stream,
        norm,
        scratch,
        ..
    } = run;
    let mut nodes: Vec<NodeId> = Vec::with_capacity(seeds.len() * (sampler.walk_length() + 1));
    sampler.discover_into(graph, seeds, stream, scratch, &mut nodes);
    SampledBatch::Subgraph(induced_batch(
        graph,
        nodes,
        (0..seeds.len()).collect(),
        seeds.to_vec(),
        scratch,
        norm,
    ))
}

/// Legacy Cluster-GCN sampling: shared discovery + legacy induced assembly.
pub fn cluster_sample(
    sampler: &ClusterGcnSampler,
    graph: &Graph,
    seeds: &[NodeId],
    run: SampleRun<'_>,
) -> SampledBatch {
    let SampleRun { norm, scratch, .. } = run;
    let mut nodes: Vec<NodeId> = Vec::with_capacity(seeds.len() * 4);
    sampler.discover_into(graph, seeds, scratch, &mut nodes);
    SampledBatch::Subgraph(induced_batch(
        graph,
        nodes,
        (0..seeds.len()).collect(),
        seeds.to_vec(),
        scratch,
        norm,
    ))
}

/// Benchmark hook: one localized-subgraph discovery pass (ShaDow-style),
/// returning the discovered node set so assembly variants can be timed on
/// identical inputs.
pub fn bench_discover(
    graph: &Graph,
    seeds: &[NodeId],
    fanouts: Vec<usize>,
    stream: argo_rt::SeedSequence,
    scratch: &mut SamplerScratch,
) -> Vec<NodeId> {
    let sampler = ShadowSampler::new(fanouts, 1);
    let mut nodes = Vec::new();
    sampler.discover_into(graph, seeds, stream, scratch, &mut nodes);
    nodes
}

/// Benchmark hook: legacy induced assembly over a fixed node set (dedup
/// registration + edge-list build + `SparseMatrix::new`). Returns nnz.
pub fn bench_assembly_legacy(
    graph: &Graph,
    nodes: &[NodeId],
    n_seeds: usize,
    scratch: &mut SamplerScratch,
    norm: Normalization,
) -> usize {
    scratch.begin_dedup(graph.num_nodes());
    for (i, &v) in nodes.iter().enumerate() {
        scratch.dedup_insert(v, i as u32);
    }
    let batch = induced_batch(
        graph,
        nodes.to_vec(),
        (0..n_seeds).collect(),
        nodes[..n_seeds].to_vec(),
        scratch,
        norm,
    );
    batch.adj.nnz()
}

/// Benchmark hook: arena induced assembly over the same fixed node set
/// (dedup registration + in-place arena CSR build). Returns nnz.
pub fn bench_assembly_arena(
    graph: &Graph,
    nodes: &[NodeId],
    n_seeds: usize,
    scratch: &mut SamplerScratch,
    norm: Normalization,
) -> usize {
    scratch.begin_dedup(graph.num_nodes());
    for (i, &v) in nodes.iter().enumerate() {
        scratch.dedup_insert(v, i as u32);
    }
    let mut arena = std::mem::take(&mut scratch.arena);
    arena.begin(n_seeds, norm);
    arena.nodes.extend_from_slice(nodes);
    arena_induced(graph, &mut arena, scratch, norm);
    let nnz = arena.indices.len();
    scratch.arena = arena;
    nnz
}
