//! Cluster-GCN sampling (Chiang et al. 2019 — reference 17 of the paper).
//!
//! The graph is pre-partitioned into locality clusters (BFS blocks — the
//! same "METIS-like" machinery as `argo_graph::partition`); a mini-batch is
//! the subgraph induced by the union of the clusters containing the batch's
//! seeds. All GNN layers run inside that subgraph, so [`SubgraphBatch`] is
//! reused; the loss is evaluated at the seed positions.

use argo_graph::partition::bfs_partition;
use argo_graph::{Graph, NodeId};
use argo_tensor::SparseMatrix;

use crate::batch::{Normalization, SampledBatch, SubgraphBatch};
use crate::scratch::{arena_induced, SamplerScratch};
use crate::view::SampledBatchView;
use crate::{SampleRun, Sampler};

/// Cluster-based subgraph sampler with a precomputed clustering.
#[derive(Clone, Debug)]
pub struct ClusterGcnSampler {
    node_cluster: Vec<u32>,
    clusters: Vec<Vec<NodeId>>,
    num_layers: usize,
    /// Cap on subgraph size (nodes) to bound worst-case batches.
    max_nodes: usize,
}

impl ClusterGcnSampler {
    /// Pre-partitions `graph` into `num_clusters` BFS-locality clusters.
    pub fn new(graph: &Graph, num_clusters: usize, num_layers: usize) -> Self {
        assert!(num_clusters >= 1 && num_layers >= 1);
        let all: Vec<NodeId> = (0..graph.num_nodes() as NodeId).collect();
        let clusters = bfs_partition(graph, &all, num_clusters);
        let mut node_cluster = vec![0u32; graph.num_nodes()];
        for (c, members) in clusters.iter().enumerate() {
            for &v in members {
                node_cluster[v as usize] = c as u32;
            }
        }
        Self {
            node_cluster,
            clusters,
            num_layers,
            max_nodes: (graph.num_nodes() / 2).max(64),
        }
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Cluster id of a node.
    pub fn cluster_of(&self, v: NodeId) -> u32 {
        self.node_cluster[v as usize]
    }

    /// Discovery phase: the union of the clusters the seeds live in, seeds
    /// first, capped at `max_nodes`. Entirely deterministic. Appends to
    /// `nodes` and leaves the dedup session ready for induced assembly.
    fn discover_into(
        &self,
        graph: &Graph,
        seeds: &[NodeId],
        scratch: &mut SamplerScratch,
        nodes: &mut Vec<NodeId>,
    ) {
        scratch.begin_dedup(graph.num_nodes());
        nodes.extend_from_slice(seeds);
        for (i, &v) in seeds.iter().enumerate() {
            assert!(scratch.dedup_insert(v, i as u32), "duplicate seed {v}");
        }
        // Distinct cluster ids in ascending order: collect into the recycled
        // buffer, then sort + dedup (replaces the old per-batch BTreeSet).
        scratch.acquire_chosen(seeds.len());
        let mut chosen = std::mem::take(&mut scratch.chosen);
        for &v in seeds {
            chosen.push(self.node_cluster[v as usize]);
        }
        chosen.sort_unstable();
        chosen.dedup();
        'outer: for &c in &chosen {
            for &v in &self.clusters[c as usize] {
                if nodes.len() >= self.max_nodes {
                    break 'outer;
                }
                if scratch.dedup_insert(v, nodes.len() as u32) {
                    nodes.push(v);
                }
            }
        }
        scratch.chosen = chosen;
    }
}

impl Sampler for ClusterGcnSampler {
    fn sample_into<'a>(
        &self,
        graph: &Graph,
        seeds: &[NodeId],
        run: SampleRun<'a>,
    ) -> SampledBatchView<'a> {
        // The RNG stream is unused — see `discover_into`.
        let SampleRun { norm, scratch, .. } = run;
        let caps_before = scratch.arena.caps();
        let mut arena = std::mem::take(&mut scratch.arena);
        arena.begin(seeds.len(), norm);
        self.discover_into(graph, seeds, scratch, &mut arena.nodes);
        arena_induced(graph, &mut arena, scratch, norm);
        scratch.note_growth(arena.caps() > caps_before);
        scratch.arena = arena;
        let scratch_ref: &'a SamplerScratch = scratch;
        SampledBatchView::subgraph(&scratch_ref.arena)
    }

    fn name(&self) -> &'static str {
        "ClusterGCN"
    }

    fn num_layers(&self) -> usize {
        self.num_layers
    }
}

/// Builds a full-graph "batch": the whole graph as one [`SubgraphBatch`]
/// with the given training targets as seeds — the full-graph training mode
/// the paper contrasts with mini-batch training (Section II-B).
pub fn full_graph_batch(graph: &Graph, train_nodes: &[NodeId]) -> SampledBatch {
    let n = graph.num_nodes();
    let adj = SparseMatrix::new(
        n,
        n,
        // `SparseMatrix::new` checks the pointers against `indices.len()`,
        // so a graph past `u32::MAX` edges is rejected there, not wrapped.
        graph.indptr().iter().map(|&p| p as u32).collect(),
        graph.indices().to_vec(),
        None,
    );
    let degree = (0..n).map(|v| graph.degree(v as NodeId) as f32).collect();
    SampledBatch::Subgraph(SubgraphBatch {
        nodes: (0..n as NodeId).collect(),
        adj,
        seed_positions: train_nodes.iter().map(|&v| v as usize).collect(),
        seeds: train_nodes.to_vec(),
        degree,
        norm: Normalization::None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo_graph::generators::planted_communities;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn subgraph(b: SampledBatch) -> SubgraphBatch {
        match b {
            SampledBatch::Subgraph(s) => s,
            _ => panic!("expected subgraph"),
        }
    }

    #[test]
    fn clusters_cover_all_nodes() {
        let g = planted_communities(400, 3000, 4, 0.9, 1);
        let s = ClusterGcnSampler::new(&g, 8, 2);
        assert_eq!(s.num_clusters(), 8);
        let total: usize = s.clusters.iter().map(Vec::len).sum();
        assert_eq!(total, 400);
    }

    #[test]
    fn batch_contains_seed_clusters() {
        let g = planted_communities(400, 3000, 4, 0.9, 2);
        let s = ClusterGcnSampler::new(&g, 8, 2);
        let seeds = [0u32, 100, 200];
        let sb = subgraph(s.sample(&g, &seeds, &mut SmallRng::seed_from_u64(1)));
        assert_eq!(&sb.nodes[..3], &seeds[..]);
        // Every member of a seed's cluster appears (no cap hit at this size).
        for &v in &seeds {
            let c = s.cluster_of(v);
            for &m in &s.clusters[c as usize] {
                assert!(sb.nodes.contains(&m), "cluster member {m} missing");
            }
        }
        // Induced edges valid.
        for i in 0..sb.adj.rows() {
            for k in sb.adj.row_range(i) {
                assert!(g.has_edge(sb.nodes[i], sb.nodes[sb.adj.indices()[k] as usize]));
            }
        }
    }

    #[test]
    fn same_cluster_seeds_share_subgraph() {
        let g = planted_communities(300, 2400, 3, 0.9, 3);
        let s = ClusterGcnSampler::new(&g, 6, 2);
        // Find two seeds in the same cluster.
        let c0 = s.clusters[0].clone();
        let (a, b) = (c0[0], c0[1]);
        let mut rng = SmallRng::seed_from_u64(2);
        let sa = subgraph(s.sample(&g, &[a], &mut rng));
        let sab = subgraph(s.sample(&g, &[a, b], &mut rng));
        // The pair's subgraph is no larger than the single-cluster one + 1.
        assert!(sab.nodes.len() <= sa.nodes.len() + 1);
    }

    #[test]
    fn full_graph_batch_covers_everything() {
        let g = planted_communities(200, 1500, 4, 0.85, 4);
        let train: Vec<NodeId> = (0..200).step_by(3).collect();
        let b = full_graph_batch(&g, &train);
        assert_eq!(b.input_nodes().len(), 200);
        assert_eq!(b.num_seeds(), train.len());
        assert_eq!(b.total_edges(2), g.num_edges() * 2);
        let sb = subgraph(b);
        // Seed positions point at the right nodes.
        for (&pos, &v) in sb.seed_positions.iter().zip(&train) {
            assert_eq!(sb.nodes[pos], v);
        }
    }
}
