//! GraphSAINT-style random-walk sampler (Zeng et al. 2020 — reference 18
//! of the paper, the source of the Flickr/Reddit datasets).
//!
//! For a batch of root nodes, performs `walk_length` random-walk steps from
//! every root and trains on the subgraph induced by all visited nodes. Like
//! ShaDow, the model runs all of its layers inside the subgraph, so the
//! sampler reuses [`SubgraphBatch`].

use argo_graph::{Graph, NodeId};
use argo_rt::{SeedSequence, StreamRng};

use crate::scratch::{arena_induced, SamplerScratch};
use crate::view::SampledBatchView;
use crate::{SampleRun, Sampler};

/// Random-walk subgraph sampler.
#[derive(Clone, Debug)]
pub struct SaintRwSampler {
    walk_length: usize,
    num_layers: usize,
}

impl SaintRwSampler {
    /// Walks of `walk_length` steps; the GNN that consumes the batches has
    /// `num_layers` layers.
    pub fn new(walk_length: usize, num_layers: usize) -> Self {
        assert!(walk_length >= 1 && num_layers >= 1);
        Self {
            walk_length,
            num_layers,
        }
    }

    /// The GraphSAINT paper's common setting: walk length 2 (its roots
    /// default is the batch size, which here comes from the loader).
    pub fn paper_default(num_layers: usize) -> Self {
        Self::new(2, num_layers)
    }

    /// Configured walk length.
    pub fn walk_length(&self) -> usize {
        self.walk_length
    }

    /// Discovery phase: `walk_length` random-walk steps from every root,
    /// dedup-registered in visit order with seeds first. Appends to `nodes`
    /// and leaves the dedup session ready for induced assembly.
    fn discover_into(
        &self,
        graph: &Graph,
        seeds: &[NodeId],
        stream: SeedSequence,
        scratch: &mut SamplerScratch,
        nodes: &mut Vec<NodeId>,
    ) {
        scratch.begin_dedup(graph.num_nodes());
        nodes.extend_from_slice(seeds);
        for (i, &v) in seeds.iter().enumerate() {
            assert!(scratch.dedup_insert(v, i as u32), "duplicate seed {v}");
        }
        for (ri, &root) in seeds.iter().enumerate() {
            // One counter stream per root: the walk a root takes depends
            // only on its position in the batch.
            let mut rng = StreamRng::new(stream.seed_for(0, ri as u64));
            let mut cur = root;
            for _ in 0..self.walk_length {
                let neigh = graph.neighbors(cur);
                if neigh.is_empty() {
                    break;
                }
                cur = neigh[rng.index(neigh.len())];
                if scratch.dedup_insert(cur, nodes.len() as u32) {
                    nodes.push(cur);
                }
            }
        }
    }
}

impl Sampler for SaintRwSampler {
    fn sample_into<'a>(
        &self,
        graph: &Graph,
        seeds: &[NodeId],
        run: SampleRun<'a>,
    ) -> SampledBatchView<'a> {
        let SampleRun {
            stream,
            norm,
            scratch,
        } = run;
        let caps_before = scratch.arena.caps();
        let mut arena = std::mem::take(&mut scratch.arena);
        arena.begin(seeds.len(), norm);
        self.discover_into(graph, seeds, stream, scratch, &mut arena.nodes);
        arena_induced(graph, &mut arena, scratch, norm);
        scratch.note_growth(arena.caps() > caps_before);
        scratch.arena = arena;
        let scratch_ref: &'a SamplerScratch = scratch;
        SampledBatchView::subgraph(&scratch_ref.arena)
    }

    fn name(&self) -> &'static str {
        "SAINT-RW"
    }

    fn num_layers(&self) -> usize {
        self.num_layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::SampledBatch;
    use crate::batch::SubgraphBatch;
    use argo_graph::generators::power_law;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn subgraph(b: SampledBatch) -> SubgraphBatch {
        match b {
            SampledBatch::Subgraph(s) => s,
            _ => panic!("expected subgraph"),
        }
    }

    #[test]
    fn walk_visits_connected_nodes() {
        let g = power_law(300, 3000, 0.8, 1);
        let s = SaintRwSampler::new(3, 2);
        let sb = subgraph(s.sample(&g, &[1, 2, 3], &mut SmallRng::seed_from_u64(4)));
        assert_eq!(&sb.nodes[..3], &[1, 2, 3]);
        // Bounded by roots · (walk_length + 1).
        assert!(sb.nodes.len() <= 3 * 4);
        for i in 0..sb.adj.rows() {
            for k in sb.adj.row_range(i) {
                let u = sb.nodes[sb.adj.indices()[k] as usize];
                assert!(g.has_edge(sb.nodes[i], u));
            }
        }
    }

    #[test]
    fn deterministic_in_rng() {
        let g = power_law(200, 2000, 0.8, 2);
        let s = SaintRwSampler::paper_default(2);
        let a = subgraph(s.sample(&g, &[5, 6], &mut SmallRng::seed_from_u64(7)));
        let b = subgraph(s.sample(&g, &[5, 6], &mut SmallRng::seed_from_u64(7)));
        assert_eq!(a.nodes, b.nodes);
    }

    #[test]
    fn isolated_root_stays_alone() {
        let g = Graph::from_edges(4, &[(0, 1)], true);
        let s = SaintRwSampler::new(5, 2);
        let sb = subgraph(s.sample(&g, &[3], &mut SmallRng::seed_from_u64(1)));
        assert_eq!(sb.nodes, vec![3]);
        assert_eq!(sb.adj.nnz(), 0);
    }

    #[test]
    fn longer_walks_visit_more() {
        let g = power_law(500, 8000, 0.7, 3);
        let seeds: Vec<NodeId> = (0..16).collect();
        let short =
            subgraph(SaintRwSampler::new(1, 2).sample(&g, &seeds, &mut SmallRng::seed_from_u64(9)));
        let long =
            subgraph(SaintRwSampler::new(6, 2).sample(&g, &seeds, &mut SmallRng::seed_from_u64(9)));
        assert!(long.nodes.len() > short.nodes.len());
    }
}
