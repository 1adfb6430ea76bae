//! ShaDow-GNN sampling (Zeng et al. 2021; paper Section II-B).
//!
//! For every mini-batch, a localized subgraph is built by sampling `L'` hops
//! around the seeds (the paper uses fanouts `[10, 5]`); the GNN then runs all
//! of its layers *inside* that subgraph, decoupling model depth from
//! receptive-field scope and avoiding neighbor explosion.

use argo_graph::{Graph, NodeId};
use argo_rt::{SeedSequence, StreamRng};

use crate::scratch::{arena_induced, drawn_words, floyd_positions, SamplerScratch};
use crate::view::SampledBatchView;
use crate::{SampleRun, Sampler};

/// ShaDow sampler: localized-subgraph fanouts plus the number of GNN layers
/// that will run on the subgraph.
#[derive(Clone, Debug)]
pub struct ShadowSampler {
    fanouts: Vec<usize>,
    num_layers: usize,
}

impl ShadowSampler {
    /// `fanouts` bound the per-hop expansion of the localized subgraph;
    /// `num_layers` is the depth of the GNN that will run on it.
    pub fn new(fanouts: Vec<usize>, num_layers: usize) -> Self {
        assert!(!fanouts.is_empty() && fanouts.iter().all(|&f| f > 0));
        assert!(num_layers > 0);
        Self {
            fanouts,
            num_layers,
        }
    }

    /// The paper's configuration: localized fanouts `[10, 5]` under a
    /// 3-layer model.
    pub fn paper_default() -> Self {
        Self::new(vec![10, 5], 3)
    }

    /// The configured fanouts.
    pub fn fanouts(&self) -> &[usize] {
        &self.fanouts
    }

    /// Discovery phase: hop-limited randomized BFS from all seeds at once;
    /// the dense dedup table keeps the union of the localized subgraphs,
    /// seeds first. Appends the discovered node set to `nodes` and leaves
    /// the dedup session registered over it, ready for induced assembly.
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
            assert!(
                scratch.dedup_insert(v, i as u32),
                "duplicate seed {v} in ShaDow batch"
            );
        }
        scratch.acquire_frontiers(seeds.len());
        // Move the buffers out so the dedup table stays borrowable (moved
        // back below; no allocation).
        let mut frontier = std::mem::take(&mut scratch.frontier);
        let mut next = std::mem::take(&mut scratch.next_frontier);
        let mut drawn = std::mem::take(&mut scratch.drawn);
        let caps_before = frontier.capacity() + next.capacity() + drawn.capacity();
        frontier.extend_from_slice(seeds);
        for (hop, &fanout) in self.fanouts.iter().enumerate() {
            next.clear();
            for (fi, &v) in frontier.iter().enumerate() {
                let neigh = graph.neighbors(v);
                let deg = neigh.len();
                // Per-(hop, frontier-position) counter stream: draws depend
                // only on the node's logical BFS coordinate.
                let mut rng = StreamRng::new(stream.seed_for(hop as u64, fi as u64));
                let mut grow = |u: NodeId, nodes: &mut Vec<NodeId>, next: &mut Vec<NodeId>| {
                    if scratch.dedup_insert(u, nodes.len() as u32) {
                        nodes.push(u);
                        next.push(u);
                    }
                };
                if deg <= fanout {
                    for &u in neigh {
                        grow(u, nodes, &mut next);
                    }
                } else {
                    let words = drawn_words(&mut drawn, graph, deg);
                    floyd_positions(&mut rng, deg, fanout, words, |p| {
                        grow(neigh[p], nodes, &mut next);
                    });
                }
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        scratch.note_growth(frontier.capacity() + next.capacity() + drawn.capacity() > caps_before);
        scratch.frontier = frontier;
        scratch.next_frontier = next;
        scratch.drawn = drawn;
    }
}

impl Sampler for ShadowSampler {
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
        arena.begin(seeds.len(), norm, true);
        self.discover_into(graph, seeds, stream, scratch, &mut arena.nodes);
        arena_induced(graph, &mut arena, scratch, norm);
        scratch.note_growth(arena.caps() > caps_before);
        scratch.arena = arena;
        let scratch_ref: &'a SamplerScratch = scratch;
        scratch_ref.arena.view()
    }

    fn name(&self) -> &'static str {
        "ShaDow"
    }

    fn num_layers(&self) -> usize {
        self.num_layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{Normalization, SampledBatch, SubgraphBatch};
    use argo_graph::generators::power_law;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    fn subgraph(batch: SampledBatch) -> SubgraphBatch {
        match batch {
            SampledBatch::Subgraph(sb) => sb,
            _ => panic!("expected subgraph"),
        }
    }

    #[test]
    fn seeds_lead_the_node_list() {
        let g = power_law(300, 3000, 0.8, 1);
        let s = ShadowSampler::paper_default();
        let sb = subgraph(s.sample(&g, &[7, 8, 9], Normalization::None, &mut rng(2)));
        assert_eq!(&sb.nodes[..3], &[7, 8, 9]);
        assert_eq!(sb.seed_positions, vec![0, 1, 2]);
    }

    #[test]
    fn subgraph_edges_exist_in_parent() {
        let g = power_law(300, 3000, 0.8, 3);
        let s = ShadowSampler::new(vec![5, 3], 2);
        let sb = subgraph(s.sample(&g, &[1, 2], Normalization::None, &mut rng(4)));
        for i in 0..sb.adj.rows() {
            let v = sb.nodes[i];
            for k in sb.adj.row_range(i) {
                let u = sb.nodes[sb.adj.indices()[k] as usize];
                assert!(g.has_edge(v, u));
            }
        }
    }

    #[test]
    fn induced_subgraph_is_symmetric() {
        // Parent graph is undirected, so the induced adjacency must be too.
        let g = power_law(300, 3000, 0.8, 5);
        let s = ShadowSampler::paper_default();
        let sb = subgraph(s.sample(&g, &[0, 10, 20], Normalization::None, &mut rng(6)));
        let dense = sb.adj.to_dense();
        for i in 0..dense.rows() {
            for j in 0..dense.cols() {
                assert_eq!(dense.get(i, j), dense.get(j, i), "asym at ({i},{j})");
            }
        }
    }

    #[test]
    fn growth_is_bounded_by_fanouts() {
        let g = power_law(2000, 40000, 0.7, 7);
        let seeds: Vec<NodeId> = (0..8).collect();
        let s = ShadowSampler::new(vec![10, 5], 3);
        let sb = subgraph(s.sample(&g, &seeds, Normalization::None, &mut rng(8)));
        // Upper bound: seeds * (1 + 10 + 10*5).
        assert!(sb.nodes.len() <= 8 * 61, "grew to {}", sb.nodes.len());
        assert!(sb.nodes.len() >= 8);
    }

    #[test]
    fn deterministic_in_rng() {
        let g = power_law(500, 5000, 0.8, 9);
        let s = ShadowSampler::paper_default();
        let a = subgraph(s.sample(&g, &[3, 4], Normalization::None, &mut rng(11)));
        let b = subgraph(s.sample(&g, &[3, 4], Normalization::None, &mut rng(11)));
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.adj.indices(), b.adj.indices());
    }

    #[test]
    fn no_duplicate_nodes() {
        let g = power_law(500, 5000, 0.8, 10);
        let s = ShadowSampler::paper_default();
        let sb = subgraph(s.sample(
            &g,
            &(0..20).collect::<Vec<_>>(),
            Normalization::None,
            &mut rng(12),
        ));
        let mut ids = sb.nodes.clone();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    #[should_panic]
    fn duplicate_seeds_panic() {
        let g = power_law(100, 500, 0.8, 13);
        let s = ShadowSampler::paper_default();
        s.sample(&g, &[1, 1], Normalization::None, &mut rng(1));
    }
}
