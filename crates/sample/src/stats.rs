//! Per-batch workload statistics (paper Figures 5–6).
//!
//! The paper measures "workload" as the number of sampled edges, because the
//! number of aggregations is proportional to it, and shows that splitting a
//! mini-batch across more processes *increases* total workload: smaller
//! batches share fewer neighbors, so shared aggregation results are
//! recomputed (Figure 5). These helpers measure that effect on real sampled
//! batches.

use argo_graph::{Graph, NodeId};
use argo_rt::SeedSequence;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::batch::SampledBatch;
use crate::{SampleRun, Sampler, SamplerScratch};

/// Aggregate workload counters for a set of sampled batches.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkloadStats {
    /// Total sampled edges (aggregation workload).
    pub edges: usize,
    /// Total input nodes whose features are gathered (bandwidth workload).
    pub input_nodes: usize,
    /// Number of batches.
    pub batches: usize,
}

impl WorkloadStats {
    /// Accumulates one batch.
    pub fn add(&mut self, batch: &SampledBatch, num_layers: usize) {
        self.edges += batch.total_edges(num_layers);
        self.input_nodes += batch.input_nodes().len();
        self.batches += 1;
    }
}

/// Measures one batch.
pub fn batch_workload(batch: &SampledBatch, num_layers: usize) -> WorkloadStats {
    let mut s = WorkloadStats::default();
    s.add(batch, num_layers);
    s
}

/// Samples one full epoch of `seeds` split across `n_proc` processes (each
/// process gets `1/n_proc` of the seeds and uses batch size
/// `global_batch / n_proc`, per the Multi-Process Engine's semantics) and
/// returns the total workload — the quantity plotted in Figure 6.
pub fn epoch_workload(
    graph: &Graph,
    sampler: &dyn Sampler,
    seeds: &[NodeId],
    global_batch: usize,
    n_proc: usize,
    seed: u64,
) -> WorkloadStats {
    assert!(n_proc > 0 && global_batch > 0);
    let local_batch = (global_batch / n_proc).max(1);
    let parts = argo_graph::partition::random_partition(seeds, n_proc, seed);
    let mut stats = WorkloadStats::default();
    let mut scratch = SamplerScratch::new();
    for (rank, part) in parts.iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(seed ^ (rank as u64).wrapping_mul(0x9E3779B9));
        for chunk in part.chunks(local_batch) {
            let run = SampleRun::new(SeedSequence::new(rng.next_u64()), &mut scratch);
            let batch = sampler.sample_into(graph, chunk, run);
            stats.edges += batch.total_edges(sampler.num_layers());
            stats.input_nodes += batch.input_nodes().len();
            stats.batches += 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbor::NeighborSampler;
    use crate::Normalization;
    use argo_graph::generators::power_law;

    #[test]
    fn workload_grows_with_process_count() {
        // The Figure-6 effect: more processes → smaller per-process batches →
        // fewer shared neighbors → more total edges.
        let g = power_law(3000, 60000, 0.75, 3);
        let seeds: Vec<NodeId> = (0..1024).collect();
        let sampler = NeighborSampler::new(vec![15, 10, 5]);
        let w1 = epoch_workload(&g, &sampler, &seeds, 1024, 1, 7);
        let w8 = epoch_workload(&g, &sampler, &seeds, 1024, 8, 7);
        assert!(
            w8.edges > w1.edges,
            "8-proc edges {} should exceed 1-proc edges {}",
            w8.edges,
            w1.edges
        );
        assert!(w8.input_nodes > w1.input_nodes);
    }

    /// The three counters as the fresh-scratch-per-batch `Sampler::sample`
    /// loop returned them at commit d25464c: one batch per rank, and eight
    /// per rank through the recycled scratch.
    #[test]
    fn epoch_workload_reproduces_the_recorded_counters() {
        let g = power_law(3000, 60000, 0.75, 3);
        let seeds: Vec<NodeId> = (0..1024).collect();
        let sampler = NeighborSampler::new(vec![15, 10, 5]);
        for (global_batch, n_proc, edges, input_nodes, batches) in [
            (1024, 1, 67822, 3000, 1),
            (1024, 4, 195476, 11989, 4),
            (128, 1, 305326, 23895, 8),
            (128, 4, 584292, 90663, 32),
        ] {
            assert_eq!(
                epoch_workload(&g, &sampler, &seeds, global_batch, n_proc, 7),
                WorkloadStats {
                    edges,
                    input_nodes,
                    batches
                },
                "global batch {global_batch}, {n_proc} processes"
            );
        }
    }

    #[test]
    fn batches_counted() {
        let g = power_law(500, 5000, 0.8, 1);
        let seeds: Vec<NodeId> = (0..100).collect();
        let sampler = NeighborSampler::new(vec![5]);
        let w = epoch_workload(&g, &sampler, &seeds, 20, 2, 1);
        // 2 procs × (50 seeds / 10 per local batch) = 10 batches.
        assert_eq!(w.batches, 10);
    }

    #[test]
    fn stats_add_accumulates() {
        let g = power_law(200, 2000, 0.8, 2);
        let sampler = NeighborSampler::new(vec![3]);
        let mut rng = SmallRng::seed_from_u64(1);
        let b = sampler.sample(&g, &[1, 2, 3], Normalization::None, &mut rng);
        let mut s = WorkloadStats::default();
        s.add(&b, 1);
        s.add(&b, 1);
        let single = batch_workload(&b, 1);
        assert_eq!(s.edges, 2 * single.edges);
        assert_eq!(s.batches, 2);
    }
}
