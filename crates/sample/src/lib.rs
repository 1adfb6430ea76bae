//! # argo-sample — mini-batch GNN samplers and the pipelined data loader
//!
//! Implements the two representative sampling algorithms the paper evaluates
//! (Section II-B):
//!
//! * [`NeighborSampler`] — layer-wise neighbor sampling with per-layer
//!   fanouts (the paper uses `[15, 10, 5]` for a 3-layer model);
//! * [`ShadowSampler`] — ShaDow-GNN style: build a localized subgraph around
//!   each seed (fanouts `[10, 5]`), then run *all* GNN layers inside it.
//!
//! Sampled batches come in two shapes ([`SampledBatch`]): a stack of
//! bipartite [`Block`]s (neighbor sampling) or one induced subgraph
//! ([`SubgraphBatch`], ShaDow). Both carry everything the model needs:
//! relabeled CSR adjacency whose values are the GCN/SAGE normalization the
//! sampler fused while assembling it, and global input-node ids for feature
//! gathering.
//!
//! [`loader::PipelinedLoader`] overlaps sampling with training — the
//! optimization whose core allocation ARGO auto-tunes — by prefetching
//! batches on dedicated sampler threads (bound to the *sampling cores*),
//! each of which owns a fixed share of the epoch's batches, while the
//! training cores consume them **in deterministic order**.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod batch;
pub mod cache;
pub mod cascade;
pub mod loader;
pub mod neighbor;
pub mod scratch;
pub mod shadow;
pub mod stats;
pub mod view;

pub use batch::{Block, MiniBatch, Normalization, SampledBatch, SubgraphBatch};
pub use cache::{CacheStats, FeatureCache};
pub use cascade::Cascade;
pub use loader::{
    InputRing, LoadedBatch, LoaderSpec, LoaderSpecBuilder, PipelinedLoader, PreparedInput,
};
pub use neighbor::NeighborSampler;
pub use scratch::SamplerScratch;
pub use shadow::ShadowSampler;
pub use stats::{batch_workload, WorkloadStats};
pub use view::{BlockView, MiniBatchView, SampledBatchView, SubgraphView};

use argo_graph::{Graph, NodeId};
use argo_rt::SeedSequence;
use rand::rngs::SmallRng;
use rand::Rng;

/// Everything one [`Sampler::sample_into`] call needs beyond the graph and
/// the seeds: the deterministic RNG stream root, the normalization to fuse
/// into the adjacency values, and the caller-owned scratch arena. A batch is
/// built by one thread; a process's sampling parallelism is its loader
/// workers, each building whole batches.
pub struct SampleRun<'a> {
    /// Root of this batch's counter-based RNG streams. Samplers key
    /// per-row streams off `stream.seed_for(layer, row)`, so the draws a row
    /// consumes depend only on its logical coordinate.
    pub stream: SeedSequence,
    /// Normalization to write into the adjacency values during assembly.
    pub norm: Normalization,
    /// Recycled per-worker scratch buffers.
    pub scratch: &'a mut SamplerScratch,
}

impl<'a> SampleRun<'a> {
    /// An unnormalized run.
    pub fn new(stream: SeedSequence, scratch: &'a mut SamplerScratch) -> Self {
        Self {
            stream,
            norm: Normalization::None,
            scratch,
        }
    }

    /// Fuses `norm` into the sampled adjacency values.
    pub fn with_norm(mut self, norm: Normalization) -> Self {
        self.norm = norm;
        self
    }
}

/// A mini-batch subgraph sampler.
pub trait Sampler: Send + Sync {
    /// Samples the computation structure for `seeds`, assembling the batch
    /// **in place** inside the scratch's batch arena and returning a
    /// borrowed [`SampledBatchView`] over it. This is the hot path: the
    /// batch-local CSR lands as `u32` ranges directly from pick positions —
    /// no intermediate edge-list `Vec`s, no COO→CSR pass — and steady-state
    /// calls perform **zero** heap allocations, assembly included. The view
    /// borrows the scratch's arena; the loader's workers lend the scratch an
    /// arena of their ring for each call and send it on, batch inside.
    /// [`SampledBatchView::to_owned`] makes an owned copy — bitwise what the
    /// test oracle (`tests/oracle/mod.rs`) builds the obvious way.
    fn sample_into<'a>(
        &self,
        graph: &Graph,
        seeds: &[NodeId],
        run: SampleRun<'a>,
    ) -> SampledBatchView<'a>;

    /// Convenience wrapper: samples an owned batch with `norm` fused (the
    /// model's, or [`Normalization::None`] for the structure alone) with
    /// throwaway scratch, seeding the stream from `rng`. In loops, recycle
    /// one scratch through [`Sampler::sample_into`] instead.
    fn sample(
        &self,
        graph: &Graph,
        seeds: &[NodeId],
        norm: Normalization,
        rng: &mut SmallRng,
    ) -> SampledBatch {
        let mut scratch = SamplerScratch::new();
        let run = SampleRun::new(SeedSequence::new(rng.next_u64()), &mut scratch);
        self.sample_into(graph, seeds, run.with_norm(norm))
            .to_owned()
    }

    /// Human-readable name ("Neighbor", "ShaDow").
    fn name(&self) -> &'static str;

    /// Number of GNN layers this sampler prepares batches for.
    fn num_layers(&self) -> usize;
}
