//! Layer-wise neighbor sampling (Hamilton et al. 2017; paper Section II-B).

use argo_graph::{Graph, NodeId};
use argo_rt::{SeedSequence, StreamRng};

use crate::batch::Normalization;
use crate::scratch::{drawn_words, floyd_positions, LayerRec, SamplerScratch};
use crate::view::SampledBatchView;
use crate::{SampleRun, Sampler};

/// Neighbor sampler with per-layer fanouts, ordered input layer → output
/// layer (the paper uses `[15, 10, 5]`: the layer nearest the input samples
/// 15 neighbors per node).
#[derive(Clone, Debug)]
pub struct NeighborSampler {
    fanouts: Vec<usize>,
}

impl NeighborSampler {
    /// Creates a sampler; `fanouts` must be non-empty with positive entries.
    pub fn new(fanouts: Vec<usize>) -> Self {
        assert!(!fanouts.is_empty() && fanouts.iter().all(|&f| f > 0));
        Self { fanouts }
    }

    /// The paper's standard 3-layer configuration `[15, 10, 5]`.
    pub fn paper_default() -> Self {
        Self::new(vec![15, 10, 5])
    }

    /// The configured fanouts.
    pub fn fanouts(&self) -> &[usize] {
        &self.fanouts
    }
}

/// Picks up to `fanout` neighbors of `v` into `out` (length ≥ `fanout`),
/// returning the pick count.
///
/// When the row is no larger than the fanout the whole row is copied. When
/// it is larger, Robert Floyd's algorithm samples `fanout` *distinct
/// positions* in `0..deg` — uniform without replacement, O(fanout +
/// deg/64) over a bitset, and crucially no degree-sized copy of the
/// adjacency row — and `neigh[p]` is written straight from the bit scan.
/// Distinct positions preserve the multi-edge semantics of the old partial
/// Fisher–Yates (a neighbor repeats only as often as its multiplicity).
fn pick_row(
    graph: &Graph,
    v: NodeId,
    fanout: usize,
    mut rng: StreamRng,
    out: &mut [NodeId],
    drawn: &mut Vec<u64>,
) -> u32 {
    let neigh = graph.neighbors(v);
    let deg = neigh.len();
    if deg <= fanout {
        out[..deg].copy_from_slice(neigh);
        return deg as u32;
    }
    let words = drawn_words(drawn, graph, deg);
    let mut k = 0;
    floyd_positions(&mut rng, deg, fanout, words, |p| {
        out[k] = neigh[p];
        k += 1;
    });
    fanout as u32
}

/// Pick phase for one layer: fills `scratch.picked` (stride `fanout`) and
/// `scratch.counts` for every row of `dst`. Each row draws from its own
/// counter-based stream keyed by `(layer, row)`, so the picks are a pure
/// function of the row's logical coordinate.
fn pick_layer(
    graph: &Graph,
    dst: &[NodeId],
    fanout: usize,
    stream: SeedSequence,
    layer: u64,
    scratch: &mut SamplerScratch,
) {
    scratch.acquire_picks(dst.len(), fanout);
    let picked = &mut scratch.picked;
    let counts = &mut scratch.counts;
    let drawn = &mut scratch.drawn;
    let drawn_cap = drawn.capacity();
    for (i, &v) in dst.iter().enumerate() {
        let rng = StreamRng::new(stream.seed_for(layer, i as u64));
        counts[i] = pick_row(
            graph,
            v,
            fanout,
            rng,
            &mut picked[i * fanout..(i + 1) * fanout],
            drawn,
        );
    }
    scratch.note_growth(scratch.drawn.capacity() > drawn_cap);
}

impl Sampler for NeighborSampler {
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
        let num_layers = self.fanouts.len();
        let inv_sqrt: &[f32] = if norm == Normalization::Gcn {
            graph.inv_sqrt_degrees()
        } else {
            &[]
        };
        // Warm every buffer to its worst case up front. Realized per-layer
        // row counts drift batch to batch (dedup), but these bounds depend
        // only on the seed count, the fanouts and the graph size, so a warm
        // scratch — arena included — never grows mid-epoch.
        let caps_before = scratch.arena.caps();
        let mut arena = std::mem::take(&mut scratch.arena);
        arena.begin(seeds.len(), norm, false);
        {
            let n = graph.num_nodes();
            let mut rows_bound = seeds.len();
            let (mut worst_rows, mut worst_picked) = (0usize, 0usize);
            let mut nodes_bound = seeds.len();
            let (mut indptr_bound, mut entries_bound) = (0usize, 0usize);
            for layer in (0..num_layers).rev() {
                let fanout = self.fanouts[layer];
                let r = rows_bound.min(n);
                worst_rows = worst_rows.max(r);
                worst_picked = worst_picked.max(r * fanout);
                // Every pick lands one adjacency entry; at most that many
                // (and never more than the whole graph) are new src nodes.
                entries_bound += r * fanout;
                indptr_bound += r + 1;
                nodes_bound += (r * fanout).min(n);
                rows_bound = r + r * fanout;
            }
            scratch.warm_picks(worst_rows, worst_picked);
            arena.reserve(
                nodes_bound,
                indptr_bound,
                entries_bound,
                norm != Normalization::None,
            );
        }
        arena.nodes.extend_from_slice(seeds);
        // Build from the output layer inward (fanouts accessed in reverse).
        // `prev` is the dst node range in the arena; each layer's src list
        // extends it in place (the dst prefix is shared, not copied).
        let mut prev = 0..seeds.len();
        for layer in (0..num_layers).rev() {
            let fanout = self.fanouts[layer];
            let rows = prev.len();
            pick_layer(
                graph,
                &arena.nodes[prev.start..prev.end],
                fanout,
                stream,
                layer as u64,
                scratch,
            );
            // Relabel phase (serial): dense-table dedup in row order; column
            // indices land directly in the arena CSR as they are assigned.
            scratch.begin_dedup(graph.num_nodes());
            for (i, idx) in (prev.start..prev.end).enumerate() {
                scratch.dedup_insert(arena.nodes[idx], i as u32);
            }
            let entries_start = arena.indices.len();
            let indptr_start = arena.indptr.len();
            arena.indptr.push(0);
            // Move the pick buffers out so the dedup table can be borrowed
            // mutably alongside them (moved back below; no allocation).
            let picked = std::mem::take(&mut scratch.picked);
            let counts = std::mem::take(&mut scratch.counts);
            for i in 0..rows {
                let cnt = counts[i] as usize;
                let row = &picked[i * fanout..i * fanout + cnt];
                for &u in row {
                    let idx = match scratch.dedup_get(u) {
                        Some(idx) => idx,
                        None => {
                            let idx = (arena.nodes.len() - prev.start) as u32;
                            scratch.dedup_insert(u, idx);
                            arena.nodes.push(u);
                            idx
                        }
                    };
                    arena.indices.push(idx);
                }
                // Fused normalization: values land during assembly instead
                // of a second walk over the finished block.
                if norm != Normalization::None {
                    if norm == Normalization::Mean {
                        let inv = 1.0 / (cnt.max(1)) as f32;
                        for _ in 0..cnt {
                            arena.values.push(inv);
                        }
                    } else {
                        let dv = inv_sqrt[arena.nodes[prev.start + i] as usize];
                        for &u in row {
                            arena.values.push(dv * inv_sqrt[u as usize]);
                        }
                    }
                }
                arena
                    .indptr
                    .push((arena.indices.len() - entries_start) as u32);
            }
            scratch.picked = picked;
            scratch.counts = counts;
            let src_end = arena.nodes.len();
            arena.layers.push(LayerRec {
                nodes: prev.start..src_end,
                rows,
                indptr: indptr_start..arena.indptr.len(),
                entries: entries_start..arena.indices.len(),
            });
            prev = prev.start..src_end;
        }
        scratch.note_growth(arena.caps() > caps_before);
        scratch.arena = arena;
        let scratch_ref: &'a SamplerScratch = scratch;
        scratch_ref.arena.view()
    }

    fn name(&self) -> &'static str {
        "Neighbor"
    }

    fn num_layers(&self) -> usize {
        self.fanouts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{MiniBatch, SampledBatch};
    use argo_graph::generators::power_law;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    fn minibatch(batch: SampledBatch) -> MiniBatch {
        match batch {
            SampledBatch::Blocks(mb) => mb,
            _ => panic!("expected blocks"),
        }
    }

    #[test]
    fn respects_fanout_bounds() {
        let g = power_law(500, 4000, 0.8, 1);
        let s = NeighborSampler::new(vec![4, 2]);
        let mb = minibatch(s.sample(&g, &[0, 1, 2, 3], Normalization::None, &mut rng(5)));
        assert_eq!(mb.blocks.len(), 2);
        // Output block: dst == seeds, fanout 2 (layer index 1).
        let out = &mb.blocks[1];
        assert_eq!(out.dst_nodes, vec![0, 1, 2, 3]);
        for i in 0..out.adj.rows() {
            let deg = out.adj.row_range(i).len();
            assert!(deg <= 2, "fanout violated: {deg}");
        }
        // Input block fanout 4.
        let inp = &mb.blocks[0];
        for i in 0..inp.adj.rows() {
            let deg = inp.adj.row_range(i).len();
            assert!(deg <= 4);
        }
    }

    #[test]
    fn sampled_edges_exist_in_graph() {
        let g = power_law(300, 3000, 0.8, 2);
        let s = NeighborSampler::new(vec![5, 3]);
        let mb = minibatch(s.sample(&g, &[10, 20, 30], Normalization::None, &mut rng(9)));
        for b in &mb.blocks {
            for i in 0..b.adj.rows() {
                let v = b.dst_nodes[i];
                for k in b.adj.row_range(i) {
                    let u = b.src_nodes[b.adj.indices()[k] as usize];
                    assert!(g.has_edge(v, u), "edge {v}->{u} not in graph");
                }
            }
        }
    }

    #[test]
    fn src_prefix_is_dst() {
        let g = power_law(300, 3000, 0.8, 3);
        let s = NeighborSampler::paper_default();
        let mb = minibatch(s.sample(&g, &[1, 2], Normalization::None, &mut rng(4)));
        for b in &mb.blocks {
            assert_eq!(&b.src_nodes[..b.dst_nodes.len()], &b.dst_nodes[..]);
        }
    }

    #[test]
    fn layers_chain() {
        let g = power_law(300, 3000, 0.8, 4);
        let s = NeighborSampler::new(vec![3, 3, 3]);
        let mb = minibatch(s.sample(&g, &[5, 6], Normalization::None, &mut rng(7)));
        assert_eq!(mb.blocks.len(), 3);
        // src of layer l+1's perspective: dst of block l+1 equals src of... in
        // our ordering blocks[l].dst == blocks[l+1].src? No: forward order —
        // blocks[l] consumes blocks[l]'s src and produces dst which feeds
        // blocks[l+1] as src.
        for l in 0..2 {
            assert_eq!(mb.blocks[l].dst_nodes, mb.blocks[l + 1].src_nodes);
        }
        assert_eq!(mb.blocks[2].dst_nodes, mb.seeds);
    }

    #[test]
    fn no_duplicate_src_nodes() {
        let g = power_law(400, 4000, 0.8, 5);
        let s = NeighborSampler::paper_default();
        let mb = minibatch(s.sample(&g, &[0, 1, 2, 3, 4], Normalization::None, &mut rng(11)));
        for b in &mb.blocks {
            let mut ids = b.src_nodes.clone();
            ids.sort_unstable();
            let before = ids.len();
            ids.dedup();
            assert_eq!(ids.len(), before, "duplicate src node");
        }
    }

    #[test]
    fn no_replacement_within_a_row() {
        let g = power_law(400, 8000, 0.7, 6);
        let s = NeighborSampler::new(vec![10]);
        let mb = minibatch(s.sample(
            &g,
            &(0..50).collect::<Vec<_>>(),
            Normalization::None,
            &mut rng(13),
        ));
        let b = &mb.blocks[0];
        for i in 0..b.adj.rows() {
            let row = &b.adj.indices()[b.adj.row_range(i)];
            // Distinct local indices; note parallel edges in the graph mean a
            // neighbor *can* repeat as often as its multiplicity, but our
            // Fisher-Yates picks distinct positions, so duplicates only occur
            // for parallel edges. Check there is no excess.
            let mut sorted = row.to_vec();
            sorted.sort_unstable();
            for w in sorted.windows(2) {
                if w[0] == w[1] {
                    // allowed only when the underlying multi-edge exists
                    let v = b.dst_nodes[i];
                    let u = b.src_nodes[w[0] as usize];
                    let mult = g.neighbors(v).iter().filter(|&&x| x == u).count();
                    assert!(mult >= 2, "non-multi-edge duplicated");
                }
            }
        }
    }

    #[test]
    fn deterministic_in_rng() {
        let g = power_law(200, 2000, 0.8, 7);
        let s = NeighborSampler::new(vec![4, 4]);
        let a = minibatch(s.sample(&g, &[1, 2, 3], Normalization::None, &mut rng(21)));
        let b = minibatch(s.sample(&g, &[1, 2, 3], Normalization::None, &mut rng(21)));
        for (x, y) in a.blocks.iter().zip(&b.blocks) {
            assert_eq!(x.src_nodes, y.src_nodes);
            assert_eq!(x.adj.indices(), y.adj.indices());
        }
    }

    #[test]
    fn isolated_seed_has_empty_rows() {
        // Node 3 isolated (no edges mention it).
        let g = Graph::from_edges(4, &[(0, 1), (1, 2)], true);
        let s = NeighborSampler::new(vec![3]);
        let mb = minibatch(s.sample(&g, &[3], Normalization::None, &mut rng(1)));
        assert_eq!(mb.blocks[0].adj.nnz(), 0);
        assert_eq!(mb.input_nodes(), &[3]);
    }
}
