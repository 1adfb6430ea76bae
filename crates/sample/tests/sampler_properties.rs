//! Property tests pinning the scratch-arena samplers to reference behavior.
//!
//! The structural contract every batch satisfies — fanout bounds,
//! src-prefix-is-dst, no duplicate src nodes, every sampled edge exists in
//! the parent graph — across seed counts 1..130 and both samplers, and
//! the arena assembly bitwise against the test oracle (`oracle/mod.rs`).

mod oracle;

use argo_graph::generators::power_law;
use argo_graph::{Graph, NodeId};
use argo_rt::SeedSequence;
use argo_sample::{
    NeighborSampler, Normalization, SampleRun, SampledBatch, SampledBatchView, Sampler,
    SamplerScratch, ShadowSampler,
};
use proptest::prelude::*;

fn graph() -> Graph {
    power_law(600, 9000, 0.8, 7)
}

/// Asymmetric variant of the fixture: drops a deterministic subset of
/// reverse edges, forcing the sort-based induced-assembly fallback (the
/// counting path only runs on symmetric adjacencies).
fn directed_graph() -> Graph {
    let g = graph();
    let mut edges = Vec::new();
    for u in 0..g.num_nodes() as NodeId {
        for &v in g.neighbors(u) {
            if u < v || (u + v) % 3 == 0 {
                edges.push((u, v));
            }
        }
    }
    let d = Graph::from_edges(g.num_nodes(), &edges, false);
    assert!(!d.is_symmetric(), "fixture must exercise the fallback");
    d
}

fn run_with(
    s: &dyn Sampler,
    g: &Graph,
    seeds: &[NodeId],
    key: u64,
    scratch: &mut SamplerScratch,
) -> SampledBatch {
    s.sample_into(g, seeds, SampleRun::new(SeedSequence::new(key), scratch))
        .to_owned()
}

fn assert_subgraph_invariants(g: &Graph, seeds: &[NodeId], batch: &SampledBatch, who: &str) {
    let SampledBatch::Subgraph(sb) = batch else {
        panic!("{who}: expected subgraph batch");
    };
    // Seeds lead the node list, in order, and seeds() mirrors them.
    assert_eq!(&sb.nodes[..seeds.len()], seeds, "{who}: seeds must lead");
    assert_eq!(sb.seeds, seeds, "{who}: seeds field mismatch");
    for (&pos, &v) in sb.seed_positions.iter().zip(seeds) {
        assert_eq!(sb.nodes[pos], v, "{who}: seed position wrong");
    }
    // No duplicate nodes.
    let mut ids = sb.nodes.clone();
    ids.sort_unstable();
    let before = ids.len();
    ids.dedup();
    assert_eq!(ids.len(), before, "{who}: duplicate node");
    // Every induced edge exists in the parent graph.
    for i in 0..sb.adj.rows() {
        for k in sb.adj.row_range(i) {
            let u = sb.nodes[sb.adj.indices()[k] as usize];
            assert!(g.has_edge(sb.nodes[i], u), "{who}: edge not in graph");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn neighbor_sampler_respects_reference_structure(
        count in 1usize..130,
        offset in 0usize..400,
        key in 0u64..(1u64 << 48),
    ) {
        let g = graph();
        let seeds: Vec<NodeId> = (offset..offset + count).map(|v| v as u32).collect();
        let s = NeighborSampler::new(vec![7, 4]);
        let mut scratch = SamplerScratch::new();
        let batch = run_with(&s, &g, &seeds, key, &mut scratch);
        let SampledBatch::Blocks(mb) = &batch else {
            panic!("expected blocks");
        };
        prop_assert_eq!(mb.blocks.len(), 2);
        prop_assert_eq!(&mb.seeds, &seeds);
        for (l, blk) in mb.blocks.iter().enumerate() {
            let fanout = s.fanouts()[l];
            // Fanout bounds per row.
            for i in 0..blk.adj.rows() {
                let deg = blk.adj.row_range(i).len();
                prop_assert!(deg <= fanout, "layer {} row {} degree {} > {}", l, i, deg, fanout);
            }
            // src prefix is dst (layers self-reference through the prefix).
            prop_assert_eq!(&blk.src_nodes[..blk.dst_nodes.len()], &blk.dst_nodes[..]);
            // No duplicate src node after dense-table relabeling.
            let mut ids = blk.src_nodes.clone();
            ids.sort_unstable();
            let before = ids.len();
            ids.dedup();
            prop_assert_eq!(ids.len(), before, "duplicate src node in layer {}", l);
            // Every sampled edge exists in the parent graph.
            for i in 0..blk.adj.rows() {
                let v = blk.dst_nodes[i];
                for k in blk.adj.row_range(i) {
                    let u = blk.src_nodes[blk.adj.indices()[k] as usize];
                    prop_assert!(g.has_edge(v, u), "edge {}->{} not in graph", v, u);
                }
            }
        }
        // Output-layer dst is exactly the seed list.
        prop_assert_eq!(&mb.blocks[1].dst_nodes, &seeds);
    }

    #[test]
    fn subgraph_samplers_respect_reference_structure(
        count in 1usize..130,
        offset in 0usize..400,
        key in 0u64..(1u64 << 48),
    ) {
        let g = graph();
        let seeds: Vec<NodeId> = (offset..offset + count).map(|v| v as u32).collect();
        let shadow = ShadowSampler::new(vec![6, 3], 2);
        let mut scratch = SamplerScratch::new();
        let batch = run_with(&shadow, &g, &seeds, key, &mut scratch);
        assert_subgraph_invariants(&g, &seeds, &batch, shadow.name());
    }

    #[test]
    fn recycled_scratch_is_equivalent_to_fresh(
        count in 1usize..130,
        offset in 0usize..400,
        key in 0u64..(1u64 << 48),
    ) {
        // A scratch arena warmed by unrelated prior batches must produce
        // batches identical to a fresh one: recycling is invisible.
        let g = graph();
        let seeds: Vec<NodeId> = (offset..offset + count).map(|v| v as u32).collect();
        let neighbor = NeighborSampler::new(vec![5, 3]);
        let shadow = ShadowSampler::new(vec![4, 2], 2);
        let samplers: [&dyn Sampler; 2] = [&neighbor, &shadow];
        for s in samplers {
            let mut fresh = SamplerScratch::new();
            let want = run_with(s, &g, &seeds, key, &mut fresh);
            let mut warm = SamplerScratch::new();
            // Pollute the arena with differently-shaped batches first.
            run_with(s, &g, &[1, 2, 3], key ^ 0x55, &mut warm);
            run_with(s, &g, &(200..260).collect::<Vec<_>>(), key ^ 0xAA, &mut warm);
            let got = run_with(s, &g, &seeds, key, &mut warm);
            prop_assert_eq!(got.input_nodes(), want.input_nodes(), "{} drifted", s.name());
            prop_assert_eq!(got.total_edges(2), want.total_edges(2));
        }
    }
}

/// f32 slices compared by bit pattern: "bitwise-identical" means exactly
/// that, not approximate float equality.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn opt_bits(v: Option<&[f32]>) -> Option<Vec<u32>> {
    v.map(bits)
}

/// Asserts every content-bearing field of two batches is bitwise equal.
fn assert_batches_bitwise_equal(got: &SampledBatch, want: &SampledBatch, who: &str) {
    match (got, want) {
        (SampledBatch::Blocks(g), SampledBatch::Blocks(w)) => {
            assert_eq!(g.seeds, w.seeds, "{who}: seeds");
            assert_eq!(g.blocks.len(), w.blocks.len(), "{who}: block count");
            for (l, (gb, wb)) in g.blocks.iter().zip(&w.blocks).enumerate() {
                assert_eq!(gb.src_nodes, wb.src_nodes, "{who} L{l}: src_nodes");
                assert_eq!(gb.dst_nodes, wb.dst_nodes, "{who} L{l}: dst_nodes");
                assert_eq!(gb.adj.rows(), wb.adj.rows(), "{who} L{l}: rows");
                assert_eq!(gb.adj.cols(), wb.adj.cols(), "{who} L{l}: cols");
                assert_eq!(gb.adj.indptr(), wb.adj.indptr(), "{who} L{l}: indptr");
                assert_eq!(gb.adj.indices(), wb.adj.indices(), "{who} L{l}: indices");
                assert_eq!(
                    opt_bits(gb.adj.values()),
                    opt_bits(wb.adj.values()),
                    "{who} L{l}: values"
                );
                assert_eq!(gb.norm, wb.norm, "{who} L{l}: norm");
            }
        }
        (SampledBatch::Subgraph(g), SampledBatch::Subgraph(w)) => {
            assert_eq!(g.nodes, w.nodes, "{who}: nodes");
            assert_eq!(g.seed_positions, w.seed_positions, "{who}: seed_positions");
            assert_eq!(g.seeds, w.seeds, "{who}: seeds");
            assert_eq!(g.adj.rows(), w.adj.rows(), "{who}: rows");
            assert_eq!(g.adj.cols(), w.adj.cols(), "{who}: cols");
            assert_eq!(g.adj.indptr(), w.adj.indptr(), "{who}: indptr");
            assert_eq!(g.adj.indices(), w.adj.indices(), "{who}: indices");
            assert_eq!(
                opt_bits(g.adj.values()),
                opt_bits(w.adj.values()),
                "{who}: values"
            );
            assert_eq!(g.norm, w.norm, "{who}: norm");
        }
        _ => panic!("{who}: batch shape mismatch"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The equality pin: arena-CSR assembly (`sample_into` + `to_owned`) is
    /// bitwise the batch the oracle builds for every sampler, seed count and
    /// normalization, on both fixtures — the symmetric graph routes through
    /// the counting assembly, the directed one through the sorting fallback.
    /// Subgraph discovery is the sampler's own; the oracle re-derives the
    /// induced adjacency over the node set it found.
    #[test]
    fn arena_assembly_matches_oracle_bitwise(
        count in 1usize..130,
        offset in 0usize..400,
        key in 0u64..(1u64 << 48),
    ) {
        let seeds: Vec<NodeId> = (offset..offset + count).map(|v| v as u32).collect();
        for g in [graph(), directed_graph()] {
            let neighbor = NeighborSampler::new(vec![7, 4]);
            let shadow = ShadowSampler::new(vec![6, 3], 2);
            let samplers: [&dyn Sampler; 2] = [&neighbor, &shadow];
            for s in samplers {
                for norm in [Normalization::None, Normalization::Mean, Normalization::Gcn] {
                    let mut scratch = SamplerScratch::new();
                    let stream = SeedSequence::new(key);
                    let run = SampleRun::new(stream, &mut scratch).with_norm(norm);
                    let view = s.sample_into(&g, &seeds, run);
                    let want = match view {
                        SampledBatchView::Blocks(_) => {
                            oracle::blocks(&g, &seeds, neighbor.fanouts(), stream, norm)
                        }
                        SampledBatchView::Subgraph(sb) => {
                            oracle::induced(&g, sb.nodes(), sb.num_seeds(), norm)
                        }
                    };
                    assert_batches_bitwise_equal(&view.to_owned(), &want, s.name());
                }
            }
        }
    }
}

/// The oracle pin on a fixture built to hold the rows the random seeds
/// above may miss: an isolated seed (an empty row, degree 0) and a sink
/// (out-degree 0: an empty row of its own, and a column whose GCN factor
/// clamps its degree to 1), under both fused normalizations.
#[test]
fn oracle_pin_covers_empty_rows_and_degree_zero_nodes() {
    let edges = [
        (0, 1),
        (0, 2),
        (0, 5),
        (1, 0),
        (2, 0),
        (2, 1),
        (4, 5),
        (6, 7),
        (7, 6),
    ];
    let g = Graph::from_edges(8, &edges, false);
    let (seeds, sink) = ([0, 3, 4], 5);
    assert_eq!((g.degree(3), g.degree(sink)), (0, 0));
    let neighbor = NeighborSampler::new(vec![4, 4]);
    let shadow = ShadowSampler::new(vec![4, 4], 2);
    let samplers: [&dyn Sampler; 2] = [&neighbor, &shadow];
    for s in samplers {
        for norm in [Normalization::Mean, Normalization::Gcn] {
            let who = format!("{} {norm:?}", s.name());
            let mut scratch = SamplerScratch::new();
            let stream = SeedSequence::new(3);
            let run = SampleRun::new(stream, &mut scratch).with_norm(norm);
            let view = s.sample_into(&g, &seeds, run);
            let want = match view {
                SampledBatchView::Blocks(_) => {
                    oracle::blocks(&g, &seeds, neighbor.fanouts(), stream, norm)
                }
                SampledBatchView::Subgraph(sb) => {
                    oracle::induced(&g, sb.nodes(), sb.num_seeds(), norm)
                }
            };
            let got = view.to_owned();
            assert_batches_bitwise_equal(&got, &want, &who);
            // Both cases are in every layer's adjacency: the isolated seed's
            // empty row, and the sink as a column and as an empty row.
            for l in 0..2 {
                let (adj, src) = match &got {
                    SampledBatch::Blocks(mb) => (&mb.blocks[l].adj, &mb.blocks[l].src_nodes),
                    SampledBatch::Subgraph(sb) => (&sb.adj, &sb.nodes),
                };
                let at = |v: NodeId| src.iter().position(|&u| u == v).unwrap();
                assert!(adj.row_range(1).is_empty(), "{who} L{l}: isolated seed");
                assert!(adj.indices().contains(&(at(sink) as u32)), "{who} L{l}");
                if l == 0 || matches!(got, SampledBatch::Subgraph(_)) {
                    assert!(adj.row_range(at(sink)).is_empty(), "{who} L{l}: sink");
                }
            }
        }
    }
}

/// Floyd's drawn set is a bitset of ⌈deg/64⌉ words, so the oracle pin
/// above crosses word boundaries only if the fixture has rows wider than
/// two words.
#[test]
fn fixture_has_multi_word_rows() {
    let max = graph().max_degree();
    assert!(
        max > 128,
        "max degree {max}: no row spans three bitset words"
    );
}

#[test]
fn steady_state_assembly_is_allocation_free() {
    // Zero-alloc must cover *assembly*, not just the pick phase: once the
    // arena has seen every recurring batch shape, repeated `sample_into`
    // calls — which build the batch CSR, fused values and dedup table in
    // scratch — must not grow any buffer. `SamplerScratch::allocs()`
    // charges one count per batch whose arena or pick buffers grew.
    let g = graph();
    let neighbor = NeighborSampler::new(vec![7, 4]);
    let shadow = ShadowSampler::new(vec![6, 3], 2);
    let samplers: [&dyn Sampler; 2] = [&neighbor, &shadow];
    let seed_sets: Vec<Vec<NodeId>> = (0..4u32).map(|i| (i * 50..i * 50 + 64).collect()).collect();
    for s in samplers {
        let mut scratch = SamplerScratch::new();
        // Warm: visit every recurring (seed set, stream) pair twice.
        for _ in 0..2 {
            for (j, seeds) in seed_sets.iter().enumerate() {
                let run = SampleRun::new(SeedSequence::new(j as u64), &mut scratch)
                    .with_norm(Normalization::Gcn);
                let view = s.sample_into(&g, seeds, run);
                std::hint::black_box(view.metadata_bytes());
            }
        }
        let warm = scratch.allocs();
        for _ in 0..3 {
            for (j, seeds) in seed_sets.iter().enumerate() {
                let run = SampleRun::new(SeedSequence::new(j as u64), &mut scratch)
                    .with_norm(Normalization::Gcn);
                let view = s.sample_into(&g, seeds, run);
                std::hint::black_box(view.metadata_bytes());
            }
        }
        assert_eq!(
            scratch.allocs(),
            warm,
            "{}: assembly allocated in steady state",
            s.name()
        );
    }
}
