//! **Figure 5** — the toy example: "Reducing the batch size increases the
//! workload". A mini-batch of {Node 0, Node 1} shares neighbor Node 2
//! (which aggregates Nodes 3 and 4); computed once for the joint batch, but
//! twice when the batch is split — the per-seed workload grows.
//!
//! Reproduced exactly with the real NeighborSampler on the paper's toy
//! graph, then at scale on a synthetic ogbn-products.

use std::time::Instant;

use argo_graph::Graph;
use argo_sample::{FeatureCache, NeighborSampler, Sampler};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    println!("=== Figure 5: splitting a mini-batch duplicates shared-neighbor work ===\n");
    // The toy graph: seeds 0 and 1 both neighbor node 2; node 2 aggregates
    // nodes 3 and 4.
    let g = Graph::from_edges(5, &[(0, 2), (1, 2), (2, 3), (2, 4)], true);
    let sampler = NeighborSampler::new(vec![4, 4]); // fanout ≥ degrees: deterministic
    let mut rng = SmallRng::seed_from_u64(0);

    let joint = sampler.sample(&g, &[0, 1], &mut rng);
    let split_a = sampler.sample(&g, &[0], &mut rng);
    let split_b = sampler.sample(&g, &[1], &mut rng);

    let joint_edges = joint.total_edges(2);
    let split_edges = split_a.total_edges(2) + split_b.total_edges(2);
    let joint_inputs = joint.input_nodes().len();
    let split_inputs = split_a.input_nodes().len() + split_b.input_nodes().len();

    println!("joint batch {{0,1}}: {joint_edges} aggregation edges, {joint_inputs} input nodes");
    println!(
        "split batches {{0}},{{1}}: {split_edges} aggregation edges, {split_inputs} input nodes"
    );
    println!(
        "-> splitting inflates the workload {:.2}x (node 2's aggregation of nodes 3,4 is computed twice)\n",
        split_edges as f64 / joint_edges as f64
    );
    assert!(split_edges > joint_edges);
    assert!(split_inputs > joint_inputs);

    // The same effect at scale (feeds Figure 6).
    let d = argo_graph::datasets::OGBN_PRODUCTS.synthesize(0.002, 3);
    let paper_sampler = NeighborSampler::paper_default();
    let seeds: Vec<u32> = d.train_nodes.iter().copied().take(256).collect();
    let joint = paper_sampler
        .sample(&d.graph, &seeds, &mut SmallRng::seed_from_u64(1))
        .total_edges(3);
    let mut split = 0usize;
    for chunk in seeds.chunks(32) {
        split += paper_sampler
            .sample(&d.graph, chunk, &mut SmallRng::seed_from_u64(1))
            .total_edges(3);
    }
    println!("at scale (synthetic products, batch 256 vs 8x32):");
    println!(
        "  joint {joint} edges, split {split} edges ({:.2}x)",
        split as f64 / joint as f64
    );
    assert!(split as f64 > joint as f64 * 1.01);

    // The flip side: the duplicated input nodes that splitting creates are
    // exactly what the cross-batch feature cache absorbs. Gather the split
    // batches' features with and without the cache over a few epochs and
    // compare the wall-clock of the gather stage.
    println!("\n=== feature cache on the shared-neighbor workload ===\n");
    let epochs = 3;
    let batches: Vec<Vec<u32>> = {
        let mut rng = SmallRng::seed_from_u64(2);
        seeds
            .chunks(32)
            .map(|chunk| {
                paper_sampler
                    .sample(&d.graph, chunk, &mut rng)
                    .input_nodes()
                    .to_vec()
            })
            .collect()
    };
    let total_rows: usize = batches.iter().map(Vec::len).sum();

    let t0 = Instant::now();
    for _ in 0..epochs {
        for ids in &batches {
            std::hint::black_box(d.features.gather(ids));
        }
    }
    let uncached = t0.elapsed().as_secs_f64();

    let cache = FeatureCache::new(d.graph.num_nodes(), d.feat_dim());
    let t0 = Instant::now();
    for _ in 0..epochs {
        for ids in &batches {
            std::hint::black_box(cache.gather_rows(&d.features, ids));
        }
    }
    let cached = t0.elapsed().as_secs_f64();
    let stats = cache.stats();

    println!(
        "{} batches x {epochs} epochs, {} feature rows gathered per epoch",
        batches.len(),
        total_rows
    );
    println!(
        "  hit rate {:.1}% ({} hits / {} lookups)",
        stats.hit_rate() * 100.0,
        stats.hits,
        stats.lookups(),
    );
    println!(
        "  raw copy loop: uncached {:.1} ms, cached {:.1} ms (both RAM-hot here)",
        uncached * 1e3,
        cached * 1e3
    );

    // What the hit rate buys at paper scale: every hit is a feature-store
    // read that never happens, and the gather stage is memory-bandwidth
    // bound (Figure 2/6), so store traffic converts directly to gather time
    // on the platform's effective DRAM bandwidth.
    let row_bytes = (d.feat_dim() * std::mem::size_of::<f32>()) as f64;
    let traffic_uncached = stats.lookups() as f64 * row_bytes;
    let traffic_cached = stats.misses as f64 * row_bytes;
    let bw = argo_platform::ICE_LAKE_8380H.effective_bw_gbs() * 1e9;
    println!(
        "  feature-store traffic: {:.1} MB -> {:.1} MB ({:.1}x less)",
        traffic_uncached / 1e6,
        traffic_cached / 1e6,
        traffic_uncached / traffic_cached.max(1.0)
    );
    println!(
        "  gather stage at Ice Lake DRAM bandwidth: {:.3} ms -> {:.3} ms",
        traffic_uncached / bw * 1e3,
        traffic_cached / bw * 1e3
    );
    // Shared neighborhoods within an epoch plus cross-epoch reuse must push
    // the hit rate past one half on the default synthetic workload — i.e.
    // the cache removes more than half of the gather stage's DRAM traffic.
    assert!(
        stats.hit_rate() > 0.5,
        "expected hit rate > 0.5, got {:.3}",
        stats.hit_rate()
    );
    assert!(traffic_cached < 0.5 * traffic_uncached);
}
