//! **Figure 5** — the toy example: "Reducing the batch size increases the
//! workload". A mini-batch of {Node 0, Node 1} shares neighbor Node 2
//! (which aggregates Nodes 3 and 4); computed once for the joint batch, but
//! twice when the batch is split — the per-seed workload grows.
//!
//! Reproduced exactly with the real NeighborSampler on the paper's toy
//! graph, then at scale on a synthetic ogbn-products.

use argo_graph::Graph;
use argo_sample::{NeighborSampler, Sampler};
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
}
