//! Cross-crate property-based tests (proptest): invariants that must hold
//! for *any* graph, batch, configuration or observation set — the
//! correctness backbone of the reproduction.

use proptest::prelude::*;

use argo::graph::generators::{planted_communities, power_law};
use argo::graph::partition::{bfs_partition, random_partition, split_even};
use argo::graph::{Graph, NodeId};
use argo::rt::{enumerate_space, AllReduce, Config, CoreBinder, SeedSequence};
use argo::sample::{NeighborSampler, SampledBatch, Sampler, ShadowSampler};
use argo::tensor::reference::matmul;
use argo::tensor::{DispatchPolicy, Matrix, SparseMatrix};
use argo::tune::acquisition::expected_improvement;
use argo::tune::gp::GaussianProcess;
use argo::tune::SearchSpace;
use rand::rngs::SmallRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CSR construction from any edge list preserves the edge multiset.
    #[test]
    fn csr_roundtrip(edges in prop::collection::vec((0u32..40, 0u32..40), 0..200)) {
        let g = Graph::from_edges(40, &edges, false);
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.num_edges(), edges.len());
        let mut want = edges.clone();
        want.sort_unstable();
        let mut got: Vec<(u32, u32)> = Vec::new();
        for v in 0..40u32 {
            for &u in g.neighbors(v) {
                got.push((v, u));
            }
        }
        got.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Undirected construction is symmetric for any edge list.
    #[test]
    fn undirected_is_symmetric(edges in prop::collection::vec((0u32..30, 0u32..30), 1..120)) {
        let g = Graph::from_edges(30, &edges, true);
        for v in 0..30u32 {
            for &u in g.neighbors(v) {
                prop_assert!(g.has_edge(u, v), "missing {u}->{v}");
            }
        }
    }

    /// The reverse of the reverse is the original graph.
    #[test]
    fn reverse_involution(edges in prop::collection::vec((0u32..25, 0u32..25), 0..100)) {
        let g = Graph::from_edges(25, &edges, false);
        prop_assert_eq!(g.reverse().reverse(), g);
    }

    /// Any partition covers all items exactly once with balanced sizes.
    #[test]
    fn partitions_cover_and_balance(n in 1usize..300, parts in 1usize..9, seed in 0u64..50) {
        let items: Vec<NodeId> = (0..n as NodeId).collect();
        for p in [random_partition(&items, parts, seed), split_even(&items, parts)] {
            let mut all: Vec<NodeId> = p.iter().flatten().copied().collect();
            all.sort_unstable();
            prop_assert_eq!(&all, &items);
            let sizes: Vec<usize> = p.iter().map(Vec::len).collect();
            prop_assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        }
    }

    /// BFS partition also covers everything (balance within ±1).
    #[test]
    fn bfs_partition_covers(n in 20usize..200, parts in 1usize..6, seed in 0u64..20) {
        let g = power_law(n, n * 4, 0.8, seed);
        let items: Vec<NodeId> = (0..n as NodeId).collect();
        let p = bfs_partition(&g, &items, parts);
        let mut all: Vec<NodeId> = p.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(&all, &items);
    }

    /// Neighbor sampling on any graph yields valid blocks: fanout bounds,
    /// edges exist in the graph, src prefix equals dst, layers chain.
    #[test]
    fn neighbor_sampler_invariants(
        n in 30usize..150,
        m in 60usize..600,
        f1 in 1usize..8,
        f2 in 1usize..8,
        seed in 0u64..30,
    ) {
        let g = power_law(n, m, 0.8, seed);
        let sampler = NeighborSampler::new(vec![f1, f2]);
        let seeds: Vec<NodeId> = (0..10.min(n) as NodeId).collect();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xABC);
        let SampledBatch::Blocks(mb) = sampler.sample(&g, &seeds, &mut rng) else {
            panic!("neighbor sampler must return blocks");
        };
        prop_assert_eq!(mb.blocks.len(), 2);
        let fanouts = [f1, f2];
        for (l, b) in mb.blocks.iter().enumerate() {
            prop_assert_eq!(&b.src_nodes[..b.dst_nodes.len()], &b.dst_nodes[..]);
            for i in 0..b.adj.rows() {
                prop_assert!(b.adj.row_range(i).len() <= fanouts[l]);
                for k in b.adj.row_range(i) {
                    let u = b.src_nodes[b.adj.indices()[k] as usize];
                    prop_assert!(g.has_edge(b.dst_nodes[i], u));
                }
            }
        }
        prop_assert_eq!(&mb.blocks[0].dst_nodes, &mb.blocks[1].src_nodes);
        prop_assert_eq!(&mb.blocks[1].dst_nodes, &mb.seeds);
    }

    /// ShaDow sampling returns an induced subgraph whose edges all exist in
    /// the parent graph and whose seeds lead the node list.
    #[test]
    fn shadow_sampler_invariants(
        n in 30usize..150,
        m in 60usize..600,
        seed in 0u64..30,
    ) {
        let g = planted_communities(n.max(32), m, 4, 0.8, seed);
        let sampler = ShadowSampler::new(vec![6, 3], 2);
        let seeds: Vec<NodeId> = (0..8).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        let SampledBatch::Subgraph(sb) = sampler.sample(&g, &seeds, &mut rng) else {
            panic!("shadow sampler must return a subgraph");
        };
        prop_assert_eq!(&sb.nodes[..8], &seeds[..]);
        for i in 0..sb.adj.rows() {
            for k in sb.adj.row_range(i) {
                let u = sb.nodes[sb.adj.indices()[k] as usize];
                prop_assert!(g.has_edge(sb.nodes[i], u));
            }
        }
        // No duplicates.
        let mut ids = sb.nodes.clone();
        ids.sort_unstable();
        let len = ids.len();
        ids.dedup();
        prop_assert_eq!(ids.len(), len);
    }

    /// SpMM against any CSR structure equals the dense product.
    #[test]
    fn spmm_matches_dense(
        rows in 1usize..12,
        cols in 1usize..12,
        inner in 1usize..12,
        mask in prop::collection::vec(any::<bool>(), 144),
        vals in prop::collection::vec(-2.0f32..2.0, 144),
    ) {
        let mut indptr = vec![0u32];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for i in 0..rows {
            for j in 0..inner {
                let k = i * inner + j;
                if mask[k % mask.len()] {
                    indices.push(j as u32);
                    values.push(vals[k % vals.len()]);
                }
            }
            indptr.push(indices.len() as u32);
        }
        let s = SparseMatrix::new(rows, inner, indptr, indices, Some(values));
        let d = Matrix::xavier(inner, cols, 7);
        let policy = DispatchPolicy::default();
        let got = policy.aggregate(&s, &d, None);
        let want = matmul(&s.to_dense(), &d);
        for (a, b) in got.data().iter().zip(want.data()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
        // Transposed SpMM agrees with dense too: (sᵀ d2)
        let d2 = Matrix::xavier(rows, cols, 8);
        let got_t = policy.aggregate_transpose(&s, &d2, None);
        let sd = s.to_dense();
        let mut st = Matrix::zeros(inner, rows);
        for i in 0..rows {
            for j in 0..inner {
                st.set(j, i, sd.get(i, j));
            }
        }
        let want_t = matmul(&st, &d2);
        for (a, b) in got_t.data().iter().zip(want_t.data()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    /// Matrix multiplication is associative (loose f32 tolerance).
    #[test]
    fn matmul_associative(a_seed in 0u64..50, n in 2usize..8) {
        let a = Matrix::xavier(n, n, a_seed);
        let b = Matrix::xavier(n, n, a_seed + 1);
        let c = Matrix::xavier(n, n, a_seed + 2);
        let left = matmul(&matmul(&a, &b), &c);
        let right = matmul(&a, &matmul(&b, &c));
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// The all-reduce mean over any group size and values is the arithmetic
    /// mean for every participant.
    #[test]
    fn allreduce_is_mean(n in 1usize..6, dim in 1usize..32, base in -10.0f32..10.0) {
        let ar = std::sync::Arc::new(AllReduce::new(n, dim));
        let results: Vec<Vec<f32>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|r| {
                    let ar = std::sync::Arc::clone(&ar);
                    s.spawn(move || {
                        let mut buf = vec![base + r as f32; dim];
                        ar.reduce_mean(&mut buf);
                        buf
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let expect = base + (0..n).map(|r| r as f32).sum::<f32>() / n as f32;
        for r in results {
            for v in r {
                prop_assert!((v - expect).abs() < 1e-4);
            }
        }
    }

    /// Every enumerated configuration fits its machine; the binder plans it
    /// with disjoint cores.
    #[test]
    fn space_configs_bindable(cores in 4usize..128) {
        let binder = CoreBinder::new(cores);
        for c in enumerate_space(cores) {
            prop_assert!(c.fits(cores));
            let plan = binder.plan(c.n_proc, c.n_samp, c.n_train).expect("fits");
            let mut all: Vec<usize> = plan
                .iter()
                .flat_map(|b| b.sampling.ids().iter().chain(b.training.ids()).copied())
                .collect();
            let len = all.len();
            all.sort_unstable();
            all.dedup();
            prop_assert_eq!(all.len(), len, "overlapping cores in plan for {}", c);
        }
    }

    /// GP posterior mean interpolates noisy-free observations for any
    /// (small) observation set with distinct inputs.
    #[test]
    fn gp_interpolates(pts in prop::collection::btree_set((0u8..10, 0u8..10, 0u8..10), 3..10)) {
        let x: Vec<[f64; 3]> = pts
            .iter()
            .map(|&(a, b, c)| [a as f64 / 10.0, b as f64 / 10.0, c as f64 / 10.0])
            .collect();
        let y: Vec<f64> = x.iter().map(|v| 1.0 + v[0] * 2.0 - v[1] + v[2] * 0.5).collect();
        let gp = GaussianProcess::fit(&x, &y);
        for (xi, yi) in x.iter().zip(&y) {
            let (m, _) = gp.predict(xi);
            prop_assert!((m - yi).abs() < 0.35, "pred {m} vs {yi}");
        }
    }

    /// Expected improvement is non-negative and zero-variance EI equals the
    /// plain improvement.
    #[test]
    fn ei_nonnegative(mean in -5.0f64..5.0, std in 0.0f64..3.0, best in -5.0f64..5.0) {
        let ei = expected_improvement(mean, std, best, 0.0);
        prop_assert!(ei >= 0.0);
        if std == 0.0 {
            prop_assert!((ei - (best - mean).max(0.0)).abs() < 1e-12);
        }
    }

    /// Seed fan-out: distinct coordinates yield distinct seeds (no trivial
    /// collisions in small windows).
    #[test]
    fn seed_sequence_injective_window(root in 0u64..1000, a in 0u64..50, b in 0u64..50) {
        let s = SeedSequence::new(root);
        if a != b {
            prop_assert_ne!(s.seed_for(a, 0), s.seed_for(b, 0));
            prop_assert_ne!(s.seed_for(0, a), s.seed_for(0, b));
            prop_assert_ne!(s.child(a), s.child(b));
        }
    }

    /// SearchSpace::project always returns a member, and members project to
    /// themselves.
    #[test]
    fn project_into_space(cores in 8usize..96, p in -4i64..20, s in -4i64..10, t in -4i64..40) {
        let space = SearchSpace::for_cores(cores);
        let c = space.project(p, s, t);
        prop_assert!(space.contains(c));
    }

    /// Config arithmetic: total cores and fit are consistent.
    #[test]
    fn config_fit_consistency(p in 1usize..16, s in 1usize..8, t in 1usize..32) {
        let c = Config::new(p, s, t);
        prop_assert_eq!(c.total_cores(), p * (s + t));
        prop_assert!(c.fits(c.total_cores()));
        prop_assert!(!c.fits(c.total_cores() - 1));
    }

    /// The pipelined loader yields identical batch contents regardless of
    /// the number of sampler workers, for any batch size.
    #[test]
    fn loader_order_invariant_to_workers(batch_size in 1usize..40, workers in 1usize..5, seed in 0u64..20) {
        use argo::sample::LoaderSpec;
        use argo::rt::SeedSequence;
        use std::sync::Arc;
        let g = Arc::new(power_law(200, 1600, 0.8, seed));
        let sampler: Arc<dyn Sampler> = Arc::new(NeighborSampler::new(vec![4, 3]));
        let seeds: Arc<Vec<NodeId>> = Arc::new((0..60).collect());
        let collect = |n_samp: usize| -> Vec<Vec<NodeId>> {
            LoaderSpec::builder(Arc::clone(&g), Arc::clone(&sampler), Arc::clone(&seeds))
                .batch_size(batch_size)
                .epoch_seeds(SeedSequence::new(seed))
                .n_samp(n_samp)
                .start()
                .map(|(_, b)| b.batch.input_nodes().to_vec())
                .collect()
        };
        prop_assert_eq!(collect(1), collect(workers));
    }

    /// Dataset serialization round-trips any synthesized instance.
    #[test]
    fn dataset_io_roundtrip(scale_milli in 3u64..12, seed in 0u64..10) {
        use argo::graph::io::{read_dataset, write_dataset};
        let d = argo::graph::datasets::FLICKR.synthesize(scale_milli as f64 / 1000.0, seed);
        let mut buf = Vec::new();
        write_dataset(&mut buf, &d).unwrap();
        let d2 = read_dataset(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(d.graph, d2.graph);
        prop_assert_eq!(d.labels, d2.labels);
        prop_assert_eq!(d.features.data(), d2.features.data());
    }

    /// NUMA planning never overlaps cores and never splits a process across
    /// sockets, for any geometry where it claims success.
    #[test]
    fn numa_plan_invariants(
        sockets in 1usize..5,
        per_socket in 2usize..24,
        n_proc in 1usize..9,
        n_samp in 1usize..4,
        n_train in 1usize..12,
    ) {
        let total = sockets * per_socket;
        let binder = CoreBinder::new(total);
        if let Some(plan) = binder.plan_numa(sockets, n_proc, n_samp, n_train) {
            let mut all: Vec<usize> = Vec::new();
            for b in &plan {
                let cores: Vec<usize> = b.sampling.ids().iter().chain(b.training.ids()).copied().collect();
                let socks: std::collections::HashSet<usize> =
                    cores.iter().map(|&c| binder.socket_of(c, sockets)).collect();
                prop_assert_eq!(socks.len(), 1, "process straddles sockets");
                prop_assert!(cores.iter().all(|&c| c < total));
                all.extend(cores);
            }
            let n = all.len();
            all.sort_unstable();
            all.dedup();
            prop_assert_eq!(all.len(), n, "overlapping cores");
        }
    }

    /// Merging per-process metric registries into an empty one equals the
    /// global registry that saw every observation directly: counters add,
    /// histogram buckets/counts/sums add, maxes take the max — for any
    /// split of any observation sequence across any number of processes.
    #[test]
    fn merged_per_process_registries_equal_global(
        obs in prop::collection::vec((0usize..4, 0u64..1000), 0..120),
        n_proc in 1usize..5,
    ) {
        use argo::rt::MetricsRegistry;
        let global = MetricsRegistry::new();
        let locals: Vec<MetricsRegistry> =
            (0..n_proc).map(|_| MetricsRegistry::new()).collect();
        for (i, &(which, raw)) in obs.iter().enumerate() {
            let local = &locals[i % n_proc];
            // Mix counters and histograms; values span several buckets.
            let value = raw as f64 * 1e-5;
            match which {
                0 => {
                    global.counter("iters").add(raw);
                    local.counter("iters").add(raw);
                }
                1 => {
                    global.counter("edges").inc();
                    local.counter("edges").inc();
                }
                _ => {
                    let name = if which == 2 { "stage/compute" } else { "stage/sync" };
                    global.time_histogram(name).observe(value);
                    local.time_histogram(name).observe(value);
                }
            }
        }
        let merged = MetricsRegistry::new();
        for local in &locals {
            merged.merge(local);
        }
        prop_assert_eq!(merged.counters(), global.counters());
        let mh = merged.histograms();
        let gh = global.histograms();
        prop_assert_eq!(mh.len(), gh.len());
        for ((mn, m), (gn, g)) in mh.iter().zip(gh.iter()) {
            prop_assert_eq!(mn, gn);
            prop_assert_eq!(m.count(), g.count());
            prop_assert_eq!(m.bucket_counts(), g.bucket_counts());
            prop_assert!((m.sum() - g.sum()).abs() <= 1e-12 * g.sum().abs().max(1.0));
            prop_assert_eq!(m.max(), g.max());
        }
    }
}
