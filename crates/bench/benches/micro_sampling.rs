//! Micro-benchmark of the sampling hot path: the pre-scratch serial
//! reference (per-batch `HashMap` relabeling plus full-neighbor-list copies
//! with a partial Fisher–Yates) vs the scratch-arena sampler, owned and as a
//! borrowed view; plus one loader worker's drain rate and the span cost.
//!
//! Emits machine-readable `BENCH_sampling.json` at the repository root
//! (seeds/s and sampled-edges/s per variant, speedup vs the reference, and
//! its provenance: commit, rustc, CPU model, vCPUs, date) so future PRs can
//! diff sampling throughput against this baseline.
//!
//! `ARGO_BENCH_QUICK=1` switches to a fast CI mode: smaller graph, fewer
//! samples, and a sanity perf gate — the process exits non-zero if the
//! scratch sampler is slower than the serial reference (generous 1.0×
//! threshold) or a batch's spans cost more than 5% of it.

use std::collections::HashMap;
use std::time::Instant;

use std::sync::Arc;

use argo_graph::generators::power_law;
use argo_graph::{Features, Graph, NodeId};
use argo_rt::json::Json;
use argo_rt::spans::{Role, SpanKind, SpanProfiler};
use argo_rt::SeedSequence;
use argo_sample::{
    InputRing, LoaderSpec, NeighborSampler, Normalization, PipelinedLoader, SampleRun, Sampler,
    SamplerScratch,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Minimum wall-clock seconds across `samples` runs (after one warmup).
fn time_min<R>(samples: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut sink = f(); // warmup; also keeps the result observable
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let t = Instant::now();
        sink = f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    std::hint::black_box(sink);
    best
}

/// The pre-scratch sampler, preserved here as the timing reference: per
/// layer it clones the frontier, relabels through a freshly allocated
/// `HashMap`, and picks neighbors by copying each node's *entire* neighbor
/// slice and running a partial Fisher–Yates over it — O(degree) work and a
/// degree-sized allocation per row, which is exactly what hurts on
/// power-law hubs. Returns `(total sampled edges, metadata bytes)` — the
/// bytes counting the separate node-id / edge-index / row-pointer `Vec`s
/// this layout shuffles per batch.
fn reference_sample(
    g: &Graph,
    seeds: &[NodeId],
    fanouts: &[usize],
    rng: &mut SmallRng,
) -> (usize, usize) {
    let mut dst: Vec<NodeId> = seeds.to_vec();
    let mut total = 0usize;
    let mut bytes = 0usize;
    for &fanout in fanouts.iter().rev() {
        let mut src = dst.clone();
        let mut relabel: HashMap<NodeId, u32> = HashMap::new();
        for (i, &v) in src.iter().enumerate() {
            relabel.insert(v, i as u32);
        }
        let mut indices: Vec<u32> = Vec::new();
        let mut indptr = vec![0usize];
        for &v in &dst {
            let mut pool: Vec<NodeId> = g.neighbors(v).to_vec();
            let take = fanout.min(pool.len());
            for j in 0..take {
                let k = rng.gen_range(j..pool.len());
                pool.swap(j, k);
            }
            for &u in &pool[..take] {
                let next = src.len() as u32;
                let id = *relabel.entry(u).or_insert_with(|| {
                    src.push(u);
                    next
                });
                indices.push(id);
            }
            indptr.push(indices.len());
        }
        total += indices.len();
        bytes += 4 * src.len() + 4 * indices.len() + 8 * indptr.len();
        std::hint::black_box(&indptr);
        dst = src;
    }
    (total, bytes)
}

struct SampRow {
    name: &'static str,
    seeds_per_s: f64,
    edges_per_s: f64,
    batch_ms: f64,
    speedup: f64,
    ns_per_edge: f64,
    metadata_bytes: usize,
}

impl SampRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(self.name)),
            ("batch_ms", Json::Num(self.batch_ms)),
            ("seeds_per_s", Json::Num(self.seeds_per_s)),
            ("edges_per_s", Json::Num(self.edges_per_s)),
            ("speedup_vs_serial", Json::Num(self.speedup)),
            ("ns_per_edge", Json::Num(self.ns_per_edge)),
            (
                "metadata_bytes_per_batch",
                Json::Num(self.metadata_bytes as f64),
            ),
        ])
    }
}

fn main() {
    let quick = std::env::var("ARGO_BENCH_QUICK").is_ok_and(|v| v == "1");
    let samples = if quick { 3 } else { 8 };
    let (nodes, edges) = if quick {
        (20_000, 200_000)
    } else {
        (100_000, 1_000_000)
    };
    // Heavy-tailed degrees: hub rows are where full-neighbor-copy loses to
    // Floyd position sampling.
    let graph = power_law(nodes, edges, 0.8, 11);
    let fanouts = vec![15usize, 10];
    let n_seeds = if quick { 512 } else { 1024 };
    let seeds: Vec<NodeId> = (0..n_seeds as u32).collect();
    let sampler = NeighborSampler::new(fanouts.clone());

    // -- Serial reference (pre-scratch allocation behavior). --
    let mut rng = SmallRng::seed_from_u64(17);
    let serial_s = time_min(samples, || {
        reference_sample(&graph, &seeds, &fanouts, &mut rng)
    });
    let (ref_edges, ref_bytes) = reference_sample(&graph, &seeds, &fanouts, &mut rng);

    // -- Scratch arena, steady state: one warm arena reused per batch, owned
    // batch materialized from it (what `Sampler::sample` returns). --
    let mut scratch = SamplerScratch::new();
    let stream = SeedSequence::new(17);
    let scratch_s = time_min(samples, || {
        let run = SampleRun::new(stream, &mut scratch);
        sampler.sample_into(&graph, &seeds, run).to_owned()
    });
    let run = SampleRun::new(stream, &mut scratch);
    let batch = sampler.sample_into(&graph, &seeds, run).to_owned();
    let scratch_edges = batch.total_edges(fanouts.len());

    // -- Fused arena view: assembly lands in the arena CSR and is consumed
    // in place (the serving path) — no owned materialization at all. --
    let mut view_scratch = SamplerScratch::new();
    let view_s = time_min(samples, || {
        let run = SampleRun::new(stream, &mut view_scratch);
        let view = sampler.sample_into(&graph, &seeds, run);
        std::hint::black_box(view.total_edges(2));
    });
    let run = SampleRun::new(stream, &mut view_scratch);
    let view_bytes = sampler.sample_into(&graph, &seeds, run).metadata_bytes();

    // -- Loader drain: one epoch of `DRAIN_BATCHES` batches through a
    // stand-alone `PipelinedLoader` with one worker and a consumer that only
    // hands each batch back to the ring, as the engine's step does —
    // sampling alone, then with the step's prologue on the worker (the
    // first aggregation under the fused mean normalization, read straight
    // from the 64-feature table, plus the self rows). Recorded so the
    // loader's per-batch cost is on file; never gated. --
    const DRAIN_BATCHES: usize = 8;
    const DRAIN_FEATURES: usize = 64;
    let shared_graph = Arc::new(graph.clone());
    let shared_sampler: Arc<dyn Sampler> = Arc::new(NeighborSampler::new(fanouts.clone()));
    let epoch_seeds: Arc<Vec<NodeId>> = Arc::new((0..(DRAIN_BATCHES * n_seeds) as u32).collect());
    let features = Arc::new(Features::new(
        (0..nodes * DRAIN_FEATURES)
            .map(|x| (x % 97) as f32 * 0.01)
            .collect(),
        DRAIN_FEATURES,
    ));
    let drain = |prologue: bool| {
        let ring = InputRing::new();
        time_min(samples, || {
            let mut spec = LoaderSpec::builder(
                Arc::clone(&shared_graph),
                Arc::clone(&shared_sampler),
                Arc::clone(&epoch_seeds),
            )
            .batch_size(n_seeds)
            .epoch_seeds(stream)
            .normalization(Normalization::Mean);
            if prologue {
                spec = spec.features(Arc::clone(&features));
            }
            let mut drained = 0;
            for (_, batch) in PipelinedLoader::start_recycling(spec.build(), ring.clone()) {
                batch.recycle(&ring);
                drained += 1;
            }
            drained
        }) / DRAIN_BATCHES as f64
    };
    let drain_rows = [
        ("loader drain", drain(false)),
        ("loader drain with prologue", drain(true)),
    ];

    // -- Span-profiler overhead: what one recorded span costs (two clock
    // reads and a ring push, measured over SPAN_PAIRS timed spans of an
    // empty closure), times the spans a training batch records, as a share
    // of the measured steady-state batch time. Timing a ~1 ms sampling call
    // with and without one ~50 ns span reads -7%..+6% run to run — the
    // noise of the call, not the cost of the span — so the cost is measured
    // on its own and then set against the batch. --
    const SPAN_PAIRS: usize = 200_000;
    // pick, gather, aggregate, enqueue-wait, dequeue-wait, compute, sync.
    const SPANS_PER_BATCH: f64 = 7.0;
    let profiler = SpanProfiler::new();
    let ring = profiler.ring(Role::Producer, SPAN_PAIRS);
    let t = Instant::now();
    for i in 0..SPAN_PAIRS {
        std::hint::black_box(ring.timed(SpanKind::Pick, i as u64, || std::hint::black_box(i)));
    }
    let span_ns = t.elapsed().as_secs_f64() * 1e9 / SPAN_PAIRS as f64;
    let spans_recorded = profiler.drain().records.len();
    assert_eq!(spans_recorded, SPAN_PAIRS, "the ring dropped spans");
    let span_overhead_pct = span_ns * 1e-9 * SPANS_PER_BATCH / scratch_s * 100.0;

    let row = |name: &'static str, secs: f64, edges: usize, bytes: usize| SampRow {
        name,
        seeds_per_s: n_seeds as f64 / secs,
        edges_per_s: edges as f64 / secs,
        batch_ms: secs * 1e3,
        speedup: serial_s / secs,
        ns_per_edge: secs * 1e9 / edges as f64,
        metadata_bytes: bytes,
    };
    let rows = [
        row("serial_reference", serial_s, ref_edges, ref_bytes),
        row("scratch", scratch_s, scratch_edges, view_bytes),
        row("scratch_view", view_s, scratch_edges, view_bytes),
    ];

    // -- Report. --
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("=== micro_sampling (quick={quick}, host_threads={host_threads}) ===\n");
    println!(
        "graph: power_law {nodes} nodes / {edges} edges, fanouts {fanouts:?}, {n_seeds} seeds\n"
    );
    println!(
        "{:<18} {:>10} {:>14} {:>16} {:>8} {:>9} {:>12}",
        "variant", "batch ms", "seeds/s", "edges/s", "x serial", "ns/edge", "meta KB"
    );
    for r in &rows {
        println!(
            "{:<18} {:>10.3} {:>14.0} {:>16.0} {:>8.2} {:>9.2} {:>12.1}",
            r.name,
            r.batch_ms,
            r.seeds_per_s,
            r.edges_per_s,
            r.speedup,
            r.ns_per_edge,
            r.metadata_bytes as f64 / 1e3
        );
    }
    println!();
    for (name, batch_s) in &drain_rows {
        println!(
            "{name:<28} {:>8.3} ms/batch (1 worker, {DRAIN_BATCHES} batches, ungated)",
            batch_s * 1e3
        );
    }
    println!(
        "\nspan profiler overhead: {span_overhead_pct:.3}% of a batch \
         ({span_ns:.0} ns/span over {spans_recorded} spans x {SPANS_PER_BATCH} spans/batch \
         vs the {:.3}ms scratch batch)",
        scratch_s * 1e3,
    );

    let json = Json::obj(vec![
        ("provenance", argo_bench::provenance(host_threads)),
        ("host_threads", Json::Num(host_threads as f64)),
        ("quick", Json::Bool(quick)),
        ("span_overhead_pct", Json::Num(span_overhead_pct)),
        ("graph_nodes", Json::Num(nodes as f64)),
        ("graph_edges", Json::Num(edges as f64)),
        ("n_seeds", Json::Num(n_seeds as f64)),
        (
            "fanouts",
            Json::Arr(fanouts.iter().map(|&f| Json::Num(f as f64)).collect()),
        ),
        (
            "variants",
            Json::Arr(rows.iter().map(SampRow::to_json).collect()),
        ),
        // The compact arena metadata footprint of the steady-state batch.
        ("metadata_bytes_per_batch", Json::Num(view_bytes as f64)),
        // Recorded only: one loader worker's cost per batch, without and
        // with the step's prologue.
        (
            "loader_drain",
            Json::Arr(
                drain_rows
                    .iter()
                    .map(|(name, batch_s)| {
                        Json::obj(vec![
                            ("name", Json::Str(name.to_string())),
                            ("batch_ms", Json::Num(batch_s * 1e3)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    // Quick (CI) runs land in target/ so they never dirty the committed
    // full-mode baseline at the repository root.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out_path = if quick {
        root.join("target/BENCH_sampling.quick.json")
    } else {
        root.join("BENCH_sampling.json")
    };
    match std::fs::write(&out_path, json.encode() + "\n") {
        Ok(()) => println!("\nbaseline written to {}", out_path.display()),
        Err(e) => eprintln!("\nfailed to write {}: {e}", out_path.display()),
    }

    // -- Quick-mode perf gate: the scratch sampler must not lose to the
    // pre-scratch reference. --
    if quick {
        let speedup = serial_s / scratch_s;
        if speedup < 1.0 {
            eprintln!(
                "PERF GATE: scratch sampler is slower than the serial reference \
                 ({speedup:.2}x < required 1.00x)"
            );
            std::process::exit(1);
        }
        println!("perf gate OK: scratch sampler at {speedup:.2}x vs serial reference");
        // Observability must stay effectively free: the spans of one batch
        // may not cost more than 5% of the bare sampling call.
        if span_overhead_pct > 5.0 {
            eprintln!(
                "PERF GATE: span profiler overhead {span_overhead_pct:.2}% exceeds the 5% budget"
            );
            std::process::exit(1);
        }
        println!("perf gate OK: span profiler overhead {span_overhead_pct:.3}% (budget 5%)");
    }
}
