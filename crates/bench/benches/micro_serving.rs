//! Serving benchmark: qps-vs-p99 curves plus a closed-loop load generator
//! over the real `argo-serve` session.
//!
//! Two halves, two kinds of evidence:
//!
//! 1. **Simulated open-loop curve (deterministic).** The platform model's
//!    `predicted_request_seconds` supplies micro-batch service times to
//!    `argo-tune`'s [`ServeObjective`]; the same BayesOpt loop that tunes
//!    epoch time then tunes p99 latency. The artifact records the p99 of
//!    the library-default configuration vs the tuned one across a qps
//!    sweep — a pure function of the seeds, so the ratio is byte-stable
//!    across hosts and safe to gate in CI.
//!
//! 2. **Closed-loop measured load (structural).** A real [`ServeSession`]
//!    on a synthetic Flickr slice answers a Zipf-flavored query mix with
//!    repeats; after one warm-up pass the layered result cache must serve
//!    over 90% of requests. The hit rate is a function of the request mix and
//!    cache capacity — not the clock — so it gates cleanly on a 1-core
//!    runner; latency percentiles are recorded as context only.
//!
//! Emits `BENCH_serving.json` at the repository root (full mode) or
//! `target/BENCH_serving.quick.json` (ARGO_BENCH_QUICK=1).

use std::sync::Arc;
use std::time::Instant;

use argo_graph::datasets::FLICKR;
use argo_graph::NodeId;
use argo_nn::{Arch, Gnn};
use argo_platform::PerfModel;
use argo_rt::json::Json;
use argo_rt::{Config, StreamRng};
use argo_sample::{NeighborSampler, Normalization};
use argo_serve::ServeSpec;
use argo_tune::{BayesOpt, OnlineAutoTuner, SearchSpace, Searcher, ServeObjective, ServeWorkload};

/// Cores of the modeled inference slice: a 16-core partition of the paper's
/// Ice Lake box, a realistic serving reservation.
const SERVE_CORES: usize = 16;

fn nearest_rank_ms(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    let idx = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1;
    samples[idx] * 1e3
}

fn main() {
    let quick = std::env::var("ARGO_BENCH_QUICK").is_ok_and(|v| v == "1");
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("=== micro_serving (quick={quick}, host_threads={host_threads}) ===\n");

    // ---- 1. Simulated open-loop qps-vs-p99 (deterministic) ------------
    let model = PerfModel::builder().build(); // Neighbor-SAGE / Flickr / DGL
    let num_requests = if quick { 600 } else { 4_000 };
    let workload_at = |qps: f64| ServeWorkload {
        qps,
        num_requests,
        max_batch: 8,
        deadline_us: 2_000,
        seed: 0x5EED,
    };
    let service = |config: Config, batch: usize| model.predicted_request_seconds(config, batch);

    // Library default on the slice: 1 process, 4 sampling workers, the rest
    // training threads, no cross-batch cache — the same shape as
    // `PerfModel::default_config`, restricted to the serving reservation.
    let default_config = Config::new(1, 4.min(SERVE_CORES - 1), SERVE_CORES - 4);

    // Tune p99 near the default configuration's saturation point — the
    // regime where configuration actually moves the tail (at low load every
    // config hides behind the admission deadline). The cache axis is part
    // of the serving space: resident feature rows cut the gather term. The
    // searcher is warm-started with the incumbent default, standard
    // practice for online tuning of a live service — the tuner can only
    // improve on what is already running.
    let nodes = FLICKR.num_nodes;
    let space = SearchSpace::for_serving(SERVE_CORES, &[0, nodes / 8, nodes / 2, nodes]);
    let reference_qps = 8_500.0;
    let searches = if quick { 24 } else { 48 };
    let objective = ServeObjective::new(workload_at(reference_qps), service);
    let mut searcher = BayesOpt::new(space, 7);
    searcher.observe(
        default_config,
        ServeObjective::new(workload_at(reference_qps), service).tail_latency(default_config),
    );
    let report =
        OnlineAutoTuner::new(searcher, searches).run(searches, objective.into_objective(), None);
    let tuned_config = report.config_opt;
    println!(
        "tuned at {reference_qps} qps over {searches} trials: {tuned_config} \
         (p99 {:.3}ms)",
        report.best_epoch_time * 1e3
    );

    let qps_points: &[f64] = if quick {
        &[2_000.0, 8_500.0, 9_500.0]
    } else {
        &[1_000.0, 4_000.0, 7_000.0, 8_500.0, 9_500.0]
    };
    println!(
        "\n{:<10} {:>16} {:>16} {:>10}",
        "qps", "default p99 ms", "tuned p99 ms", "speedup"
    );
    let mut curve = Vec::new();
    let mut improvement_at_ref = 1.0;
    for &qps in qps_points {
        let obj = |cfg: Config| ServeObjective::new(workload_at(qps), service).tail_latency(cfg);
        let default_p99 = obj(default_config);
        let tuned_p99 = obj(tuned_config);
        let speedup = default_p99 / tuned_p99;
        if qps == reference_qps {
            improvement_at_ref = speedup;
        }
        println!(
            "{qps:<10} {:>16.3} {:>16.3} {:>9.2}x",
            default_p99 * 1e3,
            tuned_p99 * 1e3,
            speedup
        );
        curve.push(Json::obj(vec![
            ("qps", Json::Num(qps)),
            ("default_p99_ms", Json::Num(default_p99 * 1e3)),
            ("tuned_p99_ms", Json::Num(tuned_p99 * 1e3)),
        ]));
    }

    // ---- 2. Closed-loop load over the real serving session -------------
    // A fixed pool of distinct queries replayed for several passes: the
    // first pass is the warm-up that fills the result cache, later passes
    // measure the warm mix.
    let scale = if quick { 0.005 } else { 0.02 };
    let dataset = Arc::new(FLICKR.synthesize(scale, 23));
    let arch = Arch::Sage;
    let net = Gnn::new(arch, dataset.feat_dim(), 16, dataset.num_classes, 2, 9);
    let sampler = Arc::new(NeighborSampler::new(vec![10, 5]));
    let distinct = 64usize;
    let passes = if quick { 4 } else { 12 };
    let num_nodes = dataset.graph.num_nodes() as u64;
    let mut rng = StreamRng::new(0xC10C);
    let queries: Vec<Vec<NodeId>> = (0..distinct)
        .map(|_| {
            let len = 1 + (rng.next_u64() % 4) as usize;
            (0..len)
                .map(|_| (rng.next_u64() % num_nodes) as NodeId)
                .collect()
        })
        .collect();

    let mut session = ServeSpec::builder(Arc::clone(&dataset), sampler, net)
        .deadline_us(0) // inline execution: each submit answers immediately
        .result_cache_entries(2 * distinct)
        .feature_cache_rows(2_048)
        .normalization(Normalization::Mean)
        .seed(3)
        .start();

    let mut latencies = Vec::new();
    let (mut warm_hits, mut warm_total) = (0u64, 0u64);
    let t0 = Instant::now();
    for pass in 0..passes {
        for q in &queries {
            let out = session.submit(q.clone(), None).expect("admission");
            for r in out.completed {
                let r = r.expect("inline response");
                if pass > 0 {
                    warm_total += 1;
                    warm_hits += u64::from(r.cache_hit);
                    latencies.push(r.latency_seconds);
                }
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let total_requests = (passes * distinct) as f64;
    let warm_hit_rate = warm_hits as f64 / warm_total.max(1) as f64;
    let (p50_ms, p99_ms) = (
        nearest_rank_ms(&mut latencies, 0.50),
        nearest_rank_ms(&mut latencies, 0.99),
    );
    let cache = session.result_cache_stats().expect("result cache enabled");
    println!(
        "\nclosed loop: {total_requests:.0} requests ({distinct} distinct x {passes} passes) \
         in {:.1}ms — {:.0} req/s",
        wall * 1e3,
        total_requests / wall
    );
    println!(
        "warm passes: hit rate {:.1}% ({warm_hits}/{warm_total}), \
         latency p50 {p50_ms:.3}ms p99 {p99_ms:.3}ms",
        warm_hit_rate * 100.0
    );
    println!(
        "result cache: {} hits / {} misses / {} evictions, {}/{} resident",
        cache.hits, cache.misses, cache.evictions, cache.resident, cache.capacity
    );

    // ---- Artifact -------------------------------------------------------
    let json = Json::obj(vec![
        ("host_threads", Json::Num(host_threads as f64)),
        ("quick", Json::Bool(quick)),
        ("task", Json::str(&model.setup().label())),
        ("serve_cores", Json::Num(SERVE_CORES as f64)),
        ("tuned_config", Json::str(&tuned_config.to_string())),
        ("reference_qps", Json::Num(reference_qps)),
        ("p99_improvement", Json::Num(improvement_at_ref)),
        ("qps_curve", Json::Arr(curve)),
        ("warm_hit_rate", Json::Num(warm_hit_rate)),
        (
            "closed_loop",
            Json::obj(vec![
                ("requests", Json::Num(total_requests)),
                ("distinct", Json::Num(distinct as f64)),
                ("passes", Json::Num(passes as f64)),
                ("p50_ms", Json::Num(p50_ms)),
                ("p99_ms", Json::Num(p99_ms)),
                ("throughput_rps", Json::Num(total_requests / wall)),
            ]),
        ),
    ]);
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out_path = if quick {
        root.join("target/BENCH_serving.quick.json")
    } else {
        root.join("BENCH_serving.json")
    };
    match std::fs::write(&out_path, json.encode() + "\n") {
        Ok(()) => println!("\nbaseline written to {}", out_path.display()),
        Err(e) => eprintln!("\nfailed to write {}: {e}", out_path.display()),
    }

    // ---- Quick-mode perf gates (structural, host-independent) ----------
    if quick {
        if improvement_at_ref < 1.0 {
            eprintln!(
                "PERF GATE: tuned config loses to the library default at the reference rate \
                 ({improvement_at_ref:.2}x < 1.00x)"
            );
            std::process::exit(1);
        }
        println!(
            "perf gate OK: tuned p99 at {improvement_at_ref:.2}x the default at \
             {reference_qps} qps"
        );
        if warm_hit_rate <= 0.9 {
            eprintln!("PERF GATE: warm result-cache hit rate {warm_hit_rate:.3} is not above 0.9");
            std::process::exit(1);
        }
        println!("perf gate OK: warm result-cache hit rate {warm_hit_rate:.3} (> 0.9)");
    }
}
