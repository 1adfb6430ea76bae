//! The README "Serving" quickstart, runnable: a `ServeSession` on a
//! synthetic Flickr slice answering a repeated query mix, with telemetry
//! written as JSONL for `argo report`.
//!
//! ```sh
//! cargo run --release -p argo-serve --example serve_quickstart
//! cargo run --release -p argo-cli --bin argo -- report --metrics /tmp/serve.jsonl
//! ```

use std::sync::Arc;

use argo_graph::datasets::FLICKR;
use argo_nn::{Arch, Gnn};
use argo_rt::Telemetry;
use argo_sample::NeighborSampler;
use argo_serve::ServeSpec;

fn main() {
    let dataset = Arc::new(FLICKR.synthesize(0.005, 23));
    let net = Gnn::new(
        Arch::Sage,
        dataset.feat_dim(),
        16,
        dataset.num_classes,
        2,
        9,
    );
    let sampler = Arc::new(NeighborSampler::new(vec![10, 5]));
    let tel = Telemetry::new();

    let mut session = ServeSpec::builder(dataset, sampler, net)
        .deadline_us(0) // inline execution: each submit answers immediately
        .result_cache_entries(64)
        .feature_cache_rows(1_024)
        .seed(3)
        .start();

    let queries = [vec![1, 2, 3], vec![7], vec![9, 11]];
    for pass in 0..3 {
        for q in &queries {
            let out = session.submit(q.clone(), Some(&tel)).expect("admission");
            for resp in out.completed {
                let r = resp.expect("inline response");
                println!(
                    "pass {pass}: request {} answered in {:.3}ms (cache_hit={})",
                    r.request,
                    r.latency_seconds * 1e3,
                    r.cache_hit
                );
            }
        }
    }
    if let Some(stats) = session.result_cache_stats() {
        println!(
            "result cache: {} hits / {} misses, {}/{} resident",
            stats.hits, stats.misses, stats.resident, stats.capacity
        );
    }

    let path = "/tmp/serve.jsonl";
    match std::fs::write(path, tel.logger.to_jsonl()) {
        Ok(()) => {
            println!("telemetry written to {path} — render with `argo report --metrics {path}`")
        }
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}
