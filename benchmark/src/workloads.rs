//! The six workloads and their frozen sizes. `BENCHMARK.json` names them and
//! says why each exists; the numbers that define them live here and are
//! repeated in README.md.

use crate::layers::{ArchId, DatasetId, SamplerId, ServeDef, TrainSpec};

/// Validation accuracy a training workload must reach, and the nodes the
/// per-epoch check evaluates (the final accuracy uses the whole split).
pub const ACC_TARGET: f64 = 0.95;
pub const ACC_PROBE_NODES: usize = 512;

/// Warm-up epochs that belong to set-up.
pub const WARMUP_EPOCHS: usize = 1;

/// Set-up of a training workload is timed this often in one run and its
/// median reported. Serving and tuning set up again after every sample of
/// the host-speed reference (11 and about 48 times in 15 s).
pub const TRAIN_SETUP_REPEATS: usize = 3;

/// Latency limit of the serving workloads, on the tail percentile.
pub const LATENCY_LIMIT_MS: f64 = 5.0;

/// The tail percentile of request latency. A stall of this host (a virtual
/// CPU taken away for 5 to 60 ms, a few times a minute) delays every request
/// due while it lasts, which is about 1% of a phase: over six seeds the p99
/// read 0.8 to 2.6 ms and the p95 0.62 to 0.70 ms. The p99 is printed.
pub const SERVE_TAIL: f64 = 0.95;

/// A serving phase fails the limit when more than this share of its
/// requests failed.
pub const MAX_FAIL_FRAC: f64 = 0.01;

pub const SERVE_WARMUP_QUERIES: usize = 512;
pub const MAX_QUERY_SEEDS: usize = 8;
pub const ZIPF_POOL: usize = 256;
pub const ZIPF_EXPONENT: f64 = 1.0;

/// Tuner seeds per paper task.
pub const TUNE_SEEDS: u64 = 5;
pub const MAX_REGRET: f64 = 1.10;

const NEIGHBOR_SAGE: TrainSpec = TrainSpec {
    dataset: DatasetId::Reddit,
    scale: 0.1,
    sampler: SamplerId::Neighbor(&[15, 10]),
    arch: ArchId::Sage,
    hidden: 128,
    global_batch: 512,
    lr: 3e-5,
    n_proc: 1,
    n_samp: 1,
    n_train: 1,
    cache_rows: 0,
};

const SERVE_UNIQUE: ServeDef = ServeDef {
    dataset: DatasetId::Reddit,
    scale: 0.1,
    fanouts: &[15, 10],
    hidden: 128,
    max_batch: 8,
    deadline_us: 200,
    // Admission control is configured and never meant to act: a refused or
    // shed request is a failed op, and with the issue's sizes (1024 and
    // 20 ms) one 60 ms stall of the host shed two requests of a run.
    queue_cap: 8192,
    shed_after_us: 1_000_000,
    result_cache_entries: 0,
    feature_cache_rows: 0,
};

pub struct ServeWorkload {
    pub def: ServeDef,
    /// Whether queries repeat (Zipf over a pool) or are all distinct.
    pub zipf: bool,
    /// The three fixed open-loop rates in requests per second: about 12%
    /// (6% for Zipf), 25% and 50% of the closed-loop capacity measured on
    /// the sizing host, then frozen. End-to-end latency is taken at the first, `rate_ref`:
    /// at half the capacity one stall of the host moves the tail of a whole
    /// run (README.md has the numbers), so the others are diagnostics of the
    /// traced run, and none is so near the capacity that a slow spell of the
    /// host saturates it and requests fail.
    pub rates: [f64; 3],
}

pub enum Workload {
    Train(TrainSpec),
    Serve(ServeWorkload),
    Tune,
}

pub const NAMES: [&str; 6] = [
    "train_neighbor_sage",
    "train_shadow_gcn",
    "train_ddp_cached",
    "serve_unique",
    "serve_zipf",
    "tune_paper_tasks",
];

pub fn by_name(name: &str) -> Option<Workload> {
    Some(match name {
        "train_neighbor_sage" => Workload::Train(NEIGHBOR_SAGE),
        "train_shadow_gcn" => Workload::Train(TrainSpec {
            dataset: DatasetId::Flickr,
            sampler: SamplerId::Shadow(&[10, 5], 3),
            arch: ArchId::Gcn,
            global_batch: 256,
            lr: 1e-4,
            ..NEIGHBOR_SAGE
        }),
        "train_ddp_cached" => Workload::Train(TrainSpec {
            n_proc: 2,
            cache_rows: 8000,
            ..NEIGHBOR_SAGE
        }),
        "serve_unique" => Workload::Serve(ServeWorkload {
            def: SERVE_UNIQUE,
            zipf: false,
            rates: [1000.0, 2000.0, 4000.0],
        }),
        "serve_zipf" => Workload::Serve(ServeWorkload {
            def: ServeDef {
                result_cache_entries: 128,
                feature_cache_rows: 4096,
                ..SERVE_UNIQUE
            },
            zipf: true,
            rates: [1500.0, 6000.0, 12000.0],
        }),
        "tune_paper_tasks" => Workload::Tune,
        _ => return None,
    })
}
