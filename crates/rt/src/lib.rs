//! # argo-rt — runtime substrate for ARGO
//!
//! Low-level parallel-runtime primitives that every other ARGO crate builds
//! on:
//!
//! * [`ThreadPool`] — a fixed-size worker pool whose threads can be *pinned*
//!   to explicit CPU cores. ARGO's contribution is deciding how many cores
//!   serve the sampling stage vs. the model-propagation stage of each GNN
//!   training process, so unlike rayon's global pool, every pool here is
//!   created with an explicit [`CoreSet`].
//! * [`CoreBinder`] / [`CoreSet`] — the Rust equivalent of the paper's
//!   `taskset` usage (Section IV-B3): plans a partition of the machine's
//!   cores across processes and stages, and (on Linux) applies it with
//!   `sched_setaffinity`.
//! * [`allreduce`] — the synchronous gradient all-reduce used by the
//!   Multi-Process Engine to emulate PyTorch DDP (Section IV-B2).
//! * [`spans`] — per-worker lock-free span rings: the only thing the hot
//!   loops record, and the input of critical-path attribution.
//! * [`events`] / [`trace`] / [`metrics`] / [`telemetry`] — what is derived
//!   from the spans and reported beside them: structured JSONL run events
//!   (epoch stats, tuner trials, config switches; the one record of every
//!   fact), the Figure-2 timeline, the per-iteration stage histograms, and
//!   the [`Telemetry`] handle that bundles them behind one on/off switch and
//!   one clock.
//! * [`rng`] — deterministic seed fan-out so that multi-process runs are
//!   reproducible and semantics tests can compare runs bit-for-bit.

#![deny(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

#[allow(unsafe_code)]
pub mod affinity;
pub mod allreduce;
pub mod config;
pub mod events;
pub mod json;
pub mod metrics;
#[allow(unsafe_code)]
pub mod pool;
pub mod rng;
pub mod spans;
pub mod telemetry;
pub mod trace;

pub use affinity::{bind_current_thread, num_available_cores, CoreBinder, CoreSet, StageBinding};
pub use allreduce::AllReduce;
pub use config::{enumerate_space, Config};
pub use events::{
    BytesRecord, CacheSummaryRecord, EpochRecord, RunEvent, RunLogger, ServeBatchRecord,
    ServeRequestRecord, Source, StageSummaryRecord, TrialRecord,
};
pub use json::Json;
pub use metrics::{Histogram, MetricsRegistry};
pub use pool::ThreadPool;
pub use rng::{SeedSequence, StreamRng};
pub use spans::{
    critical_path, Role, SpanDrain, SpanKind, SpanProfiler, SpanRecord, WorkerRing,
    CRITICAL_PATH_STAGES,
};
pub use telemetry::Telemetry;
pub use trace::{Stage, TraceEvent, TraceRecorder};

/// Runs a test's `body` on a thread of its own and returns what it returns,
/// or fails the test if `body` has not finished within `secs` seconds: a
/// hang fails with the test's name instead of stalling `cargo test`. A panic
/// in `body` is resumed on the caller.
#[cfg(test)]
pub(crate) fn watchdog<T: Send + 'static>(
    secs: u64,
    body: impl FnOnce() -> T + Send + 'static,
) -> T {
    use std::sync::mpsc::{self, RecvTimeoutError};
    let (done, finished) = mpsc::channel();
    let body = std::thread::spawn(move || {
        let _ = done.send(body());
    });
    match finished.recv_timeout(std::time::Duration::from_secs(secs)) {
        Ok(out) => {
            body.join().expect("the body returned after sending");
            out
        }
        Err(RecvTimeoutError::Timeout) => panic!("the test body is still running after {secs} s"),
        // The body panicked before it could send.
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(body.join().expect_err("the body sends unless it panics"))
        }
    }
}
