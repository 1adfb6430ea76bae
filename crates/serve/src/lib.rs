//! # argo-serve — online GNN inference serving
//!
//! ARGO's training runtime (the paper's contribution) tunes core allocation
//! offline, once per training run. Serving flips the problem online: queries
//! for "embed/classify these seed nodes" arrive continuously, and the
//! latency target is a *tail* (p99), not epoch throughput. This crate
//! reuses the training substrate — the zero-allocation samplers, the
//! loader's layer-0 prologue over the feature table, the blocked forward
//! kernels — behind a request loop built from three pieces. Unlike the
//! feature cache the sessions once had in front of that table, which only
//! traded one DRAM row copy for another (DESIGN.md §7), the one cache left
//! saves whole queries:
//!
//! * [`MicroBatcher`] — deadline-driven admission: requests queue until
//!   either `max_batch` are pending or the oldest has aged `deadline_us`,
//!   bounding both batch occupancy and worst-case queueing delay. A
//!   result-cache hit skips the queue: the session answers it at admission.
//!   All decisions are pure functions of [`Clock`] readings, so admission
//!   edges are deterministic and unit-testable via [`ManualClock`].
//! * [`ResultCache`] — a layered response cache keyed by the seed list.
//!   The counter-based sampler makes every response a pure function of
//!   that key, so a cached response is
//!   *bitwise identical* to re-executing the query (property-tested).
//! * [`ServeSession`] — ties them together: validates and admits queries,
//!   executes flushed micro-batches over the shared sampler/model stack,
//!   and reports per-request telemetry (`serve_request` / `serve_batch`
//!   events, `serve_queue` / `serve_exec` spans) through the same
//!   `Option<&Telemetry>` surface as every other ARGO entry point.
//!
//! Sessions are built with [`ServeSpec::builder`] (or
//! [`ServeSpec::from_engine`] to serve a training checkpoint in place), the
//! same builder shape as the pipelined loader's `LoaderSpec`.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod batcher;
pub mod clock;
pub mod result_cache;
pub mod session;

pub use batcher::{Admitted, FlushReason, MicroBatch, MicroBatcher};
pub use clock::{Clock, ManualClock, WallClock};
pub use result_cache::{ResultCache, ResultCacheStats};
pub use session::{ServeResponse, ServeSession, ServeSpec, ServeSpecBuilder, Submitted};
