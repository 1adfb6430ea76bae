//! # argo-platform — multi-core platform specs and the epoch-time model
//!
//! The paper evaluates ARGO on a 4-socket Ice Lake (112 cores) and a
//! 2-socket Sapphire Rapids (64 cores) training OGB-scale datasets under
//! PyTorch-based DGL/PyG. None of that hardware or software exists in this
//! environment, so this crate supplies the *modeled* execution substrate:
//!
//! * [`PlatformSpec`] — the two paper platforms (Table II) plus host
//!   detection;
//! * [`LibraryProfile`] — cost coefficients for a DGL-like and a PyG-like
//!   backend (kernel efficiency, sampler cost and parallelizability,
//!   per-batch framework overhead);
//! * [`WorkloadModel`] — analytic per-iteration workload (sampled edges,
//!   unique input nodes, FLOPs) including the shared-neighbor dedup effect
//!   that makes workload grow with the process count (Figures 5–6);
//! * [`PerfModel`] — the epoch-time simulator: pipelined sampling/training,
//!   gather/compute interleaving across processes (Figure 2), a memory-
//!   bandwidth roofline with a NUMA/UPI ceiling, Amdahl limits per sampler
//!   implementation, and synchronization overhead. It exposes exactly the
//!   objective function `epoch_time(config)` the auto-tuner optimizes.
//!
//! The mechanisms are the ones the paper itself identifies in Section V-A;
//! the coefficients are calibrated against Tables II–V so that the *shape*
//! of every exhibit (who wins, by what factor, where curves flatten)
//! reproduces.

#![forbid(unsafe_code)]

pub mod calibration;
pub mod library;
pub mod perf;
pub mod spec;
pub mod workload;

pub use calibration::{table4_dgl, table5_pyg, PaperRow};
pub use library::{Library, LibraryProfile};
pub use perf::{PerfModel, Setup};
pub use spec::{PlatformSpec, ICE_LAKE_8380H, SAPPHIRE_RAPIDS_6430L};
pub use workload::{IterationWorkload, ModelKind, SamplerKind, WorkloadModel};
