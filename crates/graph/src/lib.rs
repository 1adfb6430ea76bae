//! # argo-graph — graph storage, datasets and partitioning
//!
//! The graph substrate of the ARGO reproduction:
//!
//! * [`Graph`] — compressed-sparse-row adjacency used by samplers and the
//!   SpMM aggregation kernel (paper Section II-C).
//! * [`generators`] — deterministic synthetic graph generators (power-law
//!   Chung–Lu, Erdős–Rényi, RMAT-like) used to stand in for the OGB datasets,
//!   which cannot be downloaded in this environment.
//! * [`datasets`] — the four evaluation datasets of the paper (Table III)
//!   with their exact published statistics, plus `synthesize`d scaled-down
//!   instances with planted community labels for real end-to-end training.
//! * [`partition`] — data partitioning across ARGO processes: random (the
//!   paper's default) and a BFS-locality "METIS-like" partitioner for the
//!   Section VII-A ablation.

#![forbid(unsafe_code)]

pub mod csr;
pub mod datasets;
pub mod features;
pub mod generators;
pub mod io;
pub mod partition;

pub use csr::Graph;
pub use datasets::{Dataset, DatasetSpec, FLICKR, OGBN_PAPERS100M, OGBN_PRODUCTS, REDDIT};
pub use features::Features;

/// Node identifier. `u32` keeps CSR indices compact (paper graphs stay below
/// `u32::MAX` nodes; the 111M-node papers100M fits comfortably).
pub type NodeId = u32;
