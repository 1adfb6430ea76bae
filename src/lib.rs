//! Umbrella crate for the ARGO reproduction workspace.
//!
//! Re-exports every sub-crate so examples and integration tests can use a
//! single dependency. Library users should depend on `argo-core` (the
//! user-facing runtime) or on individual substrate crates directly.

#![forbid(unsafe_code)]

pub use argo_core as core;
pub use argo_engine as engine;
pub use argo_graph as graph;
pub use argo_nn as nn;
pub use argo_platform as platform;
pub use argo_rt as rt;
pub use argo_sample as sample;
pub use argo_tensor as tensor;
pub use argo_tune as tune;
