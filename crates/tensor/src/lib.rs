//! # argo-tensor — minimal dense/sparse tensor kernels for GNN training
//!
//! This crate is the Rust stand-in for the numerical backend the paper's GNN
//! libraries get from PyTorch: a dense row-major [`Matrix`] with the GEMM,
//! bias/activation and loss kernels a 3-layer GNN needs, plus **SpMM** —
//! sparse × dense, the feature aggregation of Eq. 1–2 and the fundamental
//! GNN kernel DGL builds message passing on (paper Section II-C).
//!
//! Model code reaches the matmul/SpMM kernels only through
//! [`DispatchPolicy`], which runs each operation inline or row-partitioned
//! over an [`argo_rt::ThreadPool`] — so the engine can bind the compute to
//! the *training cores* chosen by the auto-tuner — on one of two tiers
//! (AVX2+FMA, or the blocked scalar kernels it falls back to).
//! [`mod@reference`] holds the naive oracles tests and benches compare against.

pub mod dense;
pub mod dispatch;
mod kernels;
pub mod ops;
pub mod reference;
mod simd;
pub mod sparse;
pub mod workspace;

pub use dense::Matrix;
pub use dispatch::{DispatchPolicy, Epilogue};
pub use simd::available as simd_available;
pub use sparse::{SparseMatrix, SparseView};
pub use workspace::Workspace;
