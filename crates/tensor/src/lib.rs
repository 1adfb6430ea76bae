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
//! (SIMD — AVX-512 or AVX2+FMA, by the host — or the scalar tier it falls
//! back to; [`simd_tier`] names the one this process runs). The scalar
//! tier's dense kernels are the row forms of [`mod@reference`], which spell
//! the vector tiles' per-element sequence, so every tier computes the same
//! bits and the tier chooses only the speed; their whole-matrix loops are
//! also the oracles tests and benches compare against.

#![deny(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod dense;
pub mod dispatch;
pub mod ops;
pub mod reference;
#[allow(unsafe_code, clippy::disallowed_types)]
mod simd;
pub mod sparse;
pub mod workspace;

pub use dense::Matrix;
pub use dispatch::{DispatchPolicy, Epilogue};
pub use simd::{available as simd_available, simd_tier};
pub use sparse::{SparseMatrix, SparseView};
pub use workspace::Workspace;
