//! # argo-engine — the Multi-Process Engine
//!
//! Implements the paper's Section IV: given a [`Config`] (number of
//! processes, sampling cores, training cores) the engine
//!
//! 1. **Launches** `n_proc` GNN training "processes" (OS threads with their
//!    own model replica, sampler pipeline and training pool — the Rust
//!    equivalent of Python multi-processing, which exists there only to
//!    escape the GIL),
//! 2. **Binds** each process's sampler threads and training pool to the core
//!    sets planned by [`argo_rt::CoreBinder`],
//! 3. **Splits the data evenly** and **divides the mini-batch size by
//!    `n_proc`** so the effective batch size — and therefore the training
//!    semantics — is identical to single-process training (Section IV-B2),
//! 4. Runs a synchronous-SGD **gradient all-reduce** after every iteration
//!    (the DDP substitute), so all replicas stay bit-identical.
//!
//! [`Engine::train_epoch`] is the objective function the online auto-tuner
//! evaluates: one call = one epoch under one configuration, returning the
//! measured epoch time.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod engine;
pub mod evaluate;

pub use engine::{BufferStats, Engine, EngineOptions, EpochStats};
pub use evaluate::{evaluate_accuracy, evaluate_confusion};

pub use argo_rt::Config;
