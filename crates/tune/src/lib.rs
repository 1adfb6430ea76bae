//! # argo-tune — the online auto-tuner and its baselines
//!
//! Implements the paper's Section V: an online auto-tuner that searches
//! ARGO's 3-D design space — (number of processes, sampling cores, training
//! cores) — using Bayesian optimization with a Gaussian-process surrogate,
//! finding a near-optimal configuration while exploring only ~5% of the
//! space (Table VI).
//!
//! Everything is built from scratch:
//!
//! * [`SearchSpace`] — the valid-configuration enumeration (Section V-B);
//! * [`gp::GaussianProcess`] — Matérn-5/2 GP with Cholesky solves, fit and
//!   queried one point at a time: the small oracle;
//! * [`gp::IncrementalGp`] — the same posterior, grown by one rank-1
//!   Cholesky border per observation and asked about a fixed candidate set:
//!   each observation caches one row of distances to every candidate, and
//!   [`gp::IncrementalGp::posteriors`] scores the whole set in one pass,
//!   O(n² · |space|) with the candidate index innermost, every `(mean, std)`
//!   bitwise equal to the oracle's;
//! * [`acquisition`] — Expected Improvement (and LCB, PI, greedy mean for
//!   the ablation);
//! * [`BayesOpt`] — the auto-tuner (random init → posteriors over the whole
//!   space → argmax EI);
//! * [`SimulatedAnnealing`], [`ExhaustiveSearch`] — the comparison baselines
//!   of Section VI-D (the *Default* baseline is a single fixed config and
//!   needs no searcher);
//! * [`OnlineAutoTuner`] — Algorithm 1: spend `num_searches` epochs
//!   learning online, then reuse the best configuration found.
//!
//! All searchers implement [`Searcher`], so benches can drive them
//! uniformly against either a measured engine or the platform model.

#![forbid(unsafe_code)]

pub mod acquisition;
pub mod baselines;
pub mod bayesopt;
pub mod gp;
pub mod online;
pub mod space;

pub use baselines::{ExhaustiveSearch, GreedyPruning, SimulatedAnnealing};
pub use bayesopt::BayesOpt;
pub use online::{OnlineAutoTuner, TuningReport};
pub use space::SearchSpace;

use argo_rt::Config;

/// A black-box configuration searcher (minimizing epoch time).
pub trait Searcher {
    /// Proposes the next configuration to evaluate.
    fn suggest(&mut self) -> Config;

    /// Reports the measured objective for a configuration.
    fn observe(&mut self, config: Config, value: f64);

    /// Best (configuration, value) observed so far.
    fn best(&self) -> Option<(Config, f64)>;

    /// Searcher name for reports.
    fn name(&self) -> &'static str;
}

/// The number of online-learning searches the paper allots per task
/// (Table VI): 35/45 on the 112-core Ice Lake and 20/25 on the 64-core
/// Sapphire Rapids for Neighbor-/ShaDow-based tasks respectively —
/// 5–6% of the design space.
pub fn paper_num_searches(total_cores: usize, shadow: bool) -> usize {
    match (total_cores >= 100, shadow) {
        (true, false) => 35,
        (true, true) => 45,
        (false, false) => 20,
        (false, true) => 25,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_search_counts() {
        assert_eq!(paper_num_searches(112, false), 35);
        assert_eq!(paper_num_searches(112, true), 45);
        assert_eq!(paper_num_searches(64, false), 20);
        assert_eq!(paper_num_searches(64, true), 25);
    }

    #[test]
    fn search_counts_are_5_to_7_percent_of_space() {
        for cores in [64usize, 112] {
            let space = SearchSpace::for_cores(cores).len() as f64;
            for shadow in [false, true] {
                let frac = paper_num_searches(cores, shadow) as f64 / space;
                assert!(
                    (0.04..0.08).contains(&frac),
                    "{cores} cores shadow={shadow}: {frac}"
                );
            }
        }
    }
}
