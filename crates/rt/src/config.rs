//! The ARGO runtime configuration — the three parallelization parameters the
//! auto-tuner searches over (paper Section V).

use std::fmt;

/// A point in ARGO's design space.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Config {
    /// Number of GNN training processes to instantiate.
    pub n_proc: usize,
    /// Sampling cores per process.
    pub n_samp: usize,
    /// Training (model-propagation) cores per process.
    pub n_train: usize,
}

impl Config {
    /// Creates a configuration; all fields must be positive.
    pub fn new(n_proc: usize, n_samp: usize, n_train: usize) -> Self {
        assert!(
            n_proc > 0 && n_samp > 0 && n_train > 0,
            "config fields must be positive"
        );
        Self {
            n_proc,
            n_samp,
            n_train,
        }
    }

    /// Does nothing: there is no feature cache to size (DESIGN.md §7). Kept
    /// until the benchmark, which calls it, drops the call (ROADMAP 11.8).
    pub fn with_cache_rows(self, _cache_rows: usize) -> Self {
        self
    }

    /// Total cores this configuration occupies.
    pub fn total_cores(&self) -> usize {
        self.n_proc * (self.n_samp + self.n_train)
    }

    /// Whether the configuration fits a machine with `cores` cores.
    pub fn fits(&self, cores: usize) -> bool {
        self.total_cores() <= cores
    }
}

/// Enumerates ARGO's design space on a machine with `cores` cores:
/// `p ∈ {2..8}`, `s ∈ {1..4}`, `t ∈ {1..⌊cores/p⌋ − s}`.
///
/// The paper reports 726 configurations on 112 cores and 408 on 64 without
/// giving the enumeration rule; this rule yields 694 and 362 (within 5–11%,
/// see DESIGN.md) and matches the axes of the paper's Figures 7 and 12.
pub fn enumerate_space(cores: usize) -> Vec<Config> {
    let mut out = Vec::new();
    for p in 2..=8usize {
        let per = cores / p;
        if per < 2 {
            continue;
        }
        for s in 1..=4usize.min(per - 1) {
            for t in 1..=(per - s) {
                out.push(Config::new(p, s, t));
            }
        }
    }
    out
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(proc={}, samp={}, train={})",
            self.n_proc, self.n_samp, self.n_train
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_fit() {
        let c = Config::new(8, 2, 6);
        assert_eq!(c.total_cores(), 64);
        assert!(c.fits(64));
        assert!(!c.fits(63));
    }

    #[test]
    #[should_panic]
    fn zero_field_panics() {
        Config::new(1, 0, 1);
    }

    #[test]
    fn display() {
        assert_eq!(
            Config::new(2, 1, 3).to_string(),
            "(proc=2, samp=1, train=3)"
        );
    }

    #[test]
    fn display_includes_cache_only_when_enabled() {
        // The cache can no longer be enabled: the no-op setter leaves the
        // display as it was.
        assert_eq!(
            Config::new(2, 1, 3).with_cache_rows(4096).to_string(),
            "(proc=2, samp=1, train=3)"
        );
    }

    #[test]
    fn cache_rows_defaults_off_and_does_not_affect_cores() {
        let c = Config::new(4, 2, 2);
        assert_eq!(c.with_cache_rows(1 << 20), c);
        assert_eq!(c.total_cores(), c.with_cache_rows(1 << 20).total_cores());
    }
}
