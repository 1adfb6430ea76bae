//! The discrete design space the auto-tuner searches.

use argo_rt::{enumerate_space, Config};

/// The valid-configuration set for a machine, with index↔config mapping and
/// coordinate normalization for the GP surrogate.
///
/// The space is the paper's three knobs, `(n_proc, n_samp, n_train)`; every
/// member has `cache_rows = 0`.
#[derive(Clone, Debug)]
pub struct SearchSpace {
    configs: Vec<Config>,
    cores: usize,
    max: [f64; 3],
    min: [f64; 3],
}

fn coords(c: &Config) -> [f64; 3] {
    [c.n_proc as f64, c.n_samp as f64, c.n_train as f64]
}

impl SearchSpace {
    /// The space for a machine with `cores` cores (see
    /// [`argo_rt::enumerate_space`] for the rule and its relation to the
    /// paper's 726/408 counts).
    pub fn for_cores(cores: usize) -> Self {
        let configs = enumerate_space(cores);
        assert!(
            !configs.is_empty(),
            "machine too small for ARGO ({cores} cores)"
        );
        let mut min = [f64::INFINITY; 3];
        let mut max = [f64::NEG_INFINITY; 3];
        for c in &configs {
            let v = coords(c);
            for d in 0..3 {
                min[d] = min[d].min(v[d]);
                max[d] = max[d].max(v[d]);
            }
        }
        Self {
            configs,
            cores,
            max,
            min,
        }
    }

    /// Number of configurations (the design-space size of Table VI).
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Whether the space is empty (never true for supported machines).
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// The machine size this space was built for.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// All configurations.
    pub fn configs(&self) -> &[Config] {
        &self.configs
    }

    /// The configuration at `index`.
    pub fn get(&self, index: usize) -> Config {
        self.configs[index]
    }

    /// Index of `config`, if it is in the space.
    pub fn index_of(&self, config: Config) -> Option<usize> {
        self.configs.iter().position(|&c| c == config)
    }

    /// Whether `config` is a member.
    pub fn contains(&self, config: Config) -> bool {
        self.index_of(config).is_some()
    }

    /// Normalizes a configuration into `[0,1]³` for the GP kernel. A
    /// degenerate axis (all members share the value) maps to 0.
    pub fn normalize(&self, config: Config) -> [f64; 3] {
        let v = coords(&config);
        let mut out = [0.0; 3];
        for d in 0..3 {
            let span = self.max[d] - self.min[d];
            if span > 1e-12 {
                out[d] = (v[d] - self.min[d]) / span;
            }
        }
        out
    }

    /// Projects an arbitrary `(p, s, t)` proposal onto the nearest member of
    /// the space (L1 distance in raw coordinates) — used by simulated
    /// annealing moves that step outside the valid region.
    pub fn project(&self, p: i64, s: i64, t: i64) -> Config {
        *self
            .configs
            .iter()
            .min_by_key(|c| {
                (c.n_proc as i64 - p).abs()
                    + (c.n_samp as i64 - s).abs()
                    + (c.n_train as i64 - t).abs()
            })
            .expect("non-empty space")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_design_doc() {
        assert_eq!(SearchSpace::for_cores(112).len(), 694);
        assert_eq!(SearchSpace::for_cores(64).len(), 362);
    }

    #[test]
    fn all_members_fit_machine() {
        let s = SearchSpace::for_cores(32);
        for &c in s.configs() {
            assert!(c.fits(32));
            assert!(c.n_proc >= 2 && c.n_proc <= 8);
            assert!(c.n_samp >= 1 && c.n_samp <= 4);
            assert_eq!(c.cache_rows, 0, "plain space keeps the cache off");
        }
    }

    #[test]
    fn index_roundtrip() {
        let s = SearchSpace::for_cores(64);
        for (i, &c) in s.configs().iter().enumerate() {
            assert_eq!(s.index_of(c), Some(i));
            assert_eq!(s.get(i), c);
        }
    }

    #[test]
    fn normalize_is_unit_box() {
        let s = SearchSpace::for_cores(64);
        for &c in s.configs() {
            let v = s.normalize(c);
            assert!(v.iter().all(|x| (0.0..=1.0).contains(x)), "{c} -> {v:?}");
        }
        // Extremes hit 0 and 1 on every axis.
        let all: Vec<[f64; 3]> = s.configs().iter().map(|&c| s.normalize(c)).collect();
        for d in 0..3 {
            assert!(all.iter().any(|v| v[d] < 1e-9));
            assert!(all.iter().any(|v| v[d] > 1.0 - 1e-9));
        }
    }

    #[test]
    fn project_returns_member() {
        let s = SearchSpace::for_cores(16);
        let c = s.project(100, -5, 3);
        assert!(s.contains(c));
        // Projecting an existing member returns it.
        let m = s.get(7);
        assert_eq!(
            s.project(m.n_proc as i64, m.n_samp as i64, m.n_train as i64),
            m
        );
    }

    #[test]
    fn contains_rejects_foreign_configs() {
        let s = SearchSpace::for_cores(16);
        assert!(!s.contains(Config::new(1, 1, 1))); // p=1 not in space
        assert!(!s.contains(Config::new(2, 1, 100)));
    }
}
