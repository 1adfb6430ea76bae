//! The Bayesian-optimization auto-tuner (paper Sections IV-B1 and V-C).

use argo_rt::Config;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::acquisition::Acquisition;
use crate::gp::IncrementalGp;
use crate::space::SearchSpace;
use crate::Searcher;

/// Number of random configurations evaluated before the surrogate is
/// trusted (BayesOpt warm-up).
const INIT_RANDOM: usize = 5;

/// Bayesian-optimization searcher over a [`SearchSpace`]:
/// random warm-up → fit GP on (config, epoch-time) pairs → propose the
/// unobserved configuration with maximal Expected Improvement.
pub struct BayesOpt {
    space: SearchSpace,
    rng: SmallRng,
    observed: Vec<(Config, f64)>,
    observed_idx: Vec<bool>,
    init_order: Vec<usize>,
    pending: Option<Config>,
    acquisition: Acquisition,
    /// Incrementally maintained surrogate over (normalized config,
    /// log epoch time): each observation extends the per-scale Cholesky
    /// factors in O(n²) instead of refitting in O(n³), with bitwise-
    /// identical posteriors.
    surrogate: IncrementalGp<3>,
}

impl BayesOpt {
    /// A tuner over `space`, deterministic in `seed`.
    pub fn new(space: SearchSpace, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut init_order: Vec<usize> = (0..space.len()).collect();
        init_order.shuffle(&mut rng);
        init_order.truncate(INIT_RANDOM.min(space.len()));
        Self {
            observed_idx: vec![false; space.len()],
            space,
            rng,
            observed: Vec::new(),
            init_order,
            pending: None,
            acquisition: Acquisition::ExpectedImprovement,
            surrogate: IncrementalGp::new(),
        }
    }

    /// Replaces the acquisition function (EI is the default; the others
    /// support the acquisition ablation bench).
    pub fn with_acquisition(mut self, acquisition: Acquisition) -> Self {
        self.acquisition = acquisition;
        self
    }

    /// The search space.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// All observations so far.
    pub fn observations(&self) -> &[(Config, f64)] {
        &self.observed
    }

    fn argmax_ei(&mut self) -> Config {
        // The surrogate already holds every (normalized config, log epoch
        // time) pair — `observe` extends it as results arrive, so this is an
        // O(n²) posterior refresh rather than an O(n³) refit.
        let gp = self.surrogate.gp();
        let best = self
            .surrogate
            .targets()
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let mut top: Option<(f64, usize)> = None;
        for i in 0..self.space.len() {
            if self.observed_idx[i] {
                continue;
            }
            let q = self.space.normalize(self.space.get(i));
            let (mean, std) = gp.predict(&q);
            let score = self.acquisition.score(mean, std, best);
            if top.is_none_or(|(t, _)| score > t) {
                top = Some((score, i));
            }
        }
        match top {
            Some((_, i)) => self.space.get(i),
            // Entire space observed: fall back to the incumbent.
            None => self.best().expect("observed something").0,
        }
    }

    fn random_unobserved(&mut self) -> Config {
        use rand::Rng;
        // The shuffled init order guarantees distinct warm-up points; after
        // that, rejection-sample.
        loop {
            let i = self.rng.gen_range(0..self.space.len());
            if !self.observed_idx[i] {
                return self.space.get(i);
            }
        }
    }
}

impl Searcher for BayesOpt {
    fn suggest(&mut self) -> Config {
        if let Some(p) = self.pending {
            return p; // idempotent until observed
        }
        let k = self.observed.len();
        let c = if k < self.init_order.len() {
            self.space.get(self.init_order[k])
        } else if self.observed.len() >= self.space.len() {
            self.best().expect("space exhausted").0
        } else if k < 2 {
            self.random_unobserved()
        } else {
            self.argmax_ei()
        };
        self.pending = Some(c);
        c
    }

    fn observe(&mut self, config: Config, value: f64) {
        assert!(
            value.is_finite() && value > 0.0,
            "objective must be positive"
        );
        if let Some(i) = self.space.index_of(config) {
            self.observed_idx[i] = true;
        }
        // Model log epoch time: multiplicative effects become additive and
        // the GP is less distorted by heavy-tailed slow configs.
        self.surrogate
            .push(self.space.normalize(config), value.max(1e-9).ln());
        self.observed.push((config, value));
        self.pending = None;
    }

    fn best(&self) -> Option<(Config, f64)> {
        self.observed
            .iter()
            .copied()
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    fn name(&self) -> &'static str {
        "Auto-Tuner (BayesOpt)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smooth synthetic objective with a known optimum in the space.
    fn objective(c: Config) -> f64 {
        let p = c.n_proc as f64;
        let s = c.n_samp as f64;
        let t = c.n_train as f64;
        // Optimum near (6, 2, 8).
        1.0 + 0.15 * (p - 6.0).powi(2) + 0.3 * (s - 2.0).powi(2) + 0.02 * (t - 8.0).powi(2)
    }

    fn run(seed: u64, budget: usize) -> (Config, f64) {
        let space = SearchSpace::for_cores(64);
        let mut bo = BayesOpt::new(space, seed);
        for _ in 0..budget {
            let c = bo.suggest();
            bo.observe(c, objective(c));
        }
        bo.best().unwrap()
    }

    #[test]
    fn finds_near_optimum_with_5_percent_budget() {
        let space = SearchSpace::for_cores(64);
        let opt = space
            .configs()
            .iter()
            .map(|&c| objective(c))
            .fold(f64::INFINITY, f64::min);
        // 20 searches ≈ 5% of 362 configs (Table VI, Sapphire Rapids row).
        let mut ok = 0;
        for seed in 0..5 {
            let (_, v) = run(seed, 20);
            if opt / v >= 0.9 {
                ok += 1;
            }
        }
        assert!(ok >= 4, "only {ok}/5 runs reached 90% of optimal");
    }

    #[test]
    fn beats_random_warmup_alone() {
        // After the full budget the incumbent must improve on the warm-up.
        let space = SearchSpace::for_cores(64);
        let mut bo = BayesOpt::new(space, 7);
        let mut warmup_best = f64::INFINITY;
        for i in 0..25 {
            let c = bo.suggest();
            let v = objective(c);
            bo.observe(c, v);
            if i < INIT_RANDOM {
                warmup_best = warmup_best.min(v);
            }
        }
        assert!(bo.best().unwrap().1 <= warmup_best);
    }

    #[test]
    fn suggest_is_idempotent_until_observed() {
        let mut bo = BayesOpt::new(SearchSpace::for_cores(32), 1);
        let a = bo.suggest();
        let b = bo.suggest();
        assert_eq!(a, b);
        bo.observe(a, 1.0);
        // Next suggestion differs (unobserved warm-up point).
        assert_ne!(bo.suggest(), a);
    }

    #[test]
    fn never_repeats_until_space_exhausted() {
        let space = SearchSpace::for_cores(16);
        let n = space.len();
        let mut bo = BayesOpt::new(space, 3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n {
            let c = bo.suggest();
            assert!(seen.insert(c), "repeated {c}");
            bo.observe(c, objective(c));
        }
        // Space exhausted: falls back to the incumbent.
        let c = bo.suggest();
        assert_eq!(c, bo.best().unwrap().0);
    }

    #[test]
    fn deterministic_given_seed_and_objective() {
        assert_eq!(run(42, 15), run(42, 15));
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_objective() {
        let mut bo = BayesOpt::new(SearchSpace::for_cores(16), 1);
        let c = bo.suggest();
        bo.observe(c, 0.0);
    }
}
