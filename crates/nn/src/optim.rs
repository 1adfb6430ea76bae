//! Optimizers over flattened parameter vectors.
//!
//! The Multi-Process Engine averages gradients across processes and then
//! applies one *identical* optimizer step on every process (synchronous SGD,
//! paper Section IV-B2), so optimizers operate on the flat layout produced
//! by [`crate::Gnn::params_flat`].

/// A first-order optimizer over a flat parameter vector.
pub trait Optimizer {
    /// Applies one update of `params` from `grads`.
    fn step(&mut self, params: &mut [f32], grads: &[f32]);
}

/// Plain SGD with optional momentum.
#[derive(Clone, Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    /// SGD over `dim` parameters.
    pub fn new(dim: usize, lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0 && (0.0..1.0).contains(&momentum));
        Self {
            lr,
            momentum,
            velocity: vec![0.0; dim],
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), self.velocity.len());
        assert_eq!(params.len(), grads.len());
        for ((p, g), v) in params.iter_mut().zip(grads).zip(self.velocity.iter_mut()) {
            *v = self.momentum * *v + g;
            *p -= self.lr * *v;
        }
    }
}

/// Adam (Kingma & Ba 2015) with the standard bias correction.
#[derive(Clone, Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Adam over `dim` parameters with defaults β1=0.9, β2=0.999, ε=1e-8.
    pub fn new(dim: usize, lr: f32) -> Self {
        assert!(lr > 0.0);
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: vec![0.0; dim],
            v: vec![0.0; dim],
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), self.m.len());
        assert_eq!(params.len(), grads.len());
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let mhat = self.m[i] / b1t;
            let vhat = self.v[i] / b2t;
            params[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }
}

/// Which optimizer an engine should build.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OptimizerKind {
    /// SGD with the given momentum.
    Sgd {
        /// Momentum coefficient in `[0, 1)`.
        momentum: f32,
    },
    /// Adam with default betas.
    Adam,
}

/// A concrete optimizer that is `Clone` (needed because every DDP replica
/// carries an identical optimizer-state copy).
#[derive(Clone, Debug)]
pub enum AnyOptimizer {
    /// SGD state.
    Sgd(Sgd),
    /// Adam state.
    Adam(Adam),
}

impl AnyOptimizer {
    /// Builds the optimizer described by `kind` over `dim` parameters.
    pub fn build(kind: OptimizerKind, dim: usize, lr: f32) -> Self {
        match kind {
            OptimizerKind::Sgd { momentum } => AnyOptimizer::Sgd(Sgd::new(dim, lr, momentum)),
            OptimizerKind::Adam => AnyOptimizer::Adam(Adam::new(dim, lr)),
        }
    }
}

impl Optimizer for AnyOptimizer {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        match self {
            AnyOptimizer::Sgd(s) => s.step(params, grads),
            AnyOptimizer::Adam(a) => a.step(params, grads),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_descend(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        // Minimize f(x) = x² starting at x = 2; gradient 2x.
        let mut x = vec![2.0f32];
        for _ in 0..steps {
            let g = vec![2.0 * x[0]];
            opt.step(&mut x, &g);
        }
        x[0].abs()
    }

    #[test]
    fn sgd_descends_quadratic() {
        let mut opt = Sgd::new(1, 0.1, 0.0);
        assert!(quadratic_descend(&mut opt, 50) < 1e-3);
    }

    #[test]
    fn sgd_momentum_descends() {
        let mut opt = Sgd::new(1, 0.05, 0.9);
        assert!(quadratic_descend(&mut opt, 200) < 1e-2);
    }

    #[test]
    fn adam_descends_quadratic() {
        let mut opt = Adam::new(1, 0.1);
        assert!(quadratic_descend(&mut opt, 300) < 1e-2);
    }

    #[test]
    fn adam_first_step_magnitude_is_lr() {
        // Bias correction makes the very first Adam update ≈ lr * sign(g).
        let mut opt = Adam::new(1, 0.01);
        let mut x = vec![0.0f32];
        opt.step(&mut x, &[3.7]);
        assert!((x[0] + 0.01).abs() < 1e-4, "step was {}", x[0]);
    }

    #[test]
    fn identical_inputs_give_identical_trajectories() {
        // DDP requirement: every process applies the same step.
        let mut a = Adam::new(3, 0.05);
        let mut b = Adam::new(3, 0.05);
        let mut xa = vec![1.0, -2.0, 0.5];
        let mut xb = xa.clone();
        for t in 0..20 {
            let g: Vec<f32> = xa.iter().map(|x| x * 0.3 + t as f32 * 0.01).collect();
            a.step(&mut xa, &g);
            b.step(&mut xb, &g);
        }
        assert_eq!(xa, xb);
    }

    #[test]
    fn any_optimizer_dispatches() {
        let mut s = AnyOptimizer::build(OptimizerKind::Sgd { momentum: 0.0 }, 1, 0.1);
        assert!(quadratic_descend(&mut s, 50) < 1e-3);
        let mut a = AnyOptimizer::build(OptimizerKind::Adam, 1, 0.1);
        assert!(quadratic_descend(&mut a, 300) < 1e-2);
    }

    #[test]
    #[should_panic]
    fn dim_mismatch_panics() {
        let mut opt = Sgd::new(2, 0.1, 0.0);
        let mut x = vec![0.0f32; 3];
        opt.step(&mut x, &[1.0, 2.0, 3.0]);
    }
}
