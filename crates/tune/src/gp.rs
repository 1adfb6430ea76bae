//! A small Gaussian-process regressor (Matérn-5/2 kernel, Cholesky solve)
//! — the BayesOpt surrogate model (paper Section V-C).

/// Dense symmetric-positive-definite solver via Cholesky decomposition.
/// Stores the lower-triangular factor `L` with `A = L Lᵀ`.
#[derive(Clone, Debug)]
pub struct Cholesky {
    n: usize,
    l: Vec<f64>, // row-major lower triangle (full square storage)
}

impl Cholesky {
    /// Factors the `n×n` SPD matrix `a` (row-major). Returns `None` when the
    /// matrix is not positive definite.
    pub fn factor(a: &[f64], n: usize) -> Option<Self> {
        assert_eq!(a.len(), n * n);
        let mut l = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[i * n + j];
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 {
                        return None;
                    }
                    l[i * n + i] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        Some(Self { n, l })
    }

    /// Solves `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n);
        let n = self.n;
        // Forward: L y = b.
        let mut y = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                y[i] -= self.l[i * n + k] * y[k];
            }
            y[i] /= self.l[i * n + i];
        }
        // Backward: Lᵀ x = y.
        let mut x = y;
        for i in (0..n).rev() {
            for k in i + 1..n {
                x[i] -= self.l[k * n + i] * x[k];
            }
            x[i] /= self.l[i * n + i];
        }
        x
    }

    /// Log-determinant of `A` (= 2·Σ log L_ii).
    pub fn log_det(&self) -> f64 {
        (0..self.n)
            .map(|i| self.l[i * self.n + i].ln())
            .sum::<f64>()
            * 2.0
    }

    /// An empty (0×0) factor, ready to be grown with [`Cholesky::extend`].
    pub fn empty() -> Self {
        Self {
            n: 0,
            l: Vec::new(),
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Rank-1 bordering update: grows the factor of `A` to the factor of
    /// `[[A, col], [colᵀ, diag]]` in O(n²) instead of refactoring in O(n³).
    /// Returns `false` (leaving the factor unchanged) when the extended
    /// matrix is not positive definite.
    ///
    /// The bottom row replicates [`Cholesky::factor`]'s exact operation
    /// order, and the first `n` rows of a from-scratch factor only ever read
    /// the leading block, so the incrementally grown factor is **bitwise
    /// identical** to a from-scratch factorization of the extended matrix.
    pub fn extend(&mut self, col: &[f64], diag: f64) -> bool {
        assert_eq!(col.len(), self.n);
        let n = self.n;
        let m = n + 1;
        // Re-lay the existing rows onto the wider stride (values unchanged).
        let mut l = vec![0.0f64; m * m];
        for i in 0..n {
            l[i * m..i * m + n].copy_from_slice(&self.l[i * n..i * n + n]);
        }
        for j in 0..n {
            let mut sum = col[j];
            for k in 0..j {
                sum -= l[m * n + k] * l[j * m + k];
            }
            l[m * n + j] = sum / l[j * m + j];
        }
        let mut sum = diag;
        for k in 0..n {
            sum -= l[m * n + k] * l[m * n + k];
        }
        if sum <= 0.0 {
            return false;
        }
        l[m * n + n] = sum.sqrt();
        self.n = m;
        self.l = l;
        true
    }
}

/// Length-scale grid searched by log-marginal-likelihood maximization.
const LENGTH_SCALES: [f64; 4] = [0.15, 0.3, 0.6, 1.2];

/// Observation noise added to the kernel diagonal.
const NOISE: f64 = 1e-3;

/// Matérn-5/2 covariance between two points at scaled distance `r/ℓ`.
fn matern52(r: f64, length_scale: f64) -> f64 {
    let s = (5.0f64).sqrt() * r / length_scale;
    (1.0 + s + s * s / 3.0) * (-s).exp()
}

fn dist<const D: usize>(a: &[f64; D], b: &[f64; D]) -> f64 {
    let mut d2 = 0.0;
    for k in 0..D {
        let d = a[k] - b[k];
        d2 += d * d;
    }
    d2.sqrt()
}

/// GP posterior over a scalar function of normalized `D`-dimensional
/// configurations (`D = 3` for ARGO's space; higher dimensions support the
/// paper's Section VII-B extension direction).
///
/// Targets are standardized internally; predictions are returned in the
/// original units.
#[derive(Clone, Debug)]
pub struct GaussianProcess<const D: usize = 3> {
    x: Vec<[f64; D]>,
    alpha: Vec<f64>, // (K + σ²I)⁻¹ y (standardized)
    chol: Cholesky,
    length_scale: f64,
    noise: f64,
    y_mean: f64,
    y_std: f64,
}

impl<const D: usize> GaussianProcess<D> {
    /// Fits a GP to `(x, y)`; the length scale is selected from a small grid
    /// by maximizing the log marginal likelihood. Needs at least 2 points.
    pub fn fit(x: &[[f64; D]], y: &[f64]) -> GaussianProcess<D> {
        assert_eq!(x.len(), y.len());
        assert!(x.len() >= 2, "GP needs at least two observations");
        let n = x.len();
        let y_mean = y.iter().sum::<f64>() / n as f64;
        let y_var = y.iter().map(|v| (v - y_mean).powi(2)).sum::<f64>() / n as f64;
        let y_std = y_var.sqrt().max(1e-9);
        let ys: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_std).collect();
        let noise = NOISE;

        // Select the kernel length scale by maximizing the log marginal
        // likelihood over a small grid.
        let mut best: Option<(f64, f64, Cholesky, Vec<f64>)> = None;
        for &ls in &LENGTH_SCALES {
            let mut k = vec![0.0f64; n * n];
            for i in 0..n {
                for j in 0..n {
                    k[i * n + j] = matern52(dist(&x[i], &x[j]), ls);
                }
                k[i * n + i] += noise;
            }
            let Some(chol) = Cholesky::factor(&k, n) else {
                continue;
            };
            let alpha = chol.solve(&ys);
            // log p(y) = −½ yᵀα − ½ log|K| + const.
            let fit_term: f64 = ys.iter().zip(&alpha).map(|(a, b)| a * b).sum();
            let lml = -0.5 * fit_term - 0.5 * chol.log_det();
            if best.as_ref().is_none_or(|(b, _, _, _)| lml > *b) {
                best = Some((lml, ls, chol, alpha));
            }
        }
        let (_, length_scale, chol, alpha) = best.expect("at least one length scale factors");
        GaussianProcess {
            x: x.to_vec(),
            alpha,
            chol,
            length_scale,
            noise,
            y_mean,
            y_std,
        }
    }

    /// The selected kernel length scale.
    pub fn length_scale(&self) -> f64 {
        self.length_scale
    }

    /// Posterior mean and standard deviation at `q` (original units).
    pub fn predict(&self, q: &[f64; D]) -> (f64, f64) {
        let n = self.x.len();
        let mut kstar = vec![0.0f64; n];
        for (k, xi) in kstar.iter_mut().zip(&self.x) {
            *k = matern52(dist(xi, q), self.length_scale);
        }
        let mean_std: f64 = kstar.iter().zip(&self.alpha).map(|(a, b)| a * b).sum();
        let v = self.chol.solve(&kstar);
        let kss = matern52(0.0, self.length_scale) + self.noise;
        let var = (kss - kstar.iter().zip(&v).map(|(a, b)| a * b).sum::<f64>()).max(1e-12);
        (mean_std * self.y_std + self.y_mean, var.sqrt() * self.y_std)
    }
}

/// Candidates per block of [`IncrementalGp::posteriors`]: the candidate
/// index is the innermost loop, so every step of the substitutions is one
/// pass over a block row that the compiler vectorizes across candidates.
const BLOCK: usize = 64;

/// The posterior's inputs at the selected length scale: its index into
/// [`LENGTH_SCALES`] and the per-scale factors, `α = (K + σ²I)⁻¹ y` and the
/// target standardization.
struct Selected {
    scale: usize,
    alpha: Vec<f64>,
    y_mean: f64,
    y_std: f64,
}

/// Incrementally maintained GP state over a fixed candidate set: one
/// growing Cholesky factor per length-scale candidate, extended by a rank-1
/// bordering step per observation, and one cached row of distances from each
/// observation to every candidate. Refitting after the `n`-th observation
/// costs O(n²) per scale instead of [`GaussianProcess::fit`]'s O(n³)
/// refactorization, and [`IncrementalGp::posteriors`] scores every
/// candidate in one blocked pass. Because [`Cholesky::extend`] replicates
/// `factor`'s operation order and every candidate lane repeats
/// [`GaussianProcess::predict`]'s scalar sequence, each posterior is
/// **bitwise identical** to `GaussianProcess::fit(&x, &y).predict(&q)`.
#[derive(Clone, Debug)]
pub struct IncrementalGp<const D: usize = 3> {
    x: Vec<[f64; D]>,
    y: Vec<f64>,
    /// Factor of `K + σ²I` per length scale; `None` once an extension hits a
    /// non-PD pivot (a from-scratch factor of any larger matrix stops at
    /// that same pivot, so the scale stays dead — exactly like `fit`
    /// skipping it).
    chols: [Option<Cholesky>; 4],
    /// The points the posterior is asked about.
    candidates: Vec<[f64; D]>,
    /// `dist(x_i, q_c)`: one row over the candidates per observation.
    dists: Vec<Box<[f64]>>,
    /// One block's `k*` rows and the rows its solve runs in, `n` each.
    kstar: Vec<[f64; BLOCK]>,
    solve: Vec<[f64; BLOCK]>,
    /// `(mean, std)` per candidate, from the last [`IncrementalGp::posteriors`].
    posteriors: Vec<(f64, f64)>,
}

impl<const D: usize> IncrementalGp<D> {
    /// An empty model that will be asked about `candidates`.
    pub fn new(candidates: Vec<[f64; D]>) -> Self {
        Self {
            x: Vec::new(),
            y: Vec::new(),
            chols: std::array::from_fn(|_| Some(Cholesky::empty())),
            candidates,
            dists: Vec::new(),
            kstar: Vec::new(),
            solve: Vec::new(),
            posteriors: Vec::new(),
        }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether no observation has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Observed targets, in push order.
    pub fn targets(&self) -> &[f64] {
        &self.y
    }

    /// Adds one observation: extends every live per-scale factor by its new
    /// kernel row and caches its distance to every candidate.
    pub fn push(&mut self, x: [f64; D], y: f64) {
        let mut col = Vec::with_capacity(self.x.len());
        for (si, &ls) in LENGTH_SCALES.iter().enumerate() {
            if let Some(c) = &mut self.chols[si] {
                col.clear();
                col.extend(self.x.iter().map(|xi| matern52(dist(xi, &x), ls)));
                // Same diagonal as `fit`: matern52(0) is exactly 1.0.
                if !c.extend(&col, matern52(0.0, ls) + NOISE) {
                    self.chols[si] = None;
                }
            }
        }
        // `predict` measures from the observation to the query.
        self.dists
            .push(self.candidates.iter().map(|q| dist(&x, q)).collect());
        self.x.push(x);
        self.y.push(y);
    }

    /// The length scale `fit` would select on everything pushed so far, with
    /// its `α` and the target standardization — `fit`'s own sequence.
    fn select(&self) -> Selected {
        let n = self.y.len();
        assert!(n >= 2, "GP needs at least two observations");
        let y_mean = self.y.iter().sum::<f64>() / n as f64;
        let y_var = self.y.iter().map(|v| (v - y_mean).powi(2)).sum::<f64>() / n as f64;
        let y_std = y_var.sqrt().max(1e-9);
        let ys: Vec<f64> = self.y.iter().map(|v| (v - y_mean) / y_std).collect();
        let mut best: Option<(f64, usize, Vec<f64>)> = None;
        for (si, chol) in self.chols.iter().enumerate() {
            let Some(chol) = chol else {
                continue;
            };
            let alpha = chol.solve(&ys);
            let fit_term: f64 = ys.iter().zip(&alpha).map(|(a, b)| a * b).sum();
            let lml = -0.5 * fit_term - 0.5 * chol.log_det();
            if best.as_ref().is_none_or(|(b, _, _)| lml > *b) {
                best = Some((lml, si, alpha));
            }
        }
        let (_, scale, alpha) = best.expect("at least one length scale factors");
        Selected {
            scale,
            alpha,
            y_mean,
            y_std,
        }
    }

    /// The posterior `(mean, std)` at every candidate, in candidate order —
    /// each bitwise identical to `GaussianProcess::fit(&x, &y).predict(q)`
    /// on everything pushed so far. Needs ≥ 2 points.
    ///
    /// Walks the candidates in blocks of 64 with the candidate index
    /// innermost: the selected scale's kernel values from the cached
    /// distances, `Cholesky::solve`'s forward and back substitutions, then
    /// the `k*ᵀα` and `k*ᵀv` dots. Each lane runs `predict`'s exact scalar
    /// sequence: a separate multiply and subtract, the same divisions, and
    /// sums over `i` ascending from `-0.0`, as `Iterator::sum` starts.
    pub fn posteriors(&mut self) -> &[(f64, f64)] {
        let Selected {
            scale,
            alpha,
            y_mean,
            y_std,
        } = self.select();
        let length_scale = LENGTH_SCALES[scale];
        let chol = self.chols[scale]
            .as_ref()
            .expect("the selected scale factors");
        let (n, l) = (chol.n, &chol.l);
        let m = self.candidates.len();
        let kss = matern52(0.0, length_scale) + NOISE;
        self.kstar.resize(n, [0.0; BLOCK]);
        self.solve.resize(n, [0.0; BLOCK]);
        self.posteriors.clear();
        for c0 in (0..m).step_by(BLOCK) {
            let width = BLOCK.min(m - c0);
            for (row, d) in self.kstar.iter_mut().zip(&self.dists) {
                for (k, &r) in row.iter_mut().zip(&d[c0..c0 + width]) {
                    *k = matern52(r, length_scale);
                }
                row[width..].fill(0.0);
            }
            // Forward: L y = k*.
            for i in 0..n {
                let (done, rest) = self.solve.split_at_mut(i);
                let yi = &mut rest[0];
                *yi = self.kstar[i];
                for (k, yk) in done.iter().enumerate() {
                    let lik = l[i * n + k];
                    for c in 0..BLOCK {
                        yi[c] -= lik * yk[c];
                    }
                }
                let lii = l[i * n + i];
                for v in yi.iter_mut() {
                    *v /= lii;
                }
            }
            // Backward: Lᵀ v = y.
            for i in (0..n).rev() {
                let (head, later) = self.solve.split_at_mut(i + 1);
                let xi = &mut head[i];
                for (k, xk) in (i + 1..n).zip(later.iter()) {
                    let lki = l[k * n + i];
                    for c in 0..BLOCK {
                        xi[c] -= lki * xk[c];
                    }
                }
                let lii = l[i * n + i];
                for v in xi.iter_mut() {
                    *v /= lii;
                }
            }
            let mut mean = [-0.0f64; BLOCK];
            let mut kv = [-0.0f64; BLOCK];
            for ((ks, v), &a) in self.kstar.iter().zip(&self.solve).zip(&alpha) {
                for c in 0..BLOCK {
                    mean[c] += ks[c] * a;
                    kv[c] += ks[c] * v[c];
                }
            }
            for (&mean_std, &kv) in mean.iter().zip(&kv).take(width) {
                let var = (kss - kv).max(1e-12);
                self.posteriors
                    .push((mean_std * y_std + y_mean, var.sqrt() * y_std));
            }
        }
        &self.posteriors
    }

    /// Bytes of heap capacity the model holds: observations, per-scale
    /// factors, candidates, cached distances, block scratch and posteriors.
    pub fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        let chols: usize = self.chols.iter().flatten().map(|c| c.l.capacity()).sum();
        self.x.capacity() * size_of::<[f64; D]>()
            + self.y.capacity() * size_of::<f64>()
            + chols * size_of::<f64>()
            + self.candidates.capacity() * size_of::<[f64; D]>()
            + self.dists.capacity() * size_of::<Box<[f64]>>()
            + self
                .dists
                .iter()
                .map(|d| d.len() * size_of::<f64>())
                .sum::<usize>()
            + (self.kstar.capacity() + self.solve.capacity()) * size_of::<[f64; BLOCK]>()
            + self.posteriors.capacity() * size_of::<(f64, f64)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cholesky_solves_spd_system() {
        // A = [[4,2],[2,3]], b = [10, 9] → x = [1.5, 2.0]
        let a = vec![4.0, 2.0, 2.0, 3.0];
        let c = Cholesky::factor(&a, 2).unwrap();
        let x = c.solve(&[10.0, 9.0]);
        assert!((x[0] - 1.5).abs() < 1e-10);
        assert!((x[1] - 2.0).abs() < 1e-10);
        // log det = ln(4·3 − 4) = ln 8.
        assert!((c.log_det() - 8.0f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = vec![1.0, 2.0, 2.0, 1.0]; // eigenvalues 3, −1
        assert!(Cholesky::factor(&a, 2).is_none());
    }

    #[test]
    fn extend_matches_from_scratch_factor_bitwise() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let n = 8usize;
        let mut rng = SmallRng::seed_from_u64(42);
        let b: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        // SPD by construction: A = B Bᵀ + n·I.
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                a[i * n + j] = (0..n).map(|k| b[i * n + k] * b[j * n + k]).sum::<f64>();
            }
            a[i * n + i] += n as f64;
        }
        let mut inc = Cholesky::empty();
        for k in 0..n {
            let col: Vec<f64> = (0..k).map(|j| a[k * n + j]).collect();
            assert!(inc.extend(&col, a[k * n + k]), "PD extension refused");
            let m = k + 1;
            let mut block = Vec::with_capacity(m * m);
            for i in 0..m {
                for j in 0..m {
                    block.push(a[i * n + j]);
                }
            }
            let full = Cholesky::factor(&block, m).unwrap();
            assert_eq!(inc.dim(), m);
            for (x, y) in inc.l.iter().zip(&full.l) {
                assert_eq!(x.to_bits(), y.to_bits(), "factor drifted at n={m}");
            }
        }
    }

    #[test]
    fn extend_rejects_non_pd_extension() {
        let mut c = Cholesky::factor(&[1.0], 1).unwrap();
        // [[1,2],[2,1]] has eigenvalues 3 and −1.
        assert!(!c.extend(&[2.0], 1.0));
        // The factor is untouched and still usable.
        assert_eq!(c.dim(), 1);
        assert_eq!(c.solve(&[3.0]), vec![3.0]);
    }

    /// Every candidate of both paper spaces, at every `n` from 2 to the
    /// larger paper budget: each batched posterior is the oracle's, bit for
    /// bit.
    #[test]
    fn incremental_gp_matches_fit_bitwise() {
        use crate::space::SearchSpace;
        use rand::rngs::SmallRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        for (cores, budget) in [(112usize, 45usize), (64, 25)] {
            let space = SearchSpace::for_cores(cores);
            let candidates: Vec<[f64; 3]> = space
                .configs()
                .iter()
                .map(|&c| space.normalize(c))
                .collect();
            let mut order: Vec<usize> = (0..space.len()).collect();
            order.shuffle(&mut SmallRng::seed_from_u64(cores as u64));
            let (mut xs, mut ys) = (Vec::new(), Vec::new());
            let mut inc = IncrementalGp::<3>::new(candidates.clone());
            for &i in &order[..budget] {
                let c = space.get(i);
                let (p, s, t) = (c.n_proc as f64, c.n_samp as f64, c.n_train as f64);
                let y = (1.0 + 0.15 * (p - 6.0).powi(2) + 0.3 * (s - 2.0).powi(2) + 3.0 / t).ln();
                xs.push(candidates[i]);
                ys.push(y);
                inc.push(candidates[i], y);
                if inc.len() < 2 {
                    continue;
                }
                let oracle = GaussianProcess::fit(&xs, &ys);
                let posteriors = inc.posteriors();
                assert_eq!(posteriors.len(), candidates.len());
                for (q, &(mean, std)) in candidates.iter().zip(posteriors) {
                    let (m, s) = oracle.predict(q);
                    let n = xs.len();
                    assert_eq!(mean.to_bits(), m.to_bits(), "{cores} cores, n={n}, {q:?}");
                    assert_eq!(std.to_bits(), s.to_bits(), "{cores} cores, n={n}, {q:?}");
                }
            }
        }
    }

    #[test]
    fn matern_properties() {
        assert!((matern52(0.0, 0.5) - 1.0).abs() < 1e-12);
        assert!(matern52(0.1, 0.5) > matern52(0.5, 0.5));
        assert!(matern52(10.0, 0.5) < 1e-6);
    }

    #[test]
    fn gp_interpolates_observations() {
        let x = vec![
            [0.0, 0.0, 0.0],
            [0.5, 0.2, 0.1],
            [1.0, 1.0, 1.0],
            [0.2, 0.8, 0.4],
        ];
        let y = vec![3.0, 1.0, 5.0, 2.0];
        let gp = GaussianProcess::fit(&x, &y);
        for (xi, yi) in x.iter().zip(&y) {
            let (m, s) = gp.predict(xi);
            assert!((m - yi).abs() < 0.3, "mean {m} vs {yi}");
            assert!(s < 0.6, "posterior std {s} at observed point");
        }
    }

    #[test]
    fn gp_uncertainty_grows_away_from_data() {
        let x = vec![[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.1, 0.0]];
        let y = vec![1.0, 1.1, 0.9];
        let gp = GaussianProcess::fit(&x, &y);
        let (_, s_near) = gp.predict(&[0.05, 0.05, 0.0]);
        let (_, s_far) = gp.predict(&[1.0, 1.0, 1.0]);
        assert!(s_far > 2.0 * s_near, "near {s_near} far {s_far}");
    }

    #[test]
    fn gp_handles_constant_targets() {
        let x = vec![[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]];
        let y = vec![2.0, 2.0, 2.0];
        let gp = GaussianProcess::fit(&x, &y);
        let (m, s) = gp.predict(&[0.5, 0.5, 0.5]);
        assert!((m - 2.0).abs() < 1e-6);
        assert!(s.is_finite());
    }

    #[test]
    fn gp_learns_smooth_function() {
        // f(x) = sin(2πx₀) sampled on a grid; check held-out prediction.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..12 {
            let t = i as f64 / 11.0;
            x.push([t, 0.0, 0.0]);
            y.push((2.0 * std::f64::consts::PI * t).sin());
        }
        let gp = GaussianProcess::fit(&x, &y);
        let q = [0.37, 0.0, 0.0];
        let truth = (2.0 * std::f64::consts::PI * 0.37).sin();
        let (m, _) = gp.predict(&q);
        assert!((m - truth).abs() < 0.15, "pred {m} vs {truth}");
    }
}
