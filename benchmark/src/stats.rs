//! Robust summaries: medians, quartiles, and the tail rule of the benchmark.

/// How many samples must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The highest tail percentile reported, however many samples there are.
const TAIL_CAP: f64 = 0.99;

/// Linear-interpolated quantile of an already sorted sample (`q` in 0..=1).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `q` of an unsorted sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(xs), q)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Mean of the samples between the first and the last tenth of the sorted
/// sample.
pub fn interdecile_mean(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let cut = s.len() / 10;
    mean(&s[cut..s.len() - cut])
}

/// Geometric mean of a sample of positive values.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    mean(&xs.iter().map(|x| x.ln()).collect::<Vec<_>>()).exp()
}

/// Median, quartiles and sample count of one metric.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Self {
        let s = sorted(xs);
        Self {
            n: s.len(),
            q1: quantile_sorted(&s, 0.25),
            median: quantile_sorted(&s, 0.5),
            q3: quantile_sorted(&s, 0.75),
        }
    }
}

/// The tail of a timing sample: the highest percentile that still has
/// [`TAIL_BEYOND`] samples beyond it, at least the median and at most p99.
/// Returns the percentile used (as a fraction) and its value.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let p = (1.0 - TAIL_BEYOND as f64 / s.len().max(1) as f64).clamp(0.5, TAIL_CAP);
    (p, quantile_sorted(&s, p))
}
