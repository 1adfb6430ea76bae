//! Element-wise and loss kernels with their backward passes.

use crate::dense::Matrix;

/// In-place ReLU; returns the activation mask needed by the backward pass.
pub fn relu_inplace(x: &mut Matrix) -> Vec<bool> {
    let mut mask = Vec::with_capacity(x.data().len());
    for v in x.data_mut().iter_mut() {
        let active = *v > 0.0;
        mask.push(active);
        if !active {
            *v = 0.0;
        }
    }
    mask
}

/// Backward of ReLU: zeroes gradient where the activation was clipped.
pub fn relu_backward(grad: &mut Matrix, mask: &[bool]) {
    assert_eq!(grad.data().len(), mask.len(), "relu mask mismatch");
    for (g, &m) in grad.data_mut().iter_mut().zip(mask) {
        if !m {
            *g = 0.0;
        }
    }
}

/// [`relu_backward`] with the mask read off the ReLU *output*: `out` is
/// `z if z > 0 else 0`, so `out > 0` is exactly the activation mask and a
/// layer that keeps its output until backward need not record one.
pub fn relu_backward_from_output(grad: &mut Matrix, out: &Matrix) {
    assert_eq!(grad.data().len(), out.data().len(), "relu output mismatch");
    // A select, not a conditional store: this form vectorizes.
    for (g, &o) in grad.data_mut().iter_mut().zip(out.data()) {
        *g = if o > 0.0 { *g } else { 0.0 };
    }
}

/// Adds the bias row vector to every row of `x`.
pub fn add_bias(x: &mut Matrix, bias: &[f32]) {
    assert_eq!(x.cols(), bias.len(), "bias length mismatch");
    for r in 0..x.rows() {
        for (v, b) in x.row_mut(r).iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// Bias gradient: column-wise sum of the output gradient.
pub fn bias_grad(dy: &Matrix) -> Vec<f32> {
    let mut g = vec![0.0f32; dy.cols()];
    bias_grad_into(dy, &mut g);
    g
}

/// [`bias_grad`] into a caller-provided (model-owned) buffer, so the
/// per-layer `db` allocation is reused across training steps.
pub fn bias_grad_into(dy: &Matrix, out: &mut [f32]) {
    assert_eq!(out.len(), dy.cols(), "bias grad length mismatch");
    out.fill(0.0);
    for r in 0..dy.rows() {
        for (acc, v) in out.iter_mut().zip(dy.row(r)) {
            *acc += v;
        }
    }
}

/// Softmax cross-entropy over rows of `logits` against integer `labels`.
///
/// Returns `(mean_loss, dlogits)` where `dlogits` is the gradient of the
/// *mean* loss (already divided by the batch size) — matching what a DDP
/// process computes on its local mini-batch before gradient averaging.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[u32]) -> (f32, Matrix) {
    let mut grad = Matrix::zeros(logits.rows(), logits.cols());
    let loss = softmax_cross_entropy_into(logits, labels, &mut grad);
    (loss, grad)
}

/// [`softmax_cross_entropy`] with the gradient written into `grad` (same
/// shape as `logits`, every element overwritten); returns the mean loss.
pub fn softmax_cross_entropy_into(logits: &Matrix, labels: &[u32], grad: &mut Matrix) -> f32 {
    assert_eq!(logits.rows(), labels.len(), "labels length mismatch");
    assert!(logits.rows() > 0, "empty batch");
    let n = logits.rows();
    let c = logits.cols();
    assert_eq!((grad.rows(), grad.cols()), (n, c), "gradient shape");
    let mut loss = 0.0f64;
    let inv_n = 1.0 / n as f32;
    for (i, &lab) in labels.iter().enumerate() {
        let row = logits.row(i);
        let label = lab as usize;
        assert!(label < c, "label {label} out of range {c}");
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for &v in row {
            denom += (v - max).exp();
        }
        let log_denom = denom.ln();
        loss += f64::from(log_denom - (row[label] - max));
        let grow = grad.row_mut(i);
        for (j, &v) in row.iter().enumerate() {
            let p = (v - max).exp() / denom;
            grow[j] = (p - if j == label { 1.0 } else { 0.0 }) * inv_n;
        }
    }
    (loss / n as f64) as f32
}

/// Fraction of rows whose argmax equals the label.
pub fn accuracy(logits: &Matrix, labels: &[u32]) -> f64 {
    assert_eq!(logits.rows(), labels.len());
    if labels.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    for (i, &lab) in labels.iter().enumerate() {
        let row = logits.row(i);
        let mut best = 0usize;
        for (j, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = j;
            }
        }
        if best == lab as usize {
            correct += 1;
        }
    }
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clips_and_masks() {
        let mut x = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -0.5]);
        let mask = relu_inplace(&mut x);
        assert_eq!(x.data(), &[0.0, 0.0, 2.0, 0.0]);
        assert_eq!(mask, vec![false, false, true, false]);
    }

    #[test]
    fn relu_backward_masks_grad() {
        let mut g = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        relu_backward(&mut g, &[true, false, true]);
        assert_eq!(g.data(), &[1.0, 0.0, 3.0]);
        // The output-derived form agrees with the recorded mask, including
        // at the z = 0 and z = -0 edges (clipped, not active).
        let mut x = Matrix::from_vec(1, 5, vec![-1.0, 0.0, 2.0, -0.0, 1e-30]);
        let mask = relu_inplace(&mut x);
        let mut a = Matrix::from_vec(1, 5, vec![1.0; 5]);
        let mut b = a.clone();
        relu_backward(&mut a, &mask);
        relu_backward_from_output(&mut b, &x);
        assert_eq!(a.data(), b.data());
        assert_eq!(a.data(), &[0.0, 0.0, 1.0, 0.0, 1.0]);
        // A NaN or negative-zero gradient passes through an active unit
        // bit for bit and is cleared to +0 by a clipped one.
        let odd = [f32::NAN, -0.0, f32::NAN, -0.0];
        let mut g = Matrix::from_vec(1, 4, odd.to_vec());
        relu_backward_from_output(&mut g, &Matrix::from_vec(1, 4, vec![1.0, 1.0, 0.0, 0.0]));
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(g.data()), bits(&[odd[0], odd[1], 0.0, 0.0]));
    }

    #[test]
    fn bias_roundtrip() {
        let mut x = Matrix::zeros(2, 3);
        add_bias(&mut x, &[1.0, 2.0, 3.0]);
        assert_eq!(x.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(x.row(1), &[1.0, 2.0, 3.0]);
        let g = bias_grad(&x);
        assert_eq!(g, vec![2.0, 4.0, 6.0]);
        // The sum's order: from `+0`, rows ascending. Column 1's rows
        // `1, 1e8, -1e8` sum to 0 that way (the 1 is lost in `1 + 1e8`) and
        // to 1 descending; column 0's `-0` rows leave `+0`.
        let dy = Matrix::from_vec(3, 2, vec![-0.0, 1.0, -0.0, 1e8, -0.0, -1e8]);
        let ascending = |c: usize| (0..3).fold(0.0f32, |acc, r| acc + dy.get(r, c));
        let g: Vec<u32> = bias_grad(&dy).iter().map(|v| v.to_bits()).collect();
        assert_eq!(g, [0.0f32.to_bits(); 2]);
        assert_eq!(g, [ascending(0).to_bits(), ascending(1).to_bits()]);
    }

    #[test]
    fn xent_uniform_logits() {
        // Uniform logits over c classes: loss = ln(c).
        let logits = Matrix::zeros(2, 4);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0, 3]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
        // Gradient rows sum to zero.
        for i in 0..2 {
            let s: f32 = grad.row(i).iter().sum();
            assert!(s.abs() < 1e-6);
        }
        // True-class entry negative, others positive.
        assert!(grad.get(0, 0) < 0.0 && grad.get(0, 1) > 0.0);
    }

    #[test]
    fn xent_confident_correct_is_low_loss() {
        let logits = Matrix::from_vec(1, 3, vec![10.0, -10.0, -10.0]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss < 1e-3, "loss {loss}");
    }

    #[test]
    fn xent_gradient_matches_finite_difference() {
        let logits = Matrix::from_vec(2, 3, vec![0.5, -0.2, 0.1, 1.0, 0.0, -1.0]);
        let labels = [2u32, 0u32];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..3 {
                let mut plus = logits.clone();
                plus.set(r, c, plus.get(r, c) + eps);
                let mut minus = logits.clone();
                minus.set(r, c, minus.get(r, c) - eps);
                let (lp, _) = softmax_cross_entropy(&plus, &labels);
                let (lm, _) = softmax_cross_entropy(&minus, &labels);
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - grad.get(r, c)).abs() < 1e-3,
                    "fd {fd} vs analytic {} at ({r},{c})",
                    grad.get(r, c)
                );
            }
        }
    }

    #[test]
    fn xent_is_stable_for_large_logits() {
        let logits = Matrix::from_vec(1, 2, vec![1000.0, -1000.0]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss.is_finite());
        assert!(grad.data().iter().all(|g| g.is_finite()));
    }

    #[test]
    fn accuracy_counts() {
        let logits = Matrix::from_vec(3, 2, vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(accuracy(&Matrix::zeros(0, 2), &[]), 0.0);
    }

    #[test]
    #[should_panic]
    fn label_out_of_range_panics() {
        softmax_cross_entropy(&Matrix::zeros(1, 2), &[5]);
    }
}
