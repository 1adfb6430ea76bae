//! Classification metrics beyond plain accuracy: confusion matrix and
//! macro-/micro-averaged F1, the metrics typically reported for the paper's
//! multi-class node-classification datasets (GraphSAINT reports micro-F1
//! for Flickr/Reddit).

use argo_tensor::Matrix;

/// A `classes × classes` confusion matrix: `counts[truth][pred]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfusionMatrix {
    counts: Vec<Vec<usize>>,
}

impl ConfusionMatrix {
    /// An empty matrix over `classes` classes.
    pub fn new(classes: usize) -> Self {
        Self {
            counts: vec![vec![0usize; classes]; classes],
        }
    }

    /// Builds the matrix from logits (argmax prediction) and labels.
    pub fn from_logits(logits: &Matrix, labels: &[u32], classes: usize) -> Self {
        let mut cm = Self::new(classes);
        cm.add_logits(logits, labels);
        cm
    }

    /// Counts one more batch of logits (argmax prediction) and labels.
    pub fn add_logits(&mut self, logits: &Matrix, labels: &[u32]) {
        assert_eq!(logits.rows(), labels.len());
        assert!(logits.cols() <= self.classes(), "class mismatch");
        for (i, &lab) in labels.iter().enumerate() {
            let row = logits.row(i);
            let mut best = 0usize;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            self.counts[lab as usize][best] += 1;
        }
    }

    /// Builds the matrix from hard predictions.
    pub fn from_predictions(preds: &[u32], labels: &[u32], classes: usize) -> Self {
        assert_eq!(preds.len(), labels.len());
        let mut counts = vec![vec![0usize; classes]; classes];
        for (&p, &l) in preds.iter().zip(labels) {
            counts[l as usize][p as usize] += 1;
        }
        Self { counts }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.counts.len()
    }

    /// `counts[truth][pred]`.
    pub fn count(&self, truth: usize, pred: usize) -> usize {
        self.counts[truth][pred]
    }

    /// Total samples.
    pub fn total(&self) -> usize {
        self.counts.iter().flatten().sum()
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        let correct: usize = (0..self.classes()).map(|c| self.counts[c][c]).sum();
        if self.total() == 0 {
            0.0
        } else {
            correct as f64 / self.total() as f64
        }
    }

    fn tp_fp_fn(&self, c: usize) -> (usize, usize, usize) {
        let tp = self.counts[c][c];
        let fp: usize = (0..self.classes())
            .filter(|&t| t != c)
            .map(|t| self.counts[t][c])
            .sum();
        let fnn: usize = (0..self.classes())
            .filter(|&p| p != c)
            .map(|p| self.counts[c][p])
            .sum();
        (tp, fp, fnn)
    }

    /// Per-class F1 (0 when the class never occurs and is never predicted).
    pub fn f1_per_class(&self) -> Vec<f64> {
        (0..self.classes())
            .map(|c| {
                let (tp, fp, fnn) = self.tp_fp_fn(c);
                let denom = 2 * tp + fp + fnn;
                if denom == 0 {
                    0.0
                } else {
                    2.0 * tp as f64 / denom as f64
                }
            })
            .collect()
    }

    /// Macro-averaged F1 (unweighted class mean).
    pub fn macro_f1(&self) -> f64 {
        let f1 = self.f1_per_class();
        f1.iter().sum::<f64>() / f1.len().max(1) as f64
    }

    /// Micro-averaged F1. For single-label multi-class classification this
    /// equals accuracy.
    pub fn micro_f1(&self) -> f64 {
        let (mut tp, mut fp, mut fnn) = (0usize, 0usize, 0usize);
        for c in 0..self.classes() {
            let (a, b, d) = self.tp_fp_fn(c);
            tp += a;
            fp += b;
            fnn += d;
        }
        let denom = 2 * tp + fp + fnn;
        if denom == 0 {
            0.0
        } else {
            2.0 * tp as f64 / denom as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let cm = ConfusionMatrix::from_predictions(&[0, 1, 2, 1], &[0, 1, 2, 1], 3);
        assert_eq!(cm.accuracy(), 1.0);
        assert_eq!(cm.macro_f1(), 1.0);
        assert_eq!(cm.micro_f1(), 1.0);
        assert_eq!(cm.total(), 4);
    }

    #[test]
    fn known_confusion() {
        // truths: [0,0,1,1]; preds: [0,1,1,1]
        let cm = ConfusionMatrix::from_predictions(&[0, 1, 1, 1], &[0, 0, 1, 1], 2);
        assert_eq!(cm.count(0, 0), 1);
        assert_eq!(cm.count(0, 1), 1);
        assert_eq!(cm.count(1, 1), 2);
        assert!((cm.accuracy() - 0.75).abs() < 1e-12);
        // class 0: tp=1 fp=0 fn=1 → f1=2/3; class 1: tp=2 fp=1 fn=0 → 4/5.
        let f1 = cm.f1_per_class();
        assert!((f1[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((f1[1] - 0.8).abs() < 1e-12);
        assert!((cm.macro_f1() - (2.0 / 3.0 + 0.8) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn micro_f1_equals_accuracy_for_single_label() {
        let cm = ConfusionMatrix::from_predictions(&[0, 2, 1, 2, 0], &[0, 1, 1, 2, 2], 3);
        assert!((cm.micro_f1() - cm.accuracy()).abs() < 1e-12);
    }

    #[test]
    fn absent_class_scores_zero() {
        let cm = ConfusionMatrix::from_predictions(&[0, 0], &[0, 0], 3);
        let f1 = cm.f1_per_class();
        assert_eq!(f1[1], 0.0);
        assert_eq!(f1[2], 0.0);
        assert!(cm.macro_f1() < 0.5);
    }

    #[test]
    fn from_logits_argmaxes() {
        let logits = Matrix::from_vec(2, 3, vec![0.1, 0.9, 0.0, 0.7, 0.1, 0.2]);
        let cm = ConfusionMatrix::from_logits(&logits, &[1, 0], 3);
        assert_eq!(cm.accuracy(), 1.0);
    }

    #[test]
    fn empty_is_zero() {
        let cm = ConfusionMatrix::from_predictions(&[], &[], 2);
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.micro_f1(), 0.0);
    }
}
