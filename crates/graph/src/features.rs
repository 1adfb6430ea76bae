//! Dense node-feature storage and synthetic feature/label generation.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::generators::community_of;
use crate::NodeId;

/// Row-major `num_nodes x dim` node-feature matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Features {
    data: Vec<f32>,
    dim: usize,
}

impl Features {
    /// Wraps raw data; `data.len()` must be a multiple of `dim`.
    pub fn new(data: Vec<f32>, dim: usize) -> Self {
        assert!(
            dim > 0 && data.len().is_multiple_of(dim),
            "data not a multiple of dim"
        );
        Self { data, dim }
    }

    /// All-zero features for `n` nodes.
    pub fn zeros(n: usize, dim: usize) -> Self {
        Self::new(vec![0.0; n * dim], dim)
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn num_nodes(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Feature row of node `v`.
    pub fn row(&self, v: NodeId) -> &[f32] {
        let d = self.dim;
        &self.data[v as usize * d..(v as usize + 1) * d]
    }

    /// Mutable feature row.
    pub fn row_mut(&mut self, v: NodeId) -> &mut [f32] {
        let d = self.dim;
        &mut self.data[v as usize * d..(v as usize + 1) * d]
    }

    /// Contiguous storage.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Gathers rows `ids` into `out`, a row-major `ids.len() x dim` buffer
    /// the caller owns and recycles (the `index_select` operation the paper
    /// identifies as the memory-bandwidth-bound phase of GNN training,
    /// Figure 2). Every element of `out` is overwritten; nothing allocates.
    pub fn gather_into(&self, ids: &[NodeId], out: &mut [f32]) {
        let d = self.dim;
        assert_eq!(out.len(), ids.len() * d, "output buffer shape mismatch");
        for (dst, &v) in out.chunks_exact_mut(d).zip(ids) {
            dst.copy_from_slice(self.row(v));
        }
    }

    /// [`Features::gather_into`] into a fresh matrix, for callers that keep
    /// the rows.
    pub fn gather(&self, ids: &[NodeId]) -> Features {
        let mut out = vec![0.0; ids.len() * self.dim];
        self.gather_into(ids, &mut out);
        Features::new(out, self.dim)
    }
}

/// Synthesizes learnable `dim`-dimensional features for a planted-community
/// graph: each community gets a random unit-ish prototype vector; node
/// features are `prototype + noise`.
///
/// With `noise` well below 1 a linear classifier can recover the community,
/// so GNN training on these features converges — which is what the
/// correctness experiment (Figure 9) needs.
pub fn community_features(
    num_nodes: usize,
    dim: usize,
    num_communities: usize,
    noise: f32,
    seed: u64,
) -> (Features, Vec<u32>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut prototypes = vec![0.0f32; num_communities * dim];
    for p in prototypes.iter_mut() {
        *p = rng.gen_range(-1.0..1.0);
    }
    let mut data = vec![0.0f32; num_nodes * dim];
    let mut labels = vec![0u32; num_nodes];
    for v in 0..num_nodes {
        let c = community_of(v as NodeId, num_nodes, num_communities);
        labels[v] = c as u32;
        let proto = &prototypes[c * dim..(c + 1) * dim];
        for (x, p) in data[v * dim..(v + 1) * dim].iter_mut().zip(proto) {
            *x = *p + rng.gen_range(-noise..noise);
        }
    }
    (Features::new(data, dim), labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_rows() {
        let f = Features::new(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3);
        assert_eq!(f.num_nodes(), 2);
        assert_eq!(f.dim(), 3);
        assert_eq!(f.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn zeros() {
        let f = Features::zeros(4, 2);
        assert_eq!(f.num_nodes(), 4);
        assert!(f.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic]
    fn bad_shape_panics() {
        Features::new(vec![1.0; 5], 2);
    }

    #[test]
    fn gather_selects_rows() {
        let f = Features::new((0..12).map(|x| x as f32).collect(), 4);
        let g = f.gather(&[2, 0]);
        assert_eq!(g.row(0), &[8.0, 9.0, 10.0, 11.0]);
        assert_eq!(g.row(1), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn gather_into_overwrites_a_recycled_buffer() {
        let f = Features::new((0..20).map(|x| x as f32 * 0.5).collect(), 5);
        let ids = [3u32, 1, 3, 0];
        let mut out = vec![-1.0f32; ids.len() * 5];
        f.gather_into(&ids, &mut out);
        assert_eq!(out, f.gather(&ids).data());
        assert_eq!(&out[..5], f.row(3));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn gather_into_rejects_a_misshapen_buffer() {
        let f = Features::zeros(4, 3);
        f.gather_into(&[0, 1], &mut [0.0; 5]);
    }

    #[test]
    fn row_mut_writes() {
        let mut f = Features::zeros(2, 2);
        f.row_mut(1)[0] = 7.0;
        assert_eq!(f.row(1), &[7.0, 0.0]);
    }

    #[test]
    fn community_features_separable() {
        let (f, labels) = community_features(200, 16, 4, 0.1, 9);
        assert_eq!(f.num_nodes(), 200);
        assert_eq!(labels.len(), 200);
        // Nodes of the same community are closer to each other than to nodes
        // of a different community (centroid check).
        let mut centroids = vec![vec![0.0f32; 16]; 4];
        let mut counts = vec![0usize; 4];
        for v in 0..200u32 {
            let c = labels[v as usize] as usize;
            counts[c] += 1;
            for (a, b) in centroids[c].iter_mut().zip(f.row(v)) {
                *a += b;
            }
        }
        for (c, cnt) in centroids.iter_mut().zip(&counts) {
            for a in c.iter_mut() {
                *a /= *cnt as f32;
            }
        }
        let mut correct = 0;
        for v in 0..200u32 {
            let best = (0..4)
                .min_by(|&a, &b| {
                    let da: f32 = centroids[a]
                        .iter()
                        .zip(f.row(v))
                        .map(|(c, x)| (c - x).powi(2))
                        .sum();
                    let db: f32 = centroids[b]
                        .iter()
                        .zip(f.row(v))
                        .map(|(c, x)| (c - x).powi(2))
                        .sum();
                    da.total_cmp(&db)
                })
                .unwrap();
            if best == labels[v as usize] as usize {
                correct += 1;
            }
        }
        assert!(correct > 190, "nearest-centroid accuracy {correct}/200");
    }

    #[test]
    fn community_features_deterministic() {
        let a = community_features(50, 8, 3, 0.2, 5);
        let b = community_features(50, 8, 3, 0.2, 5);
        assert_eq!(a, b);
    }
}
