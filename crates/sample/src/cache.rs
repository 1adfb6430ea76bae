//! What is left of the cross-batch feature cache: a stub.
//!
//! The cache held feature rows in front of the feature table. Both lived in
//! DRAM, and since the loader's prologue aggregates layer 0 in one pass over
//! the table ([`PreparedInput::prepare`](crate::PreparedInput::prepare)), a
//! cached prologue — copy `n_src × F` rows, then aggregate the copy — was
//! strictly more work (DESIGN.md §7 has the measurement). So the cache is
//! gone. [`FeatureCache`] and [`CacheStats`] stay only because the benchmark
//! builds against them (ROADMAP 11.8): a gather through the stub is a plain
//! gather from the table, and its counters stay zero.

use argo_graph::{Features, NodeId};

/// Cache counters. The stub never counts, so every field is 0.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to the backing [`Features`].
    pub misses: u64,
    /// Rows displaced from the cache.
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let n = self.lookups();
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }

    /// Counters accumulated since `earlier`, a prior snapshot.
    pub fn delta(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
        }
    }
}

/// A feature "cache" that holds nothing: every gather reads the table.
pub struct FeatureCache;

impl FeatureCache {
    /// The stub; both sizes are ignored.
    pub fn new(_capacity_rows: usize, _dim: usize) -> Self {
        FeatureCache
    }

    /// Rows `ids` of `feats`, row-major in a fresh buffer: exactly what
    /// `feats.gather_into(ids, ..)` writes.
    pub fn gather_rows(&self, feats: &Features, ids: &[NodeId]) -> Vec<f32> {
        let mut out = vec![0.0f32; ids.len() * feats.dim()];
        feats.gather_into(ids, &mut out);
        out
    }

    /// All zero: the stub never counts.
    pub fn stats(&self) -> CacheStats {
        CacheStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn feats(n: usize, dim: usize) -> Features {
        Features::new((0..n * dim).map(|x| x as f32 * 0.25 - 3.0).collect(), dim)
    }

    #[test]
    fn zero_capacity_cache_is_a_pure_passthrough() {
        let f = feats(6, 2);
        let c = FeatureCache::new(0, 2);
        assert_eq!(c.gather_rows(&f, &[5, 0]), f.gather(&[5, 0]).data());
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn delta_isolates_one_epoch() {
        let snap = CacheStats {
            hits: 2,
            misses: 2,
            evictions: 0,
        };
        let now = CacheStats {
            hits: 4,
            misses: 3,
            evictions: 1,
        };
        let d = now.delta(&snap);
        assert_eq!((d.hits, d.misses, d.evictions), (2, 1, 1));
        assert_eq!(d.lookups(), 3);
        assert!((d.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn concurrent_workers_see_consistent_rows() {
        // Many threads gather overlapping id sets through one shared stub;
        // every result must stay bitwise identical to the plain gather.
        let f = feats(256, 8);
        let c = FeatureCache::new(64, 8);
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let (f, c) = (&f, &c);
                s.spawn(move || {
                    for round in 0..50u32 {
                        let ids: Vec<NodeId> = (0..32)
                            .map(|k| (t * 31 + round * 7 + k * 5) % 256)
                            .collect();
                        assert_eq!(c.gather_rows(f, &ids), f.gather(&ids).data());
                    }
                });
            }
        });
    }

    proptest! {
        #[test]
        fn cached_gather_is_bitwise_identical(
            ids in prop::collection::vec(0u32..40, 1..64),
            cap in 0usize..32,
            dim in 1usize..6,
        ) {
            let f = feats(40, dim);
            let c = FeatureCache::new(cap, dim);
            for _ in 0..3 {
                let got = c.gather_rows(&f, &ids);
                let want = f.gather(&ids);
                prop_assert_eq!(&got, want.data());
            }
        }
    }
}
