//! Deterministic seed fan-out.
//!
//! Reproducibility underpins the paper's correctness experiment (Figure 9):
//! to show that ARGO with `n` processes follows the same convergence curve as
//! a single process, both runs must draw identical mini-batch samples. A
//! [`SeedSequence`] derives independent, stable sub-seeds for every
//! (process, epoch, batch) coordinate with a SplitMix64 mix, so the sampled
//! subgraphs depend only on the logical training schedule, never on thread
//! timing.

/// Stateless deterministic seed derivation tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeedSequence {
    root: u64,
}

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl SeedSequence {
    /// A seed tree rooted at `root`.
    pub fn new(root: u64) -> Self {
        Self { root }
    }

    /// The root seed.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Derives a child sequence for stream `index` (e.g. a process rank).
    pub fn child(&self, index: u64) -> SeedSequence {
        SeedSequence {
            root: splitmix64(self.root ^ splitmix64(index.wrapping_add(0xA5A5_A5A5))),
        }
    }

    /// A concrete 64-bit seed for coordinate (`a`, `b`) under this sequence —
    /// typically (epoch, batch).
    pub fn seed_for(&self, a: u64, b: u64) -> u64 {
        splitmix64(
            self.root ^ splitmix64(a.wrapping_mul(0x9E37_79B9)) ^ splitmix64(b ^ 0x5DEECE66D),
        )
    }
}

/// Counter-based SplitMix64 generator for per-item random streams.
///
/// A [`StreamRng`] is cheap enough to construct *per sampled row*: the
/// samplers key one off [`SeedSequence::seed_for`]`(layer, row)` so every
/// row's draws are a pure function of its logical coordinate — row `r` of
/// layer `l` always consumes the same stream, whatever else the batch
/// draws, which is what lets a test oracle re-derive a row's picks on its
/// own.
#[derive(Clone, Copy, Debug)]
pub struct StreamRng {
    state: u64,
}

impl StreamRng {
    /// A stream keyed by `key` (typically a [`SeedSequence::seed_for`] value).
    #[inline]
    pub fn new(key: u64) -> Self {
        Self { state: key }
    }

    /// Next 64 random bits (SplitMix64: add the golden gamma, finalize-mix).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..bound` (`bound > 0`) via the 128-bit
    /// multiply-shift reduction — no modulo bias worth caring about at
    /// graph-degree bounds, and branch-free.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn stream_rng_is_deterministic_per_key() {
        let mut a = StreamRng::new(99);
        let mut b = StreamRng::new(99);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StreamRng::new(100);
        assert_ne!(StreamRng::new(99).next_u64(), c.next_u64());
    }

    #[test]
    fn stream_rng_index_in_bounds_and_spreads() {
        let mut r = StreamRng::new(7);
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            let i = r.index(17);
            assert!(i < 17);
            seen.insert(i);
        }
        assert_eq!(seen.len(), 17, "all residues should appear in 1000 draws");
        let mut r = StreamRng::new(8);
        for _ in 0..100 {
            assert_eq!(r.index(1), 0);
        }
    }

    #[test]
    fn deterministic() {
        let s = SeedSequence::new(42);
        assert_eq!(s.seed_for(1, 2), SeedSequence::new(42).seed_for(1, 2));
        assert_eq!(s.child(3), SeedSequence::new(42).child(3));
    }

    #[test]
    fn children_differ_from_parent_and_each_other() {
        let s = SeedSequence::new(7);
        let mut seen = HashSet::new();
        seen.insert(s.root());
        for i in 0..100 {
            assert!(seen.insert(s.child(i).root()), "collision at child {i}");
        }
    }

    #[test]
    fn coordinates_spread() {
        let s = SeedSequence::new(0);
        let mut seen = HashSet::new();
        for a in 0..50 {
            for b in 0..50 {
                assert!(seen.insert(s.seed_for(a, b)), "collision at ({a},{b})");
            }
        }
    }

    #[test]
    fn splitmix_reference_values() {
        // Values from the canonical SplitMix64 reference implementation
        // seeded with 0: first output is mix(0 + gamma).
        assert_eq!(
            splitmix64(0x9E3779B97F4A7C15 - 0x9E3779B97F4A7C15),
            splitmix64(0)
        );
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
