//! Layered serving result cache.
//!
//! The counter-based `StreamRng` makes sampling a pure function of
//! `(stream root, layer, row)` — so with the stream root derived from the
//! query itself, the *entire* serving response (sampled subgraph → gather →
//! forward pass) is a pure function of the seed list (for a session's fixed
//! model and seed). The seed list is the cache key: identical repeated
//! queries skip sampling and compute entirely.
//!
//! Eviction is CLOCK second-chance: each entry carries a small frequency
//! counter, a sweeping hand decrements until it finds a zero, and repeated
//! hits saturate at `MAX_FREQ` so one-hit wonders leave before hot queries
//! do. Unlike the feature cache, which never evicts, this cache pays for its
//! policy: a hit skips sampling, the gather and the forward pass.
//!
//! Every method that reads or writes a slot takes `&mut self`, so the cache
//! has one writer at a time by construction: the session that owns it.

use std::collections::HashMap;
use std::sync::Arc;

use argo_graph::NodeId;
use argo_tensor::Matrix;

/// Hit saturation for the CLOCK counters.
const MAX_FREQ: u8 = 3;

/// Cumulative cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that had to execute.
    pub misses: u64,
    /// Entries displaced by CLOCK eviction.
    pub evictions: u64,
    /// Entries currently resident.
    pub resident: u64,
    /// Configured capacity in entries.
    pub capacity: u64,
}

impl ResultCacheStats {
    /// Fraction of lookups served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let n = self.hits + self.misses;
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

struct Entry {
    hash: u64,
    /// Exact key, verified on every hit so hash collisions can never serve
    /// the wrong response.
    seeds: Vec<NodeId>,
    logits: Arc<Matrix>,
    freq: u8,
}

/// Fixed-capacity CLOCK cache mapping a seed list to the
/// finished response logits.
pub struct ResultCache {
    slots: Vec<Option<Entry>>,
    /// hash → slot index. Collisions fall back to miss (verified exactly).
    index: HashMap<u64, usize>,
    hand: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

fn mix(h: u64, v: u64) -> u64 {
    // SplitMix64 finalizer over a running fold — same mixer family as the
    // sampler's StreamRng, cheap and well-distributed.
    let mut z = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Key hash over the *ordered* seed list. Order matters by design: a seed's
/// RNG stream is keyed by its row position, so `[3, 5]` and `[5, 3]` are
/// genuinely different queries. The key is the seed list alone: every
/// caller passes `epoch = 0`, which only salts the starting state.
pub fn key_hash(seeds: &[NodeId], epoch: u64) -> u64 {
    let mut h = mix(0x5EED_CAFE, epoch);
    for &s in seeds {
        h = mix(h, s as u64);
    }
    h
}

impl ResultCache {
    /// A cache holding up to `capacity` responses (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            slots: (0..capacity).map(|_| None).collect(),
            index: HashMap::with_capacity(capacity),
            hand: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up a response. A hit refreshes the entry's CLOCK counter.
    pub fn get(&mut self, seeds: &[NodeId]) -> Option<Arc<Matrix>> {
        let hash = key_hash(seeds, 0);
        if let Some(&slot) = self.index.get(&hash) {
            if let Some(e) = self.slots[slot].as_mut() {
                if e.hash == hash && e.seeds == seeds {
                    e.freq = (e.freq + 1).min(MAX_FREQ);
                    self.hits += 1;
                    return Some(Arc::clone(&e.logits));
                }
            }
        }
        self.misses += 1;
        None
    }

    /// Inserts a finished response, evicting by CLOCK if full.
    pub fn insert(&mut self, seeds: Vec<NodeId>, logits: Arc<Matrix>) {
        let hash = key_hash(&seeds, 0);
        if let Some(&slot) = self.index.get(&hash) {
            self.slots[slot] = Some(Entry {
                hash,
                seeds,
                logits,
                freq: 1,
            });
            return;
        }
        let slot = self.find_victim();
        if let Some(old) = self.slots[slot].take() {
            self.index.remove(&old.hash);
            self.evictions += 1;
        }
        self.index.insert(hash, slot);
        self.slots[slot] = Some(Entry {
            hash,
            seeds,
            logits,
            freq: 1,
        });
    }

    /// CLOCK sweep: decrement frequencies until an empty or zero-frequency
    /// slot comes under the hand.
    fn find_victim(&mut self) -> usize {
        loop {
            let slot = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            match self.slots[slot].as_mut() {
                None => return slot,
                Some(e) if e.freq == 0 => return slot,
                Some(e) => e.freq -= 1,
            }
        }
    }

    /// Cumulative counters.
    pub fn stats(&self) -> ResultCacheStats {
        ResultCacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            resident: self.slots.iter().filter(|s| s.is_some()).count() as u64,
            capacity: self.slots.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logits(v: f32) -> Arc<Matrix> {
        Arc::new(Matrix::from_vec(1, 2, vec![v, -v]))
    }

    #[test]
    fn hit_returns_the_exact_inserted_response() {
        let mut c = ResultCache::new(4);
        assert!(c.get(&[1, 2, 3]).is_none());
        c.insert(vec![1, 2, 3], logits(0.5));
        let got = c.get(&[1, 2, 3]).expect("hit");
        assert_eq!(got.data(), &[0.5, -0.5]);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.resident), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn seed_order_is_part_of_the_key() {
        let mut c = ResultCache::new(4);
        c.insert(vec![3, 5], logits(1.0));
        assert!(c.get(&[5, 3]).is_none(), "order is significant");
        assert!(c.get(&[3, 5]).is_some());
    }

    #[test]
    fn clock_eviction_prefers_cold_entries() {
        let mut c = ResultCache::new(2);
        c.insert(vec![1], logits(1.0));
        c.insert(vec![2], logits(2.0));
        // Heat up seed [1]; insertions then displace the cold [2].
        for _ in 0..3 {
            assert!(c.get(&[1]).is_some());
        }
        c.insert(vec![3], logits(3.0));
        assert!(c.get(&[1]).is_some(), "hot entry survived");
        assert!(c.get(&[3]).is_some(), "new entry resident");
        assert!(c.get(&[2]).is_none(), "cold entry evicted");
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reinsert_replaces_in_place() {
        let mut c = ResultCache::new(2);
        c.insert(vec![7], logits(1.0));
        c.insert(vec![7], logits(9.0));
        assert_eq!(c.get(&[7]).unwrap().data(), &[9.0, -9.0]);
        assert_eq!(c.stats().resident, 1);
    }
}
