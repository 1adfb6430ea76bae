//! Cross-batch neighborhood feature cache.
//!
//! Figure 5's observation — consecutive mini-batches share heavily-reused
//! neighborhoods — means the gather stage re-reads the same feature rows
//! over and over. [`FeatureCache`] is a sharded, bounded cache keyed by
//! [`NodeId`] that holds gathered feature rows across batches, consulted by
//! [`PipelinedLoader`](crate::PipelinedLoader) workers before touching
//! the feature table. Eviction is CLOCK / second-chance — an
//! LRU-with-frequency approximation whose per-hit cost is one atomic-free
//! counter bump under the shard lock, so hot rows (shared neighbors) stick
//! while cold rows cycle out.
//!
//! Cached and uncached gathers are **bitwise identical**: rows are copied
//! verbatim, so enabling the cache never perturbs training semantics.
//!
//! Layout: node ids are dense, so residency is one direct-mapped
//! `node id → slot` table shared by all shards (4 B per node, sized from the
//! feature table on first use) instead of a hash map, and each shard keeps
//! its rows in one flat `capacity × dim` slab instead of a box per row. A
//! batch groups its positions by shard with a counting sort and visits each
//! shard once: all of the shard's lookups, then all of its inserts. Lookups
//! must come first — a batch touches more distinct rows than a shard holds,
//! so inserting a miss while later positions still wait to be looked up
//! would evict rows the same batch is about to hit.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

use argo_graph::{Features, NodeId};
use parking_lot::Mutex;

/// Reference-count ceiling: a row needs this many consecutive CLOCK sweeps
/// without a hit before it becomes an eviction candidate.
const MAX_FREQ: u8 = 3;

/// `slot_of` entry of a node that is not resident.
const ABSENT: u32 = u32::MAX;

/// Point-in-time cache counters (cumulative since construction unless
/// produced by [`CacheStats::delta`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to the backing [`Features`].
    pub misses: u64,
    /// Rows displaced by CLOCK second-chance eviction.
    pub evictions: u64,
    /// Rows currently resident.
    pub resident_rows: u64,
    /// Maximum rows the cache may hold.
    pub capacity_rows: u64,
    /// Bytes of feature data currently resident.
    pub bytes: u64,
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

    /// Counters accumulated since `earlier` (a prior snapshot of the same
    /// cache); occupancy fields are carried from `self`.
    pub fn delta(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            resident_rows: self.resident_rows,
            capacity_rows: self.capacity_rows,
            bytes: self.bytes,
        }
    }
}

/// One shard's resident rows. Slot `i` holds node `node_of[i]` with CLOCK
/// counter `freq[i]` and its features at `rows[i * dim..(i + 1) * dim]`; the
/// slab is allocated once, at full capacity.
struct Shard {
    node_of: Vec<NodeId>,
    freq: Vec<u8>,
    rows: Vec<f32>,
    hand: usize,
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize, dim: usize) -> Self {
        assert!(capacity < ABSENT as usize, "shard capacity overflows u32");
        Self {
            node_of: Vec::with_capacity(capacity),
            freq: Vec::with_capacity(capacity),
            rows: vec![0.0; capacity * dim],
            hand: 0,
            capacity,
        }
    }

    /// Inserts `v`'s row, evicting via CLOCK when full. Returns whether an
    /// eviction happened. The caller holds this shard's lock, which is what
    /// orders the `slot_of` entries of the shard's nodes.
    fn insert(&mut self, v: NodeId, row: &[f32], slot_of: &[AtomicU32]) -> bool {
        if self.capacity == 0 || slot_of[v as usize].load(Ordering::Relaxed) != ABSENT {
            return false; // no room, or already inserted for an earlier position
        }
        let d = row.len();
        let resident = self.node_of.len();
        if resident < self.capacity {
            slot_of[v as usize].store(resident as u32, Ordering::Relaxed);
            self.node_of.push(v);
            self.freq.push(1);
            self.rows[resident * d..(resident + 1) * d].copy_from_slice(row);
            return false;
        }
        // CLOCK sweep: decrement second-chance counters until a victim with
        // freq 0 comes under the hand. Terminates within MAX_FREQ+1 laps.
        loop {
            let slot = self.hand;
            self.hand = (self.hand + 1) % resident;
            if self.freq[slot] == 0 {
                slot_of[self.node_of[slot] as usize].store(ABSENT, Ordering::Relaxed);
                slot_of[v as usize].store(slot as u32, Ordering::Relaxed);
                self.node_of[slot] = v;
                self.freq[slot] = 1;
                self.rows[slot * d..(slot + 1) * d].copy_from_slice(row);
                return true;
            }
            self.freq[slot] -= 1;
        }
    }
}

/// Per-thread grouping buffers of [`FeatureCache::gather_rows_into`], kept
/// so a loader worker's steady-state gathers allocate nothing.
#[derive(Default)]
struct Grouping {
    /// Shard of each position.
    shard: Vec<u32>,
    /// Start of each shard's run in `order`, plus the end sentinel.
    starts: Vec<usize>,
    /// Positions grouped by shard, ascending within a shard.
    order: Vec<u32>,
    /// Missed positions of the shard being visited.
    missed: Vec<u32>,
}

thread_local! {
    static GROUPING: RefCell<Grouping> = RefCell::new(Grouping::default());
}

/// Sharded, bounded, CLOCK-evicting cache of gathered feature rows.
///
/// Thread-safe: a gather holds one shard lock at a time, so concurrent
/// [`PipelinedLoader`](crate::PipelinedLoader) workers proceed mostly in
/// parallel. Hit/miss/eviction counters are atomics read via
/// [`FeatureCache::stats`].
pub struct FeatureCache {
    shards: Vec<Mutex<Shard>>,
    /// `node id → slot within its shard`, or [`ABSENT`]. Sized from the
    /// feature table on first use; node `v`'s entry is only ever touched
    /// under the lock of `shard_of(v)`, which is why `Relaxed` suffices.
    slot_of: OnceLock<Box<[AtomicU32]>>,
    dim: usize,
    capacity_rows: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl FeatureCache {
    /// A cache holding up to `capacity_rows` rows of `dim` floats, sharded
    /// for concurrent access. Small caches get fewer shards so per-shard
    /// capacity stays useful (≥ 8 rows per shard, up to 16 shards).
    pub fn new(capacity_rows: usize, dim: usize) -> Self {
        Self::with_shards(capacity_rows, dim, (capacity_rows / 8).clamp(1, 16))
    }

    /// Like [`FeatureCache::new`] with an explicit shard count (use 1 for
    /// deterministic eviction-order tests).
    pub fn with_shards(capacity_rows: usize, dim: usize, n_shards: usize) -> Self {
        assert!(dim > 0, "feature dim must be positive");
        assert!(n_shards > 0, "need at least one shard");
        let base = capacity_rows / n_shards;
        let extra = capacity_rows % n_shards;
        let shards = (0..n_shards)
            .map(|i| Mutex::new(Shard::new(base + usize::from(i < extra), dim)))
            .collect();
        Self {
            shards,
            slot_of: OnceLock::new(),
            dim,
            capacity_rows,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Maximum number of rows the cache may hold.
    pub fn capacity_rows(&self) -> usize {
        self.capacity_rows
    }

    /// Feature dimension of cached rows.
    pub fn dim(&self) -> usize {
        self.dim
    }

    fn shard_of(&self, v: NodeId) -> usize {
        // Fibonacci multiplicative hash: spreads consecutive node ids.
        let h = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize) % self.shards.len()
    }

    /// Gathers rows `ids` from `feats` through the cache into `out`, a
    /// row-major `ids.len() x dim` buffer the caller owns and recycles —
    /// bitwise identical to `feats.gather_into(ids, out)`. Per shard and
    /// under one lock acquisition, hits are copied out of the slab, then the
    /// shard's misses are copied from `feats` and inserted.
    pub fn gather_rows_into(&self, feats: &Features, ids: &[NodeId], out: &mut [f32]) {
        assert_eq!(feats.dim(), self.dim, "feature dim mismatch");
        let d = self.dim;
        assert_eq!(out.len(), ids.len() * d, "output buffer shape mismatch");
        assert!(ids.len() < ABSENT as usize, "batch positions overflow u32");
        let slot_of = self.slot_of.get_or_init(|| {
            (0..feats.num_nodes())
                .map(|_| AtomicU32::new(ABSENT))
                .collect()
        });
        assert_eq!(
            slot_of.len(),
            feats.num_nodes(),
            "cache reused over a different feature table"
        );
        let n_shards = self.shards.len();
        let (mut missed_total, mut evicted) = (0u64, 0u64);
        GROUPING.with(|g| {
            let Grouping {
                shard,
                starts,
                order,
                missed,
            } = &mut *g.borrow_mut();
            // Counting sort of the positions by shard. It is stable, so each
            // shard sees its positions in batch order.
            shard.clear();
            starts.clear();
            starts.resize(n_shards + 1, 0);
            for &v in ids {
                let s = self.shard_of(v);
                shard.push(s as u32);
                starts[s + 1] += 1;
            }
            for s in 0..n_shards {
                starts[s + 1] += starts[s];
            }
            order.clear();
            order.resize(ids.len(), 0);
            for (p, &s) in shard.iter().enumerate() {
                order[starts[s as usize]] = p as u32;
                starts[s as usize] += 1;
            }
            // The placement pass advanced every start to its run's end, which
            // is the next run's start.
            let mut lo = 0;
            for (lock, &hi) in self.shards.iter().zip(starts.iter()) {
                let group = &order[lo..hi];
                lo = hi;
                if group.is_empty() {
                    continue;
                }
                let mut guard = lock.lock();
                let sh = &mut *guard;
                missed.clear();
                for &p in group {
                    let p = p as usize;
                    let slot = slot_of[ids[p] as usize].load(Ordering::Relaxed);
                    if slot == ABSENT {
                        missed.push(p as u32);
                        continue;
                    }
                    let slot = slot as usize;
                    sh.freq[slot] = (sh.freq[slot] + 1).min(MAX_FREQ);
                    out[p * d..(p + 1) * d].copy_from_slice(&sh.rows[slot * d..(slot + 1) * d]);
                }
                for &p in missed.iter() {
                    let p = p as usize;
                    let row = feats.row(ids[p]);
                    out[p * d..(p + 1) * d].copy_from_slice(row);
                    evicted += u64::from(sh.insert(ids[p], row, slot_of));
                }
                missed_total += missed.len() as u64;
            }
        });
        self.hits
            .fetch_add(ids.len() as u64 - missed_total, Ordering::Relaxed);
        self.misses.fetch_add(missed_total, Ordering::Relaxed);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// [`FeatureCache::gather_rows_into`] into a fresh buffer, for callers
    /// that keep the rows.
    pub fn gather_rows(&self, feats: &Features, ids: &[NodeId]) -> Vec<f32> {
        let mut out = vec![0.0f32; ids.len() * self.dim];
        self.gather_rows_into(feats, ids, &mut out);
        out
    }

    /// [`FeatureCache::gather_rows`] packaged as a [`Features`] matrix.
    pub fn gather(&self, feats: &Features, ids: &[NodeId]) -> Features {
        Features::new(self.gather_rows(feats, ids), self.dim)
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let resident: usize = self.shards.iter().map(|s| s.lock().node_of.len()).sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_rows: resident as u64,
            capacity_rows: self.capacity_rows as u64,
            bytes: (resident * self.dim * std::mem::size_of::<f32>()) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbor::NeighborSampler;
    use crate::Sampler;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn feats(n: usize, dim: usize) -> Features {
        Features::new((0..n * dim).map(|x| x as f32 * 0.25 - 3.0).collect(), dim)
    }

    #[test]
    fn hits_after_first_gather() {
        let f = feats(10, 4);
        let c = FeatureCache::new(10, 4);
        let a = c.gather_rows(&f, &[1, 2, 3]);
        let b = c.gather_rows(&f, &[1, 2, 3]);
        assert_eq!(a, b);
        let s = c.stats();
        assert_eq!(s.misses, 3);
        assert_eq!(s.hits, 3);
        assert_eq!(s.evictions, 0);
        assert_eq!(s.resident_rows, 3);
        assert_eq!(s.bytes, 3 * 4 * 4);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clock_evicts_cold_row_before_hot_row() {
        // Capacity 2, one shard for determinism. A is touched twice (hot),
        // B once (cold); inserting C must displace B.
        let f = feats(10, 2);
        let c = FeatureCache::with_shards(2, 2, 1);
        c.gather_rows(&f, &[0, 1]); // A=0, B=1 resident
        c.gather_rows(&f, &[0]); // A hot
        c.gather_rows(&f, &[2]); // C evicts the cold row
        assert_eq!(c.stats().evictions, 1);
        c.gather_rows(&f, &[0]); // A survived
        assert_eq!(c.stats().hits, 2);
        c.gather_rows(&f, &[1]); // B was the victim
        assert_eq!(c.stats().misses, 4);
    }

    #[test]
    fn eviction_keeps_occupancy_at_capacity() {
        let f = feats(64, 3);
        let c = FeatureCache::with_shards(8, 3, 2);
        for start in 0..32u32 {
            c.gather_rows(&f, &[start, start + 16]);
        }
        let s = c.stats();
        assert!(s.resident_rows <= 8);
        assert!(s.evictions > 0);
        assert_eq!(s.bytes, s.resident_rows * 3 * 4);
    }

    #[test]
    fn zero_capacity_cache_is_a_pure_passthrough() {
        let f = feats(6, 2);
        let c = FeatureCache::new(0, 2);
        assert_eq!(c.gather_rows(&f, &[5, 0]), f.gather(&[5, 0]).data());
        let s = c.stats();
        assert_eq!((s.hits, s.resident_rows), (0, 0));
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn delta_isolates_one_epoch() {
        let f = feats(8, 2);
        let c = FeatureCache::new(8, 2);
        c.gather_rows(&f, &[0, 1]);
        let snap = c.stats();
        c.gather_rows(&f, &[0, 1, 2]);
        let d = c.stats().delta(&snap);
        assert_eq!((d.hits, d.misses), (2, 1));
        assert_eq!(d.resident_rows, 3);
    }

    #[test]
    fn concurrent_workers_see_consistent_rows() {
        // Cross-thread shard consistency: many threads gather overlapping id
        // sets through one shared cache while eviction churns; every result
        // must stay bitwise identical to the uncached gather.
        let f = std::sync::Arc::new(feats(256, 8));
        let c = std::sync::Arc::new(FeatureCache::new(64, 8));
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let f = std::sync::Arc::clone(&f);
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for round in 0..50u32 {
                        let ids: Vec<NodeId> = (0..32)
                            .map(|k| (t * 31 + round * 7 + k * 5) % 256)
                            .collect();
                        assert_eq!(c.gather_rows(&f, &ids), f.gather(&ids).data());
                    }
                });
            }
        });
        let s = c.stats();
        assert_eq!(s.lookups(), 8 * 50 * 32);
        assert!(s.resident_rows <= 64);
    }

    #[test]
    fn hit_rate_is_monotone_in_capacity_on_shared_neighbor_workload() {
        // The fig05 workload: shared neighborhoods re-gathered across
        // consecutive batches. Bigger caches must never hit less.
        let g = argo_graph::generators::power_law(400, 4000, 0.8, 3);
        let f = feats(400, 4);
        let sampler = NeighborSampler::new(vec![5, 3]);
        let seeds: Vec<NodeId> = (0..200).collect();
        let mut rates = Vec::new();
        for cap in [16, 64, 256, 400] {
            let c = FeatureCache::new(cap, 4);
            let mut rng = SmallRng::seed_from_u64(7);
            for chunk in seeds.chunks(32) {
                let b = sampler.sample(&g, chunk, &mut rng);
                c.gather_rows(&f, b.input_nodes());
            }
            rates.push(c.stats().hit_rate());
        }
        for w in rates.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-12,
                "hit rate regressed with capacity: {rates:?}"
            );
        }
        assert!(rates[rates.len() - 1] > 0.5, "full-size cache: {rates:?}");
    }

    #[test]
    fn scan_larger_than_capacity_keeps_its_hits() {
        // Six distinct rows per batch against four slots, the same batch
        // repeated: the shape of a training epoch (a batch touches more rows
        // than the cache holds). With every lookup ahead of every insert, the
        // four rows resident when a batch arrives all hit and only the two
        // misses rotate through CLOCK. Inserting a miss inline, while later
        // positions still wait to be looked up, evicts exactly the rows those
        // positions want: every repeat would then score zero hits.
        let f = feats(8, 3);
        let c = FeatureCache::with_shards(4, 3, 1);
        let ids: Vec<NodeId> = (0..6).collect();
        for _ in 0..4 {
            assert_eq!(c.gather_rows(&f, &ids), f.gather(&ids).data());
        }
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (12, 12, 8));
        assert_eq!(s.resident_rows, 4);
    }

    #[test]
    fn duplicate_ids_in_one_batch_all_miss_then_all_hit() {
        // Lookups precede inserts, so every copy of a cold id misses; the
        // first copy's insert makes the later ones no-ops, not evictions.
        let f = feats(10, 2);
        let c = FeatureCache::with_shards(4, 2, 1);
        let ids = [7, 7, 3, 7];
        assert_eq!(c.gather_rows(&f, &ids), f.gather(&ids).data());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (0, 4, 0));
        assert_eq!(s.resident_rows, 2);
        assert_eq!(c.gather_rows(&f, &ids), f.gather(&ids).data());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.resident_rows), (4, 4, 2));
    }

    #[test]
    fn gather_rows_into_overwrites_a_recycled_buffer() {
        let f = feats(12, 3);
        let c = FeatureCache::with_shards(5, 3, 2);
        let mut out = vec![f32::NAN; 4 * 3];
        for ids in [[1, 9, 1, 4], [4, 2, 9, 11], [0, 1, 2, 3]] {
            c.gather_rows_into(&f, &ids, &mut out);
            assert_eq!(out, f.gather(&ids).data());
        }
    }

    proptest! {
        #[test]
        fn cached_gather_is_bitwise_identical(
            ids in prop::collection::vec(0u32..40, 1..64),
            cap in 0usize..32,
            shards in 1usize..5,
            dim in 1usize..6,
        ) {
            let f = feats(40, dim);
            let c = FeatureCache::with_shards(cap, dim, shards);
            // Repeated gathers exercise hit, miss and eviction paths.
            for _ in 0..3 {
                let got = c.gather_rows(&f, &ids);
                let want = f.gather(&ids);
                prop_assert_eq!(&got, want.data());
            }
        }
    }
}
