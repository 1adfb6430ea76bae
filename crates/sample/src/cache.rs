//! Cross-batch neighborhood feature cache.
//!
//! Figure 5's observation — consecutive mini-batches share heavily-reused
//! neighborhoods — means the gather stage re-reads the same feature rows
//! over and over. [`FeatureCache`] holds up to `capacity_rows` of them, keyed
//! by [`NodeId`], and is consulted by
//! [`PipelinedLoader`](crate::PipelinedLoader) workers before the feature
//! table.
//!
//! **Fill once, never evict.** A miss is admitted while there is room, so
//! the cache holds the first `capacity_rows` distinct rows it was asked for,
//! and no row is ever displaced. Once full it is frozen: from then on a
//! gather is a read-only pass that takes no lock and writes nothing shared —
//! per position one index load and one row copy, from the cache's slab or
//! from the feature table. That is an uncached gather plus the index load.
//! Eviction cannot pay for itself here: the backing store is DRAM like the
//! cache, so a policy that copies every miss into the slab and bumps a
//! counter on every hit only adds work (DESIGN.md §7 has the measurement).
//!
//! Cached and uncached gathers are **bitwise identical**: rows are copied
//! verbatim, so enabling the cache never perturbs training semantics.
//!
//! Layout: node ids are dense, so residency is one direct-mapped
//! `node id → slot` table (4 B per node, sized from the feature table on
//! first use), and the rows sit in one flat slab in admission order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use argo_graph::{Features, NodeId};
use parking_lot::Mutex;

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
    /// Rows displaced from the cache: always 0, because nothing is evicted.
    /// Kept for callers that report it.
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

/// The resident rows: node `v` sits in slot `slot_of[v]` (or is absent), and
/// slot `s` holds its features at `rows[s * dim..(s + 1) * dim]`.
#[derive(Default)]
struct Table {
    slot_of: Vec<u32>,
    rows: Vec<f32>,
}

impl Table {
    /// Copies `v`'s row into `dst`, from the slab when `v` is resident and
    /// from `feats` otherwise. Returns whether it was a hit.
    fn copy_row(&self, feats: &Features, v: NodeId, dst: &mut [f32]) -> bool {
        let d = dst.len();
        match self.slot_of[v as usize] {
            ABSENT => {
                dst.copy_from_slice(feats.row(v));
                false
            }
            s => {
                let s = s as usize;
                dst.copy_from_slice(&self.rows[s * d..(s + 1) * d]);
                true
            }
        }
    }

    /// The read-only gather of a frozen cache. Returns the hit count.
    fn copy_rows(&self, feats: &Features, ids: &[NodeId], out: &mut [f32]) -> u64 {
        self.check(feats);
        let mut hits = 0;
        for (dst, &v) in out.chunks_exact_mut(feats.dim()).zip(ids) {
            hits += u64::from(self.copy_row(feats, v, dst));
        }
        hits
    }

    fn check(&self, feats: &Features) {
        assert_eq!(
            self.slot_of.len(),
            feats.num_nodes(),
            "cache reused over a different feature table"
        );
    }
}

/// Bounded cache of gathered feature rows that fills once and never evicts.
///
/// Thread-safe: while it fills, gathers take turns under one lock; once it
/// is full, they run in parallel and take no lock at all. Hit and miss
/// counters are atomics, bumped once per gather, read via
/// [`FeatureCache::stats`].
pub struct FeatureCache {
    /// The table while it still has room.
    filling: Mutex<Table>,
    /// The table once it is full; it is never written again.
    frozen: OnceLock<Table>,
    dim: usize,
    capacity_rows: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl FeatureCache {
    /// A cache holding up to `capacity_rows` rows of `dim` floats.
    pub fn new(capacity_rows: usize, dim: usize) -> Self {
        assert!(dim > 0, "feature dim must be positive");
        assert!(capacity_rows < ABSENT as usize, "capacity overflows u32");
        Self {
            filling: Mutex::new(Table::default()),
            frozen: OnceLock::new(),
            dim,
            capacity_rows,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
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

    /// Gathers rows `ids` from `feats` through the cache into `out`, a
    /// row-major `ids.len() x dim` buffer the caller owns and recycles —
    /// bitwise identical to `feats.gather_into(ids, out)`. While the cache
    /// has room, each miss is admitted as it is copied.
    pub fn gather_rows_into(&self, feats: &Features, ids: &[NodeId], out: &mut [f32]) {
        assert_eq!(feats.dim(), self.dim, "feature dim mismatch");
        assert_eq!(
            out.len(),
            ids.len() * self.dim,
            "output buffer shape mismatch"
        );
        let hits = match self.frozen.get() {
            Some(table) => table.copy_rows(feats, ids, out),
            None => self.gather_filling(feats, ids, out),
        };
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses
            .fetch_add(ids.len() as u64 - hits, Ordering::Relaxed);
    }

    /// The gather of a cache that was not yet full when the call began:
    /// under the fill lock, copy every row and admit each miss while there
    /// is room; freeze the table the moment it is full.
    fn gather_filling(&self, feats: &Features, ids: &[NodeId], out: &mut [f32]) -> u64 {
        let mut table = self.filling.lock();
        // Another gather may have frozen the table while this one waited.
        if let Some(frozen) = self.frozen.get() {
            drop(table);
            return frozen.copy_rows(feats, ids, out);
        }
        // A table with fewer rows than the capacity is full when every row
        // is resident.
        let room = self.capacity_rows.min(feats.num_nodes());
        if table.slot_of.is_empty() {
            table.slot_of = vec![ABSENT; feats.num_nodes()];
            table.rows.reserve_exact(room * self.dim);
        }
        table.check(feats);
        let mut hits = 0;
        for (dst, &v) in out.chunks_exact_mut(self.dim).zip(ids) {
            if table.copy_row(feats, v, dst) {
                hits += 1;
                continue;
            }
            let resident = table.rows.len() / self.dim;
            if resident < room {
                table.slot_of[v as usize] = resident as u32;
                table.rows.extend_from_slice(dst);
            }
        }
        if table.rows.len() == room * self.dim {
            // `frozen` is empty and only ever set under this lock, so the
            // `set` cannot fail.
            let _ = self.frozen.set(std::mem::take(&mut *table));
        }
        hits
    }

    /// [`FeatureCache::gather_rows_into`] into a fresh buffer, for callers
    /// that keep the rows.
    pub fn gather_rows(&self, feats: &Features, ids: &[NodeId]) -> Vec<f32> {
        let mut out = vec![0.0f32; ids.len() * self.dim];
        self.gather_rows_into(feats, ids, &mut out);
        out
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        // Read the filling table before `frozen`: a freeze moves the rows
        // from the one to the other, so if it happens in between, `frozen`
        // is already set when it is read.
        let filling = self.filling.lock().rows.len();
        let floats = self.frozen.get().map_or(filling, |t| t.rows.len());
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: 0,
            resident_rows: (floats / self.dim) as u64,
            capacity_rows: self.capacity_rows as u64,
            bytes: (floats * std::mem::size_of::<f32>()) as u64,
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
    fn a_full_cache_keeps_its_first_rows() {
        // Capacity 2: A and B fill it. C misses and is not admitted, however
        // often it comes back; A and B stay resident and keep hitting.
        let f = feats(10, 2);
        let c = FeatureCache::new(2, 2);
        c.gather_rows(&f, &[0, 1]); // A=0, B=1 fill the cache
        for _ in 0..3 {
            c.gather_rows(&f, &[2]); // C misses every time
        }
        c.gather_rows(&f, &[1, 0]); // both still resident
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (2, 5, 0));
        assert_eq!(s.resident_rows, 2);
    }

    #[test]
    fn occupancy_stops_at_capacity() {
        // The first eight distinct rows asked for (0, 16, 1, 17, 2, 18, 3,
        // 19) are admitted; nothing after them is.
        let f = feats(64, 3);
        let c = FeatureCache::new(8, 3);
        for start in 0..32u32 {
            c.gather_rows(&f, &[start, start + 16]);
        }
        let s = c.stats();
        assert_eq!((s.resident_rows, s.evictions), (8, 0));
        assert_eq!(s.bytes, 8 * 3 * 4);
        // 16..20 come back as the second id of starts 0..4 and as the first
        // id of starts 16..20: four hits.
        assert_eq!(s.hits, 4);
        let before = c.stats();
        c.gather_rows(&f, &[0, 16, 1, 17, 2, 18, 3, 19, 4, 20]);
        let d = c.stats().delta(&before);
        assert_eq!((d.hits, d.misses), (8, 2));
    }

    #[test]
    fn a_full_cache_gathers_without_taking_the_fill_lock() {
        // Once full, the cache is read-only: a gather must go through while
        // the fill lock is held elsewhere. The timeout only turns a gather
        // that blocks on the lock into a failure instead of a hang.
        let f = feats(16, 2);
        let c = FeatureCache::new(4, 2);
        c.gather_rows(&f, &[0, 1, 2, 3, 4]);
        let ids = [3, 9, 0, 0, 15];
        let held = c.filling.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| tx.send(c.gather_rows(&f, &ids)));
            let got = rx.recv_timeout(std::time::Duration::from_secs(10));
            drop(held);
            assert_eq!(got.ok().as_deref(), Some(f.gather(&ids).data()));
        });
        assert_eq!(c.hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn a_cache_larger_than_the_table_freezes_once_every_row_is_resident() {
        let f = feats(6, 2);
        let c = FeatureCache::new(100, 2);
        c.gather_rows(&f, &[5, 4, 3]);
        assert!(c.frozen.get().is_none());
        c.gather_rows(&f, &[0, 1, 2, 3]);
        assert!(c.frozen.get().is_some());
        let s = c.stats();
        assert_eq!((s.resident_rows, s.hits, s.misses), (6, 1, 6));
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
        // Many threads gather overlapping id sets through one shared cache
        // while it fills and after it freezes; every result must stay
        // bitwise identical to the uncached gather.
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
        assert_eq!(s.resident_rows, 64);
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
        // than the cache holds). The first four rows are admitted and stay,
        // so every repeat hits four times and misses the same two rows.
        let f = feats(8, 3);
        let c = FeatureCache::new(4, 3);
        let ids: Vec<NodeId> = (0..6).collect();
        for _ in 0..4 {
            assert_eq!(c.gather_rows(&f, &ids), f.gather(&ids).data());
        }
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (12, 12, 0));
        assert_eq!(s.resident_rows, 4);
    }

    #[test]
    fn duplicate_ids_in_one_batch_are_admitted_once() {
        // The first copy of a cold id misses and is admitted on the spot,
        // so its later copies in the same batch already hit.
        let f = feats(10, 2);
        let c = FeatureCache::new(4, 2);
        let ids = [7, 7, 3, 7];
        assert_eq!(c.gather_rows(&f, &ids), f.gather(&ids).data());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.resident_rows), (2, 2, 2));
        assert_eq!(c.gather_rows(&f, &ids), f.gather(&ids).data());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.resident_rows), (6, 2, 2));
    }

    #[test]
    fn gather_rows_into_overwrites_a_recycled_buffer() {
        let f = feats(12, 3);
        let c = FeatureCache::new(5, 3);
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
            dim in 1usize..6,
        ) {
            let f = feats(40, dim);
            let c = FeatureCache::new(cap, dim);
            // Repeated gathers exercise the filling and the frozen path.
            for _ in 0..3 {
                let got = c.gather_rows(&f, &ids);
                let want = f.gather(&ids);
                prop_assert_eq!(&got, want.data());
            }
        }
    }
}
