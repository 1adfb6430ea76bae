//! Reusable per-worker sampler scratch state.
//!
//! Mirrors the tensor crate's workspace arena: every sampler obtains its
//! bookkeeping buffers — the dense dedup table, the per-row pick buffers,
//! Floyd's drawn-position bitset, BFS frontiers — from a [`SamplerScratch`]
//! owned by the calling worker, so the steady-state sampling loop performs
//! **zero per-batch heap allocations for sampler metadata**. The assembled
//! batch itself also lives here — `sample_into` builds its CSR directly in the
//! scratch's batch arena and returns a borrowed
//! [`SampledBatchView`](crate::SampledBatchView); owned memory is spent
//! only where a batch must outlive the arena (`to_owned`, e.g. at the
//! loader's reorder-channel boundary).
//!
//! The dedup table is *epoch-stamped*: membership of node `v` is
//! `stamp[v] == generation`, so clearing between dedup sessions is a single
//! generation bump instead of an O(num_nodes) wipe or a `HashMap` rebuild.
//! The table resets itself on the (once per ~4 billion sessions) generation
//! wraparound.
//!
//! Growth is tracked by the same two counters the tensor workspace exposes:
//! an acquisition that must grow a buffer's capacity counts as an alloc,
//! one served from existing capacity counts as a reuse. The loader's
//! recycle test pins allocs to the first batch only.

use std::ops::Range;

use argo_graph::{Graph, NodeId};
use argo_rt::StreamRng;

use crate::batch::Normalization;

/// Scratch buffers recycled across [`Sampler::sample_into`](crate::Sampler)
/// calls.
#[derive(Debug, Default)]
pub struct SamplerScratch {
    /// Dense dedup table: `stamp[v] == generation` means `v` is present.
    stamp: Vec<u32>,
    /// Local (relabeled) index of `v`, valid only when stamped. Kept as a
    /// separate 4-byte lane (not packed with the stamp) so the assembly
    /// scatter — which resolves members only and never re-checks the stamp
    /// — streams through half the table footprint.
    slot: Vec<u32>,
    generation: u32,
    /// Flat per-row neighbor picks, stride `fanout`.
    pub(crate) picked: Vec<NodeId>,
    /// Number of valid picks per row.
    pub(crate) counts: Vec<u32>,
    /// Floyd's drawn set: one bit per position of the row being sampled
    /// (a row uses its first ⌈deg/64⌉ words), all zero between rows.
    pub(crate) drawn: Vec<u64>,
    /// Current BFS frontier (ShaDow).
    pub(crate) frontier: Vec<NodeId>,
    /// Next BFS frontier being built.
    pub(crate) next_frontier: Vec<NodeId>,
    /// Membership bitmap over global node ids (1 bit per graph node),
    /// rebuilt per induced assembly from the arena's node list. At ~12.5 KB
    /// per 100k nodes it stays L1-resident, so the hot membership scan
    /// rejects non-members without touching the 8-bytes-per-node dedup
    /// table.
    member: Vec<u64>,
    /// Per-column row hits of the induced-subgraph counting assembly, flat
    /// in ascending column order.
    hits: Vec<u32>,
    /// Hits per column (counting assembly).
    col_len: Vec<u32>,
    /// Per-row entry counts, then per-row write cursors (counting assembly).
    row_cursor: Vec<u32>,
    /// Batch-local copy of `inv_sqrt_degrees` (GCN counting assembly).
    factors: Vec<f32>,
    /// Batch-CSR arena: the storage every assembled batch *view* points
    /// into. One batch lives in it at a time; `to_owned` materializes
    /// whatever must outlive the next `sample_into` call.
    pub(crate) arena: BatchArena,
    allocs: u64,
    reuses: u64,
}

/// One assembled adjacency inside the [`BatchArena`]: which sub-ranges of
/// the arena's flat arrays make up this layer's CSR block and node list.
///
/// For layered (neighbor) batches the records are stored in **assembly
/// order** — output layer first — and `nodes` is the layer's *src* list;
/// the dst list is the previous record's `nodes` (the seed prefix for the
/// first record). That sharing is the point: an owned block stack stores
/// every interior node list twice (once as a block's `src_nodes`, once as
/// the next block's `dst_nodes`).
#[derive(Clone, Debug)]
pub(crate) struct LayerRec {
    /// Src node range within `BatchArena::nodes` (and `degree`).
    pub(crate) nodes: Range<usize>,
    /// Number of adjacency rows (= dst count).
    pub(crate) rows: usize,
    /// Row-pointer range within `BatchArena::indptr` (`rows + 1` entries,
    /// values relative to this layer's `entries` start).
    pub(crate) indptr: Range<usize>,
    /// Entry range within `BatchArena::indices` (and `values`).
    pub(crate) entries: Range<usize>,
}

/// Arena backing one assembled batch: adjacency offsets and column indices
/// land as `u32` ranges directly from pick positions — no intermediate
/// edge-list `Vec`s, no per-batch COO→CSR pass, no `SparseMatrix::new`
/// revalidation walk. Fused normalization values and global degrees live in
/// sibling arrays over the same ranges. All buffers recycle their capacity
/// across batches (growth is charged to the owning scratch's alloc
/// counters), so steady-state assembly performs zero heap allocations.
#[derive(Debug, Default)]
pub(crate) struct BatchArena {
    /// Concatenated node-id ranges: the seed prefix, then one src range per
    /// assembled layer (subgraph batches: seeds are the prefix of the one
    /// node range).
    pub(crate) nodes: Vec<NodeId>,
    /// Global (full-graph) degree of each entry of `nodes`, same ranges.
    pub(crate) degree: Vec<f32>,
    /// Concatenated per-layer row pointers (layer-relative, compact `u32`).
    pub(crate) indptr: Vec<u32>,
    /// Concatenated per-layer column indices (batch-local ids).
    pub(crate) indices: Vec<u32>,
    /// Concatenated fused normalization values; empty under
    /// [`Normalization::None`].
    pub(crate) values: Vec<f32>,
    /// One record per assembled adjacency, in assembly order.
    pub(crate) layers: Vec<LayerRec>,
    /// Seed count of the resident batch.
    pub(crate) n_seeds: usize,
    /// Normalization fused into `values`.
    pub(crate) norm: Normalization,
}

impl BatchArena {
    /// Clears the arena for a fresh batch, retaining every capacity.
    pub(crate) fn begin(&mut self, n_seeds: usize, norm: Normalization) {
        self.nodes.clear();
        self.degree.clear();
        self.indptr.clear();
        self.indices.clear();
        self.values.clear();
        self.layers.clear();
        self.n_seeds = n_seeds;
        self.norm = norm;
    }

    /// Sum of buffer capacities — compared across a batch to charge arena
    /// growth to the scratch alloc counters exactly once per batch.
    pub(crate) fn caps(&self) -> usize {
        self.nodes.capacity()
            + self.degree.capacity()
            + self.indptr.capacity()
            + self.indices.capacity()
            + self.values.capacity()
            + self.layers.capacity()
    }

    /// Pre-sizes the flat arrays for a batch with at most `nodes` node-list
    /// entries, `indptr` row pointers and `entries` adjacency entries.
    pub(crate) fn reserve(&mut self, nodes: usize, indptr: usize, entries: usize, values: bool) {
        self.nodes.reserve(nodes);
        self.degree.reserve(nodes);
        self.indptr.reserve(indptr);
        self.indices.reserve(entries);
        if values {
            self.values.reserve(entries);
        }
    }

    /// Bytes of batch metadata resident in the arena for the current batch:
    /// node ids, degrees, row pointers, column indices and fused values —
    /// all 4-byte lanes. This is the *compact* footprint the `bytes_summary`
    /// accounting reports.
    pub(crate) fn metadata_bytes(&self) -> usize {
        4 * (self.nodes.len()
            + self.degree.len()
            + self.indptr.len()
            + self.indices.len()
            + self.values.len())
    }
}

/// Clears `buf` and resizes it to `len` zeroes, reporting whether capacity
/// grew.
fn prep<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> bool {
    let grew = buf.capacity() < len;
    buf.clear();
    buf.resize(len, T::default());
    grew
}

impl SamplerScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquisitions that had to grow a buffer (cold path).
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Acquisitions served entirely from recycled capacity.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    fn note(&mut self, grew: bool) {
        if grew {
            self.allocs += 1;
        } else {
            self.reuses += 1;
        }
    }

    /// Starts a dedup session over a graph with `num_nodes` nodes. All
    /// previous membership is forgotten in O(1).
    pub(crate) fn begin_dedup(&mut self, num_nodes: usize) {
        if self.stamp.len() < num_nodes {
            let grew = self.stamp.capacity() < num_nodes || self.slot.capacity() < num_nodes;
            self.stamp.resize(num_nodes, 0);
            self.slot.resize(num_nodes, 0);
            self.note(grew);
        } else {
            self.note(false);
        }
        if self.generation == u32::MAX {
            self.stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
    }

    /// Inserts `v` with local index `slot` unless already present. Returns
    /// whether it was newly inserted.
    #[inline]
    pub(crate) fn dedup_insert(&mut self, v: NodeId, slot: u32) -> bool {
        let i = v as usize;
        if self.stamp[i] == self.generation {
            return false;
        }
        self.stamp[i] = self.generation;
        self.slot[i] = slot;
        true
    }

    /// Local index of `v` in the current dedup session, if present.
    #[inline]
    pub(crate) fn dedup_get(&self, v: NodeId) -> Option<u32> {
        let i = v as usize;
        (self.stamp[i] == self.generation).then(|| self.slot[i])
    }

    /// Ensures the pick buffers can hold `rows` rows / `picked` flat entries
    /// without growing. Called once per batch with a worst-case bound that
    /// depends only on the seed count, so realized per-layer row counts —
    /// which drift batch to batch under dedup — never grow a warm arena.
    pub(crate) fn warm_picks(&mut self, rows: usize, picked: usize) {
        let grew = self.picked.capacity() < picked || self.counts.capacity() < rows;
        self.note(grew);
        if grew {
            self.picked.reserve(picked);
            self.counts.reserve(rows);
        }
    }

    /// Acquires the flat pick buffer (`rows * fanout`) and the per-row count
    /// buffer for one layer's pick phase.
    pub(crate) fn acquire_picks(&mut self, rows: usize, fanout: usize) {
        let g1 = prep(&mut self.picked, rows * fanout);
        let g2 = prep(&mut self.counts, rows);
        self.note(g1 || g2);
    }

    /// Acquires both frontier buffers with room for `hint` nodes each.
    pub(crate) fn acquire_frontiers(&mut self, hint: usize) {
        let grew = self.frontier.capacity() < hint || self.next_frontier.capacity() < hint;
        self.frontier.clear();
        self.next_frontier.clear();
        self.note(grew);
        if grew {
            self.frontier.reserve(hint);
            self.next_frontier.reserve(hint);
        }
    }

    /// Records buffer growth observed outside an `acquire_*` call (e.g. a
    /// BFS frontier that outgrew its hint while being pushed to).
    pub(crate) fn note_growth(&mut self, grew: bool) {
        self.note(grew);
    }

    /// Acquires the counting-assembly buffers: per-row counters and
    /// per-column lengths for `rows` rows/columns, and (GCN only) the local
    /// normalization factor table. The hit list is cleared but not
    /// pre-sized — its exact length is only known after the membership scan,
    /// so growth is noted by the scan itself (`note_growth`).
    pub(crate) fn acquire_induced(&mut self, rows: usize, gcn: bool) {
        self.hits.clear();
        let g2 = self.col_len.capacity() < rows;
        self.col_len.clear();
        if g2 {
            self.col_len.reserve(rows);
        }
        let g3 = prep(&mut self.row_cursor, rows);
        let g4 = gcn && {
            let grew = self.factors.capacity() < rows;
            self.factors.clear();
            if grew {
                self.factors.reserve(rows);
            }
            grew
        };
        self.note(g2 || g3 || g4);
    }
}

/// The words of Floyd's drawn set for a row of `deg` positions. The first
/// row that outgrows `drawn` sizes it for `graph`'s largest row, so it grows
/// at most once per graph; callers charge the growth to the scratch
/// counters by comparing its capacity across a layer.
pub(crate) fn drawn_words<'a>(drawn: &'a mut Vec<u64>, graph: &Graph, deg: usize) -> &'a mut [u64] {
    let words = deg.div_ceil(64);
    if drawn.len() < words {
        drawn.resize(graph.max_degree().div_ceil(64).max(words), 0);
    }
    &mut drawn[..words]
}

/// Robert Floyd's algorithm: a uniform sample of `fanout` *distinct*
/// positions in `0..deg` (`deg > fanout`), handed to `visit` in ascending
/// order.
///
/// For `j` in `deg-fanout..deg`, draw `t` in `0..=j`; if `t` is already
/// drawn, take `j` instead. The drawn set is a bitset over `0..deg` (`drawn`
/// holds its ⌈deg/64⌉ words, all zero on entry), so membership is one bit
/// test. Reading it back scans the words with `trailing_zeros`, which yields
/// the positions in ascending order without a sort and clears each word as
/// it goes, leaving `drawn` zeroed for the next row. O(fanout + deg/64): no
/// degree-sized copy, no hash set, no sort.
pub(crate) fn floyd_positions(
    rng: &mut StreamRng,
    deg: usize,
    fanout: usize,
    drawn: &mut [u64],
    mut visit: impl FnMut(usize),
) {
    debug_assert_eq!(drawn.len(), deg.div_ceil(64));
    for j in (deg - fanout)..deg {
        let t = rng.index(j + 1);
        let bit = 1u64 << (t & 63);
        if drawn[t >> 6] & bit == 0 {
            drawn[t >> 6] |= bit;
        } else {
            drawn[j >> 6] |= 1u64 << (j & 63);
        }
    }
    for (w, word) in drawn.iter_mut().enumerate() {
        let mut bits = std::mem::take(word);
        while bits != 0 {
            visit(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Assembles the induced, relabeled CSR over `arena.nodes` **in place**,
/// using the scratch's *current* dedup session as the relabel map (every
/// entry of `arena.nodes` must be registered in it) and writing fused
/// normalization values during row assembly. The adjacency lands as one
/// `LayerRec` over the arena's flat `u32` arrays — no per-batch `Vec`s, no
/// `SparseMatrix::new` revalidation. Row `i` holds the local ids of
/// `nodes[i]`'s member neighbors in ascending order; output is bitwise what
/// the test oracle builds row by row (pinned by proptest).
pub(crate) fn arena_induced(
    graph: &Graph,
    arena: &mut BatchArena,
    scratch: &mut SamplerScratch,
    norm: Normalization,
) {
    debug_assert!(arena.indptr.is_empty() && arena.indices.is_empty());
    let n = arena.nodes.len();
    if graph.is_symmetric() {
        induced_counting(graph, arena, scratch, norm);
    } else {
        induced_sorting(graph, arena, scratch, norm);
    }
    for idx in 0..n {
        let d = graph.degree(arena.nodes[idx]) as f32;
        arena.degree.push(d);
    }
    arena.layers.push(LayerRec {
        nodes: 0..n,
        rows: n,
        indptr: 0..n + 1,
        entries: 0..arena.indices.len(),
    });
}

/// Sort-free induced assembly for symmetric adjacencies (the common case:
/// every generator and undirected loader builds both edge directions).
///
/// Scanning columns in ascending *local* order and bucketing each hit
/// `(row i, column j)` lets the scatter pass fill every row left-to-right
/// with already-ascending column ids — the per-row `sort_unstable` of the
/// general path (≈half the assembly time on power-law batches) disappears.
/// On a symmetric graph `nodes[i] ∈ N(nodes[j]) ⇔ nodes[j] ∈ N(nodes[i])`
/// with equal multiplicity, so the transposed scan enumerates exactly the
/// entry set a row-major scan does, and the output — including the fused
/// normalization values, written row factor first — stays bitwise-identical
/// to [`induced_sorting`] (both pinned against the test oracle).
fn induced_counting(
    graph: &Graph,
    arena: &mut BatchArena,
    scratch: &mut SamplerScratch,
    norm: Normalization,
) {
    let n = arena.nodes.len();
    scratch.acquire_induced(n, norm == Normalization::Gcn);
    arena.reserve(0, n + 1, 0, false);
    // Membership bitmap over global ids: every arena node is registered in
    // the current dedup session, so `bit set ⇒ table entry is current` and
    // the scan below needs neither a generation check nor a table touch for
    // the (roughly half) non-member endpoints.
    let words = graph.num_nodes().div_ceil(64);
    let grew_bitmap = prep(&mut scratch.member, words);
    scratch.note_growth(grew_bitmap);
    for &v in &arena.nodes {
        scratch.member[(v >> 6) as usize] |= 1u64 << (v & 63);
    }
    // Pass 1: one membership scan over the nodes' adjacencies, in ascending
    // local-column order, pushing *global* ids — the L1 bitmap is the only
    // probe, so the scan touches the big dedup table zero times. Symmetry
    // pays twice here: each node's induced row count equals its
    // member-neighbor count, so the column lengths double as the row counts
    // and no per-hit counter update is needed either.
    let hits_cap = scratch.hits.capacity();
    {
        let member = &scratch.member;
        let hits = &mut scratch.hits;
        let col_len = &mut scratch.col_len;
        for j in 0..n {
            let before = hits.len();
            for &u in graph.neighbors(arena.nodes[j]) {
                if member[(u >> 6) as usize] >> (u & 63) & 1 != 0 {
                    hits.push(u);
                }
            }
            col_len.push((hits.len() - before) as u32);
        }
    }
    scratch.note_growth(scratch.hits.capacity() > hits_cap);
    // Row pointers: exclusive prefix sum of the row (= column) counts.
    // `row_cursor` becomes each row's next write offset for the scatter.
    arena.indptr.push(0);
    let mut acc = 0u32;
    for i in 0..n {
        let c = scratch.col_len[i];
        scratch.row_cursor[i] = acc;
        acc += c;
        arena.indptr.push(acc);
    }
    let nnz = acc as usize;
    arena.indices.resize(nnz, 0);
    match norm {
        Normalization::None => {}
        Normalization::Mean => {
            // Mean values depend only on row occupancy — fill sequentially.
            arena.values.reserve(nnz);
            for i in 0..n {
                let cnt = (arena.indptr[i + 1] - arena.indptr[i]) as usize;
                let inv = 1.0 / (cnt.max(1)) as f32;
                for _ in 0..cnt {
                    arena.values.push(inv);
                }
            }
        }
        Normalization::Gcn => {
            let inv_sqrt = graph.inv_sqrt_degrees();
            for idx in 0..n {
                scratch.factors.push(inv_sqrt[arena.nodes[idx] as usize]);
            }
            arena.values.resize(nnz, 0.0);
        }
    }
    // Pass 2: translate each hit's global id to its local row through the
    // dedup table (every member is registered in the current session, so no
    // generation check is needed) and scatter; ascending `j` means every
    // row fills in sorted order with no comparison sort anywhere. This is
    // the only table traffic of the whole assembly, and it overlaps with
    // the scatter's own write misses instead of serializing a second
    // random-access pass.
    {
        let slot = &scratch.slot;
        let hits = &scratch.hits;
        let col_len = &scratch.col_len;
        let row_cursor = &mut scratch.row_cursor;
        let mut h = 0usize;
        for (j, &cnt) in col_len[..n].iter().enumerate() {
            let cnt = cnt as usize;
            for &u in &hits[h..h + cnt] {
                let i = slot[u as usize] as usize;
                let k = row_cursor[i] as usize;
                row_cursor[i] = k as u32 + 1;
                arena.indices[k] = j as u32;
            }
            h += cnt;
        }
    }
    if norm == Normalization::Gcn {
        // Values in one sequential sweep over the finished rows: the column
        // array streams and the batch-local factor table is L1-resident, so
        // no value ever rides the random scatter above. Row factor first,
        // as in every other assembly path.
        let factors = &scratch.factors;
        for i in 0..n {
            let fi = factors[i];
            let lo = arena.indptr[i] as usize;
            let hi = arena.indptr[i + 1] as usize;
            for k in lo..hi {
                let j = arena.indices[k] as usize;
                arena.values[k] = fi * factors[j];
            }
        }
    }
}

/// General induced assembly: row-major membership scan with a per-row sort
/// (local ids follow discovery order while the graph's adjacency is sorted
/// by global id). Fallback for asymmetric adjacencies, where the transposed
/// counting scan would enumerate the wrong entry set.
fn induced_sorting(
    graph: &Graph,
    arena: &mut BatchArena,
    scratch: &SamplerScratch,
    norm: Normalization,
) {
    let inv_sqrt: &[f32] = if norm == Normalization::Gcn {
        graph.inv_sqrt_degrees()
    } else {
        &[]
    };
    let n = arena.nodes.len();
    // Exact upper bound on induced entries: the sum of the nodes' global
    // degrees. One O(n) pass that pins the entry arrays' capacity, so a
    // warm arena never reallocates mid-assembly.
    let mut bound = 0usize;
    for idx in 0..n {
        bound += graph.neighbors(arena.nodes[idx]).len();
    }
    arena.reserve(0, n + 1, bound, norm != Normalization::None);
    arena.indptr.push(0);
    for idx in 0..n {
        let v = arena.nodes[idx];
        let start = arena.indices.len();
        for &u in graph.neighbors(v) {
            if let Some(j) = scratch.dedup_get(u) {
                arena.indices.push(j);
            }
        }
        arena.indices[start..].sort_unstable();
        if norm != Normalization::None {
            let cnt = arena.indices.len() - start;
            if norm == Normalization::Mean {
                let inv = 1.0 / (cnt.max(1)) as f32;
                for _ in 0..cnt {
                    arena.values.push(inv);
                }
            } else {
                let dv = inv_sqrt[v as usize];
                for k in start..arena.indices.len() {
                    let j = arena.indices[k] as usize;
                    arena.values.push(dv * inv_sqrt[arena.nodes[j] as usize]);
                }
            }
        }
        arena.indptr.push(arena.indices.len() as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_session_isolates_generations() {
        let mut s = SamplerScratch::new();
        s.begin_dedup(8);
        assert!(s.dedup_insert(3, 0));
        assert!(!s.dedup_insert(3, 1));
        assert_eq!(s.dedup_get(3), Some(0));
        assert_eq!(s.dedup_get(4), None);
        s.begin_dedup(8);
        assert_eq!(s.dedup_get(3), None, "new session forgets old members");
        assert!(s.dedup_insert(3, 7));
        assert_eq!(s.dedup_get(3), Some(7));
    }

    #[test]
    fn generation_wraparound_resets_table() {
        let mut s = SamplerScratch::new();
        s.begin_dedup(4);
        s.dedup_insert(1, 0);
        s.generation = u32::MAX; // fast-forward to the wraparound edge
        s.begin_dedup(4);
        assert_eq!(s.generation, 1);
        assert_eq!(s.dedup_get(1), None, "stale stamps must not alias");
    }

    #[test]
    fn buffers_alloc_once_then_recycle() {
        let mut s = SamplerScratch::new();
        s.acquire_picks(64, 10);
        assert!(s.allocs() > 0);
        let after_first = s.allocs();
        for _ in 0..5 {
            s.acquire_picks(64, 10);
            s.acquire_picks(16, 5); // smaller shapes reuse the same capacity
        }
        assert_eq!(s.allocs(), after_first, "steady state must not allocate");
        assert!(s.reuses() > 0);
    }

    /// Floyd's draw written out over a `BTreeSet`, as the sampler oracle
    /// (`tests/oracle/mod.rs`) defines it.
    fn btree_floyd(rng: &mut StreamRng, deg: usize, fanout: usize) -> Vec<usize> {
        let mut chosen = std::collections::BTreeSet::new();
        for j in deg - fanout..deg {
            let t = rng.index(j + 1);
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        chosen.into_iter().collect()
    }

    #[test]
    fn bitset_floyd_matches_an_independent_set() {
        // One scratch for every case, widest rows first: a bit a row left
        // behind would show up in a later, narrower row's positions.
        let mut scratch = SamplerScratch::new();
        let graph = Graph::from_edges(1, &[], true);
        let stream = argo_rt::SeedSequence::new(43);
        let mut cases = Vec::new();
        for deg in [5000, 1000, 129, 128, 127, 65, 64, 63] {
            for fanout in [1, 7, 15, deg - 1] {
                cases.push((deg, fanout));
            }
        }
        cases.extend([15, 7, 1].map(|fanout| (fanout + 1, fanout)));
        for (case, &(deg, fanout)) in cases.iter().enumerate() {
            for key in 0..256u64 {
                let seed = stream.seed_for(case as u64, key);
                let want = btree_floyd(&mut StreamRng::new(seed), deg, fanout);
                let mut got = Vec::with_capacity(fanout);
                let words = drawn_words(&mut scratch.drawn, &graph, deg);
                floyd_positions(&mut StreamRng::new(seed), deg, fanout, words, |p| {
                    got.push(p)
                });
                assert_eq!(got, want, "deg {deg}, fanout {fanout}, key {key}");
            }
        }
        assert!(
            scratch.drawn.iter().all(|&w| w == 0),
            "the scan clears every word"
        );
    }
}
