//! The layers of one batch as a model runs them: the needed-row cascade of
//! a subgraph batch, and each layer's transposed adjacency for backward.
//!
//! A block batch shrinks from layer to layer by construction. A subgraph
//! batch (ShaDow, or a whole graph built by hand) shares one `N × N`
//! adjacency `Â` between its layers, but only its seed rows are ever read,
//! so each layer computes only the rows the next one reads — the
//! **needed-row cascade** [`Cascade`] computes per batch, for owned batches
//! and arena views alike: `R[L-1]` is the seed positions; layer `l` runs
//! over `Â.select_rows(R[l])`; `R[l-1]` is the distinct columns that slice
//! names, ascending (joined with `R[l]` where the model reads its self rows,
//! so every self row is there); and the slice's columns are renumbered to
//! their ranks in `R[l-1]`, which makes it `|R[l]| × |R[l-1]|`. Once
//! `R[l-1]` is every row, the layers below run over `Â` itself. Layer 0's
//! slice keeps `Â`'s columns: it reads the batch's input rows, all of them.
//!
//! This is bitwise the full-height computation followed by a row selection.
//! SpMM and GEMM rows are independent of each other (the GEMM is pinned
//! row-partition-invariant), so a kept row has the bits it had. A rank map
//! over an ascending set is monotone, so the entries of every slice row, and
//! of every row of its transpose, stay in the order they had in `Â`. And
//! every dropped row of layer `l`'s output had an exactly zero gradient at
//! full height — no kept row of layer `l + 1` names it — so it contributed
//! `acc + x·0` to `db`/`dW`, which add rows in ascending order, and
//! `d + w·0` to the input gradient: `acc` and `d`. That holds on the pool
//! too: a pooled weight gradient splits dW's rows, each reduced over all of
//! the gradient's rows in order, so it is the serial one bit for bit. A
//! hand-built batch whose seed positions repeat or do not ascend is equal
//! to tolerance only.
//!
//! Where it is built: a training loader worker builds it in
//! [`PreparedInput::prepare_for_training`](crate::PreparedInput::prepare_for_training)
//! together with every layer's transpose ([`Cascade::transpose_layers`]),
//! and hands it across the channel; serving builds it in
//! [`PreparedInput::prepare`](crate::PreparedInput::prepare), without
//! transposes; a model's gathered entry points build theirs per call, in
//! the model's own [`InputRing`](crate::InputRing).
//! Its storage is reused from batch to batch: slot `l` of every list
//! belongs to layer `l`.

use argo_tensor::{SparseMatrix, SparseView};

use crate::batch::{Normalization, SampledBatch};
use crate::view::SampledBatchView;

/// What one layer runs over: its normalized adjacency and, where the self
/// rows GraphSAGE reads are not the first rows of the layer's input, their
/// positions in it.
pub type LayerIn<'a> = (SparseView<'a>, Option<&'a [usize]>);

/// The per-layer adjacencies of one batch under a `depth`-layer model; see
/// the [module docs](self).
#[derive(Debug, Default)]
pub struct Cascade {
    depth: usize,
    /// Layers `first..` run over their slice, the layers below over `Â`.
    first: usize,
    /// Whether the model reads its self rows (GraphSAGE's mean scheme).
    keeps_self_rows: bool,
    slices: Vec<SparseMatrix>,
    /// Where the rows layer `l` computes sit in its input (self rows only).
    self_rows: Vec<Vec<usize>>,
    /// `R[l]` while layer `l` is built.
    rows: Vec<usize>,
    /// Per column of `Â`: its rank in `R[l-1]`, `u32::MAX` outside it.
    rank: Vec<u32>,
    /// Slot `l ≥ 1`: layer `l`'s adjacency transposed, once
    /// [`Cascade::transpose_layers`] ran for this batch.
    transposes: Vec<SparseMatrix>,
    transposed: bool,
}

impl Cascade {
    /// The cascade of a fused arena view: a subgraph's seeds are its node
    /// prefix, and its self rows are kept under [`Normalization::Mean`] —
    /// the normalization the view's values carry is the model's.
    pub fn for_view(&mut self, depth: usize, batch: &SampledBatchView<'_>) {
        let keeps_self_rows = batch.norm() == Normalization::Mean;
        match batch {
            SampledBatchView::Blocks(_) => self.no_slices(depth, keeps_self_rows),
            SampledBatchView::Subgraph(sb) => {
                self.build(depth, sb.adj(), 0..sb.num_seeds(), keeps_self_rows);
            }
        }
    }

    /// [`Cascade::for_view`] of an owned batch: a subgraph's seeds are at
    /// its `seed_positions` (a block batch has no slices: every layer runs
    /// over its own block).
    pub fn for_owned(&mut self, depth: usize, batch: &SampledBatch) {
        let keeps_self_rows = batch.norm() == Normalization::Mean;
        match batch {
            SampledBatch::Blocks(_) => self.no_slices(depth, keeps_self_rows),
            SampledBatch::Subgraph(sb) => {
                let seeds = sb.seed_positions.iter().copied();
                self.build(depth, sb.adj.view(), seeds, keeps_self_rows);
            }
        }
    }

    fn no_slices(&mut self, depth: usize, keeps_self_rows: bool) {
        (self.depth, self.first, self.keeps_self_rows) = (depth, depth, keeps_self_rows);
        self.transposed = false;
    }

    /// Builds the per-layer adjacencies of a `depth`-layer model over the
    /// normalized `N × N` adjacency `full` whose outputs are read at rows
    /// `seeds` — the one place a subgraph batch's layers are cut down.
    fn build(
        &mut self,
        depth: usize,
        full: SparseView<'_>,
        seeds: impl Iterator<Item = usize>,
        keeps_self_rows: bool,
    ) {
        let n = full.rows();
        self.no_slices(depth, keeps_self_rows);
        self.slices.resize_with(depth, SparseMatrix::default);
        self.self_rows.resize_with(depth, Vec::new);
        self.rows.clear();
        self.rows.extend(seeds);
        let mut l = depth;
        // Once a layer computes every row, it and the layers below it run
        // over `full` itself: no slice, no copy.
        while l > 0 && !self.rows.iter().copied().eq(0..n) {
            l -= 1;
            let (slice, self_rows) = (&mut self.slices[l], &mut self.self_rows[l]);
            full.select_rows_into(&self.rows, slice);
            self_rows.clear();
            if keeps_self_rows {
                self_rows.extend_from_slice(&self.rows);
            }
            if l == 0 {
                break; // reads the batch's input rows, all of them
            }
            // R[l-1]: mark what layer `l` reads, then list and rank the marks.
            self.rank.clear();
            self.rank.resize(n, u32::MAX);
            for &c in slice.indices() {
                self.rank[c as usize] = 0;
            }
            for &r in self_rows.iter() {
                self.rank[r] = 0;
            }
            self.rows.clear();
            for (c, r) in self.rank.iter_mut().enumerate() {
                if *r == 0 {
                    *r = self.rows.len() as u32;
                    self.rows.push(c);
                }
            }
            if self.rows.len() < n {
                slice.rank_columns(&self.rank, self.rows.len());
                for p in self_rows.iter_mut() {
                    *p = self.rank[*p] as usize;
                }
            }
        }
        self.first = l;
    }

    /// Transposes the adjacency of every layer `l ≥ 1` — its slice, or
    /// `full(l)`, its full-height adjacency — into storage of the cascade's
    /// own ([`SparseView::transpose_into`]): what a training step's backward
    /// gathers over. Training's loader runs it off the training thread.
    pub fn transpose_layers<'a>(&mut self, full: impl Fn(usize) -> SparseView<'a>) {
        self.transposes
            .resize_with(self.depth, SparseMatrix::default);
        for l in 1..self.depth {
            let adj = if l >= self.first {
                self.slices[l].view()
            } else {
                full(l)
            };
            adj.transpose_into(&mut self.transposes[l]);
        }
        self.transposed = true;
    }

    /// The model depth the cascade was built for.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The first layer that runs over a slice (`depth` when none does).
    pub fn first(&self) -> usize {
        self.first
    }

    /// Whether the layers keep their self rows (GraphSAGE).
    pub fn keeps_self_rows(&self) -> bool {
        self.keeps_self_rows
    }

    /// `R[0]`, the rows of the batch a cut layer 0 computes; `None` when it
    /// computes them all. (`build` stops at layer 0 before replacing them.)
    pub fn input_rows(&self) -> Option<&[usize]> {
        (self.first == 0).then_some(&self.rows[..])
    }

    /// Layer `l`'s slice; `None` below the cascade.
    pub fn slice(&self, l: usize) -> Option<&SparseMatrix> {
        (l >= self.first).then(|| &self.slices[l])
    }

    /// Every slice slot, those below the cascade included (left as they
    /// were: empty unless an earlier batch cut that layer).
    pub fn slices(&self) -> &[SparseMatrix] {
        &self.slices
    }

    /// Where layer `l` finds its self rows in its input; `None` where they
    /// are its first rows (below the cascade, and wherever none are kept).
    pub fn self_rows(&self, l: usize) -> Option<&[usize]> {
        (self.keeps_self_rows && l >= self.first).then(|| &self.self_rows[l][..])
    }

    /// What layer `l` runs over, `full` being its full-height adjacency.
    pub fn layer<'a>(&'a self, l: usize, full: SparseView<'a>) -> LayerIn<'a> {
        let adj = self.slice(l).map_or(full, SparseMatrix::view);
        (adj, self.self_rows(l))
    }

    /// Layer `l`'s adjacency transposed (`1 ≤ l < depth`). Panics unless
    /// [`Cascade::transpose_layers`] ran since the cascade was last built.
    pub fn transposed(&self, l: usize) -> &SparseMatrix {
        assert!(
            self.transposed && (1..self.depth).contains(&l),
            "layer {l}'s transpose was not built for this batch"
        );
        &self.transposes[l]
    }
}
