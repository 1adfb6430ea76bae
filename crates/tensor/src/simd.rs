//! Explicit-SIMD kernel tier: the dense kernels at two vector widths,
//! AVX2+FMA (f32x8) and AVX-512 (f32x16), and the SpMM row kernel, behind
//! one runtime dispatch point.
//!
//! Everything in this module is reachable only through the free functions
//! at the top, each of which consults [`tier`] — a cached runtime check of
//! the CPU features (overridable with `ARGO_SIMD=off`) — and otherwise falls
//! back to the scalar tier: the row forms of [`crate::reference`] for the
//! dense kernels, the scalar row step for SpMM. The scalar tier is compiled
//! unconditionally, so non-x86 hosts and feature-less CPUs run the
//! reference loops, bit for bit.
//!
//! Numerical contract per path (pinned by `tests/kernel_properties.rs`):
//!
//! * **GEMM / weight gradient / input gradient** use `vfmadd`, and the
//!   scalar tier's reference loops spell the same sequence with
//!   `f32::mul_add` (compiled for the host's `fma` where it has one,
//!   [`with_fma`]), so these paths are **bitwise** equal to the scalar
//!   tier. Each path is deterministic and partition-invariant: per output
//!   element the contributions are folded in ascending order regardless of
//!   row windows or pool size — the weight gradient too, whose pool splits
//!   `dW`'s rows and whose every worker reduces over all rows, so pooled ≡
//!   serial bitwise on every tier.
//! * **The SpMM row kernel ([`spmm_rows`]) and the bias/ReLU epilogue**
//!   vectorize the *feature* dimension with separate `mul` + `add` (never
//!   FMA): lanes are independent and per-element operation order is exactly
//!   the scalar order, so these stay **bitwise** equal to the scalar
//!   tier. The row kernel keeps a 64-column block of its output row in
//!   registers across all of the row's entries; it runs AVX2 on the
//!   AVX-512 tier too.
//!
//! **Across tiers the dense kernels are bitwise equal.** Each fixes the
//! operation sequence every output element sees, and the wider registers
//! only put more elements in flight, never reorder one element's
//! operations. The GEMM and the weight gradient are one tile body each
//! ([`tile`]), run at either width; [`crate::reference`] spells the same
//! sequences one element at a time for the scalar tier; and the input
//! gradient is the GEMM:
//!
//! * GEMM ([`gemm_into`], one operand or several against row windows of one
//!   `B`): from `+0`, per operand in order and per [`KC`](reference::KC)
//!   block of its reduction, an accumulator from `+0`, FMA over `k`
//!   ascending, then `dst + acc` (an add, not a store: the first block's
//!   `0 + acc` turns a `-0` accumulator `+0`); after the last block
//!   `+ bias`, then `max(·, 0)` for ReLU. Both vector tiers make one pass
//!   per output tile (6×16 at AVX2, 6×64 at AVX-512), adding each block's
//!   accumulator to the tile and applying the epilogue to the last in
//!   registers.
//! * Weight gradient ([`grad_weights_into`], a window of the gradients of
//!   a stacked weight): from `+0`, FMA into `dst` over all rows ascending
//!   for the columns below `8·⌊n/8⌋`; the columns past it take a separate
//!   `mul` + `add` per row, ascending, vectorized over `dst`'s rows (the
//!   operands' columns) in a transposed scratch that is scattered into
//!   `dst` at the end. Both vector tiers read each 64-row chunk of the
//!   gradient once for every operand.
//! * Input gradient (`dX = dY · W[w_rows]ᵀ`, in
//!   [`crate::dispatch::DispatchPolicy::grad_input_into`]): the GEMM over
//!   `W[w_rows]ᵀ`, with one operand and no epilogue.
//!
//! So the host's tier chooses the speed, not the bits: the AVX-512 and AVX2
//! tiers give equal results on every input
//! (`avx512_tier_equals_avx2_tier_bitwise`, which covers the input gradient
//! through the GEMM), and every tier equals the reference row forms on the
//! GEMM, weight-gradient and input-gradient sequences above
//! (`every_tier_equals_reference_bitwise`). Those row forms are the scalar
//! tier that `ARGO_SIMD=off` and a host without AVX2+FMA run, so a model
//! trained there has the bits of one trained on a vector tier
//! (`every_tier_trains_the_same_bits` in `argo-nn`).
//!
//! The GEMMs pack `B` into column panels (layout below), and the narrow
//! weight-gradient columns accumulate in a transposed scratch, both drawn
//! from the per-thread pack arena in [`crate::workspace`], so steady-state
//! training and serving do not allocate here.

use std::ops::Range;
use std::sync::OnceLock;

use crate::dense::Matrix;
use crate::dispatch::Epilogue;
use crate::reference;
use crate::sparse::SparseView;
use cpu::{detect, Avx2, Avx512};

/// The kernel tier the host runs. A vector tier carries its CPU feature
/// token ([`cpu`]), which the kernels of [`x86`] and [`tile`] take.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum Tier {
    /// The reference row forms ([`crate::reference`]) and the scalar SpMM
    /// row step.
    Scalar,
    /// AVX2+FMA for every kernel.
    Avx2(Avx2),
    /// AVX-512 for GEMM and both gradients; AVX2+FMA for the rest.
    Avx512(Avx512),
}

#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
impl Tier {
    /// The AVX2+FMA token of either vector tier.
    fn avx2(self) -> Option<Avx2> {
        match self {
            Tier::Scalar => None,
            Tier::Avx2(avx2) => Some(avx2),
            Tier::Avx512(avx512) => Some(avx512.avx2()),
        }
    }
}

mod cpu {
    //! The CPU feature tokens. Their fields are private to this module, so
    //! [`detect`] is the only code that builds one.
    #![cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]

    use super::Tier;

    /// Proof that the host has `avx2` and `fma`.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(super) struct Avx2(());

    /// Proof that the host has `avx512f` besides `avx2` and `fma`.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(super) struct Avx512(());

    impl Avx512 {
        /// An AVX-512 host has AVX2+FMA too: [`detect`] checks them first.
        pub(super) fn avx2(self) -> Avx2 {
            Avx2(())
        }
    }

    pub(super) fn detect() -> Tier {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return if is_x86_feature_detected!("avx512f") {
                Tier::Avx512(Avx512(()))
            } else {
                Tier::Avx2(Avx2(()))
            };
        }
        Tier::Scalar
    }
}

/// The tier every kernel dispatches on: AVX-512 on `x86_64` hosts with
/// `avx512f` (besides `avx2` + `fma`), AVX2 on hosts with `avx2` + `fma`,
/// scalar otherwise or when disabled via `ARGO_SIMD=off` (or `0`). Cached
/// after the first call, so the environment switch must be set before any
/// kernel runs (as the CI fallback stage does).
fn tier() -> Tier {
    static TIER: OnceLock<Tier> = OnceLock::new();
    *TIER.get_or_init(|| {
        if matches!(
            std::env::var("ARGO_SIMD").as_deref(),
            Ok("off") | Ok("0") | Ok("false")
        ) {
            return Tier::Scalar;
        }
        detect()
    })
}

/// The tier a kernel runs: the host's, or scalar when the caller's policy
/// turned SIMD off.
fn tier_for(use_simd: bool) -> Tier {
    if use_simd {
        tier()
    } else {
        Tier::Scalar
    }
}

/// Whether the SIMD tier is usable on this host: `x86_64` with `avx2` and
/// `fma`, and not disabled via `ARGO_SIMD=off` (or `0`). Cached after the
/// first call, so the environment switch must be set before any kernel
/// runs (as the CI fallback stage does).
pub fn available() -> bool {
    tier() != Tier::Scalar
}

/// Runs `f` compiled with `fma` where [`detect`] builds an [`Avx2`] token,
/// whatever `ARGO_SIMD` says, so the scalar tier's `f32::mul_add` is a
/// `vfmadd`, not a libm call; elsewhere as it is, to the same bits. `f`
/// must be an `#[inline(always)]` closure: out of line it lacks `fma`.
pub(crate) fn with_fma<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if let Some(avx2) = detect().avx2() {
        #[target_feature(enable = "fma")]
        fn run<R>(_: Avx2, f: impl FnOnce() -> R) -> R {
            f()
        }
        // SAFETY: the `Avx2` token proves fma.
        return unsafe { run(avx2, f) };
    }
    f()
}

/// The name of the kernel tier this process dispatches to: `"avx512f"`,
/// `"avx2+fma"` or `"scalar"` — the same detection the kernels read.
pub fn simd_tier() -> &'static str {
    match tier() {
        Tier::Avx512(_) => "avx512f",
        Tier::Avx2(_) => "avx2+fma",
        Tier::Scalar => "scalar",
    }
}

/// The GEMM every dense layer runs: `dst = epi(Σ_o A_o[rows] @ B[off_o..off_o
/// + A_o.cols()])` over the operands `ops = [(A_o, off_o), …]` — one for a
/// plain layer and for an input gradient (over the transposed weight),
/// GraphSAGE's self rows and aggregation against the two halves of its
/// stacked weight. `dst` is row-major `rows.len() × b.cols()`.
///
/// Every tier gives each output element one sequence (module doc): from
/// `+0`, per operand in order and per [`KC`](reference::KC) block of its
/// reduction `dst + acc`, then the epilogue. The vector tiers make one pass
/// per output tile; the scalar tier zeroes `dst`, adds each operand's block
/// sums into it ([`reference::gemm_rows_into`]), then the bias and the
/// `z > 0 ? z : 0` clamp.
pub(crate) fn gemm_into(
    ops: &[(&Matrix, usize)],
    rows: Range<usize>,
    b: &Matrix,
    epi: Epilogue<'_>,
    use_simd: bool,
    dst: &mut [f32],
) {
    gemm_on(tier_for(use_simd), ops, rows, b, epi, dst);
}

/// [`gemm_into`] on `tier`, which the host must have: the reference row
/// form, or the vector tile at the tier's width.
fn gemm_on(
    tier: Tier,
    ops: &[(&Matrix, usize)],
    rows: Range<usize>,
    b: &Matrix,
    epi: Epilogue<'_>,
    dst: &mut [f32],
) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2(avx2) => tile::gemm(avx2, ops, rows, b, epi, dst),
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512(avx512) => tile::gemm(avx512, ops, rows, b, epi, dst),
        _ => {
            dst.fill(0.0);
            for &(a, b_row_offset) in ops {
                reference::gemm_rows_into(a, rows.clone(), b, b_row_offset, dst);
            }
            if let Some(bias) = epi.bias {
                for (v, &bv) in dst.iter_mut().zip(bias.iter().cycle()) {
                    let z = *v + bv;
                    *v = if !epi.relu || z > 0.0 { z } else { 0.0 };
                }
            }
        }
    }
}

/// The weight gradient of a layer whose GEMM read `xs`: rows `rows` of
/// `[X_0ᵀ; X_1ᵀ; …] @ G`, reduced over every row of `grad` (the first
/// `grad.rows()` rows of every `X_o`) — a window of the `X_o.cols() × n`
/// gradients of a stacked weight, stacked in operand order, which may
/// straddle an operand boundary (`dst` is `rows.len() × grad.cols()`,
/// overwritten).
///
/// Per output element, on every tier and whatever the window: from `+0`,
/// over the rows ascending, FMA below column `8·⌊n/8⌋` and `mul` + `add`
/// past it. The vector tiers read each chunk of `grad` once for every
/// operand; the scalar tier reduces one operand after the other
/// ([`reference::transpose_self_rows_into`]).
pub(crate) fn grad_weights_into(
    xs: &[&Matrix],
    grad: &Matrix,
    rows: Range<usize>,
    use_simd: bool,
    dst: &mut [f32],
) {
    grad_weights_on(tier_for(use_simd), xs, grad, rows, dst);
}

/// [`grad_weights_into`] on `tier`, which the host must have: the
/// reference row form, or the vector tile at the tier's width.
fn grad_weights_on(tier: Tier, xs: &[&Matrix], grad: &Matrix, rows: Range<usize>, dst: &mut [f32]) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2(avx2) => tile::grad_weights(avx2, xs, grad, rows, dst),
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512(avx512) => tile::grad_weights(avx512, xs, grad, rows, dst),
        _ => {
            let n = grad.cols();
            for (x, cols, at) in operand_windows(xs, rows) {
                let d = &mut dst[at * n..(at + cols.len()) * n];
                reference::transpose_self_rows_into(x, grad, cols, d);
            }
        }
    }
}

/// The operands' shares of the window `rows` of the stacked `[X_0ᵀ; X_1ᵀ;
/// …]`: for each operand the window meets, in order, the operand, its
/// columns inside the window and the window row they start at.
fn operand_windows<'a>(
    xs: &'a [&'a Matrix],
    rows: Range<usize>,
) -> impl Iterator<Item = (&'a Matrix, Range<usize>, usize)> + 'a {
    xs.iter()
        .scan(0, |base, &x| {
            *base += x.cols();
            Some((x, *base - x.cols()))
        })
        .filter_map(move |(x, base)| {
            let (lo, hi) = (rows.start.max(base), rows.end.min(base + x.cols()));
            (lo < hi).then(|| (x, lo - base..hi - base, lo - rows.start))
        })
}

/// The SpMM row kernel, over rows `rows` of `adj` into `out` (`n` floats a
/// row): output row `i` is `Σ_k w_k · src(c_k)` over the row's stored
/// entries `k` in order, where `c_k` is the entry's column, `w_k` its value
/// (1 when `adj` has none) and `src(c)` row `c` of the row-major `n`-column
/// `table` — or row `ids[c]` of it, through an id list.
///
/// Per output element both tiers run one sequence: an accumulator from
/// `+0`, then `acc + w·s` with a separate `mul` and `add` (never FMA) for
/// each entry in stored order, stored once. The AVX2 tier holds a 64-column
/// block of the row in eight registers across all of the row's entries;
/// the scalar tier adds into the zeroed row. Their results are bitwise
/// equal.
///
/// Every source row index, after the id map, is checked against the
/// table's rows before any of the row's sources is read: a bad one panics
/// (in release builds too), it is never read out of bounds.
pub(crate) fn spmm_rows(
    adj: &SparseView<'_>,
    rows: Range<usize>,
    table: &[f32],
    ids: Option<&[u32]>,
    n: usize,
    use_simd: bool,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), rows.len() * n, "out shape");
    if n == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if let Some(avx2) = tier_for(use_simd).avx2() {
        x86::spmm_rows(avx2, adj, rows, table, ids, n, out);
        return;
    }
    let _ = use_simd;
    let table_rows = table.len() / n;
    for (i, drow) in rows.zip(out.chunks_exact_mut(n)) {
        let (cols, vals) = row_entries(adj, i);
        check_sources(cols, ids, table_rows);
        drow.fill(0.0);
        for (k, &c) in cols.iter().enumerate() {
            let w = vals.map_or(1.0, |v| v[k]);
            let r = source_row(c, ids);
            for (d, &s) in drow.iter_mut().zip(&table[r * n..(r + 1) * n]) {
                *d += w * s;
            }
        }
    }
}

/// Row `i`'s stored columns and, when `adj` has them, values.
#[inline]
fn row_entries<'a>(adj: &SparseView<'a>, i: usize) -> (&'a [u32], Option<&'a [f32]>) {
    let range = adj.row_range(i);
    (
        &adj.indices()[range.clone()],
        adj.values().map(|v| &v[range]),
    )
}

/// The table row stored column `c` reads: `ids[c]` through an id list, `c`
/// without one.
#[inline]
fn source_row(c: u32, ids: Option<&[u32]>) -> usize {
    match ids {
        Some(ids) => ids[c as usize] as usize,
        None => c as usize,
    }
}

/// Panics unless every column of `cols` reads a row below `table_rows`.
#[inline]
fn check_sources(cols: &[u32], ids: Option<&[u32]>, table_rows: usize) {
    for &c in cols {
        let r = source_row(c, ids);
        assert!(
            r < table_rows,
            "spmm source row {r} out of range of a {table_rows}-row table"
        );
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX2 SpMM row kernel, and the `B` packing of the GEMM tiles
    //! ([`super::tile`]). Every entry point takes an
    //! [`Avx2`] token, which only [`super::detect`] builds, after it has
    //! confirmed the `avx2` and `fma` CPU features at runtime.

    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };
    use std::ops::Range;

    use super::Avx2;
    use crate::dense::Matrix;
    use crate::sparse::SparseView;

    /// Packs a `kc × nc` block of `B` (rows `kk..`, columns `jj..`) into
    /// `nr`-column tiles, k-major within each tile
    /// (`buf[tile*nr*kc + k*nr + lane]`), zero-padding column tails. The
    /// GEMM tiles pack one tile per panel, `nr` its columns rounded up to
    /// whole vectors.
    pub(super) fn pack_b(
        b: &Matrix,
        kk: usize,
        kc: usize,
        jj: usize,
        nc: usize,
        nr: usize,
        buf: &mut [f32],
    ) {
        for t in 0..nc.div_ceil(nr) {
            let j0 = jj + t * nr;
            let w = nr.min(jj + nc - j0);
            let tile = &mut buf[t * nr * kc..(t + 1) * nr * kc];
            for k in 0..kc {
                let lanes = &mut tile[k * nr..(k + 1) * nr];
                lanes[..w].copy_from_slice(&b.row(kk + k)[j0..j0 + w]);
                lanes[w..].fill(0.0);
            }
        }
    }

    /// Columns per register block of the SpMM row kernel: eight 8-lane
    /// accumulators.
    const SPMM_BLOCK: usize = 64;

    /// The AVX2 tier of [`super::spmm_rows`]: per output row, each
    /// 64-column block accumulates in eight registers across all of the
    /// row's entries and is stored once; columns past the last full block
    /// take the same per-element sequence 8 lanes at a time, then scalar.
    /// `mul` then `add`, never FMA.
    pub(super) fn spmm_rows(
        _: Avx2,
        adj: &SparseView<'_>,
        rows: Range<usize>,
        table: &[f32],
        ids: Option<&[u32]>,
        n: usize,
        out: &mut [f32],
    ) {
        // SAFETY: avx2 is proven by the `Avx2` token.
        unsafe { spmm_rows_avx(adj, rows, table, ids, n, out) }
    }

    #[target_feature(enable = "avx2")]
    fn spmm_rows_avx(
        adj: &SparseView<'_>,
        rows: Range<usize>,
        table: &[f32],
        ids: Option<&[u32]>,
        n: usize,
        out: &mut [f32],
    ) {
        let table_rows = table.len() / n;
        let nb = n - n % SPMM_BLOCK;
        let nv = n - n % 8;
        for (i, drow) in rows.zip(out.chunks_exact_mut(n)) {
            let (cols, vals) = super::row_entries(adj, i);
            super::check_sources(cols, ids, table_rows);
            let weight = |k: usize| vals.map_or(1.0, |v| v[k]);
            // Entry `k`'s source row, which `check_sources` put inside
            // `table`: `n` floats from here are readable.
            let src = |k: usize| table[super::source_row(cols[k], ids) * n..].as_ptr();
            let dp = drow.as_mut_ptr();
            for j0 in (0..nb).step_by(SPMM_BLOCK) {
                let mut acc = [_mm256_setzero_ps(); SPMM_BLOCK / 8];
                for k in 0..cols.len() {
                    let (w, s) = (_mm256_set1_ps(weight(k)), src(k));
                    for (l, a) in acc.iter_mut().enumerate() {
                        // SAFETY: avx2 proven by the `Avx2` token; the
                        // source row holds `n` floats and `j0 + 8l + 8 <= nb
                        // <= n` bounds this 8-lane load.
                        let x = unsafe { _mm256_loadu_ps(s.add(j0 + 8 * l)) };
                        *a = _mm256_add_ps(*a, _mm256_mul_ps(w, x));
                    }
                }
                for (l, a) in acc.into_iter().enumerate() {
                    // SAFETY: avx2 proven by the `Avx2` token; `drow` holds
                    // `n` floats and `j0 + 8l + 8 <= n` bounds the store.
                    unsafe { _mm256_storeu_ps(dp.add(j0 + 8 * l), a) }
                }
            }
            for j0 in (nb..nv).step_by(8) {
                let mut acc = _mm256_setzero_ps();
                for k in 0..cols.len() {
                    // SAFETY: avx2 proven by the `Avx2` token; the source
                    // row holds `n` floats and `j0 + 8 <= nv <= n` bounds
                    // this 8-lane load.
                    let x = unsafe { _mm256_loadu_ps(src(k).add(j0)) };
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(weight(k)), x));
                }
                // SAFETY: avx2 proven by the `Avx2` token; `j0 + 8 <= n`
                // bounds the store into `drow`.
                unsafe { _mm256_storeu_ps(dp.add(j0), acc) }
            }
            if nv < n {
                let mut tail = [0.0f32; 8];
                for (k, &c) in cols.iter().enumerate() {
                    let (w, r) = (weight(k), super::source_row(c, ids));
                    for (t, &s) in tail.iter_mut().zip(&table[r * n + nv..(r + 1) * n]) {
                        *t += w * s;
                    }
                }
                drow[nv..].copy_from_slice(&tail[..n - nv]);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod tile {
    //! The GEMM and the weight gradient: one tile body each, generic over
    //! the [`Width`] that the two vector tiers' tokens implement. [`Avx2`]
    //! runs 8 lanes and tiles of at most 6×16 (12 ymm accumulators, two `B`
    //! vectors and a broadcast: 15 of 16 registers), [`Avx512`] 16 lanes and
    //! at most 6×64 (24 of 32 zmm registers). A narrower matrix, or the last
    //! panel of a wider one, gets a tile of `⌈w/LANES⌉` vectors, so narrow
    //! layers compute no padded lanes. The width changes how many elements
    //! are in flight, never one element's sequence (module doc).

    use std::arch::x86_64::{
        __m256, __m256i, __m512, _mm256_add_ps, _mm256_cmpgt_epi32, _mm256_fmadd_ps,
        _mm256_loadu_ps, _mm256_maskload_ps, _mm256_maskstore_ps, _mm256_max_ps, _mm256_mul_ps,
        _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32, _mm512_add_ps, _mm512_fmadd_ps,
        _mm512_loadu_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_max_ps,
        _mm512_mul_ps, _mm512_set1_ps,
    };
    use std::ops::Range;

    use super::x86::pack_b;
    use super::{operand_windows, Avx2, Avx512};
    use crate::dense::Matrix;
    use crate::dispatch::Epilogue;
    use crate::reference::KC;
    use crate::workspace;

    /// Register tile rows: `A` values (GEMM) or `dst` rows (weight gradient)
    /// broadcast across the lanes.
    const MR: usize = 6;
    /// Reduction rows per pass of the weight gradient: each chunk of `grad`
    /// (and of every operand) is read from memory once, and a `dst` tile is
    /// loaded once and stored once per chunk.
    const DW_ROWS: usize = 64;

    /// A vector width, implemented by the token that proves the host has
    /// it. Each method is one instruction once inlined into a [`Pass`] that
    /// [`Width::enable`] runs.
    pub(super) trait Width: Copy {
        /// `LANES` floats.
        type V: Copy;
        const LANES: usize;
        /// Vectors per tile row, at most.
        const NV: usize;

        /// Runs `pass` compiled with this width's CPU features.
        fn enable(self, pass: impl Pass);
        fn splat(self, x: f32) -> Self::V;
        /// # Safety
        /// `p` is readable for `LANES` floats.
        unsafe fn load(self, p: *const f32) -> Self::V;
        /// The lanes below `n` from `p`, zero in the others.
        ///
        /// # Safety
        /// `p` is readable for `min(n, LANES)` floats.
        unsafe fn load_first(self, n: usize, p: *const f32) -> Self::V;
        /// Stores the lanes below `n` of `v` at `p`.
        ///
        /// # Safety
        /// `p` is writable for `min(n, LANES)` floats.
        unsafe fn store_first(self, n: usize, p: *mut f32, v: Self::V);
        /// `a·b + c`, rounded once.
        fn fmadd(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V;
        fn mul(self, a: Self::V, b: Self::V) -> Self::V;
        fn add(self, a: Self::V, b: Self::V) -> Self::V;
        /// Per lane `a` where `a > b`, else `b`.
        fn max(self, a: Self::V, b: Self::V) -> Self::V;
    }

    /// Kernel code that [`Width::enable`] runs from a function compiled with
    /// the width's CPU features. `run` is `#[inline(always)]`, so it inlines
    /// there with every method of `W` it calls, down to the intrinsics (a
    /// closure too large to inline would leave them out-of-line calls).
    pub(super) trait Pass {
        fn run<W: Width>(self, w: W);
    }

    impl Width for Avx2 {
        type V = __m256;
        const LANES: usize = 8;
        const NV: usize = 2;

        fn enable(self, pass: impl Pass) {
            #[target_feature(enable = "avx2,fma")]
            fn run(w: Avx2, pass: impl Pass) {
                pass.run(w)
            }
            // SAFETY: the `Avx2` token proves avx2+fma.
            unsafe { run(self, pass) }
        }
        #[inline(always)]
        fn splat(self, x: f32) -> __m256 {
            // SAFETY: the token proves avx2+fma; so in every method below.
            unsafe { _mm256_set1_ps(x) }
        }
        #[inline(always)]
        unsafe fn load(self, p: *const f32) -> __m256 {
            // SAFETY: as in `splat`; the caller keeps `p` in bounds.
            unsafe { _mm256_loadu_ps(p) }
        }
        #[inline(always)]
        unsafe fn load_first(self, n: usize, p: *const f32) -> __m256 {
            // SAFETY: as in `splat`; the caller keeps the lanes below `n`
            // in bounds, and the others are not read.
            unsafe { _mm256_maskload_ps(p, self.lanes_below(n)) }
        }
        #[inline(always)]
        unsafe fn store_first(self, n: usize, p: *mut f32, v: __m256) {
            // SAFETY: as in `load_first`; the other lanes are not written.
            unsafe { _mm256_maskstore_ps(p, self.lanes_below(n), v) }
        }
        #[inline(always)]
        fn fmadd(self, a: __m256, b: __m256, c: __m256) -> __m256 {
            // SAFETY: as in `splat`.
            unsafe { _mm256_fmadd_ps(a, b, c) }
        }
        #[inline(always)]
        fn mul(self, a: __m256, b: __m256) -> __m256 {
            // SAFETY: as in `splat`.
            unsafe { _mm256_mul_ps(a, b) }
        }
        #[inline(always)]
        fn add(self, a: __m256, b: __m256) -> __m256 {
            // SAFETY: as in `splat`.
            unsafe { _mm256_add_ps(a, b) }
        }
        #[inline(always)]
        fn max(self, a: __m256, b: __m256) -> __m256 {
            // SAFETY: as in `splat`.
            unsafe { _mm256_max_ps(a, b) }
        }
    }

    impl Avx2 {
        /// The mask of the lanes below `n`.
        #[inline(always)]
        fn lanes_below(self, n: usize) -> __m256i {
            // SAFETY: the token proves avx2.
            unsafe {
                let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
                _mm256_cmpgt_epi32(_mm256_set1_epi32(n.min(8) as i32), lane)
            }
        }
    }

    impl Width for Avx512 {
        type V = __m512;
        const LANES: usize = 16;
        const NV: usize = 4;

        fn enable(self, pass: impl Pass) {
            #[target_feature(enable = "avx512f,avx2,fma")]
            fn run(w: Avx512, pass: impl Pass) {
                pass.run(w)
            }
            // SAFETY: the `Avx512` token proves avx512f (with avx2+fma).
            unsafe { run(self, pass) }
        }
        #[inline(always)]
        fn splat(self, x: f32) -> __m512 {
            // SAFETY: the token proves avx512f; so in every method below.
            unsafe { _mm512_set1_ps(x) }
        }
        #[inline(always)]
        unsafe fn load(self, p: *const f32) -> __m512 {
            // SAFETY: as in `splat`; the caller keeps `p` in bounds.
            unsafe { _mm512_loadu_ps(p) }
        }
        #[inline(always)]
        unsafe fn load_first(self, n: usize, p: *const f32) -> __m512 {
            // SAFETY: as in `splat`; the caller keeps the lanes below `n`
            // in bounds, and the others are not read.
            unsafe { _mm512_maskz_loadu_ps(((1u32 << n.min(16)) - 1) as u16, p) }
        }
        #[inline(always)]
        unsafe fn store_first(self, n: usize, p: *mut f32, v: __m512) {
            // SAFETY: as in `load_first`; the other lanes are not written.
            unsafe { _mm512_mask_storeu_ps(p, ((1u32 << n.min(16)) - 1) as u16, v) }
        }
        #[inline(always)]
        fn fmadd(self, a: __m512, b: __m512, c: __m512) -> __m512 {
            // SAFETY: as in `splat`.
            unsafe { _mm512_fmadd_ps(a, b, c) }
        }
        #[inline(always)]
        fn mul(self, a: __m512, b: __m512) -> __m512 {
            // SAFETY: as in `splat`.
            unsafe { _mm512_mul_ps(a, b) }
        }
        #[inline(always)]
        fn add(self, a: __m512, b: __m512) -> __m512 {
            // SAFETY: as in `splat`.
            unsafe { _mm512_add_ps(a, b) }
        }
        #[inline(always)]
        fn max(self, a: __m512, b: __m512) -> __m512 {
            // SAFETY: as in `splat`.
            unsafe { _mm512_max_ps(a, b) }
        }
    }

    /// Runs `$body` with the const `$nv` bound to `⌈cols/LANES⌉`, the number
    /// of vectors (1 to `W::NV`) of a `cols`-column tile.
    macro_rules! with_vectors {
        ($W:ty, $cols:expr, $nv:ident => $body:expr) => {
            match $cols.div_ceil(<$W>::LANES).min(<$W>::NV) {
                1 => {
                    const $nv: usize = 1;
                    $body
                }
                2 => {
                    const $nv: usize = 2;
                    $body
                }
                3 => {
                    const $nv: usize = 3;
                    $body
                }
                _ => {
                    const $nv: usize = 4;
                    $body
                }
            }
        };
    }

    /// The multi-operand GEMM of [`super::gemm_into`], one pass per output
    /// tile. `B` is packed once per call into panels of `LANES·NV` columns,
    /// each holding every operand's rows in turn. Per `MR`-row tile and
    /// panel, every `KC` block of every operand computes `acc` from `+0` in
    /// registers and adds it to the tile's sum (from `+0`, so the first
    /// block is `0 + acc`), which waits in L1 between blocks; then the bias
    /// and the clamp, in registers, and one store. `A` is read in place.
    pub(super) fn gemm<W: Width>(
        w: W,
        ops: &[(&Matrix, usize)],
        rows: Range<usize>,
        b: &Matrix,
        epi: Epilogue<'_>,
        dst: &mut [f32],
    ) {
        debug_assert_eq!(dst.len(), rows.len() * b.cols(), "dst shape");
        if rows.is_empty() || b.cols() == 0 {
            return;
        }
        let k_total: usize = ops.iter().map(|(a, _)| a.cols()).sum();
        let len = k_total * b.cols().next_multiple_of(W::LANES);
        workspace::with_pack_buffer(len, |pb| w.enable(Gemm(ops, rows, b, epi, pb, dst)));
    }

    /// [`gemm`]'s arguments and its pack buffer.
    struct Gemm<'a>(
        &'a [(&'a Matrix, usize)],
        Range<usize>,
        &'a Matrix,
        Epilogue<'a>,
        &'a mut [f32],
        &'a mut [f32],
    );

    impl Pass for Gemm<'_> {
        #[inline(always)]
        fn run<W: Width>(self, w: W) {
            let Gemm(ops, rows, b, epi, pb, dst) = self;
            let (m, n, nr) = (rows.len(), b.cols(), W::LANES * W::NV);
            let k_total: usize = ops.iter().map(|(a, _)| a.cols()).sum();
            // Panel `p` (columns `j0 = nr·p..`) starts at `k_total * j0`:
            // every panel before it is `nr` lanes wide.
            for j0 in (0..n).step_by(nr) {
                let cols = nr.min(n - j0);
                let lanes = cols.next_multiple_of(W::LANES);
                let mut at = k_total * j0;
                for &(a, b_row_offset) in ops {
                    let panel = &mut pb[at..at + a.cols() * lanes];
                    pack_b(b, b_row_offset, a.cols(), j0, cols, lanes, panel);
                    at += panel.len();
                }
            }
            for i0 in (0..m).step_by(MR) {
                let out = &mut dst[i0 * n..(i0 + MR).min(m) * n];
                for j0 in (0..n).step_by(nr) {
                    let cols = nr.min(n - j0);
                    let panel = &pb[k_total * j0..][..k_total * cols.next_multiple_of(W::LANES)];
                    let a_row0 = rows.start + i0;
                    with_vectors!(W, cols, NV => {
                        gemm_tile::<W, NV>(w, ops, panel, a_row0, n, j0, cols, epi, out)
                    })
                }
            }
        }
    }

    /// One tile of [`gemm`]: columns `j0..j0 + cols` of the `mr ≤ MR` rows
    /// of `out` (`n` wide), from `A` rows `a_row0..` and `panel` (`NV`
    /// vectors wide, every operand's rows in turn). Tile rows past `mr`
    /// repeat the last valid one (computed, never stored); lanes past `cols`
    /// are zero in `panel` and masked off `out`.
    #[allow(clippy::too_many_arguments)] // internal micro-kernel: all args are tile indices
    #[inline(always)]
    fn gemm_tile<W: Width, const NV: usize>(
        w: W,
        ops: &[(&Matrix, usize)],
        panel: &[f32],
        a_row0: usize,
        n: usize,
        j0: usize,
        cols: usize,
        epi: Epilogue<'_>,
        out: &mut [f32],
    ) {
        let lanes = W::LANES * NV;
        let mr = out.len() / n;
        let bias = epi.bias.map(|bias| &bias[j0..j0 + cols]);
        let zero = w.splat(0.0);
        // The tile between blocks, in L1: from `+0`, plus each block's
        // accumulator.
        let mut sum = [[zero; NV]; MR];
        // Panel row of the current operand's first `B` row.
        let mut k0 = 0;
        for &(a, _) in ops {
            let k_dim = a.cols();
            let ar: [&[f32]; MR] = std::array::from_fn(|r| a.row(a_row0 + r.min(mr - 1)));
            for kk in (0..k_dim).step_by(KC) {
                let kc = KC.min(k_dim - kk);
                let pbp = panel[(k0 + kk) * lanes..][..kc * lanes].as_ptr();
                let ap = ar.map(|row| row[kk..kk + kc].as_ptr());
                let mut acc = [[zero; NV]; MR];
                for k in 0..kc {
                    // SAFETY: each `ap` row and the `pbp` block are
                    // bounds-checked slices of `kc` values and `kc` groups
                    // of `lanes` floats, and `k < kc`, so every load is in
                    // bounds.
                    unsafe {
                        let mut bv = [zero; NV];
                        for (v, bk) in bv.iter_mut().enumerate() {
                            *bk = w.load(pbp.add(k * lanes + W::LANES * v));
                        }
                        for (c, p) in acc.iter_mut().zip(&ap) {
                            let av = w.splat(*p.add(k));
                            for (cv, &bk) in c.iter_mut().zip(&bv) {
                                *cv = w.fmadd(av, bk, *cv);
                            }
                        }
                    }
                }
                for (s, c) in sum.iter_mut().zip(&acc) {
                    for (sv, &cv) in s.iter_mut().zip(c) {
                        *sv = w.add(*sv, cv);
                    }
                }
            }
            k0 += k_dim;
        }
        for (r, s) in sum.iter().enumerate().take(mr) {
            let p = out[r * n + j0..][..cols].as_mut_ptr();
            for (v, &sv) in s.iter().enumerate() {
                let at = W::LANES * v;
                // SAFETY: vector `v` covers columns `at..` of `cols`, and
                // `p` (of `out`) and `bias` start bounds-checked slices of
                // `cols` floats; lanes past `cols - at` are neither read nor
                // written.
                unsafe {
                    let mut d = sv;
                    if let Some(bias) = bias {
                        d = w.add(d, w.load_first(cols - at, bias.as_ptr().add(at)));
                        if epi.relu {
                            d = w.max(d, zero);
                        }
                    }
                    w.store_first(cols - at, p.add(at), d);
                }
            }
        }
    }

    /// The stacked weight gradient of [`super::grad_weights_into`], over a
    /// window of its rows: per [`DW_ROWS`]-row chunk of the reduction, the
    /// `MR`-row tiles of every operand's share of the window, each loaded,
    /// advanced by FMA over the chunk's rows and stored once — so the chunk
    /// of `grad` is read from memory once and stays in cache for every
    /// operand. Columns past `8·⌊n/8⌋` run over the same chunk as `MR`-row
    /// tiles of the share's transposed gradient (one row per column, its
    /// lanes over `dst`'s rows), advanced by a separate `mul` + `add` per
    /// row, in a scratch from the pack arena that is scattered into `dst`
    /// after the last chunk.
    pub(super) fn grad_weights<W: Width>(
        w: W,
        xs: &[&Matrix],
        grad: &Matrix,
        rows: Range<usize>,
        dst: &mut [f32],
    ) {
        let narrow = grad.cols() % 8;
        workspace::with_pack_buffer(rows.len() * narrow, |t| {
            w.enable(GradWeights(xs, grad, rows, dst, t))
        });
    }

    /// [`grad_weights`]' arguments and its transposed scratch.
    struct GradWeights<'a>(
        &'a [&'a Matrix],
        &'a Matrix,
        Range<usize>,
        &'a mut [f32],
        &'a mut [f32],
    );

    impl Pass for GradWeights<'_> {
        #[inline(always)]
        fn run<W: Width>(self, w: W) {
            let GradWeights(xs, grad, rows, dst, t) = self;
            let (m, n) = (grad.rows(), grad.cols());
            debug_assert_eq!(dst.len(), rows.len() * n, "dst shape");
            dst.fill(0.0);
            t.fill(0.0);
            let (nv, nr) = (n - n % 8, W::LANES * W::NV);
            for r0 in (0..m).step_by(DW_ROWS) {
                let chunk = r0..(r0 + DW_ROWS).min(m);
                for (x, ks, at) in operand_windows(xs, rows.clone()) {
                    let d = &mut dst[at * n..(at + ks.len()) * n];
                    for j0 in (0..nv).step_by(nr) {
                        let cols = nr.min(nv - j0);
                        for i0 in ks.clone().step_by(MR) {
                            with_vectors!(W, cols, NV => {
                                dw_tile::<W, NV>(w, x, grad, chunk.clone(), &ks, i0, j0, cols, d)
                            })
                        }
                    }
                    for j0 in (nv..n).step_by(MR) {
                        for i0 in ks.clone().step_by(nr) {
                            let cols = nr.min(ks.end - i0);
                            let c0 = at + i0 - ks.start;
                            with_vectors!(W, cols, NV => {
                                dw_narrow_tile::<W, NV>(w, x, grad, chunk.clone(), j0, i0, c0, cols, t)
                            })
                        }
                    }
                }
            }
            if nv < n {
                for (i, drow) in dst.chunks_exact_mut(n).enumerate() {
                    for (j, d) in drow[nv..].iter_mut().enumerate() {
                        *d = t[j * rows.len() + i];
                    }
                }
            }
        }
    }

    /// One tile of [`grad_weights`]: rows `i0..i0 + MR` (at most, within
    /// `ks`) and columns `j0..j0 + cols` of `d`, the operand's gradient rows
    /// `ks` (`ks.len() × n`), advanced over the reduction rows `chunk`. Tile
    /// rows past the last valid one repeat it (computed, never stored).
    #[allow(clippy::too_many_arguments)] // internal micro-kernel: all args are tile indices
    #[inline(always)]
    fn dw_tile<W: Width, const NV: usize>(
        w: W,
        x: &Matrix,
        grad: &Matrix,
        chunk: Range<usize>,
        ks: &Range<usize>,
        i0: usize,
        j0: usize,
        cols: usize,
        d: &mut [f32],
    ) {
        let (k_a, n) = (x.cols(), grad.cols());
        let ni = MR.min(ks.end - i0);
        let ic: [usize; MR] = std::array::from_fn(|t| i0 + t.min(ni - 1));
        let mut acc = [[w.splat(0.0); NV]; MR];
        for (c, &i) in acc.iter_mut().zip(&ic) {
            let p = d[(i - ks.start) * n + j0..][..cols].as_ptr();
            for (v, cv) in c.iter_mut().enumerate() {
                let at = W::LANES * v;
                // SAFETY: vector `v` covers columns `at..` of `cols`, and `p`
                // starts a bounds-checked slice of `cols` floats.
                *cv = unsafe { w.load_first(cols - at, p.add(at)) };
            }
        }
        // The chunk's rows of both operands, walked by stride.
        let xr = &x.data()[chunk.start * k_a..chunk.end * k_a];
        let gr = &grad.data()[chunk.start * n..chunk.end * n];
        for r in 0..chunk.len() {
            // SAFETY: row `r` of each window is in bounds, every `ic` index
            // is below `ks.end ≤ k_a`, and vector `v` reads only columns `j0
            // + at..j0 + cols ≤ n` of the `grad` row.
            unsafe {
                let xp = xr.as_ptr().add(r * k_a);
                let gp = gr.as_ptr().add(r * n + j0);
                let mut gv = [w.splat(0.0); NV];
                for (v, g) in gv.iter_mut().enumerate() {
                    *g = w.load_first(cols - W::LANES * v, gp.add(W::LANES * v));
                }
                for (c, &i) in acc.iter_mut().zip(&ic) {
                    let xv = w.splat(*xp.add(i));
                    for (cv, &g) in c.iter_mut().zip(&gv) {
                        *cv = w.fmadd(xv, g, *cv);
                    }
                }
            }
        }
        for (c, &i) in acc.iter().zip(&ic).take(ni) {
            let p = d[(i - ks.start) * n + j0..][..cols].as_mut_ptr();
            for (v, &cv) in c.iter().enumerate() {
                let at = W::LANES * v;
                // SAFETY: as for the loads above.
                unsafe { w.store_first(cols - at, p.add(at), cv) };
            }
        }
    }

    /// One tile of [`grad_weights`]' columns past `nv = 8·⌊n/8⌋`: the
    /// columns `j0..j0 + MR` (at most, all `≥ nv`) of the window's gradient,
    /// held transposed in `t` (row `j - nv` is column `j`, one lane per
    /// window row), over the operand's columns `i0..i0 + cols`, which sit at
    /// `t`'s columns `c0..`, advanced over the reduction rows `chunk` by `t +
    /// x·g` with a separate `mul` and `add`. Tile rows past the last valid
    /// column repeat it (computed, never stored).
    #[allow(clippy::too_many_arguments)] // internal micro-kernel: all args are tile indices
    #[inline(always)]
    fn dw_narrow_tile<W: Width, const NV: usize>(
        w: W,
        x: &Matrix,
        grad: &Matrix,
        chunk: Range<usize>,
        j0: usize,
        i0: usize,
        c0: usize,
        cols: usize,
        t: &mut [f32],
    ) {
        let n = grad.cols();
        let nv = n - n % 8;
        let k_w = t.len() / (n - nv);
        let nj = MR.min(n - j0);
        let jc: [usize; MR] = std::array::from_fn(|t| j0 + t.min(nj - 1));
        let mut acc = [[w.splat(0.0); NV]; MR];
        for (c, &j) in acc.iter_mut().zip(&jc) {
            let p = t[(j - nv) * k_w + c0..][..cols].as_ptr();
            for (v, cv) in c.iter_mut().enumerate() {
                let at = W::LANES * v;
                // SAFETY: vector `v` covers rows `at..` of `cols`, and `p`
                // starts a bounds-checked slice of `cols` floats.
                *cv = unsafe { w.load_first(cols - at, p.add(at)) };
            }
        }
        for r in chunk {
            let (xp, g) = (x.row(r)[i0..i0 + cols].as_ptr(), grad.row(r));
            let mut xv = [w.splat(0.0); NV];
            for (v, xl) in xv.iter_mut().enumerate() {
                let at = W::LANES * v;
                // SAFETY: as for the loads of `t` above; `xp` starts a
                // bounds-checked slice of `cols` floats of row `r`.
                *xl = unsafe { w.load_first(cols - at, xp.add(at)) };
            }
            for (c, &j) in acc.iter_mut().zip(&jc) {
                let gv = w.splat(g[j]);
                for (cv, &xl) in c.iter_mut().zip(&xv) {
                    *cv = w.add(*cv, w.mul(xl, gv));
                }
            }
        }
        for (c, &j) in acc.iter().zip(&jc).take(nj) {
            let p = t[(j - nv) * k_w + c0..][..cols].as_mut_ptr();
            for (v, &cv) in c.iter().enumerate() {
                let at = W::LANES * v;
                // SAFETY: as for the loads above.
                unsafe { w.store_first(cols - at, p.add(at), cv) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace;

    #[test]
    fn simd_gemm_matches_scalar_within_contract() {
        if !available() {
            return;
        }
        for (m, k, n) in [
            (1, 1, 1),
            (4, 16, 16),
            (7, 13, 5),
            (65, 300, 9),
            (130, 64, 520),
        ] {
            let a = Matrix::xavier(m, k, 1);
            let b = Matrix::xavier(k, n, 2);
            let mut got = vec![0.0f32; m * n];
            gemm_into(&[(&a, 0)], 0..m, &b, Epilogue::none(), true, &mut got);
            let want = reference::matmul(&a, &b);
            assert!(bits(&got) == bits(want.data()), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn simd_gemm_accumulate_and_row_window() {
        if !available() {
            return;
        }
        // The fused-SAGE invariant: row windows of a stacked B, accumulated.
        let a = Matrix::xavier(10, 6, 7);
        let w = Matrix::xavier(12, 8, 8);
        let mut fused = vec![0.0f32; 10 * 8];
        gemm_into(
            &[(&a, 0), (&a, 6)],
            0..10,
            &w,
            Epilogue::none(),
            true,
            &mut fused,
        );
        let w_top = Matrix::from_vec(6, 8, w.data()[..48].to_vec());
        let w_bot = Matrix::from_vec(6, 8, w.data()[48..].to_vec());
        let want_top = reference::matmul(&a, &w_top);
        let want_bot = reference::matmul(&a, &w_bot);
        // One `KC` block per operand: `(0 + acc_top) + acc_bot`, which is
        // the sum of the two products bit for bit.
        let want: Vec<f32> = (want_top.data().iter().zip(want_bot.data()))
            .map(|(t, b)| t + b)
            .collect();
        assert!(bits(&fused) == bits(&want));
    }

    #[test]
    fn simd_gemm_partition_invariant_bitwise() {
        if !available() {
            return;
        }
        // Per-element FMA order is independent of the row range split, so
        // pool-style partitioning is bitwise-reproducible.
        let a = Matrix::xavier(71, 33, 3);
        let b = Matrix::xavier(33, 19, 4);
        let mut whole = vec![0.0f32; 71 * 19];
        gemm_into(&[(&a, 0)], 0..71, &b, Epilogue::none(), true, &mut whole);
        let mut split = vec![0.0f32; 71 * 19];
        let (top, bot) = split.split_at_mut(40 * 19);
        gemm_into(&[(&a, 0)], 0..40, &b, Epilogue::none(), true, top);
        gemm_into(&[(&a, 0)], 40..71, &b, Epilogue::none(), true, bot);
        assert_eq!(whole, split);
    }

    #[test]
    fn simd_transposes_match_scalar_within_contract() {
        if !available() {
            return;
        }
        for (m, k, n) in [(1, 1, 1), (9, 70, 5), (67, 13, 30), (300, 65, 4)] {
            let a = Matrix::xavier(m, k, 5);
            let b = Matrix::xavier(m, n, 6);
            let mut got = vec![0.0f32; k * n];
            grad_weights_into(&[&a], &b, 0..k, true, &mut got);
            let want = reference::matmul_transpose_self(&a, &b);
            assert!(bits(&got) == bits(want.data()), "AtB {m}x{k}x{n}");
            let bt = Matrix::xavier(n, k, 7);
            let got = crate::DispatchPolicy::default().grad_input(&a, &bt, 0..n, None);
            let want = reference::matmul(&a, &bt.transpose());
            assert!(bits(got.data()) == bits(want.data()), "ABt {m}x{k}x{n}");
        }
    }

    /// The obvious SpMM: per output row, from `+0`, `d += w * s` for each
    /// stored entry in order — the sequence the row kernel must reproduce.
    fn entry_loop(adj: &SparseView<'_>, table: &[f32], ids: Option<&[u32]>, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; adj.rows() * n];
        for (i, drow) in out.chunks_exact_mut(n).enumerate() {
            for k in adj.row_range(i) {
                let c = adj.indices()[k] as usize;
                let r = ids.map_or(c, |ids| ids[c] as usize);
                let w = adj.values().map_or(1.0, |v| v[k]);
                for (d, &s) in drow.iter_mut().zip(&table[r * n..(r + 1) * n]) {
                    *d += w * s;
                }
            }
        }
        out
    }

    /// Values that stress the per-element sequence: signed zeros,
    /// subnormals, and magnitudes far apart (so a reordered or fused sum
    /// rounds differently).
    fn awkward(i: usize) -> f32 {
        match i % 11 {
            0 => 0.0,
            1 => -0.0,
            2 => f32::from_bits(0x0000_0001 + i as u32 % 977), // subnormal
            3 => -f32::from_bits(0x0040_0000),                 // subnormal
            4 => 1.0e7 + i as f32,
            5 => -3.0e-3,
            _ => ((i * 7919) % 1000) as f32 * 1.37e-3 - 0.6,
        }
    }

    #[test]
    fn spmm_row_kernel_equals_the_entry_loop_bitwise() {
        const WIDTHS: [usize; 10] = [1, 7, 8, 9, 63, 64, 65, 127, 128, 130];
        const ROW_LENS: [usize; 6] = [0, 1, 2, 15, 16, 100];
        let table_rows = 37;
        // One row per length; column `(3i + 5k) % 37` repeats columns
        // within the 100-entry row, and every tenth entry repeats the last.
        let mut indptr = vec![0u32];
        let mut indices: Vec<u32> = Vec::new();
        for (i, &len) in ROW_LENS.iter().enumerate() {
            for k in 0..len {
                let c = match indices.last() {
                    Some(&last) if k % 10 == 9 => last,
                    _ => ((3 * i + 5 * k) % 37) as u32,
                };
                indices.push(c);
            }
            indptr.push(indices.len() as u32);
        }
        let values: Vec<f32> = (0..indices.len()).map(|k| awkward(k * 3 + 1)).collect();
        // The id map names table rows out of order, with repeats.
        let ids: Vec<u32> = (0..37u32).map(|c| (c * 11 + 4) % 29).collect();
        let avx2 = detect().avx2();
        for n in WIDTHS {
            let table: Vec<f32> = (0..table_rows * n).map(|i| awkward(i + n)).collect();
            for vals in [None, Some(&values[..])] {
                let adj = SparseView::new(ROW_LENS.len(), 37, &indptr, &indices, vals);
                for map in [None, Some(&ids[..])] {
                    let want = bits(&entry_loop(&adj, &table, map, n));
                    let run = |simd: Option<Avx2>| {
                        let mut out = vec![f32::NAN; adj.rows() * n];
                        if let Some(_avx2) = simd {
                            #[cfg(target_arch = "x86_64")]
                            x86::spmm_rows(_avx2, &adj, 0..adj.rows(), &table, map, n, &mut out);
                        } else {
                            spmm_rows(&adj, 0..adj.rows(), &table, map, n, false, &mut out);
                        }
                        bits(&out)
                    };
                    let what = format!("n={n} values={} ids={}", vals.is_some(), map.is_some());
                    assert!(run(None) == want, "scalar tier, {what}");
                    if avx2.is_some() {
                        assert!(run(avx2) == want, "avx2 tier, {what}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "spmm source row 9 out of range of a 9-row table")]
    fn spmm_row_kernel_panics_on_a_source_row_past_the_table() {
        // Column 9 of a 9-row table: `SparseView::new` checks columns in
        // debug builds only, so the kernel has to refuse it itself — on
        // whichever tier the host runs.
        let (indptr, indices) = (vec![0u32, 1, 2], vec![0u32, 9]);
        let adj = SparseView::new(2, 10, &indptr, &indices, None);
        let table = vec![1.0f32; 9 * 64];
        let mut out = vec![0.0f32; 2 * 64];
        spmm_rows(&adj, 0..2, &table, None, 64, true, &mut out);
    }

    /// `rows × cols` Xavier values with `+0.0`, `-0.0` and tiny values
    /// sprinkled in: the product of two tiny values of opposite sign
    /// underflows to `-0.0`, so an accumulator from `+0` can end at `-0`.
    fn with_signed_zeros(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut m = Matrix::xavier(rows, cols, seed);
        for (i, v) in m.data_mut().iter_mut().enumerate() {
            match i % 7 {
                0 => *v = -0.0,
                3 => *v = 0.0,
                5 => *v *= 1e-30,
                _ => {}
            }
        }
        m
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The shapes the AVX-512 kernels are pinned to the AVX2 tier on,
    /// `(m, k, k2, n)`: every `m` to 17; depths on both sides of 8, 16, 64
    /// and the `KC` block, the second operand's depth `k2` the next one in
    /// the list (so the two operands' `KC` blocks end at different places);
    /// widths on both sides of every vector and tile width, among them 8,
    /// 15, 31 and 40, whose weight-gradient vector columns end in a
    /// half-masked vector. The tall shapes are training steps, at SAGE
    /// layer 0's depths among others.
    fn tier_shapes() -> Vec<(usize, usize, usize, usize)> {
        const KS: [usize; 9] = [1, 7, 8, 16, 63, 64, 128, 256, 300];
        const NS: [usize; 15] = [1, 7, 8, 15, 16, 17, 31, 32, 33, 40, 48, 64, 65, 128, 130];
        let mut shapes: Vec<_> = (1..=17)
            .flat_map(|m| {
                KS.iter().enumerate().flat_map(move |(i, &k)| {
                    let k2 = KS[(i + 1) % KS.len()];
                    NS.iter().map(move |&n| (m, k, k2, n))
                })
            })
            .collect();
        shapes.extend([
            (4566, 64, 128, 128),
            (4566, 128, 64, 33),
            (4566, 300, 17, 17),
            (4566, 63, 7, 31),
            (4566, 7, 8, 8),
            (4600, 64, 64, 16),
            (4600, 64, 64, 128),
            (4600, 300, 1, 48),
        ]);
        shapes
    }

    /// Runs `check(avx512, m, k, k2, n, seed)` over [`tier_shapes`] on a
    /// host with `avx512f`; elsewhere says so and returns.
    #[cfg(target_arch = "x86_64")]
    fn over_tier_shapes(test: &str, check: impl Fn(Avx512, usize, usize, usize, usize, u64)) {
        let Tier::Avx512(avx512) = detect() else {
            eprintln!("{test}: skipped, this host lacks avx512f");
            return;
        };
        for (m, k, k2, n) in tier_shapes() {
            check(avx512, m, k, k2, n, (m * 10_000 + k * 100 + n) as u64);
        }
    }

    // The AVX-512 kernels against the AVX2 tier's composition of its
    // kernels, each on its tier directly (not through the host's dispatch),
    // on ragged shapes: row windows that start off a multiple of the tile,
    // one operand and two against a stacked `B`, each epilogue, and signed
    // zeros and tiny values in every operand, the bias and the incoming
    // `dst`. Equal bits, not a tolerance: both tiers give every output
    // element the same operation sequence. One test per kernel, so the two
    // run side by side.

    /// The GEMM, and so the input gradient: it is this GEMM over a
    /// transposed weight window, one operand, no epilogue.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_tier_equals_avx2_tier_bitwise() {
        over_tier_shapes("avx512_tier_equals_avx2_tier_bitwise", gemm_tiers_agree);
    }

    /// The weight gradient.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_grad_weights_equals_avx2_bitwise() {
        over_tier_shapes(
            "avx512_grad_weights_equals_avx2_bitwise",
            grad_weights_tiers_agree,
        );
    }

    #[cfg(target_arch = "x86_64")]
    fn assert_bits(what: &str, avx2: &[f32], avx512: &[f32]) {
        assert!(bits(avx2) == bits(avx512), "{what}: tiers differ");
    }

    /// GEMM over rows 7..7+m of each operand, against the row windows of B
    /// at 3 and, for the second operand, right below the first.
    #[cfg(target_arch = "x86_64")]
    fn gemm_tiers_agree(avx512: Avx512, m: usize, k: usize, k2: usize, n: usize, seed: u64) {
        let a1 = with_signed_zeros(m + 9, k, seed);
        let a2 = with_signed_zeros(m + 9, k2, seed + 1);
        let b = with_signed_zeros(3 + k + k2, n, seed + 2);
        let bias = with_signed_zeros(1, n, seed + 3).into_data();
        let init = with_signed_zeros(m, n, seed + 4).into_data();
        let one = [(&a1, 3)];
        let two = [(&a1, 3), (&a2, 3 + k)];
        for ops in [&one[..], &two[..]] {
            for epi in [
                Epilogue::none(),
                Epilogue::bias(&bias),
                Epilogue::bias_relu(&bias),
            ] {
                let (mut d2, mut d5) = (init.clone(), init.clone());
                gemm_on(Tier::Avx2(avx512.avx2()), ops, 7..7 + m, &b, epi, &mut d2);
                gemm_on(Tier::Avx512(avx512), ops, 7..7 + m, &b, epi, &mut d5);
                let what = format!("gemm, {} operands, {epi:?}", ops.len());
                assert_bits(&format!("{what} m={m} k={k} k2={k2} n={n}"), &d2, &d5);
            }
        }
    }

    /// Weight gradient over every row of an `m`-row gradient (the operands
    /// are taller), one operand and the stacked pair, into the whole output
    /// and into the window from row 1, whose tiles start off a multiple of
    /// the tile and which straddles the pair's boundary.
    #[cfg(target_arch = "x86_64")]
    fn grad_weights_tiers_agree(
        avx512: Avx512,
        m: usize,
        k: usize,
        k2: usize,
        n: usize,
        seed: u64,
    ) {
        let x1 = with_signed_zeros(m + 3, k, seed + 5);
        let x2 = with_signed_zeros(m + 3, k2, seed + 6);
        let g = with_signed_zeros(m, n, seed + 7);
        for xs in [&[&x1][..], &[&x1, &x2][..]] {
            let rows = xs.iter().map(|x| x.cols()).sum::<usize>();
            for window in [0..rows, 1..rows] {
                let init = with_signed_zeros(window.len(), n, seed + 8).into_data();
                let (mut d2, mut d5) = (init.clone(), init);
                grad_weights_on(Tier::Avx2(avx512.avx2()), xs, &g, window.clone(), &mut d2);
                grad_weights_on(Tier::Avx512(avx512), xs, &g, window.clone(), &mut d5);
                let what = format!("grad_weights, {} operands, rows {window:?}", xs.len());
                assert_bits(&format!("{what} m={m} k={k} k2={k2} n={n}"), &d2, &d5);
            }
        }
    }

    /// Every tier the host has, through `gemm_on` / `grad_weights_on`,
    /// against [`reference`] bit for bit. Over the `m ≤ 17` shapes of
    /// [`tier_shapes`], one (operands, epilogue) combination per shape in
    /// turn: the GEMM against the scalar tier, which is the reference row
    /// forms operand after operand, then the epilogue; the weight gradient,
    /// the scalar tier included, into an output window that starts at row
    /// 0, 1 or 2 (and with two operands ends inside the second), against
    /// [`reference::transpose_self_rows_into`] over the concatenated
    /// operands; the input gradient `dY · W[2..2 + n]ᵀ` (`dY` `k` wide: the
    /// transposed weight window the dispatch builds), the scalar tier
    /// included, against [`reference::gemm_rows_into`] over the test's own
    /// transpose; and the epilogue's own cases: pre-bias values and a bias
    /// on both sides of zero, with `-0`, at every tail width.
    #[test]
    fn every_tier_equals_reference_bitwise() {
        let host = detect();
        let mut tiers = vec![Tier::Scalar];
        tiers.extend(host.avx2().map(Tier::Avx2));
        tiers.extend(matches!(host, Tier::Avx512(_)).then_some(host));
        let gemm =
            |ops: &[(&Matrix, usize)], m: usize, b: &Matrix, epi: Epilogue<'_>, what: &str| {
                let run = |tier| {
                    let mut got = vec![f32::NAN; m * b.cols()];
                    gemm_on(tier, ops, 7..7 + m, b, epi, &mut got);
                    bits(&got)
                };
                let want = run(Tier::Scalar);
                for &tier in &tiers[1..] {
                    assert!(run(tier) == want, "{tier:?} gemm {what} {epi:?}");
                }
            };
        let shapes = tier_shapes().into_iter().filter(|&(m, ..)| m <= 17);
        for (s, (m, k, k2, n)) in shapes.enumerate() {
            let seed = (m * 10_000 + k * 100 + n) as u64;
            let a1 = with_signed_zeros(m + 9, k, seed);
            let a2 = with_signed_zeros(m + 9, k2, seed + 1);
            let b = with_signed_zeros(3 + k + k2, n, seed + 2);
            let bias = with_signed_zeros(1, n, seed + 3).into_data();
            let ops = [(&a1, 3), (&a2, 3 + k)];
            let ops = &ops[..1 + s % 2];
            let epi = [
                Epilogue::none(),
                Epilogue::bias(&bias),
                Epilogue::bias_relu(&bias),
            ];
            let what = format!("{} operands m={m} k={k} k2={k2} n={n}", ops.len());
            gemm(ops, m, &b, epi[s / 2 % 3], &what);
            let (xs, cat) = match s % 2 {
                0 => (vec![&a1], a1.clone()),
                _ => (vec![&a1, &a2], a1.concat_cols(&a2)),
            };
            let (g, rows) = (with_signed_zeros(m + 4, n, seed + 4), 7..7 + m);
            let window = (s % 3).min(k - 1)..k + (k2 - k2 / 2) * (s % 2);
            let mut want = vec![f32::NAN; window.len() * n];
            reference::transpose_self_rows_into(&cat, &g, window.clone(), &mut want);
            let want = bits(&want);
            for &tier in &tiers {
                let mut got = vec![f32::NAN; want.len()];
                grad_weights_on(tier, &xs, &g, window.clone(), &mut got);
                assert!(
                    bits(&got) == want,
                    "{tier:?} grad_weights {window:?} {what}"
                );
            }
            let (dy, w) = (&a1, with_signed_zeros(n + 3, k, seed + 5));
            let wt = (0..k * n).map(|i| w.row(2 + i % n)[i / n]).collect();
            let mut want = vec![0.0f32; m * n];
            reference::gemm_rows_into(dy, rows.clone(), &Matrix::from_vec(k, n, wt), 0, &mut want);
            let want = bits(&want);
            for &tier in &tiers {
                let mut got = vec![f32::NAN; want.len()];
                workspace::with_transposed_rows(&w, 2..2 + n, |wt| {
                    gemm_on(
                        tier,
                        &[(dy, 0)],
                        rows.clone(),
                        wt,
                        Epilogue::none(),
                        &mut got,
                    )
                });
                assert!(bits(&got) == want, "{tier:?} grad_input m={m} k={k} n={n}");
            }
        }
        // The epilogue: rows 7 and 8 of `A` pick the two rows of `D`, so
        // `i·0.17 - 2.0` (and `-0`, which `0 + acc` turns `+0`) meets the
        // bias `j·0.21 - 1.3` (and `-0`).
        let mut pick = Matrix::zeros(9, 2);
        pick.data_mut()[14] = 1.0;
        pick.data_mut()[17] = 1.0;
        let signed = |i: usize, x: f32| if i % 5 == 3 { -0.0 } else { x };
        for n in [1usize, 7, 8, 9, 16, 31, 64, 130] {
            let d = (0..2 * n)
                .map(|i| signed(i, i as f32 * 0.17 - 2.0))
                .collect();
            let d = Matrix::from_vec(2, n, d);
            let bias: Vec<f32> = (0..n).map(|j| signed(j, j as f32 * 0.21 - 1.3)).collect();
            for epi in [Epilogue::bias(&bias), Epilogue::bias_relu(&bias)] {
                gemm(&[(&pick, 0)], 2, &d, epi, &format!("epilogue n={n}"));
            }
        }
    }
}
