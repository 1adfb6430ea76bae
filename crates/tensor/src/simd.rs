//! Explicit-SIMD kernel tier: AVX2+FMA f32x8 micro-kernels, and AVX-512
//! variants of the three dense kernels, behind one runtime dispatch point.
//!
//! Everything in this module is reachable only through the free functions
//! at the top, each of which consults [`tier`] — a cached runtime check of
//! the CPU features (overridable with `ARGO_SIMD=off`) — and otherwise falls
//! back to the scalar blocked kernels in [`crate::kernels`]. The scalar
//! fallback is compiled unconditionally, so non-x86 hosts and feature-less
//! CPUs keep today's bitwise behavior.
//!
//! Numerical contract per path (pinned by `tests/kernel_properties.rs`):
//!
//! * **GEMM / weight gradient / input gradient** use `vfmadd` — the fused
//!   multiply-add rounds once where the scalar kernels round twice, so
//!   these paths are *tolerance*-equal (≤ 1e-5 scaled) to the scalar
//!   kernels, never bitwise. Each path is still deterministic and
//!   partition-invariant: per output element the `k` contributions are
//!   folded in ascending order regardless of row ranges or pool size.
//! * **The SpMM row kernel ([`spmm_rows`]) and the bias/ReLU epilogue**
//!   vectorize the *feature* dimension with separate `mul` + `add` (never
//!   FMA): lanes are independent and per-element operation order is exactly
//!   the scalar order, so these stay **bitwise** equal to the scalar
//!   kernels. The row kernel keeps a 64-column block of its output row in
//!   registers across all of the row's entries; it runs AVX2 on the
//!   AVX-512 tier too.
//!
//! **Across vector widths the dense kernels are bitwise equal.** Each of the
//! three fixes the operation sequence every output element sees, and the
//! AVX-512 kernels (on hosts with `avx512f`) only put more elements in
//! flight, never reorder one element's operations:
//!
//! * GEMM: per `KC` block of the reduction, an accumulator from `0`, FMA
//!   over `k` ascending, then `dst + acc` (an add, not a store, so a `-0`
//!   accumulator still turns `+0`).
//! * Weight gradient: FMA into `dst` over rows ascending for the columns
//!   below `8·⌊n/8⌋`; the columns past it take a separate `mul` + `add` per
//!   row, ascending.
//! * Input gradient: eight lane accumulators (lane `l` folds `k ≡ l mod 8`
//!   ascending by FMA), reduced by the fixed 8-lane add tree of the AVX2
//!   `hsum`, `((v0+v4) + (v2+v6)) + ((v1+v5) + (v3+v7))`, plus the scalar
//!   `k`-tail sum. The AVX-512 kernel holds two such dots per register, one
//!   per 256-bit half, and runs that same tree for sixteen dots at a time
//!   (a 16-lane reduction would pair the lanes differently, and change
//!   bits).
//!
//! So `ARGO_SIMD` and the host's width choose the speed, not the bits: the
//! AVX-512 and AVX2 tiers give equal results on every input
//! (`avx512_tier_equals_avx2_tier_bitwise`).
//!
//! The GEMMs pack `B` into column panels (and the AVX2 one `A` into row
//! panels; layouts below), the AVX-512 input gradient packs `B` into row
//! pairs, all drawn from the per-thread pack arena in [`crate::workspace`],
//! so steady-state training and serving do not allocate here.

use std::ops::Range;
use std::sync::OnceLock;

use crate::dense::Matrix;
use crate::kernels;
use crate::sparse::SparseView;

/// The kernel tier the host runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum Tier {
    /// The blocked scalar kernels of [`crate::kernels`].
    Scalar,
    /// AVX2+FMA for every kernel.
    Avx2,
    /// AVX-512 for GEMM and both gradients; AVX2+FMA for the rest.
    Avx512,
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

#[cfg(target_arch = "x86_64")]
fn detect() -> Tier {
    if !(is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")) {
        Tier::Scalar
    } else if is_x86_feature_detected!("avx512f") {
        Tier::Avx512
    } else {
        Tier::Avx2
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Tier {
    Tier::Scalar
}

/// Whether the SIMD tier is usable on this host: `x86_64` with `avx2` and
/// `fma`, and not disabled via `ARGO_SIMD=off` (or `0`). Cached after the
/// first call, so the environment switch must be set before any kernel
/// runs (as the CI fallback stage does).
pub fn available() -> bool {
    tier() != Tier::Scalar
}

/// The name of the kernel tier this process dispatches to: `"avx512f"`,
/// `"avx2+fma"` or `"scalar"` — the same detection the kernels read.
pub fn simd_tier() -> &'static str {
    match tier() {
        Tier::Avx512 => "avx512f",
        Tier::Avx2 => "avx2+fma",
        Tier::Scalar => "scalar",
    }
}

/// SIMD [`crate::kernels::gemm_into`]: `dst (+)= A[rows] @ B[b_row_offset..]`.
pub(crate) fn gemm_into(
    a: &Matrix,
    rows: Range<usize>,
    b: &Matrix,
    b_row_offset: usize,
    dst: &mut [f32],
    accumulate: bool,
) {
    #[cfg(target_arch = "x86_64")]
    {
        match tier() {
            Tier::Avx512 => return avx512::gemm(a, rows, b, b_row_offset, dst, accumulate),
            Tier::Avx2 => return x86::gemm(a, rows, b, b_row_offset, dst, accumulate),
            Tier::Scalar => {}
        }
    }
    kernels::gemm_into(a, rows, b, b_row_offset, dst, accumulate);
}

/// SIMD [`crate::kernels::transpose_self_into`]: `dst (+)= Aᵀ @ B` over a
/// row window (the weight-gradient reduction).
pub(crate) fn transpose_self_into(
    a: &Matrix,
    b: &Matrix,
    rows: Range<usize>,
    a_row_offset: usize,
    dst: &mut [f32],
    accumulate: bool,
) {
    #[cfg(target_arch = "x86_64")]
    {
        match tier() {
            Tier::Avx512 => {
                return avx512::transpose_self(a, b, rows, a_row_offset, dst, accumulate)
            }
            Tier::Avx2 => return x86::transpose_self(a, b, rows, a_row_offset, dst, accumulate),
            Tier::Scalar => {}
        }
    }
    kernels::transpose_self_into(a, b, rows, a_row_offset, dst, accumulate);
}

/// SIMD [`crate::kernels::transpose_other_into`]: `dst = A[a_rows] @
/// B[b_rows]ᵀ` (the input-gradient dot-product kernel).
pub(crate) fn transpose_other_into(
    a: &Matrix,
    a_rows: Range<usize>,
    b: &Matrix,
    b_rows: Range<usize>,
    dst: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    {
        match tier() {
            Tier::Avx512 => return avx512::transpose_other(a, a_rows, b, b_rows, dst),
            Tier::Avx2 => return x86::transpose_other(a, a_rows, b, b_rows, dst),
            Tier::Scalar => {}
        }
    }
    kernels::transpose_other_into(a, a_rows, b, b_rows, dst);
}

/// SIMD [`crate::kernels::epilogue_bias_relu`]; bitwise-equal to the scalar
/// epilogue (per-element `add`/`max`, lane order preserved).
pub(crate) fn epilogue_bias_relu(dst: &mut [f32], bias: &[f32], relu: bool) {
    #[cfg(target_arch = "x86_64")]
    {
        if available() {
            x86::epilogue(dst, bias, relu);
            return;
        }
    }
    kernels::epilogue_bias_relu(dst, bias, relu);
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
    {
        if use_simd && available() {
            x86::spmm_rows(adj, rows, table, ids, n, out);
            return;
        }
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
    //! The AVX2+FMA implementations. Every function here is only reachable
    //! through the module-level wrappers after [`super::available`] has
    //! confirmed the `avx2` and `fma` CPU features at runtime.

    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_castps256_ps128, _mm256_extractf128_ps, _mm256_fmadd_ps,
        _mm256_loadu_ps, _mm256_max_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps, _mm_add_ps, _mm_add_ss, _mm_cvtss_f32, _mm_movehl_ps, _mm_shuffle_ps,
    };
    use std::ops::Range;

    use crate::dense::Matrix;
    use crate::kernels::{KC, MC, NC};
    use crate::sparse::SparseView;
    use crate::workspace;

    /// Micro-kernel row tile: `A` values broadcast across the lanes.
    const MR: usize = 4;
    /// Micro-kernel column tile: two f32x8 vectors per output row.
    const NR: usize = 16;

    /// Packs an `mc × kc` block of `A` (rows `row0..row0+mc`, reduction
    /// columns `kk..kk+kc`) into `MR`-row tiles, k-major within each tile
    /// (`buf[tile*MR*kc + k*MR + r]`), zero-padding rows past `mc` so the
    /// micro-kernel never branches on the row tail.
    fn pack_a(a: &Matrix, row0: usize, mc: usize, kk: usize, kc: usize, buf: &mut [f32]) {
        for t in 0..mc.div_ceil(MR) {
            let tile = &mut buf[t * MR * kc..(t + 1) * MR * kc];
            for r in 0..MR {
                let gr = t * MR + r;
                if gr < mc {
                    for (k, &v) in a.row(row0 + gr)[kk..kk + kc].iter().enumerate() {
                        tile[k * MR + r] = v;
                    }
                } else {
                    for k in 0..kc {
                        tile[k * MR + r] = 0.0;
                    }
                }
            }
        }
    }

    /// Packs a `kc × nc` block of `B` (rows `kk..`, columns `jj..`) into
    /// `NR`-column tiles, k-major within each tile
    /// (`buf[tile*NR*kc + k*NR + lane]`), zero-padding column tails. `NR` is
    /// the micro-kernel's width: 16 here, 32 in the AVX-512 GEMM.
    pub(super) fn pack_b<const NR: usize>(
        b: &Matrix,
        kk: usize,
        kc: usize,
        jj: usize,
        nc: usize,
        buf: &mut [f32],
    ) {
        for t in 0..nc.div_ceil(NR) {
            let j0 = jj + t * NR;
            let w = NR.min(jj + nc - j0);
            let tile = &mut buf[t * NR * kc..(t + 1) * NR * kc];
            for k in 0..kc {
                let lanes = &mut tile[k * NR..(k + 1) * NR];
                lanes[..w].copy_from_slice(&b.row(kk + k)[j0..j0 + w]);
                lanes[w..].fill(0.0);
            }
        }
    }

    /// The register-blocked micro-kernel: `dst[at + r*ldd + c] += Σ_k
    /// pa[k*MR+r] * pb[k*NR+c]` for the `mr × nr` valid corner of a 4×16
    /// tile. Full tiles write back straight into `dst`; partial edge tiles
    /// drain through a stack temp so padded lanes never touch `dst` —
    /// valid lanes see an identical FMA sequence either way.
    #[allow(clippy::too_many_arguments)] // internal micro-kernel: all args are tile indices
    #[target_feature(enable = "avx2,fma")]
    fn micro_4x16(
        pa: &[f32],
        pb: &[f32],
        kc: usize,
        dst: &mut [f32],
        at: usize,
        ldd: usize,
        mr: usize,
        nr: usize,
    ) {
        debug_assert!(pa.len() >= kc * MR && pb.len() >= kc * NR, "packed panels");
        let mut c00 = _mm256_setzero_ps();
        let mut c01 = _mm256_setzero_ps();
        let mut c10 = _mm256_setzero_ps();
        let mut c11 = _mm256_setzero_ps();
        let mut c20 = _mm256_setzero_ps();
        let mut c21 = _mm256_setzero_ps();
        let mut c30 = _mm256_setzero_ps();
        let mut c31 = _mm256_setzero_ps();
        let pap = pa.as_ptr();
        let pbp = pb.as_ptr();
        for k in 0..kc {
            // SAFETY: avx2+fma were confirmed by `available()` before any
            // call into this module; `pa`/`pb` hold `kc` packed groups of
            // MR / NR lanes (asserted above), so every load is in bounds.
            unsafe {
                let b0 = _mm256_loadu_ps(pbp.add(k * NR));
                let b1 = _mm256_loadu_ps(pbp.add(k * NR + 8));
                let a0 = _mm256_set1_ps(*pap.add(k * MR));
                let a1 = _mm256_set1_ps(*pap.add(k * MR + 1));
                let a2 = _mm256_set1_ps(*pap.add(k * MR + 2));
                let a3 = _mm256_set1_ps(*pap.add(k * MR + 3));
                c00 = _mm256_fmadd_ps(a0, b0, c00);
                c01 = _mm256_fmadd_ps(a0, b1, c01);
                c10 = _mm256_fmadd_ps(a1, b0, c10);
                c11 = _mm256_fmadd_ps(a1, b1, c11);
                c20 = _mm256_fmadd_ps(a2, b0, c20);
                c21 = _mm256_fmadd_ps(a2, b1, c21);
                c30 = _mm256_fmadd_ps(a3, b0, c30);
                c31 = _mm256_fmadd_ps(a3, b1, c31);
            }
        }
        let acc = [[c00, c01], [c10, c11], [c20, c21], [c30, c31]];
        if mr == MR && nr == NR {
            debug_assert!(at + (MR - 1) * ldd + NR <= dst.len(), "full tile bounds");
            for (r, [v0, v1]) in acc.into_iter().enumerate() {
                // SAFETY: avx2 confirmed by `available()`; the full-tile
                // bounds assertion above keeps each 8-lane load/store of
                // this output row inside `dst`.
                unsafe {
                    let p = dst.as_mut_ptr().add(at + r * ldd);
                    _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), v0));
                    _mm256_storeu_ps(p.add(8), _mm256_add_ps(_mm256_loadu_ps(p.add(8)), v1));
                }
            }
        } else {
            let mut tmp = [0.0f32; MR * NR];
            for (r, [v0, v1]) in acc.into_iter().enumerate() {
                // SAFETY: avx2 confirmed by `available()`; `tmp` holds
                // exactly MR*NR floats, so both 8-lane stores fit.
                unsafe {
                    _mm256_storeu_ps(tmp.as_mut_ptr().add(r * NR), v0);
                    _mm256_storeu_ps(tmp.as_mut_ptr().add(r * NR + 8), v1);
                }
            }
            for r in 0..mr {
                let drow = &mut dst[at + r * ldd..at + r * ldd + nr];
                for (d, &t) in drow.iter_mut().zip(&tmp[r * NR..r * NR + nr]) {
                    *d += t;
                }
            }
        }
    }

    /// Packed-panel GEMM driver: the same `k`-outermost MC/KC/NC blocking
    /// as [`crate::kernels::gemm_into`], with panels packed into the
    /// per-thread arena and the 4×16 FMA micro-kernel in the middle. `A`
    /// is repacked per `jj` panel — irrelevant at the model-side widths
    /// (`n ≤ NC` means the `jj` loop runs once).
    pub(super) fn gemm(
        a: &Matrix,
        rows: Range<usize>,
        b: &Matrix,
        b_row_offset: usize,
        dst: &mut [f32],
        accumulate: bool,
    ) {
        let k_dim = a.cols();
        let n = b.cols();
        let m = rows.len();
        debug_assert_eq!(dst.len(), m * n, "dst shape");
        if !accumulate {
            dst.fill(0.0);
        }
        if m == 0 || n == 0 || k_dim == 0 {
            return;
        }
        workspace::with_pack_buffers(MC * KC, KC * NC, |pa, pb| {
            for kk in (0..k_dim).step_by(KC) {
                let kc = KC.min(k_dim - kk);
                for jj in (0..n).step_by(NC) {
                    let nc = NC.min(n - jj);
                    pack_b::<NR>(b, b_row_offset + kk, kc, jj, nc, pb);
                    for ii in (0..m).step_by(MC) {
                        let mc = MC.min(m - ii);
                        pack_a(a, rows.start + ii, mc, kk, kc, pa);
                        let mut it = 0;
                        while it < mc {
                            let mr = MR.min(mc - it);
                            let pa_tile = &pa[(it / MR) * MR * kc..][..MR * kc];
                            let mut jt = 0;
                            while jt < nc {
                                let nr = NR.min(nc - jt);
                                let pb_tile = &pb[(jt / NR) * NR * kc..][..NR * kc];
                                let at = (ii + it) * n + jj + jt;
                                // SAFETY: avx2+fma were confirmed by
                                // `available()` before dispatch routed here.
                                unsafe {
                                    micro_4x16(pa_tile, pb_tile, kc, dst, at, n, mr, nr);
                                }
                                jt += NR;
                            }
                            it += MR;
                        }
                    }
                }
            }
        });
    }

    /// FMA weight-gradient reduction, same blocking/unroll structure as
    /// [`crate::kernels::transpose_self_into`] with the `n` loop in 8-wide
    /// FMA lanes (scalar mul+add tail; tolerance contract).
    pub(super) fn transpose_self(
        a: &Matrix,
        b: &Matrix,
        rows: Range<usize>,
        a_row_offset: usize,
        dst: &mut [f32],
        accumulate: bool,
    ) {
        if !accumulate {
            dst.fill(0.0);
        }
        // SAFETY: avx2+fma were confirmed by `available()` before dispatch
        // routed into this module.
        unsafe { transpose_self_avx(a, b, rows, a_row_offset, dst) }
    }

    #[target_feature(enable = "avx2,fma")]
    fn transpose_self_avx(
        a: &Matrix,
        b: &Matrix,
        rows: Range<usize>,
        a_row_offset: usize,
        dst: &mut [f32],
    ) {
        let k_a = a.cols();
        let n = b.cols();
        debug_assert_eq!(dst.len(), k_a * n, "dst shape");
        let lo = rows.start;
        let m = rows.len();
        for rr in (0..m).step_by(KC) {
            let r_hi = (rr + KC).min(m);
            for ii in (0..k_a).step_by(MC) {
                let i_hi = (ii + MC).min(k_a);
                let mut r = rr;
                while r + MR <= r_hi {
                    let (ar0, ar1, ar2, ar3) = (
                        a.row(a_row_offset + lo + r),
                        a.row(a_row_offset + lo + r + 1),
                        a.row(a_row_offset + lo + r + 2),
                        a.row(a_row_offset + lo + r + 3),
                    );
                    let (br0, br1, br2, br3) = (
                        b.row(lo + r),
                        b.row(lo + r + 1),
                        b.row(lo + r + 2),
                        b.row(lo + r + 3),
                    );
                    for i in ii..i_hi {
                        let (x0, x1, x2, x3) = (ar0[i], ar1[i], ar2[i], ar3[i]);
                        let xv0 = _mm256_set1_ps(x0);
                        let xv1 = _mm256_set1_ps(x1);
                        let xv2 = _mm256_set1_ps(x2);
                        let xv3 = _mm256_set1_ps(x3);
                        let drow = &mut dst[i * n..(i + 1) * n];
                        let mut j = 0;
                        while j + 8 <= n {
                            // SAFETY: avx2+fma confirmed by `available()`;
                            // `j + 8 <= n` bounds every 8-lane load/store
                            // of the four b rows and the dst row.
                            unsafe {
                                let dp = drow.as_mut_ptr().add(j);
                                let mut d = _mm256_loadu_ps(dp);
                                d = _mm256_fmadd_ps(xv0, _mm256_loadu_ps(br0.as_ptr().add(j)), d);
                                d = _mm256_fmadd_ps(xv1, _mm256_loadu_ps(br1.as_ptr().add(j)), d);
                                d = _mm256_fmadd_ps(xv2, _mm256_loadu_ps(br2.as_ptr().add(j)), d);
                                d = _mm256_fmadd_ps(xv3, _mm256_loadu_ps(br3.as_ptr().add(j)), d);
                                _mm256_storeu_ps(dp, d);
                            }
                            j += 8;
                        }
                        for c in j..n {
                            let mut v = drow[c];
                            v += x0 * br0[c];
                            v += x1 * br1[c];
                            v += x2 * br2[c];
                            v += x3 * br3[c];
                            drow[c] = v;
                        }
                    }
                    r += MR;
                }
                for rem in r..r_hi {
                    let ar = a.row(a_row_offset + lo + rem);
                    let br = b.row(lo + rem);
                    for i in ii..i_hi {
                        let x = ar[i];
                        let xv = _mm256_set1_ps(x);
                        let drow = &mut dst[i * n..(i + 1) * n];
                        let mut j = 0;
                        while j + 8 <= n {
                            // SAFETY: avx2+fma confirmed by `available()`;
                            // `j + 8 <= n` bounds the 8-lane load/store.
                            unsafe {
                                let dp = drow.as_mut_ptr().add(j);
                                let d = _mm256_fmadd_ps(
                                    xv,
                                    _mm256_loadu_ps(br.as_ptr().add(j)),
                                    _mm256_loadu_ps(dp),
                                );
                                _mm256_storeu_ps(dp, d);
                            }
                            j += 8;
                        }
                        for c in j..n {
                            drow[c] += x * br[c];
                        }
                    }
                }
            }
        }
    }

    /// FMA dot-product kernel for `dst = A[a_rows] @ B[b_rows]ᵀ`: the `k`
    /// reduction runs in 8 independent lanes folded by a horizontal sum,
    /// which reassociates the reduction — tolerance contract.
    pub(super) fn transpose_other(
        a: &Matrix,
        a_rows: Range<usize>,
        b: &Matrix,
        b_rows: Range<usize>,
        dst: &mut [f32],
    ) {
        // SAFETY: avx2+fma were confirmed by `available()` before dispatch
        // routed into this module.
        unsafe { transpose_other_avx(a, a_rows, b, b_rows, dst) }
    }

    #[target_feature(enable = "avx2,fma")]
    fn transpose_other_avx(
        a: &Matrix,
        a_rows: Range<usize>,
        b: &Matrix,
        b_rows: Range<usize>,
        dst: &mut [f32],
    ) {
        debug_assert_eq!(a.cols(), b.cols(), "inner dim");
        let k_dim = a.cols();
        let n = b_rows.len();
        debug_assert_eq!(dst.len(), a_rows.len() * n, "dst shape");
        const TJ: usize = 4;
        for (ir, i) in a_rows.enumerate() {
            let ar = a.row(i);
            let out_row = &mut dst[ir * n..(ir + 1) * n];
            let mut j = 0;
            while j + TJ <= n {
                let (br0, br1, br2, br3) = (
                    b.row(b_rows.start + j),
                    b.row(b_rows.start + j + 1),
                    b.row(b_rows.start + j + 2),
                    b.row(b_rows.start + j + 3),
                );
                let mut v0 = _mm256_setzero_ps();
                let mut v1 = _mm256_setzero_ps();
                let mut v2 = _mm256_setzero_ps();
                let mut v3 = _mm256_setzero_ps();
                let mut k = 0;
                while k + 8 <= k_dim {
                    // SAFETY: avx2+fma confirmed by `available()`;
                    // `k + 8 <= k_dim` bounds every 8-lane load.
                    unsafe {
                        let av = _mm256_loadu_ps(ar.as_ptr().add(k));
                        v0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(br0.as_ptr().add(k)), v0);
                        v1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(br1.as_ptr().add(k)), v1);
                        v2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(br2.as_ptr().add(k)), v2);
                        v3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(br3.as_ptr().add(k)), v3);
                    }
                    k += 8;
                }
                let (mut t0, mut t1, mut t2, mut t3) = (0.0f32, 0.0, 0.0, 0.0);
                for c in k..k_dim {
                    let x = ar[c];
                    t0 += x * br0[c];
                    t1 += x * br1[c];
                    t2 += x * br2[c];
                    t3 += x * br3[c];
                }
                out_row[j] = hsum(v0) + t0;
                out_row[j + 1] = hsum(v1) + t1;
                out_row[j + 2] = hsum(v2) + t2;
                out_row[j + 3] = hsum(v3) + t3;
                j += TJ;
            }
            for (jr, out) in out_row.iter_mut().enumerate().take(n).skip(j) {
                let br = b.row(b_rows.start + jr);
                let mut v = _mm256_setzero_ps();
                let mut k = 0;
                while k + 8 <= k_dim {
                    // SAFETY: avx2+fma confirmed by `available()`;
                    // `k + 8 <= k_dim` bounds both 8-lane loads.
                    unsafe {
                        v = _mm256_fmadd_ps(
                            _mm256_loadu_ps(ar.as_ptr().add(k)),
                            _mm256_loadu_ps(br.as_ptr().add(k)),
                            v,
                        );
                    }
                    k += 8;
                }
                let mut t = 0.0f32;
                for c in k..k_dim {
                    t += ar[c] * br[c];
                }
                *out = hsum(v) + t;
            }
        }
    }

    /// Horizontal sum of the 8 lanes, in a fixed order: the two 128-bit
    /// halves, then lanes `{0,1} + {2,3}`, then `0 + 1`. The AVX-512 input
    /// gradient runs this same add tree, sixteen dots at a time.
    #[target_feature(enable = "avx2")]
    fn hsum(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps::<1>(v);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps::<1>(s, s));
        _mm_cvtss_f32(s)
    }

    /// Vectorized bias/ReLU epilogue; bitwise-equal to the scalar one
    /// (per-element `add`, `max` — lane order preserved).
    pub(super) fn epilogue(dst: &mut [f32], bias: &[f32], relu: bool) {
        // SAFETY: avx2 was confirmed by `available()` before dispatch
        // routed into this module.
        unsafe { epilogue_avx(dst, bias, relu) }
    }

    #[target_feature(enable = "avx2")]
    fn epilogue_avx(dst: &mut [f32], bias: &[f32], relu: bool) {
        let n = bias.len();
        if n == 0 {
            return;
        }
        debug_assert!(dst.len().is_multiple_of(n), "dst rows × bias len");
        let zero = _mm256_setzero_ps();
        if relu {
            for drow in dst.chunks_exact_mut(n) {
                let mut j = 0;
                while j + 8 <= n {
                    // SAFETY: avx2 confirmed by `available()`;
                    // `j + 8 <= n` bounds the loads and the store.
                    unsafe {
                        let dp = drow.as_mut_ptr().add(j);
                        let z = _mm256_add_ps(
                            _mm256_loadu_ps(dp),
                            _mm256_loadu_ps(bias.as_ptr().add(j)),
                        );
                        _mm256_storeu_ps(dp, _mm256_max_ps(z, zero));
                    }
                    j += 8;
                }
                for c in j..n {
                    let z = drow[c] + bias[c];
                    drow[c] = if z > 0.0 { z } else { 0.0 };
                }
            }
        } else {
            for drow in dst.chunks_exact_mut(n) {
                let mut j = 0;
                while j + 8 <= n {
                    // SAFETY: avx2 confirmed by `available()`;
                    // `j + 8 <= n` bounds the loads and the store.
                    unsafe {
                        let dp = drow.as_mut_ptr().add(j);
                        _mm256_storeu_ps(
                            dp,
                            _mm256_add_ps(
                                _mm256_loadu_ps(dp),
                                _mm256_loadu_ps(bias.as_ptr().add(j)),
                            ),
                        );
                    }
                    j += 8;
                }
                for c in j..n {
                    drow[c] += bias[c];
                }
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
        adj: &SparseView<'_>,
        rows: Range<usize>,
        table: &[f32],
        ids: Option<&[u32]>,
        n: usize,
        out: &mut [f32],
    ) {
        // SAFETY: avx2 was confirmed by `available()` before dispatch
        // routed into this module.
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
                        // SAFETY: avx2 confirmed by `available()`; the
                        // source row holds `n` floats and `j0 + 8l + 8 <= nb
                        // <= n` bounds this 8-lane load.
                        let x = unsafe { _mm256_loadu_ps(s.add(j0 + 8 * l)) };
                        *a = _mm256_add_ps(*a, _mm256_mul_ps(w, x));
                    }
                }
                for (l, a) in acc.into_iter().enumerate() {
                    // SAFETY: avx2 confirmed by `available()`; `drow` holds
                    // `n` floats and `j0 + 8l + 8 <= n` bounds the store.
                    unsafe { _mm256_storeu_ps(dp.add(j0 + 8 * l), a) }
                }
            }
            for j0 in (nb..nv).step_by(8) {
                let mut acc = _mm256_setzero_ps();
                for k in 0..cols.len() {
                    // SAFETY: avx2 confirmed by `available()`; the source
                    // row holds `n` floats and `j0 + 8 <= nv <= n` bounds
                    // this 8-lane load.
                    let x = unsafe { _mm256_loadu_ps(src(k).add(j0)) };
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(weight(k)), x));
                }
                // SAFETY: avx2 confirmed by `available()`; `j0 + 8 <= n`
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
mod avx512 {
    //! The AVX-512 GEMM, weight gradient and input gradient. Every function
    //! here is only reachable through the module-level wrappers after
    //! [`super::tier`] has detected `avx512f` next to `avx2` + `fma` at
    //! runtime. Each output element sees exactly the operation sequence the
    //! AVX2 kernel in [`super::x86`] gives it (module doc), so the two tiers
    //! are bitwise equal; the wider registers only hold more elements.

    use std::arch::x86_64::{
        __m256, __m512, __mmask16, _mm256_castps_pd, _mm256_loadu_ps, _mm512_add_ps,
        _mm512_broadcast_f64x4, _mm512_castpd_ps, _mm512_fmadd_ps, _mm512_loadu_ps,
        _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_permutexvar_ps, _mm512_set1_ps,
        _mm512_setr_epi32, _mm512_setzero_ps, _mm512_shuffle_f32x4, _mm512_shuffle_ps,
        _mm512_storeu_ps,
    };
    use std::ops::Range;

    use super::x86::pack_b;
    use crate::dense::Matrix;
    use crate::kernels::{KC, NC};
    use crate::workspace;

    /// Register tile rows: `A` values (GEMM) or `dst` rows (weight gradient)
    /// broadcast across the lanes.
    const MR: usize = 8;
    /// Register tile columns: two f32x16 vectors per tile row.
    const NR: usize = 32;
    /// Reduction rows per pass of the weight gradient: its `dst` tile is
    /// loaded once and stored once per chunk, and the chunk's rows of both
    /// operands stay cache-resident across the tile's column passes.
    const DW_ROWS: usize = 128;
    /// Input-gradient block rows: rows of `A`.
    const TR: usize = 4;
    /// Input-gradient block columns: pairs of `B` rows, two dots each.
    const TP: usize = 4;

    /// Lane masks of the two 16-lane halves of a `w`-column tile (`w ≤ 32`).
    fn masks(w: usize) -> (__mmask16, __mmask16) {
        let bits = if w >= NR { u32::MAX } else { (1u32 << w) - 1 };
        (bits as u16, (bits >> 16) as u16)
    }

    /// The GEMM micro-kernel: `dst[at + r*ldd + c] += Σ_k ar[r][k] *
    /// pb[k*NR+c]` for the `mr × nr` valid corner of an 8×32 tile. Rows of
    /// `ar` past `mr` may repeat a valid row (computed, never stored);
    /// columns past `nr` are zero-padded in `pb` and masked off the
    /// write-back.
    #[allow(clippy::too_many_arguments)] // internal micro-kernel: all args are tile indices
    #[target_feature(enable = "avx512f,avx2,fma")]
    fn micro_8x32(
        ar: &[&[f32]; MR],
        pb: &[f32],
        kc: usize,
        dst: &mut [f32],
        at: usize,
        ldd: usize,
        mr: usize,
        nr: usize,
    ) {
        debug_assert!(
            ar.iter().all(|r| r.len() >= kc) && pb.len() >= kc * NR,
            "A rows and packed B panel"
        );
        let ap = ar.map(<[f32]>::as_ptr);
        let pbp = pb.as_ptr();
        let mut acc = [[_mm512_setzero_ps(); 2]; MR];
        for k in 0..kc {
            // SAFETY: avx512f (with avx2+fma) was detected by `tier()`
            // before any call into this module; every `ar` row holds `kc`
            // values and `pb` holds `kc` packed groups of NR lanes (asserted
            // above), so every load is in bounds.
            unsafe {
                let b0 = _mm512_loadu_ps(pbp.add(k * NR));
                let b1 = _mm512_loadu_ps(pbp.add(k * NR + 16));
                for (c, p) in acc.iter_mut().zip(&ap) {
                    let av = _mm512_set1_ps(*p.add(k));
                    c[0] = _mm512_fmadd_ps(av, b0, c[0]);
                    c[1] = _mm512_fmadd_ps(av, b1, c[1]);
                }
            }
        }
        let (m0, m1) = masks(nr);
        for (r, [v0, v1]) in acc.into_iter().take(mr).enumerate() {
            let p = dst[at + r * ldd..][..nr].as_mut_ptr();
            if nr == NR {
                // SAFETY: `tier()` detected avx512f (and avx2+fma); `p`
                // starts a bounds-checked slice of `nr = 32` floats, so both
                // 16-lane loads/stores of this output row are inside `dst`.
                unsafe {
                    _mm512_storeu_ps(p, _mm512_add_ps(_mm512_loadu_ps(p), v0));
                    _mm512_storeu_ps(p.add(16), _mm512_add_ps(_mm512_loadu_ps(p.add(16)), v1));
                }
            } else {
                // SAFETY: `tier()` detected avx512f (and avx2+fma); the
                // masks cover only the row's `nr` valid columns, the
                // bounds-checked slice `p` starts, and masked-off lanes are
                // neither read nor written.
                unsafe {
                    let q = p.wrapping_add(16);
                    _mm512_mask_storeu_ps(p, m0, _mm512_add_ps(_mm512_maskz_loadu_ps(m0, p), v0));
                    _mm512_mask_storeu_ps(q, m1, _mm512_add_ps(_mm512_maskz_loadu_ps(m1, q), v1));
                }
            }
        }
    }

    /// Packed-panel GEMM with the 8×32 micro-kernel: the AVX2 GEMM's
    /// `k`-outermost `KC`/`NC` blocking (so each element's `KC` blocks
    /// arrive in the same order), `B` packed into 32-column panels, and
    /// `A` read in place — an 8-row tile of `A` stays in L1 across the
    /// panels.
    pub(super) fn gemm(
        a: &Matrix,
        rows: Range<usize>,
        b: &Matrix,
        b_row_offset: usize,
        dst: &mut [f32],
        accumulate: bool,
    ) {
        let k_dim = a.cols();
        let n = b.cols();
        let m = rows.len();
        debug_assert_eq!(dst.len(), m * n, "dst shape");
        if !accumulate {
            dst.fill(0.0);
        }
        if m == 0 || n == 0 || k_dim == 0 {
            return;
        }
        workspace::with_pack_buffers(0, KC * NC, |_, pb| {
            for kk in (0..k_dim).step_by(KC) {
                let kc = KC.min(k_dim - kk);
                for jj in (0..n).step_by(NC) {
                    let nc = NC.min(n - jj);
                    pack_b::<NR>(b, b_row_offset + kk, kc, jj, nc, pb);
                    for it in (0..m).step_by(MR) {
                        let mr = MR.min(m - it);
                        let ar = std::array::from_fn(|r| {
                            &a.row(rows.start + it + r.min(mr - 1))[kk..kk + kc]
                        });
                        for jt in (0..nc).step_by(NR) {
                            let pb_tile = &pb[(jt / NR) * NR * kc..][..NR * kc];
                            let at = it * n + jj + jt;
                            let nr = NR.min(nc - jt);
                            // SAFETY: avx512f (with avx2+fma) was detected
                            // by `tier()` before dispatch routed here.
                            unsafe { micro_8x32(&ar, pb_tile, kc, dst, at, n, mr, nr) }
                        }
                    }
                }
            }
        });
    }

    /// Weight gradient `dst (+)= A[a_row_offset + rows]ᵀ @ B[rows]` with an
    /// 8×32 tile of `dst` held in registers across [`DW_ROWS`] rows of the
    /// reduction.
    pub(super) fn transpose_self(
        a: &Matrix,
        b: &Matrix,
        rows: Range<usize>,
        a_row_offset: usize,
        dst: &mut [f32],
        accumulate: bool,
    ) {
        if !accumulate {
            dst.fill(0.0);
        }
        // SAFETY: avx512f (with avx2+fma) was detected by `tier()` before
        // dispatch routed into this module.
        unsafe { transpose_self_avx512(a, b, rows, a_row_offset, dst) }
    }

    #[target_feature(enable = "avx512f,avx2,fma")]
    fn transpose_self_avx512(
        a: &Matrix,
        b: &Matrix,
        rows: Range<usize>,
        a_row_offset: usize,
        dst: &mut [f32],
    ) {
        let k_a = a.cols();
        let n = b.cols();
        debug_assert_eq!(dst.len(), k_a * n, "dst shape");
        // Columns the AVX2 tier covers with 8-lane FMA; past them it keeps
        // a separate `mul` + `add`, and so does this tier.
        let nv = n - n % 8;
        for r0 in rows.clone().step_by(DW_ROWS) {
            let r1 = (r0 + DW_ROWS).min(rows.end);
            for i0 in (0..k_a).step_by(MR) {
                let ni = MR.min(k_a - i0);
                // Tile rows past `ni` repeat the last one: computed, never
                // stored.
                let ic: [usize; MR] = std::array::from_fn(|t| i0 + t.min(ni - 1));
                for j0 in (0..nv).step_by(NR) {
                    let (m0, m1) = masks(NR.min(nv - j0));
                    let mut acc = [[_mm512_setzero_ps(); 2]; MR];
                    for (c, &i) in acc.iter_mut().zip(&ic) {
                        let p = dst[i * n..(i + 1) * n][j0..].as_ptr();
                        // SAFETY: `tier()` detected avx512f (and avx2+fma);
                        // the masks cover columns `j0..nv` of row `i`,
                        // inside `dst`.
                        unsafe {
                            c[0] = _mm512_maskz_loadu_ps(m0, p);
                            c[1] = _mm512_maskz_loadu_ps(m1, p.wrapping_add(16));
                        }
                    }
                    // Rows `r0..r1` of both operands, walked by stride.
                    let a_rows = &a.data()[(a_row_offset + r0) * k_a..(a_row_offset + r1) * k_a];
                    let b_rows = &b.data()[r0 * n..r1 * n];
                    for r in 0..r1 - r0 {
                        // SAFETY: `tier()` detected avx512f (and avx2+fma);
                        // row `r` of each window is in bounds, every `ic`
                        // index is below `k_a`, and the masks cover columns
                        // `j0..nv` of the `b` row.
                        unsafe {
                            let ap = a_rows.as_ptr().add(r * k_a);
                            let bp = b_rows.as_ptr().add(r * n + j0);
                            let b0 = _mm512_maskz_loadu_ps(m0, bp);
                            let b1 = _mm512_maskz_loadu_ps(m1, bp.wrapping_add(16));
                            for (c, &i) in acc.iter_mut().zip(&ic) {
                                let x = _mm512_set1_ps(*ap.add(i));
                                c[0] = _mm512_fmadd_ps(x, b0, c[0]);
                                c[1] = _mm512_fmadd_ps(x, b1, c[1]);
                            }
                        }
                    }
                    for (c, &i) in acc.iter().zip(&ic).take(ni) {
                        let p = dst[i * n..(i + 1) * n][j0..].as_mut_ptr();
                        // SAFETY: `tier()` detected avx512f (and avx2+fma);
                        // the masks cover columns `j0..nv` of row `i`,
                        // inside `dst`.
                        unsafe {
                            _mm512_mask_storeu_ps(p, m0, c[0]);
                            _mm512_mask_storeu_ps(p.wrapping_add(16), m1, c[1]);
                        }
                    }
                }
            }
        }
        if nv < n {
            for r in rows {
                let br = &b.row(r)[nv..];
                for (i, &x) in a.row(a_row_offset + r).iter().enumerate() {
                    for (d, &bv) in dst[i * n + nv..(i + 1) * n].iter_mut().zip(br) {
                        *d += x * bv;
                    }
                }
            }
        }
    }

    /// Packs the first `kv` columns of `B[b_rows]` as row pairs
    /// (`j = 2p`, `2p + 1`; an odd last row pairs with itself),
    /// interleaved per 8 columns: `buf[p*2*kv + 2*q + l]` is row `2p`'s
    /// column `q + l` for `l < 8` and row `2p + 1`'s column `q + l - 8`
    /// otherwise (`q` a multiple of 8).
    fn pack_pairs(b: &Matrix, b_rows: Range<usize>, kv: usize, buf: &mut [f32]) {
        let n = b_rows.len();
        if kv == 0 {
            return;
        }
        for (p, panel) in buf.chunks_exact_mut(2 * kv).enumerate() {
            let lo = &b.row(b_rows.start + 2 * p)[..kv];
            let hi = &b.row(b_rows.start + (2 * p + 1).min(n - 1))[..kv];
            for ((out, l), h) in panel
                .chunks_exact_mut(16)
                .zip(lo.chunks_exact(8))
                .zip(hi.chunks_exact(8))
            {
                out[..8].copy_from_slice(l);
                out[8..].copy_from_slice(h);
            }
        }
    }

    /// `[v, v]`: one 8-lane vector in both 256-bit halves.
    #[target_feature(enable = "avx512f")]
    fn both_halves(v: __m256) -> __m512 {
        _mm512_castpd_ps(_mm512_broadcast_f64x4(_mm256_castps_pd(v)))
    }

    /// The sixteen dots of two block rows, folded from their lane
    /// accumulators: `ra[u]` / `rb[u]` hold dots `2u` and `2u + 1` of one
    /// row, one per 256-bit half. Every dot is summed by exactly the AVX2
    /// tier's `hsum` add tree, `((v0+v4) + (v2+v6)) + ((v1+v5) + (v3+v7))`:
    /// the shuffles only line sixteen dots' operands up, so each level of
    /// the tree is one add for all of them. Row `ra`'s dots land in lanes
    /// 0..8, `rb`'s in lanes 8..16, in order.
    #[target_feature(enable = "avx512f")]
    fn fold_dots(ra: &[__m512; TP], rb: &[__m512; TP]) -> __m512 {
        // Quarter q of a `halve` is dot q's `v[i] + v[i+4]`, i < 4.
        let halve = |x: __m512, y: __m512| {
            _mm512_add_ps(
                _mm512_shuffle_f32x4::<0x88>(x, y),
                _mm512_shuffle_f32x4::<0xDD>(x, y),
            )
        };
        // Quarter q: `s[0]+s[2], s[1]+s[3]` of dots q and q + 4.
        let pairs = |x: __m512, y: __m512| {
            _mm512_add_ps(
                _mm512_shuffle_ps::<0x44>(x, y),
                _mm512_shuffle_ps::<0xEE>(x, y),
            )
        };
        let a = pairs(halve(ra[0], ra[1]), halve(ra[2], ra[3]));
        let b = pairs(halve(rb[0], rb[1]), halve(rb[2], rb[3]));
        // Quarter q: the sums of `ra`'s dots q, q + 4, then `rb`'s.
        let sums = _mm512_add_ps(
            _mm512_shuffle_ps::<0x88>(a, b),
            _mm512_shuffle_ps::<0xDD>(a, b),
        );
        let order = _mm512_setr_epi32(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
        _mm512_permutexvar_ps(order, sums)
    }

    /// The scalar `k`-tail of one input-gradient dot, as the AVX2 tier sums
    /// it: from `0.0`, `mul` + `add`, `k` ascending.
    fn tail(ar: &[f32], br: &[f32], kv: usize) -> f32 {
        let mut t = 0.0f32;
        for (&x, &y) in ar[kv..].iter().zip(&br[kv..]) {
            t += x * y;
        }
        t
    }

    /// Input gradient `dst = A[a_rows] @ B[b_rows]ᵀ`: blocks of 4 rows of
    /// `A` × 4 pairs of `B` rows, each pair's two dots in one register (row
    /// `2p` in the low half, `2p + 1` in the high half).
    pub(super) fn transpose_other(
        a: &Matrix,
        a_rows: Range<usize>,
        b: &Matrix,
        b_rows: Range<usize>,
        dst: &mut [f32],
    ) {
        debug_assert_eq!(a.cols(), b.cols(), "inner dim");
        let n = b_rows.len();
        debug_assert_eq!(dst.len(), a_rows.len() * n, "dst shape");
        if a_rows.is_empty() || n == 0 {
            return;
        }
        let kv = a.cols() - a.cols() % 8;
        workspace::with_pack_buffers(0, n.div_ceil(2) * 2 * kv, |_, pb| {
            pack_pairs(b, b_rows.clone(), kv, pb);
            // SAFETY: avx512f (with avx2+fma) was detected by `tier()`
            // before dispatch routed into this module.
            unsafe { transpose_other_avx512(a, a_rows, b, b_rows, pb, kv, dst) }
        });
    }

    #[target_feature(enable = "avx512f,avx2,fma")]
    fn transpose_other_avx512(
        a: &Matrix,
        a_rows: Range<usize>,
        b: &Matrix,
        b_rows: Range<usize>,
        pb: &[f32],
        kv: usize,
        dst: &mut [f32],
    ) {
        let n = b_rows.len();
        let m = a_rows.len();
        let pairs = n.div_ceil(2);
        for i0 in (0..m).step_by(TR) {
            let nr = TR.min(m - i0);
            // Block rows past `nr` and pairs past `np` repeat the last
            // valid one: computed, never stored.
            let ar: [&[f32]; TR] =
                std::array::from_fn(|t| a.row(a_rows.start + i0 + t.min(nr - 1)));
            for p0 in (0..pairs).step_by(TP) {
                let np = TP.min(pairs - p0);
                let bp: [&[f32]; TP] =
                    std::array::from_fn(|u| &pb[(p0 + u.min(np - 1)) * 2 * kv..][..2 * kv]);
                let mut acc = [[_mm512_setzero_ps(); TP]; TR];
                for q in (0..kv).step_by(8) {
                    // SAFETY: `tier()` detected avx512f (and avx2+fma);
                    // `q + 8 <= kv`, every `ar` row holds `kv` or more
                    // values and every `bp` panel `2 * kv`, so each load is
                    // in bounds.
                    unsafe {
                        let bv: [__m512; TP] =
                            std::array::from_fn(|u| _mm512_loadu_ps(bp[u].as_ptr().add(2 * q)));
                        for (c, r) in acc.iter_mut().zip(&ar) {
                            let av = both_halves(_mm256_loadu_ps(r.as_ptr().add(q)));
                            for (cu, &bu) in c.iter_mut().zip(&bv) {
                                *cu = _mm512_fmadd_ps(av, bu, *cu);
                            }
                        }
                    }
                }
                // This block's dots per row: columns `j0..j0 + w`.
                let j0 = 2 * p0;
                let w = (n - j0).min(2 * TP);
                let valid: __mmask16 = (1 << w) - 1;
                for t in (0..nr).step_by(2) {
                    let mut tails = [0.0f32; 16];
                    if kv < a.cols() {
                        for (h, row) in [(0, t), (8, t + 1)] {
                            for (d, out) in tails[h..h + w].iter_mut().enumerate() {
                                *out = tail(ar[row], b.row(b_rows.start + j0 + d), kv);
                            }
                        }
                    }
                    // SAFETY: `tier()` detected avx512f (and avx2+fma);
                    // `tails` holds 16 floats, and each masked store writes
                    // only the `w` columns `j0..j0 + w` of a block row below
                    // `nr`: a bounds-checked slice of `dst`.
                    unsafe {
                        let out = _mm512_add_ps(
                            fold_dots(&acc[t], &acc[t + 1]),
                            _mm512_loadu_ps(tails.as_ptr()),
                        );
                        let p = dst[(i0 + t) * n + j0..][..w].as_mut_ptr();
                        _mm512_mask_storeu_ps(p, valid, out);
                        if t + 1 < nr {
                            // Lanes 8.. are row `t + 1`: shift the base so
                            // lane 8 lands on its column `j0`.
                            let q = dst[(i0 + t + 1) * n + j0..][..w].as_mut_ptr();
                            _mm512_mask_storeu_ps(q.wrapping_sub(8), valid << 8, out);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::workspace;

    /// Scaled tolerance of the FMA contract: one fused rounding per `k`
    /// step against two scalar roundings.
    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() <= 1e-5 * 1.0f32.max(b.abs())
    }

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
            gemm_into(&a, 0..m, &b, 0, &mut got, false);
            let want = reference::matmul(&a, &b);
            for (g, w) in got.iter().zip(want.data()) {
                assert!(close(*g, *w), "{m}x{k}x{n}: {g} vs {w}");
            }
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
        gemm_into(&a, 0..10, &w, 0, &mut fused, false);
        gemm_into(&a, 0..10, &w, 6, &mut fused, true);
        let w_top = Matrix::from_vec(6, 8, w.data()[..48].to_vec());
        let w_bot = Matrix::from_vec(6, 8, w.data()[48..].to_vec());
        let want_top = reference::matmul(&a, &w_top);
        let want_bot = reference::matmul(&a, &w_bot);
        for (f, (t, b)) in fused
            .iter()
            .zip(want_top.data().iter().zip(want_bot.data()))
        {
            assert!(close(*f, t + b), "{f} vs {}", t + b);
        }
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
        gemm_into(&a, 0..71, &b, 0, &mut whole, false);
        let mut split = vec![0.0f32; 71 * 19];
        let (top, bot) = split.split_at_mut(40 * 19);
        gemm_into(&a, 0..40, &b, 0, top, false);
        gemm_into(&a, 40..71, &b, 0, bot, false);
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
            transpose_self_into(&a, &b, 0..m, 0, &mut got, false);
            let want = reference::matmul_transpose_self(&a, &b);
            for (g, w) in got.iter().zip(want.data()) {
                assert!(close(*g, *w), "AtB {m}x{k}x{n}: {g} vs {w}");
            }
            let bt = Matrix::xavier(n, k, 7);
            let mut got = vec![0.0f32; m * n];
            transpose_other_into(&a, 0..m, &bt, 0..n, &mut got);
            let want = reference::matmul_transpose_other(&a, &bt);
            for (g, w) in got.iter().zip(want.data()) {
                assert!(close(*g, *w), "ABt {m}x{k}x{n}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn simd_epilogue_bitwise_equal_scalar() {
        for n in [1usize, 7, 8, 9, 16, 31, 64, 130] {
            let bias: Vec<f32> = (0..n).map(|i| (i as f32) * 0.21 - 1.3).collect();
            let mut d1: Vec<f32> = (0..2 * n).map(|i| (i as f32) * 0.17 - 2.0).collect();
            let mut d2 = d1.clone();
            for relu in [true, false] {
                epilogue_bias_relu(&mut d1, &bias, relu);
                kernels::epilogue_bias_relu(&mut d2, &bias, relu);
                assert_eq!(d1, d2, "epilogue n={n} relu={relu}");
            }
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
        let avx2 = cfg!(target_arch = "x86_64") && detect() != Tier::Scalar;
        for n in WIDTHS {
            let table: Vec<f32> = (0..table_rows * n).map(|i| awkward(i + n)).collect();
            for vals in [None, Some(&values[..])] {
                let adj = SparseView::new(ROW_LENS.len(), 37, &indptr, &indices, vals);
                for map in [None, Some(&ids[..])] {
                    let want = bits(&entry_loop(&adj, &table, map, n));
                    let run = |simd: bool| {
                        let mut out = vec![f32::NAN; adj.rows() * n];
                        if simd {
                            #[cfg(target_arch = "x86_64")]
                            x86::spmm_rows(&adj, 0..adj.rows(), &table, map, n, &mut out);
                        } else {
                            spmm_rows(&adj, 0..adj.rows(), &table, map, n, false, &mut out);
                        }
                        bits(&out)
                    };
                    let what = format!("n={n} values={} ids={}", vals.is_some(), map.is_some());
                    assert!(run(false) == want, "scalar tier, {what}");
                    if avx2 {
                        assert!(run(true) == want, "avx2 tier, {what}");
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

    /// `rows × cols` Xavier values with `+0.0` and `-0.0` sprinkled in.
    fn with_signed_zeros(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut m = Matrix::xavier(rows, cols, seed);
        for (i, v) in m.data_mut().iter_mut().enumerate() {
            match i % 7 {
                0 => *v = -0.0,
                3 => *v = 0.0,
                _ => {}
            }
        }
        m
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The AVX-512 kernels against the AVX2 ones, called directly (not
    /// through the dispatch), on ragged shapes: row windows, `B`/`A` row
    /// offsets, `accumulate` both ways and signed zeros in every operand.
    /// Equal bits, not a tolerance: both tiers give every output element
    /// the same operation sequence.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_tier_equals_avx2_tier_bitwise() {
        if detect() != Tier::Avx512 {
            eprintln!("avx512_tier_equals_avx2_tier_bitwise: skipped, this host lacks avx512f");
            return;
        }
        const KS: [usize; 9] = [1, 7, 8, 16, 63, 64, 128, 256, 300];
        const NS: [usize; 10] = [1, 7, 8, 15, 16, 17, 31, 32, 33, 128];
        let mut shapes: Vec<(usize, usize, usize)> = (1..=17)
            .flat_map(|m| {
                KS.iter()
                    .flat_map(move |&k| NS.iter().map(move |&n| (m, k, n)))
            })
            .collect();
        // The training step's tall row count, across the reduction depths
        // (300 crosses a `KC` block boundary) and ragged widths.
        shapes
            .extend([(64, 128), (128, 33), (300, 17), (63, 31), (7, 8)].map(|(k, n)| (4566, k, n)));
        for (m, k, n) in shapes {
            let seed = (m * 10_000 + k * 100 + n) as u64;
            let check = |what: &str, accumulate: bool, avx2: &[f32], avx512: &[f32]| {
                assert!(
                    bits(avx2) == bits(avx512),
                    "{what} m={m} k={k} n={n} accumulate={accumulate}: tiers differ"
                );
            };
            // GEMM over rows 2..2+m of A and the row window of B at 3.
            let a = with_signed_zeros(m + 3, k, seed);
            let b = with_signed_zeros(k + 5, n, seed + 1);
            let init = with_signed_zeros(m, n, seed + 2).into_data();
            for accumulate in [false, true] {
                let (mut d2, mut d5) = (init.clone(), init.clone());
                x86::gemm(&a, 2..2 + m, &b, 3, &mut d2, accumulate);
                avx512::gemm(&a, 2..2 + m, &b, 3, &mut d5, accumulate);
                check("gemm", accumulate, &d2, &d5);
            }
            // Weight gradient over rows 1..1+m, A's window slid by 2.
            let x = with_signed_zeros(m + 3, k, seed + 3);
            let g = with_signed_zeros(m + 1, n, seed + 4);
            let init = with_signed_zeros(k, n, seed + 5).into_data();
            for accumulate in [false, true] {
                let (mut d2, mut d5) = (init.clone(), init.clone());
                x86::transpose_self(&x, &g, 1..1 + m, 2, &mut d2, accumulate);
                avx512::transpose_self(&x, &g, 1..1 + m, 2, &mut d5, accumulate);
                check("transpose_self", accumulate, &d2, &d5);
            }
            // Input gradient: rows 1..1+m of A against rows 2..2+n of B.
            let ga = with_signed_zeros(m + 2, k, seed + 6);
            let w = with_signed_zeros(n + 3, k, seed + 7);
            let (mut d2, mut d5) = (vec![1.0f32; m * n], vec![2.0f32; m * n]);
            x86::transpose_other(&ga, 1..1 + m, &w, 2..2 + n, &mut d2);
            avx512::transpose_other(&ga, 1..1 + m, &w, 2..2 + n, &mut d5);
            check("transpose_other", false, &d2, &d5);
        }
    }

    /// The packing kernels — the GEMM on either SIMD tier and the AVX-512
    /// input gradient — draw their panels from the per-thread pack arena:
    /// after one call of each, repeated calls never grow it.
    #[test]
    fn pack_arena_reaches_steady_state() {
        if !available() {
            return;
        }
        let a = Matrix::xavier(100, 300, 11);
        let b = Matrix::xavier(300, 40, 12);
        let g = Matrix::xavier(100, 136, 13);
        let w = Matrix::xavier(200, 136, 14);
        let mut out = vec![0.0f32; 100 * 40];
        let mut dx = vec![0.0f32; 100 * 150];
        let mut run = || {
            gemm_into(&a, 0..100, &b, 0, &mut out, false);
            transpose_other_into(&g, 0..100, &w, 50..200, &mut dx);
        };
        run();
        let warm = workspace::pack_buffer_grows();
        for _ in 0..3 {
            run();
        }
        assert_eq!(
            workspace::pack_buffer_grows(),
            warm,
            "steady-state GEMM and input gradient must not grow the pack arena"
        );
    }
}
