//! Explicit-SIMD kernel tier: AVX2+FMA f32x8 micro-kernels behind one
//! runtime dispatch point.
//!
//! Everything in this module is reachable only through the free functions
//! at the top, each of which consults [`available`] — a cached runtime
//! check of `avx2` + `fma` CPU features (overridable with `ARGO_SIMD=off`)
//! — and otherwise falls back to the scalar blocked kernels in
//! [`crate::kernels`]. The scalar fallback is compiled unconditionally, so
//! non-x86 hosts and feature-less CPUs keep today's bitwise behavior.
//!
//! Numerical contract per path (pinned by `tests/kernel_properties.rs`):
//!
//! * **GEMM / weight gradient / input gradient** use `vfmadd` — the fused
//!   multiply-add rounds once where the scalar kernels round twice, so
//!   these paths are *tolerance*-equal (≤ 1e-5 scaled) to the scalar
//!   kernels, never bitwise. Each path is still deterministic and
//!   partition-invariant: per output element the `k` contributions are
//!   folded in ascending order regardless of row ranges or pool size.
//! * **SpMM gather ([`axpy`]) and the bias/ReLU epilogue** vectorize the
//!   *feature* dimension with separate `mul` + `add` (never FMA): lanes
//!   are independent and per-element operation order is exactly the
//!   scalar order, so these stay **bitwise** equal to the scalar kernels.
//!
//! The GEMM packs `A` into `MR`-row and `B` into `NR`-column panels (layout
//! below) drawn from the per-thread pack arena in [`crate::workspace`], so
//! steady-state training and serving do not allocate here.

use std::ops::Range;
use std::sync::OnceLock;

use crate::dense::Matrix;
use crate::kernels;

/// Whether the SIMD tier is usable on this host: `x86_64` with `avx2` and
/// `fma`, and not disabled via `ARGO_SIMD=off` (or `0`). Cached after the
/// first call, so the environment switch must be set before any kernel
/// runs (as the CI fallback stage does).
pub fn available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        if matches!(
            std::env::var("ARGO_SIMD").as_deref(),
            Ok("off") | Ok("0") | Ok("false")
        ) {
            return false;
        }
        detect()
    })
}

#[cfg(target_arch = "x86_64")]
fn detect() -> bool {
    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> bool {
    false
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
        if available() {
            x86::gemm(a, rows, b, b_row_offset, dst, accumulate);
            return;
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
        if available() {
            x86::transpose_self(a, b, rows, a_row_offset, dst, accumulate);
            return;
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
        if available() {
            x86::transpose_other(a, a_rows, b, b_rows, dst);
            return;
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

/// Vectorized row gather step `d[c] += w * s[c]` — the inner loop of SpMM
/// and the CSC-gather transposed SpMM. Uses separate `mul` + `add` (no
/// FMA), so it is bitwise-equal to the scalar loop it replaces.
pub(crate) fn axpy(d: &mut [f32], w: f32, s: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        if available() {
            x86::axpy(d, w, s);
            return;
        }
    }
    for (dv, &sv) in d.iter_mut().zip(s) {
        *dv += w * sv;
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
    /// (`buf[tile*NR*kc + k*NR + lane]`), zero-padding column tails.
    fn pack_b(b: &Matrix, kk: usize, kc: usize, jj: usize, nc: usize, buf: &mut [f32]) {
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
                    pack_b(b, b_row_offset + kk, kc, jj, nc, pb);
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

    /// Horizontal sum of the 8 lanes.
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

    /// `d[c] += w * s[c]` with separate `mul` + `add` — deliberately no
    /// FMA, to stay bitwise-equal to the scalar gather loop.
    pub(super) fn axpy(d: &mut [f32], w: f32, s: &[f32]) {
        // SAFETY: avx2 was confirmed by `available()` before dispatch
        // routed into this module.
        unsafe { axpy_avx(d, w, s) }
    }

    #[target_feature(enable = "avx2")]
    fn axpy_avx(d: &mut [f32], w: f32, s: &[f32]) {
        let n = d.len().min(s.len());
        let wv = _mm256_set1_ps(w);
        let mut j = 0;
        while j + 8 <= n {
            // SAFETY: avx2 confirmed by `available()`; `j + 8 <= n` bounds
            // both 8-lane loads and the store.
            unsafe {
                let dp = d.as_mut_ptr().add(j);
                let prod = _mm256_mul_ps(wv, _mm256_loadu_ps(s.as_ptr().add(j)));
                _mm256_storeu_ps(dp, _mm256_add_ps(_mm256_loadu_ps(dp), prod));
            }
            j += 8;
        }
        for c in j..n {
            d[c] += w * s[c];
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
    fn simd_axpy_and_epilogue_bitwise_equal_scalar() {
        for n in [1usize, 7, 8, 9, 16, 31, 64, 130] {
            let src: Vec<f32> = (0..n).map(|i| (i as f32) * 0.37 - 3.0).collect();
            let mut a: Vec<f32> = (0..n).map(|i| (i as f32) * -0.11 + 1.0).collect();
            let mut b = a.clone();
            axpy(&mut a, 0.73, &src);
            for (d, &s) in b.iter_mut().zip(&src) {
                *d += 0.73 * s;
            }
            assert_eq!(a, b, "axpy n={n}");

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

    #[test]
    fn pack_arena_reaches_steady_state() {
        if !available() {
            return;
        }
        let a = Matrix::xavier(100, 300, 11);
        let b = Matrix::xavier(300, 40, 12);
        let mut out = vec![0.0f32; 100 * 40];
        gemm_into(&a, 0..100, &b, 0, &mut out, false);
        let warm = workspace::pack_buffer_grows();
        for _ in 0..3 {
            gemm_into(&a, 0..100, &b, 0, &mut out, false);
        }
        assert_eq!(
            workspace::pack_buffer_grows(),
            warm,
            "steady-state GEMM must not grow the pack arena"
        );
    }
}
