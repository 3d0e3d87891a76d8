//! Explicit-SIMD kernel implementations behind the [`crate::isa`] dispatch.
//!
//! Every function here computes **bit-for-bit** the same result as its
//! scalar reference in [`scalar`] / [`crate::gemm`]: vector lanes map to
//! independent output elements, each lane's operation chain is the same
//! sequence of exactly-rounded IEEE operations (`vfmadd` ≡ `f32::mul_add`,
//! `vaddps`/`vmulps`/`vdivps`/`vsqrtps` are exactly rounded per lane, and
//! `vmaxps(v, 0)` has the same NaN/zero semantics as the `maxss` the scalar
//! `f32::max(0.0)` compiles to), and no vectorization step reorders any
//! element's accumulation. The per-tier proptests in
//! `crates/tensor/tests/gemm_props.rs` / `into_props.rs` pin this.
//!
//! # Safety argument (shared by every `unsafe` block in this module)
//!
//! * **ISA availability**: the `#[target_feature]` functions are reachable
//!   only through the per-tier dispatch tables in [`crate::isa`], which are
//!   selected after `is_x86_feature_detected!` confirms the features (and
//!   [`crate::isa::force`] panics on an unavailable tier), so the wrapped
//!   calls never execute unsupported instructions.
//! * **Bounds**: all loads/stores use unaligned instructions
//!   (`loadu`/`storeu` — packed panels and caller buffers have no alignment
//!   guarantee) and every pointer offset is derived from the same strip
//!   geometry the scalar kernels use: full vector tiles are only entered
//!   when the tile is *not* ragged (`rows_v == MR`, `cols_v == NR`), so a
//!   `MR x NR`/`MR x 2NR` tile at `origin = r0*n + c0` spans rows
//!   `r0..r0+MR <= rows` and columns `c0..c0+NR|2NR <= n` of the
//!   `rows x n` output — entirely in bounds. Ragged edge tiles fall back to
//!   the scalar [`crate::gemm::micro_tile`], which indexes through safe
//!   slices; packed-panel edge strips are zero-padded by the packers, so the
//!   vector kernels may always read full `NR`-wide panel rows.

use crate::ops::AdamUpdate;

/// Portable reference implementations (the "scalar" tier — autovectorized
/// by the compiler, but free of `std::arch`). These are also the exact
/// expressions the SIMD tiers must reproduce bitwise, and serve as the
/// tail/ragged-edge fallbacks inside the vector kernels.
pub(crate) mod scalar {
    use super::AdamUpdate;

    pub(crate) fn add(a: &[f32], b: &[f32], out: &mut [f32]) {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = x + y;
        }
    }

    pub(crate) fn sub(a: &[f32], b: &[f32], out: &mut [f32]) {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = x - y;
        }
    }

    pub(crate) fn mul(a: &[f32], b: &[f32], out: &mut [f32]) {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = x * y;
        }
    }

    pub(crate) fn add_relu(a: &[f32], b: &[f32], out: &mut [f32]) {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = (x + y).max(0.0);
        }
    }

    pub(crate) fn relu(a: &[f32], out: &mut [f32]) {
        for (o, &v) in out.iter_mut().zip(a) {
            *o = v.max(0.0);
        }
    }

    pub(crate) fn affine(src: &[f32], out: &mut [f32], s: f32, t: f32) {
        for (o, &v) in out.iter_mut().zip(src) {
            *o = v * s + t;
        }
    }

    /// The serial Adam expression, element order and operation order fixed
    /// (see [`crate::ops::adam_update_into`]).
    pub(crate) fn adam(pd: &mut [f32], g: &[f32], md: &mut [f32], vd: &mut [f32], hp: AdamUpdate) {
        let AdamUpdate {
            lr,
            beta1,
            beta2,
            eps,
            bc1,
            bc2,
        } = hp;
        for i in 0..g.len() {
            md[i] = beta1 * md[i] + (1.0 - beta1) * g[i];
            vd[i] = beta2 * vd[i] + (1.0 - beta2) * g[i] * g[i];
            let mhat = md[i] / bc1;
            let vhat = vd[i] / bc2;
            pd[i] -= lr * mhat / (vhat.sqrt() + eps);
        }
    }
}

/// AVX2 + FMA + F16C tier: explicit 256-bit GEMM micro-kernel, 8x8-block
/// transpose A packer, and hardware half conversions.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use crate::gemm::{micro_tile, packed_a_len, MR, NR};
    use std::arch::x86_64::*;

    /// The `MR x NR` tile as two 8-column halves: 8 ymm accumulators per
    /// half, broadcast A lane, `_mm256_fmadd_ps` down ascending `p` — the
    /// same per-element `mul_add` chain as the scalar tile. Full tiles
    /// only (`rows_v == MR`, `cols_v == NR`); see module safety argument.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tile<const LOAD: bool>(
        pa: &[f32],
        pb: &[f32],
        out: &mut [f32],
        origin: usize,
        n: usize,
        k: usize,
    ) {
        debug_assert!(origin + (MR - 1) * n + NR <= out.len());
        let pa = pa.as_ptr();
        let pb = pb.as_ptr();
        let outp = out.as_mut_ptr().add(origin);
        for half in 0..2 {
            let pbh = pb.add(half * 8);
            let oh = outp.add(half * 8);
            let mut acc = [_mm256_setzero_ps(); MR];
            if LOAD {
                for (r, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_loadu_ps(oh.add(r * n));
                }
            }
            for p in 0..k {
                let b = _mm256_loadu_ps(pbh.add(p * NR));
                let ap = pa.add(p * MR);
                for (r, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(r)), b, *a);
                }
            }
            for (r, a) in acc.iter().enumerate() {
                _mm256_storeu_ps(oh.add(r * n), *a);
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn panel<const LOAD: bool>(
        pa: &[f32],
        pb: &[f32],
        out: &mut [f32],
        rows: usize,
        k: usize,
        n: usize,
    ) {
        for (sj, pb_strip) in pb.chunks_exact(k * NR).enumerate() {
            let c0 = sj * NR;
            let cols_v = NR.min(n - c0);
            for (si, pa_strip) in pa.chunks_exact(k * MR).enumerate() {
                let r0 = si * MR;
                let rows_v = MR.min(rows - r0);
                if rows_v == MR && cols_v == NR {
                    tile::<LOAD>(pa_strip, pb_strip, out, r0 * n + c0, n, k);
                } else {
                    micro_tile::<LOAD>(pa_strip, pb_strip, out, r0 * n + c0, n, rows_v, cols_v);
                }
            }
        }
    }

    // SAFETY (all three wrappers): only installed in the Avx2/Avx512
    // dispatch tables, which are selected after runtime detection of
    // avx2+fma (see module docs).
    pub(crate) fn gemm_panel_acc(
        pa: &[f32],
        pb: &[f32],
        out: &mut [f32],
        rows: usize,
        k: usize,
        n: usize,
    ) {
        unsafe { panel::<true>(pa, pb, out, rows, k, n) }
    }

    pub(crate) fn gemm_panel_over(
        pa: &[f32],
        pb: &[f32],
        out: &mut [f32],
        rows: usize,
        k: usize,
        n: usize,
    ) {
        unsafe { panel::<false>(pa, pb, out, rows, k, n) }
    }

    pub(crate) fn colwindow_over(
        pa: &[f32],
        pbw: &[f32],
        out: &mut [f32],
        rows: usize,
        k: usize,
        n: usize,
        c0: usize,
    ) {
        for (sjw, pb_strip) in pbw.chunks_exact(k * NR).enumerate() {
            let cw = c0 + sjw * NR;
            let cols_v = NR.min(n - cw);
            for (si, pa_strip) in pa.chunks_exact(k * MR).enumerate() {
                let r0 = si * MR;
                let rows_v = MR.min(rows - r0);
                if rows_v == MR && cols_v == NR {
                    // SAFETY: full tile; avx2+fma detected (dispatch table).
                    unsafe { tile::<false>(pa_strip, pb_strip, out, r0 * n + cw, n, k) };
                } else {
                    micro_tile::<false>(pa_strip, pb_strip, out, r0 * n + cw, n, rows_v, cols_v);
                }
            }
        }
    }

    /// In-register 8x8 f32 transpose (unpack / shuffle / permute2f128).
    #[target_feature(enable = "avx2")]
    unsafe fn transpose8(r: &mut [__m256; 8]) {
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        r[0] = _mm256_permute2f128_ps::<0x20>(s0, s4);
        r[1] = _mm256_permute2f128_ps::<0x20>(s1, s5);
        r[2] = _mm256_permute2f128_ps::<0x20>(s2, s6);
        r[3] = _mm256_permute2f128_ps::<0x20>(s3, s7);
        r[4] = _mm256_permute2f128_ps::<0x31>(s0, s4);
        r[5] = _mm256_permute2f128_ps::<0x31>(s1, s5);
        r[6] = _mm256_permute2f128_ps::<0x31>(s2, s6);
        r[7] = _mm256_permute2f128_ps::<0x31>(s3, s7);
    }

    /// Strided A packer: full `MR`-row strips of a contiguous
    /// (`col_stride == 1`) operand go through the 8x8 block transpose
    /// (pure data movement — trivially bit-identical); ragged strips,
    /// `k % 8` tail columns and strided views use the scalar packer.
    #[target_feature(enable = "avx2")]
    unsafe fn pack_a_contig(src: &[f32], dst: &mut [f32], m: usize, k: usize, row_stride: usize) {
        for (si, strip) in dst.chunks_exact_mut(k * MR).enumerate() {
            let r0 = si * MR;
            let rows_v = MR.min(m - r0);
            if rows_v < MR {
                // ragged final strip: scalar fill + zero padding
                for r in 0..rows_v {
                    let base = (r0 + r) * row_stride;
                    for p in 0..k {
                        strip[p * MR + r] = src[base + p];
                    }
                }
                for p in 0..k {
                    for slot in &mut strip[p * MR + rows_v..(p + 1) * MR] {
                        *slot = 0.0;
                    }
                }
                continue;
            }
            let sp = src.as_ptr();
            let dp = strip.as_mut_ptr();
            let mut p0 = 0usize;
            while p0 + 8 <= k {
                // SAFETY: rows r0..r0+8 <= m each have columns p0..p0+8 <= k
                // in bounds of the strided source; the destination block
                // dst[p0*MR .. (p0+8)*MR] lies inside this strip.
                let mut v = [
                    _mm256_loadu_ps(sp.add(r0 * row_stride + p0)),
                    _mm256_loadu_ps(sp.add((r0 + 1) * row_stride + p0)),
                    _mm256_loadu_ps(sp.add((r0 + 2) * row_stride + p0)),
                    _mm256_loadu_ps(sp.add((r0 + 3) * row_stride + p0)),
                    _mm256_loadu_ps(sp.add((r0 + 4) * row_stride + p0)),
                    _mm256_loadu_ps(sp.add((r0 + 5) * row_stride + p0)),
                    _mm256_loadu_ps(sp.add((r0 + 6) * row_stride + p0)),
                    _mm256_loadu_ps(sp.add((r0 + 7) * row_stride + p0)),
                ];
                transpose8(&mut v);
                for (i, vec) in v.iter().enumerate() {
                    _mm256_storeu_ps(dp.add((p0 + i) * MR), *vec);
                }
                p0 += 8;
            }
            for p in p0..k {
                for r in 0..MR {
                    strip[p * MR + r] = src[(r0 + r) * row_stride + p];
                }
            }
        }
    }

    pub(crate) fn pack_a_strided(
        src: &[f32],
        dst: &mut [f32],
        m: usize,
        k: usize,
        row_stride: usize,
        col_stride: usize,
    ) {
        debug_assert_eq!(dst.len(), packed_a_len(m, k));
        if col_stride != 1 {
            return crate::gemm::pack_a_strided_scalar(src, dst, m, k, row_stride, col_stride);
        }
        // SAFETY: avx2 detected (dispatch table); bounds per pack_a_contig.
        unsafe { pack_a_contig(src, dst, m, k, row_stride) }
    }

    /// F16C half conversions, 8 lanes per step; tails use the software
    /// conversions, which bit-match the hardware (tested exhaustively in
    /// `crates/tensor/tests/half_props.rs`).
    #[target_feature(enable = "f16c")]
    unsafe fn widen_inner(src: &[u16], dst: &mut [f32]) {
        let n8 = src.len() / 8 * 8;
        for i in (0..n8).step_by(8) {
            let h = _mm_loadu_si128(src.as_ptr().add(i) as *const __m128i);
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_cvtph_ps(h));
        }
        for i in n8..src.len() {
            dst[i] = crate::half::f16_bits_to_f32(src[i]);
        }
    }

    #[target_feature(enable = "f16c")]
    unsafe fn narrow_inner(src: &[f32], dst: &mut [u16]) {
        let n8 = src.len() / 8 * 8;
        for i in (0..n8).step_by(8) {
            let v = _mm256_loadu_ps(src.as_ptr().add(i));
            let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v);
            _mm_storeu_si128(dst.as_mut_ptr().add(i) as *mut __m128i, h);
        }
        for i in n8..src.len() {
            dst[i] = crate::half::f32_to_f16_bits(src[i]);
        }
    }

    pub(crate) fn widen_f16(src: &[u16], dst: &mut [f32]) {
        debug_assert_eq!(src.len(), dst.len());
        // SAFETY: f16c detected (dispatch table); in-bounds 8-lane chunks.
        unsafe { widen_inner(src, dst) }
    }

    pub(crate) fn narrow_f16(src: &[f32], dst: &mut [u16]) {
        debug_assert_eq!(src.len(), dst.len());
        // SAFETY: f16c detected (dispatch table); in-bounds 8-lane chunks.
        unsafe { narrow_inner(src, dst) }
    }

    /// f16-source B strip packer: widen each `NR`-wide panel row with two
    /// F16C conversions. Ragged strips use the software conversion + pad.
    pub(crate) fn pack_b_strip_f16(hb: &[u16], strip: &mut [f32], k: usize, n: usize, c0: usize) {
        let cols_v = NR.min(n - c0);
        if cols_v == NR {
            // SAFETY: f16c detected; row p spans hb[p*n+c0 .. +16] and
            // strip[p*NR .. +16], both in bounds for full strips.
            unsafe {
                for p in 0..k {
                    let sp = hb.as_ptr().add(p * n + c0);
                    let dp = strip.as_mut_ptr().add(p * NR);
                    let h0 = _mm_loadu_si128(sp as *const __m128i);
                    let h1 = _mm_loadu_si128(sp.add(8) as *const __m128i);
                    _mm256_storeu_ps(dp, _mm256_cvtph_ps(h0));
                    _mm256_storeu_ps(dp.add(8), _mm256_cvtph_ps(h1));
                }
            }
        } else {
            crate::gemm::pack_b_strip_f16_scalar(hb, strip, k, n, c0);
        }
    }
}

/// AVX-512F tier: two-strip `8 x 32` GEMM micro-kernel, zmm panel packers,
/// 16-lane fused elementwise / Adam sweeps, and zmm half conversions.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512 {
    use super::AdamUpdate;
    use crate::gemm::{micro_tile, MR, NR};
    use std::arch::x86_64::*;

    /// Two adjacent `NR`-wide B strips per pass: 16 zmm accumulators
    /// (`8 rows x 2 strips`), one A broadcast feeds two FMAs, `k` unrolled
    /// by 4. Each output element still accumulates in strictly ascending
    /// `p` order through `_mm512_fmadd_ps` — the same exactly-rounded
    /// `mul_add` chain as the scalar tile, so pairing strips changes
    /// nothing numerically. Full tiles only.
    #[target_feature(enable = "avx512f")]
    unsafe fn tile_x2<const LOAD: bool>(
        pa: &[f32],
        pb0: &[f32],
        pb1: &[f32],
        out: &mut [f32],
        origin: usize,
        n: usize,
        k: usize,
    ) {
        debug_assert!(origin + (MR - 1) * n + 2 * NR <= out.len());
        let pa = pa.as_ptr();
        let pb0 = pb0.as_ptr();
        let pb1 = pb1.as_ptr();
        let outp = out.as_mut_ptr().add(origin);
        let mut acc = [[_mm512_setzero_ps(); 2]; MR];
        if LOAD {
            for (r, a) in acc.iter_mut().enumerate() {
                a[0] = _mm512_loadu_ps(outp.add(r * n));
                a[1] = _mm512_loadu_ps(outp.add(r * n + NR));
            }
        }
        let mut p = 0usize;
        while p + 4 <= k {
            for u in 0..4 {
                let b0 = _mm512_loadu_ps(pb0.add((p + u) * NR));
                let b1 = _mm512_loadu_ps(pb1.add((p + u) * NR));
                let ap = pa.add((p + u) * MR);
                for (r, a) in acc.iter_mut().enumerate() {
                    let av = _mm512_set1_ps(*ap.add(r));
                    a[0] = _mm512_fmadd_ps(av, b0, a[0]);
                    a[1] = _mm512_fmadd_ps(av, b1, a[1]);
                }
            }
            p += 4;
        }
        while p < k {
            let b0 = _mm512_loadu_ps(pb0.add(p * NR));
            let b1 = _mm512_loadu_ps(pb1.add(p * NR));
            let ap = pa.add(p * MR);
            for (r, a) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*ap.add(r));
                a[0] = _mm512_fmadd_ps(av, b0, a[0]);
                a[1] = _mm512_fmadd_ps(av, b1, a[1]);
            }
            p += 1;
        }
        for (r, a) in acc.iter().enumerate() {
            _mm512_storeu_ps(outp.add(r * n), a[0]);
            _mm512_storeu_ps(outp.add(r * n + NR), a[1]);
        }
    }

    /// Single-strip `8 x 16` kernel (8 zmm accumulators, `k` unrolled by
    /// 4) for the odd trailing full strip. Full tiles only.
    #[target_feature(enable = "avx512f")]
    unsafe fn tile_x1<const LOAD: bool>(
        pa: &[f32],
        pb: &[f32],
        out: &mut [f32],
        origin: usize,
        n: usize,
        k: usize,
    ) {
        debug_assert!(origin + (MR - 1) * n + NR <= out.len());
        let pa = pa.as_ptr();
        let pb = pb.as_ptr();
        let outp = out.as_mut_ptr().add(origin);
        let mut acc = [_mm512_setzero_ps(); MR];
        if LOAD {
            for (r, a) in acc.iter_mut().enumerate() {
                *a = _mm512_loadu_ps(outp.add(r * n));
            }
        }
        let mut p = 0usize;
        while p + 4 <= k {
            for u in 0..4 {
                let b = _mm512_loadu_ps(pb.add((p + u) * NR));
                let ap = pa.add((p + u) * MR);
                for (r, a) in acc.iter_mut().enumerate() {
                    *a = _mm512_fmadd_ps(_mm512_set1_ps(*ap.add(r)), b, *a);
                }
            }
            p += 4;
        }
        while p < k {
            let b = _mm512_loadu_ps(pb.add(p * NR));
            let ap = pa.add(p * MR);
            for (r, a) in acc.iter_mut().enumerate() {
                *a = _mm512_fmadd_ps(_mm512_set1_ps(*ap.add(r)), b, *a);
            }
            p += 1;
        }
        for (r, a) in acc.iter().enumerate() {
            _mm512_storeu_ps(outp.add(r * n), *a);
        }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn panel<const LOAD: bool>(
        pa: &[f32],
        pb: &[f32],
        out: &mut [f32],
        rows: usize,
        k: usize,
        n: usize,
    ) {
        let nstrips = n.div_ceil(NR);
        let full_cols = n / NR; // strips whose NR columns are all valid
        let row_strips = rows.div_ceil(MR);
        let full_rows = rows / MR; // strips whose MR rows are all valid
        let strip_a = |si: usize| &pa[si * k * MR..(si + 1) * k * MR];
        let strip_b = |sj: usize| &pb[sj * k * NR..(sj + 1) * k * NR];
        // B strip pairs stay outermost so each pair is cache-hot across
        // every A strip, mirroring the scalar panel loop.
        let mut sj = 0usize;
        while sj + 2 <= full_cols {
            let c0 = sj * NR;
            for si in 0..row_strips {
                let r0 = si * MR;
                if si < full_rows {
                    tile_x2::<LOAD>(
                        strip_a(si),
                        strip_b(sj),
                        strip_b(sj + 1),
                        out,
                        r0 * n + c0,
                        n,
                        k,
                    );
                } else {
                    let rows_v = rows - r0;
                    micro_tile::<LOAD>(strip_a(si), strip_b(sj), out, r0 * n + c0, n, rows_v, NR);
                    micro_tile::<LOAD>(
                        strip_a(si),
                        strip_b(sj + 1),
                        out,
                        r0 * n + c0 + NR,
                        n,
                        rows_v,
                        NR,
                    );
                }
            }
            sj += 2;
        }
        if sj < full_cols {
            let c0 = sj * NR;
            for si in 0..row_strips {
                let r0 = si * MR;
                if si < full_rows {
                    tile_x1::<LOAD>(strip_a(si), strip_b(sj), out, r0 * n + c0, n, k);
                } else {
                    micro_tile::<LOAD>(
                        strip_a(si),
                        strip_b(sj),
                        out,
                        r0 * n + c0,
                        n,
                        rows - r0,
                        NR,
                    );
                }
            }
            sj += 1;
        }
        for sjr in full_cols.max(sj)..nstrips {
            let c0 = sjr * NR;
            let cols_v = n - c0;
            for si in 0..row_strips {
                let r0 = si * MR;
                let rows_v = MR.min(rows - r0);
                micro_tile::<LOAD>(
                    strip_a(si),
                    strip_b(sjr),
                    out,
                    r0 * n + c0,
                    n,
                    rows_v,
                    cols_v,
                );
            }
        }
    }

    // SAFETY (wrappers below): only installed in the Avx512 dispatch
    // table, selected after runtime detection of avx512f (module docs).
    pub(crate) fn gemm_panel_acc(
        pa: &[f32],
        pb: &[f32],
        out: &mut [f32],
        rows: usize,
        k: usize,
        n: usize,
    ) {
        unsafe { panel::<true>(pa, pb, out, rows, k, n) }
    }

    pub(crate) fn gemm_panel_over(
        pa: &[f32],
        pb: &[f32],
        out: &mut [f32],
        rows: usize,
        k: usize,
        n: usize,
    ) {
        unsafe { panel::<false>(pa, pb, out, rows, k, n) }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn colwindow(
        pa: &[f32],
        pbw: &[f32],
        out: &mut [f32],
        rows: usize,
        k: usize,
        n: usize,
        c0: usize,
    ) {
        let w = pbw.len() / (k * NR);
        let row_strips = rows.div_ceil(MR);
        let full_rows = rows / MR;
        let strip_a = |si: usize| &pa[si * k * MR..(si + 1) * k * MR];
        if w == 2 && c0 + 2 * NR <= n {
            let (pb0, pb1) = pbw.split_at(k * NR);
            for si in 0..row_strips {
                let r0 = si * MR;
                if si < full_rows {
                    tile_x2::<false>(strip_a(si), pb0, pb1, out, r0 * n + c0, n, k);
                } else {
                    let rows_v = rows - r0;
                    micro_tile::<false>(strip_a(si), pb0, out, r0 * n + c0, n, rows_v, NR);
                    micro_tile::<false>(strip_a(si), pb1, out, r0 * n + c0 + NR, n, rows_v, NR);
                }
            }
            return;
        }
        for (sjw, pb_strip) in pbw.chunks_exact(k * NR).enumerate() {
            let cw = c0 + sjw * NR;
            let cols_v = NR.min(n - cw);
            for si in 0..row_strips {
                let r0 = si * MR;
                let rows_v = MR.min(rows - r0);
                if rows_v == MR && cols_v == NR {
                    tile_x1::<false>(strip_a(si), pb_strip, out, r0 * n + cw, n, k);
                } else {
                    micro_tile::<false>(strip_a(si), pb_strip, out, r0 * n + cw, n, rows_v, cols_v);
                }
            }
        }
    }

    pub(crate) fn colwindow_over(
        pa: &[f32],
        pbw: &[f32],
        out: &mut [f32],
        rows: usize,
        k: usize,
        n: usize,
        c0: usize,
    ) {
        // SAFETY: avx512f detected (dispatch table).
        unsafe { colwindow(pa, pbw, out, rows, k, n, c0) }
    }

    /// B strip packer: one zmm load + store per panel row; ragged strips
    /// use a masked (zero-filling) load so padding is zeroed in the same
    /// store. Pure data movement.
    #[target_feature(enable = "avx512f")]
    unsafe fn pack_b_strip_inner(b: &[f32], strip: &mut [f32], k: usize, n: usize, c0: usize) {
        let cols_v = NR.min(n - c0);
        let sp = b.as_ptr();
        let dp = strip.as_mut_ptr();
        if cols_v == NR {
            for p in 0..k {
                _mm512_storeu_ps(dp.add(p * NR), _mm512_loadu_ps(sp.add(p * n + c0)));
            }
        } else {
            let mask: __mmask16 = (1u16 << cols_v) - 1;
            for p in 0..k {
                // masked load touches only the cols_v valid lanes and
                // zeroes the rest — the zero padding the kernel contract
                // requires.
                _mm512_storeu_ps(
                    dp.add(p * NR),
                    _mm512_maskz_loadu_ps(mask, sp.add(p * n + c0)),
                );
            }
        }
    }

    pub(crate) fn pack_b_strip(b: &[f32], strip: &mut [f32], k: usize, n: usize, c0: usize) {
        debug_assert!(strip.len() >= k * NR);
        // SAFETY: avx512f detected (dispatch table); row p of the source
        // spans b[p*n+c0 ..] with cols_v lanes in bounds (masked when
        // ragged), destination rows are NR-wide within the strip.
        unsafe { pack_b_strip_inner(b, strip, k, n, c0) }
    }

    /// f16-source B strip packer: one `vcvtph2ps` per panel row.
    #[target_feature(enable = "avx512f")]
    unsafe fn pack_b_strip_f16_inner(hb: &[u16], strip: &mut [f32], k: usize, n: usize, c0: usize) {
        for p in 0..k {
            let h = _mm256_loadu_si256(hb.as_ptr().add(p * n + c0) as *const __m256i);
            _mm512_storeu_ps(strip.as_mut_ptr().add(p * NR), _mm512_cvtph_ps(h));
        }
    }

    pub(crate) fn pack_b_strip_f16(hb: &[u16], strip: &mut [f32], k: usize, n: usize, c0: usize) {
        let cols_v = NR.min(n - c0);
        if cols_v == NR {
            // SAFETY: avx512f detected; full strips only (16 u16 per row
            // in bounds).
            unsafe { pack_b_strip_f16_inner(hb, strip, k, n, c0) }
        } else {
            crate::gemm::pack_b_strip_f16_scalar(hb, strip, k, n, c0);
        }
    }

    /// 16-lane half conversions; tails use the software conversions,
    /// which bit-match the hardware.
    #[target_feature(enable = "avx512f")]
    unsafe fn widen_inner(src: &[u16], dst: &mut [f32]) {
        let n16 = src.len() / 16 * 16;
        for i in (0..n16).step_by(16) {
            let h = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
            _mm512_storeu_ps(dst.as_mut_ptr().add(i), _mm512_cvtph_ps(h));
        }
        for i in n16..src.len() {
            dst[i] = crate::half::f16_bits_to_f32(src[i]);
        }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn narrow_inner(src: &[f32], dst: &mut [u16]) {
        let n16 = src.len() / 16 * 16;
        for i in (0..n16).step_by(16) {
            let v = _mm512_loadu_ps(src.as_ptr().add(i));
            let h = _mm512_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v);
            _mm256_storeu_si256(dst.as_mut_ptr().add(i) as *mut __m256i, h);
        }
        for i in n16..src.len() {
            dst[i] = crate::half::f32_to_f16_bits(src[i]);
        }
    }

    pub(crate) fn widen_f16(src: &[u16], dst: &mut [f32]) {
        debug_assert_eq!(src.len(), dst.len());
        // SAFETY: avx512f detected (dispatch table).
        unsafe { widen_inner(src, dst) }
    }

    pub(crate) fn narrow_f16(src: &[f32], dst: &mut [u16]) {
        debug_assert_eq!(src.len(), dst.len());
        // SAFETY: avx512f detected (dispatch table).
        unsafe { narrow_inner(src, dst) }
    }

    /// Streaming 16-lane elementwise kernels. Each lane applies exactly
    /// the scalar expression (exactly-rounded add/sub/mul; `vmaxps(v, 0)`
    /// matches `f32::max(0.0)`'s `maxss` on NaN/signed-zero inputs because
    /// both return the second operand on ties/NaN), tails run the scalar
    /// reference.
    macro_rules! binary16 {
        ($name:ident, $inner:ident, $combine:expr, $scalar:path) => {
            #[target_feature(enable = "avx512f")]
            unsafe fn $inner(a: &[f32], b: &[f32], out: &mut [f32]) {
                let n16 = out.len() / 16 * 16;
                for i in (0..n16).step_by(16) {
                    let x = _mm512_loadu_ps(a.as_ptr().add(i));
                    let y = _mm512_loadu_ps(b.as_ptr().add(i));
                    #[allow(clippy::redundant_closure_call)]
                    _mm512_storeu_ps(out.as_mut_ptr().add(i), ($combine)(x, y));
                }
                $scalar(&a[n16..], &b[n16..], &mut out[n16..]);
            }

            pub(crate) fn $name(a: &[f32], b: &[f32], out: &mut [f32]) {
                debug_assert!(a.len() == out.len() && b.len() == out.len());
                // SAFETY: avx512f detected (dispatch table); 16-lane
                // chunks stay within the equal-length slices.
                unsafe { $inner(a, b, out) }
            }
        };
    }

    binary16!(
        add,
        add_inner,
        |x, y| _mm512_add_ps(x, y),
        super::scalar::add
    );
    binary16!(
        sub,
        sub_inner,
        |x, y| _mm512_sub_ps(x, y),
        super::scalar::sub
    );
    binary16!(
        mul,
        mul_inner,
        |x, y| _mm512_mul_ps(x, y),
        super::scalar::mul
    );
    binary16!(
        add_relu,
        add_relu_inner,
        |x, y| _mm512_max_ps(_mm512_add_ps(x, y), _mm512_setzero_ps()),
        super::scalar::add_relu
    );

    #[target_feature(enable = "avx512f")]
    unsafe fn relu_inner(a: &[f32], out: &mut [f32]) {
        let n16 = out.len() / 16 * 16;
        let zero = _mm512_setzero_ps();
        for i in (0..n16).step_by(16) {
            let v = _mm512_loadu_ps(a.as_ptr().add(i));
            _mm512_storeu_ps(out.as_mut_ptr().add(i), _mm512_max_ps(v, zero));
        }
        super::scalar::relu(&a[n16..], &mut out[n16..]);
    }

    pub(crate) fn relu(a: &[f32], out: &mut [f32]) {
        debug_assert_eq!(a.len(), out.len());
        // SAFETY: avx512f detected (dispatch table).
        unsafe { relu_inner(a, out) }
    }

    /// Per-channel affine: `v * s + t` as separate exactly-rounded mul
    /// then add — deliberately **not** an FMA, matching the scalar
    /// expression's two roundings.
    #[target_feature(enable = "avx512f")]
    unsafe fn affine_inner(src: &[f32], out: &mut [f32], s: f32, t: f32) {
        let n16 = out.len() / 16 * 16;
        let sv = _mm512_set1_ps(s);
        let tv = _mm512_set1_ps(t);
        for i in (0..n16).step_by(16) {
            let v = _mm512_loadu_ps(src.as_ptr().add(i));
            _mm512_storeu_ps(
                out.as_mut_ptr().add(i),
                _mm512_add_ps(_mm512_mul_ps(v, sv), tv),
            );
        }
        super::scalar::affine(&src[n16..], &mut out[n16..], s, t);
    }

    pub(crate) fn affine(src: &[f32], out: &mut [f32], s: f32, t: f32) {
        debug_assert_eq!(src.len(), out.len());
        // SAFETY: avx512f detected (dispatch table).
        unsafe { affine_inner(src, out, s, t) }
    }

    /// Fused Adam update, 16 lanes per step. Lane chains replicate the
    /// scalar expression operation-for-operation (`vdivps`, `vsqrtps` are
    /// exactly rounded), so the update is bit-identical.
    #[target_feature(enable = "avx512f")]
    unsafe fn adam_inner(
        pd: &mut [f32],
        g: &[f32],
        md: &mut [f32],
        vd: &mut [f32],
        hp: AdamUpdate,
    ) {
        let n16 = g.len() / 16 * 16;
        let b1 = _mm512_set1_ps(hp.beta1);
        let omb1 = _mm512_set1_ps(1.0 - hp.beta1);
        let b2 = _mm512_set1_ps(hp.beta2);
        let omb2 = _mm512_set1_ps(1.0 - hp.beta2);
        let bc1 = _mm512_set1_ps(hp.bc1);
        let bc2 = _mm512_set1_ps(hp.bc2);
        let lr = _mm512_set1_ps(hp.lr);
        let eps = _mm512_set1_ps(hp.eps);
        for i in (0..n16).step_by(16) {
            let gv = _mm512_loadu_ps(g.as_ptr().add(i));
            let m = _mm512_add_ps(
                _mm512_mul_ps(b1, _mm512_loadu_ps(md.as_ptr().add(i))),
                _mm512_mul_ps(omb1, gv),
            );
            _mm512_storeu_ps(md.as_mut_ptr().add(i), m);
            let v = _mm512_add_ps(
                _mm512_mul_ps(b2, _mm512_loadu_ps(vd.as_ptr().add(i))),
                _mm512_mul_ps(_mm512_mul_ps(omb2, gv), gv),
            );
            _mm512_storeu_ps(vd.as_mut_ptr().add(i), v);
            let mhat = _mm512_div_ps(m, bc1);
            let vhat = _mm512_div_ps(v, bc2);
            let step = _mm512_div_ps(
                _mm512_mul_ps(lr, mhat),
                _mm512_add_ps(_mm512_sqrt_ps(vhat), eps),
            );
            let p = _mm512_sub_ps(_mm512_loadu_ps(pd.as_ptr().add(i)), step);
            _mm512_storeu_ps(pd.as_mut_ptr().add(i), p);
        }
        super::scalar::adam(
            &mut pd[n16..],
            &g[n16..],
            &mut md[n16..],
            &mut vd[n16..],
            hp,
        );
    }

    pub(crate) fn adam(pd: &mut [f32], g: &[f32], md: &mut [f32], vd: &mut [f32], hp: AdamUpdate) {
        debug_assert!(pd.len() == g.len() && md.len() == g.len() && vd.len() == g.len());
        // SAFETY: avx512f detected (dispatch table); 16-lane chunks stay
        // within the equal-length slices.
        unsafe { adam_inner(pd, g, md, vd, hp) }
    }
}
