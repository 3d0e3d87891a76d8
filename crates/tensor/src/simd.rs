//! Explicit-SIMD kernel implementations behind the [`crate::isa`] dispatch.
//!
//! Only the kernels a workload measurably pays for have a body here: the
//! GEMM panel drives, the panel packers and the AVX-512 convolutions.
//! The elementwise sweeps, the fused Adam update and the f16 narrowing
//! are single portable loops (`ops`, `half`) on every tier.
//!
//! Every function here computes **bit-for-bit** the same result as its
//! scalar reference in [`crate::gemm`] / [`crate::conv`]: vector lanes
//! map to independent output elements, each lane's operation chain is the
//! same sequence of exactly-rounded IEEE operations (`vfmadd` ≡
//! `f32::mul_add`), and no vectorization step reorders any element's
//! accumulation. The per-tier proptests in
//! `crates/tensor/tests/gemm_props.rs` / `conv_props.rs` pin this.
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

/// AVX2 + FMA tier: explicit 256-bit GEMM micro-kernel and 8x8-block
/// transpose A packer.
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

    // SAFETY (both wrappers): only installed in the Avx2/Avx512
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
}

/// AVX-512F tier: two-strip `8 x 32` GEMM micro-kernel, zmm panel packers
/// and the implicit-GEMM convolutions.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512 {
    use crate::conv::{with_padded, ConvGeom};
    use crate::gemm::{micro_tile, packed_a_len, MR, NR};
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

    /// One row segment of up to 16 pixels of a plane: its row, its first
    /// column and the mask of its valid lanes (empty for the partner of
    /// an odd last strip).
    #[derive(Clone, Copy)]
    struct Strip {
        row: usize,
        col: usize,
        lanes: __mmask16,
    }

    /// Mask of the first `n` of 16 lanes.
    fn lane_mask(n: usize) -> __mmask16 {
        if n >= 16 {
            u16::MAX
        } else {
            (1u16 << n) - 1
        }
    }

    /// The 16-pixel strips of a `rows x width` plane, row by row, paired
    /// for the two-strip conv tiles. A row narrower than 16 pixels, or a
    /// row's last partial strip, is a masked strip; the pair of an odd
    /// last strip is an empty copy of it.
    fn strip_pairs(rows: usize, width: usize) -> impl Iterator<Item = (Strip, Strip)> {
        let per_row = width.div_ceil(16);
        let strip = move |i: usize| {
            let col = i % per_row * 16;
            Strip {
                row: i / per_row,
                col,
                lanes: lane_mask(width - col),
            }
        };
        let n = rows * per_row;
        (0..n).step_by(2).map(move |i| {
            let a = strip(i);
            let b = if i + 1 < n {
                strip(i + 1)
            } else {
                Strip { lanes: 0, ..a }
            };
            (a, b)
        })
    }

    /// Implicit-GEMM conv forward of one sample (see
    /// `Dispatch::conv_fwd`). `xp` is the input zero-padded by `pad` on
    /// every side, `[c_in, h + 2*pad, w + 2*pad]`. Per strip pair and
    /// 8-channel row strip of the packed weights, 16 zmm accumulators
    /// (8 channels x 2 strips) are seeded with the bias and take one fma
    /// per `p = (c, ki, kj)`, in ascending order.
    ///
    /// # Safety
    /// avx512f must be available, `xp` must hold the padded input of
    /// geometry `g` (stride 1, `pad < kh, kw`), `packed_w` the packed
    /// `[c_out, krows]` weights, `bias` `c_out` values and `out`
    /// `c_out * out_h * out_w` values.
    #[target_feature(enable = "avx512f")]
    unsafe fn conv_fwd_inner(
        xp: &[f32],
        packed_w: &[f32],
        bias: &[f32],
        out: &mut [f32],
        g: &ConvGeom,
    ) {
        let (kh, kw, out_w) = (g.kh, g.kw, g.out_w);
        let wp = g.w + 2 * g.pad;
        let plane = (g.h + 2 * g.pad) * wp;
        let (cols, krows) = (g.cols(), g.krows());
        debug_assert_eq!(xp.len(), g.c_in * plane);
        debug_assert_eq!(out.len(), g.c_out * cols);
        for (a, b) in strip_pairs(g.out_h, out_w) {
            // each strip's window origin (c = ki = kj = 0) in `xp`
            let xa = xp.as_ptr().add(a.row * wp + a.col);
            let xb = xp.as_ptr().add(b.row * wp + b.col);
            for (si, pa) in packed_w.chunks_exact(krows * MR).enumerate() {
                let r0 = si * MR;
                let rows_v = MR.min(g.c_out - r0);
                // Fixed-trip loops over all MR rows (a dead row's lanes are
                // never stored) keep the accumulators in registers.
                let mut acc = [[_mm512_setzero_ps(); 2]; MR];
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    if r < rows_v {
                        *acc_r = [_mm512_set1_ps(bias[r0 + r]); 2];
                    }
                }
                let mut ap = pa.as_ptr();
                for c in 0..g.c_in {
                    for ki in 0..kh {
                        let off = c * plane + ki * wp;
                        let (ra, rb) = (xa.add(off), xb.add(off));
                        for kj in 0..kw {
                            let b0 = _mm512_maskz_loadu_ps(a.lanes, ra.add(kj));
                            let b1 = _mm512_maskz_loadu_ps(b.lanes, rb.add(kj));
                            for (r, acc_r) in acc.iter_mut().enumerate() {
                                let av = _mm512_set1_ps(*ap.add(r));
                                acc_r[0] = _mm512_fmadd_ps(av, b0, acc_r[0]);
                                acc_r[1] = _mm512_fmadd_ps(av, b1, acc_r[1]);
                            }
                            ap = ap.add(MR);
                        }
                    }
                }
                for (r, acc_r) in acc.iter().enumerate() {
                    if r < rows_v {
                        let orow = out.as_mut_ptr().add((r0 + r) * cols);
                        _mm512_mask_storeu_ps(orow.add(a.row * out_w + a.col), a.lanes, acc_r[0]);
                        _mm512_mask_storeu_ps(orow.add(b.row * out_w + b.col), b.lanes, acc_r[1]);
                    }
                }
            }
        }
    }

    /// The AVX-512 `Dispatch::conv_fwd` entry.
    pub(crate) fn conv_fwd(
        img: &[f32],
        packed_w: &[f32],
        bias: &[f32],
        out: &mut [f32],
        g: &ConvGeom,
    ) {
        assert!(
            g.dispatched()
                && g.is_consistent()
                && img.len() == g.c_in * g.h * g.w
                && packed_w.len() == packed_a_len(g.c_out, g.krows())
                && bias.len() == g.c_out
                && out.len() == g.c_out * g.cols(),
            "conv_fwd called outside its geometry"
        );
        with_padded(img, g.c_in, (g.h, g.w), (g.pad, g.pad), |xp| {
            // SAFETY: only installed in the Avx512 dispatch table
            // (avx512f detected); the assert above pins stride 1,
            // `pad < kh, kw` and every length. A lane its strip's mask
            // enables reads padded row `row + ki <= out_h - 1 + kh - 1
            // < h + 2*pad` and column `col + lane + kj <= out_w - 1 +
            // kw - 1 < w + 2*pad`, inside `xp`; stores touch only the
            // strip's own output pixels.
            unsafe { conv_fwd_inner(xp, packed_w, bias, out, g) }
        });
    }

    /// Input channels per backward-data tile: with two strips, 4 channels
    /// keep both the tap sums and the input-gradient elements in 16 zmm
    /// registers.
    const BWD_CH: usize = 4;

    /// Implicit-GEMM input gradient of one sample (see
    /// `Dispatch::conv_bwd_data`), written into `gi`. `gp` is `grad_output`
    /// padded by `kw - 1 - pad` columns on each side,
    /// `[c_out, out_h, w + kw - 1]`, so every tap column of an input strip
    /// reads inside it. Per strip pair and group of 4 input channels, each
    /// tap's sums take one fma per `oc` from `W^T` rows `(c, ki, kj)` of
    /// the packed panel, and are added into the group's input-gradient
    /// elements, held in registers from +0 until the last tap.
    ///
    /// # Safety
    /// avx512f must be available, `gp` must hold the padded
    /// `grad_output` of geometry `g` (stride 1, `pad < kh, kw`),
    /// `packed_wt` the packed `[krows, c_out]` `W^T` panel and `gi`
    /// `c_in * h * w` values.
    #[target_feature(enable = "avx512f")]
    unsafe fn conv_bwd_data_inner(gp: &[f32], packed_wt: &[f32], gi: &mut [f32], g: &ConvGeom) {
        let ConvGeom {
            c_in,
            h,
            w,
            c_out,
            kh,
            kw,
            pad,
            out_h,
            out_w,
            ..
        } = *g;
        let taps = kh * kw;
        let gw = w + kw - 1;
        let plane = out_h * gw;
        debug_assert_eq!(gp.len(), c_out * plane);
        debug_assert_eq!(gi.len(), c_in * h * w);
        // The grad_output row tap row `ki` of a strip reads, if inside.
        let tap_row = |s: Strip, ki: usize| {
            (s.row + pad)
                .checked_sub(ki)
                .filter(|&oi| oi < out_h && s.lanes != 0)
        };
        // The lanes of a strip whose tap column `kj` reads a grad_output
        // pixel: `0 <= col + lane + pad - kj < out_w`.
        let tap_lanes = |s: Strip, kj: usize| {
            let first = (kj as isize - pad as isize - s.col as isize).clamp(0, 16) as usize;
            let end = (out_w as isize + kj as isize - pad as isize - s.col as isize).clamp(0, 16);
            s.lanes & lane_mask(end as usize) & !lane_mask(first)
        };
        for (a, b) in strip_pairs(h, w) {
            for c0 in (0..c_in).step_by(BWD_CH) {
                let rows_v = BWD_CH.min(c_in - c0);
                let mut acc = [[_mm512_setzero_ps(); 2]; BWD_CH];
                for ki in 0..kh {
                    let (oa, ob) = (tap_row(a, ki), tap_row(b, ki));
                    if oa.is_none() && ob.is_none() {
                        continue;
                    }
                    // Each strip's origin in `gp` for the last tap column;
                    // a strip whose tap row lies outside loads nothing.
                    let origin = |s: Strip, oi: Option<usize>| match oi {
                        Some(oi) => (s.lanes, gp.as_ptr().add(oi * gw + s.col)),
                        None => (0, gp.as_ptr()),
                    };
                    let ((la, ga), (lb, gb)) = (origin(a, oa), origin(b, ob));
                    for kj in 0..kw {
                        let t = ki * kw + kj;
                        // W^T row (c, t) of each channel of the group; rows
                        // past c_in repeat the last channel's and are never
                        // stored.
                        let mut wr = [packed_wt.as_ptr(); BWD_CH];
                        for (r, p) in wr.iter_mut().enumerate() {
                            let row = (c0 + r.min(rows_v - 1)) * taps + t;
                            *p = packed_wt.as_ptr().add(row / MR * c_out * MR + row % MR);
                        }
                        let shift = kw - 1 - kj;
                        let mut sum = [[_mm512_setzero_ps(); 2]; BWD_CH];
                        for oc in 0..c_out {
                            let b0 = _mm512_maskz_loadu_ps(la, ga.add(oc * plane + shift));
                            let b1 = _mm512_maskz_loadu_ps(lb, gb.add(oc * plane + shift));
                            for (sum_r, wr_r) in sum.iter_mut().zip(&wr) {
                                let av = _mm512_set1_ps(*wr_r.add(oc * MR));
                                sum_r[0] = _mm512_fmadd_ps(av, b0, sum_r[0]);
                                sum_r[1] = _mm512_fmadd_ps(av, b1, sum_r[1]);
                            }
                        }
                        // Add each sum where the tap reads a grad_output
                        // pixel, as col2im does.
                        let (ma, mb) = (la & tap_lanes(a, kj), lb & tap_lanes(b, kj));
                        for (acc_r, sum_r) in acc.iter_mut().zip(&sum) {
                            acc_r[0] = _mm512_mask_add_ps(acc_r[0], ma, acc_r[0], sum_r[0]);
                            acc_r[1] = _mm512_mask_add_ps(acc_r[1], mb, acc_r[1], sum_r[1]);
                        }
                    }
                }
                for (r, acc_r) in acc.iter().enumerate() {
                    if r < rows_v {
                        let chan = gi.as_mut_ptr().add((c0 + r) * h * w);
                        _mm512_mask_storeu_ps(chan.add(a.row * w + a.col), a.lanes, acc_r[0]);
                        _mm512_mask_storeu_ps(chan.add(b.row * w + b.col), b.lanes, acc_r[1]);
                    }
                }
            }
        }
    }

    /// The AVX-512 `Dispatch::conv_bwd_data` entry.
    pub(crate) fn conv_bwd_data(go: &[f32], packed_wt: &[f32], gi: &mut [f32], g: &ConvGeom) {
        assert!(
            g.dispatched()
                && g.is_consistent()
                && go.len() == g.c_out * g.cols()
                && packed_wt.len() == packed_a_len(g.krows(), g.c_out)
                && gi.len() == g.c_in * g.h * g.w,
            "conv_bwd_data called outside its geometry"
        );
        let pad_c = g.kw - 1 - g.pad;
        with_padded(go, g.c_out, (g.out_h, g.out_w), (0, pad_c), |gp| {
            // SAFETY: only installed in the Avx512 dispatch table
            // (avx512f detected); the assert above pins stride 1,
            // `pad < kh, kw` and every length. A lane its mask enables
            // reads grad_output row `oi < out_h` and padded column
            // `col + lane + kw - 1 - kj <= w - 1 + kw - 1 < w + kw - 1`,
            // inside `gp`; weight rows stay below `krows`, inside the
            // packed panel; stores touch only the strip's own `gi`
            // pixels.
            unsafe { conv_bwd_data_inner(gp, packed_wt, gi, g) }
        });
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
}
