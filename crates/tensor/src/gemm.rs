//! Cache-blocked, register-tiled GEMM micro-kernel and operand packing.
//!
//! This module implements the BLIS-style decomposition used by every
//! production CPU GEMM: both operands are first *packed* into small
//! contiguous panels laid out exactly in the order the inner kernel reads
//! them, then an `MR x NR` register tile of the output is driven down the
//! shared `k` dimension in one pass. Packing turns the kernel's memory
//! accesses into pure streaming loads (no strides, no bounds logic), which
//! is what lets the compiler keep the whole accumulator tile in vector
//! registers.
//!
//! Layouts:
//!
//! * **Packed A** (`MR`-high row strips): element `(r, p)` of strip `i`
//!   lives at `i*(k*MR) + p*MR + r`, so each step of the kernel's `p` loop
//!   reads `MR` consecutive floats.
//! * **Packed B** (`NR`-wide column strips): element `(p, c)` of strip `j`
//!   lives at `j*(k*NR) + p*NR + c`, so each `p` step reads `NR`
//!   consecutive floats.
//!
//! Edge strips (when `m % MR != 0` or `n % NR != 0`) are zero-padded to
//! full width: the kernel always computes a full `MR x NR` tile, and only
//! the valid lanes are loaded from / stored to the output. Padded A rows
//! are zero, so the dead lanes accumulate `0 * b` products that are never
//! written back — one uniform code path, no separate edge kernel.
//!
//! **Bit-identity.** The accumulator tile is *loaded from the output*
//! before the `k` loop and stored after it, so every output element sees a
//! single accumulation sequence in strictly ascending `p` order — exactly
//! the order of the serial `ikj` reference loop ([`matmul_naive_into`]).
//! Vectorizing across independent output lanes does not reorder any
//! element's additions, and every accumulation step in both the kernel and
//! the reference is the same explicit `f32::mul_add` (the exactly-rounded
//! fused multiply-add — one deterministic rounding per step, on every
//! target CPU), so the packed kernel is bit-for-bit identical to the naive
//! loop (and therefore thread-count independent: parallel callers split
//! work over disjoint output row bands only). Property-tested in
//! `crates/tensor/tests/gemm_props.rs`.
//!
//! `mul_add` is used deliberately: with `target-cpu=native` it lowers to
//! the hardware FMA instruction, doubling the kernel's peak flops per
//! cycle versus the separate mul + add sequence Rust would otherwise emit
//! (fp-contraction is never implicit in Rust).
//!
//! **Dispatch.** The panel drives and packers in this module are the
//! *scalar tier* of the runtime ISA dispatch ([`crate::isa`]): the public
//! entry points ([`gemm_packed`], [`matmul_into`], …) route through the
//! active [`crate::isa::Dispatch`] table, whose Avx2/Avx512 tiers replace
//! the tile loop with the explicit `std::arch` micro-kernels in
//! [`crate::simd`]. Every tier preserves the per-element accumulation
//! chain above, so dispatch is invisible in the results.

use std::cell::RefCell;

/// Rows of the output register tile. With [`NR`] this sizes the
/// accumulator at `8 x 16 = 128` f32 lanes — 8 zmm registers under
/// AVX-512, 16 ymm under AVX2.
pub(crate) const MR: usize = 8;
/// Columns of the output register tile.
pub(crate) const NR: usize = 16;
/// Output rows per pool task in [`matmul_into`]. A multiple of [`MR`],
/// fixed regardless of thread count so band boundaries (and therefore
/// results) never depend on parallelism.
const MC: usize = 64;
/// Below this many flops (`2*m*k*n`) the packing overhead outweighs the
/// kernel win; fall through to the naive loop (same accumulation order,
/// so the choice is invisible in the results).
const GEMM_MIN_FLOPS: usize = 1 << 15;

thread_local! {
    // Per-worker packed-A scratch for matmul row bands, reused across
    // calls so the parallel band loop allocates nothing per task.
    static BAND_PACK_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Length of the packed buffer for an `m x k` left operand.
pub(crate) fn packed_a_len(m: usize, k: usize) -> usize {
    m.div_ceil(MR) * MR * k
}

/// Length of the packed buffer for a `k x n` right operand.
pub(crate) fn packed_b_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * NR * k
}

/// Packs a (possibly strided) `m x k` view into `MR`-high row strips.
///
/// Element `(r, p)` is read from `src[r*row_stride + p*col_stride]`, so a
/// transposed operand packs by swapping the strides instead of
/// materializing the transpose. `dst` (length [`packed_a_len`]) is fully
/// initialized: rows past `m` in the last strip are zeroed.
///
/// Routes through the ISA dispatch (the Avx2/Avx512 tiers use an 8x8
/// block transpose for contiguous views); pure data movement, so the
/// packed bytes are identical on every tier.
pub(crate) fn pack_a_strided(
    src: &[f32],
    dst: &mut [f32],
    m: usize,
    k: usize,
    row_stride: usize,
    col_stride: usize,
) {
    (crate::isa::dispatch().pack_a)(src, dst, m, k, row_stride, col_stride);
}

/// Scalar-tier body of [`pack_a_strided`].
pub(crate) fn pack_a_strided_scalar(
    src: &[f32],
    dst: &mut [f32],
    m: usize,
    k: usize,
    row_stride: usize,
    col_stride: usize,
) {
    debug_assert_eq!(dst.len(), packed_a_len(m, k));
    for (si, strip) in dst.chunks_exact_mut(k * MR).enumerate() {
        let r0 = si * MR;
        let rows_v = MR.min(m - r0);
        for r in 0..rows_v {
            let base = (r0 + r) * row_stride;
            for p in 0..k {
                strip[p * MR + r] = src[base + p * col_stride];
            }
        }
        if rows_v < MR {
            for p in 0..k {
                for slot in &mut strip[p * MR + rows_v..(p + 1) * MR] {
                    *slot = 0.0;
                }
            }
        }
    }
}

/// Packs a (possibly strided) `k x n` view into `NR`-wide column strips.
///
/// Element `(p, c)` is read from `src[p*row_stride + c*col_stride]`. `dst`
/// (length [`packed_b_len`]) is fully initialized: columns past `n` in the
/// last strip are zeroed.
pub(crate) fn pack_b_strided(
    src: &[f32],
    dst: &mut [f32],
    k: usize,
    n: usize,
    row_stride: usize,
    col_stride: usize,
) {
    debug_assert_eq!(dst.len(), packed_b_len(k, n));
    for (sj, strip) in dst.chunks_exact_mut(k * NR).enumerate() {
        let c0 = sj * NR;
        let cols_v = NR.min(n - c0);
        for p in 0..k {
            let base = p * row_stride + c0 * col_stride;
            let row = &mut strip[p * NR..(p + 1) * NR];
            if col_stride == 1 {
                row[..cols_v].copy_from_slice(&src[base..base + cols_v]);
            } else {
                for (c, slot) in row[..cols_v].iter_mut().enumerate() {
                    *slot = src[base + c * col_stride];
                }
            }
            for slot in &mut row[cols_v..] {
                *slot = 0.0;
            }
        }
    }
}

/// Packs one `NR`-wide column strip (first column `c0`) of a row-major
/// `k x n` matrix, zero-padding columns past `n` — the scalar tier of the
/// dispatched B packer used by [`matmul_into`].
pub(crate) fn pack_b_strip_scalar(b: &[f32], strip: &mut [f32], k: usize, n: usize, c0: usize) {
    let cols_v = NR.min(n - c0);
    for p in 0..k {
        let row = &mut strip[p * NR..(p + 1) * NR];
        row[..cols_v].copy_from_slice(&b[p * n + c0..p * n + c0 + cols_v]);
        for slot in &mut row[cols_v..] {
            *slot = 0.0;
        }
    }
}

/// The `MR x NR` register-tiled micro-kernel: one output tile, full `k`.
///
/// With `LOAD = true` the accumulator is seeded from the output's valid
/// lanes (zeros in the padded lanes) and the tile *accumulates*; with
/// `LOAD = false` it starts at zero and *overwrites* — bit-identical to
/// zero-filling the output first and accumulating, minus one full
/// write + read pass. Either way the tile is swept down `p = 0..k` in
/// ascending order and only the valid lanes are stored back — see the
/// module docs for why this keeps the result bit-identical to the naive
/// loop.
#[inline(always)]
pub(crate) fn micro_tile<const LOAD: bool>(
    pa: &[f32],
    pb: &[f32],
    out: &mut [f32],
    origin: usize,
    n: usize,
    rows_v: usize,
    cols_v: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if LOAD {
        for (r, accr) in acc.iter_mut().enumerate().take(rows_v) {
            let row = &out[origin + r * n..origin + r * n + cols_v];
            accr[..cols_v].copy_from_slice(row);
        }
    }
    for (ap, bp) in pa.chunks_exact(MR).zip(pb.chunks_exact(NR)) {
        for (r, accr) in acc.iter_mut().enumerate() {
            let ar = ap[r];
            for (x, &bv) in accr.iter_mut().zip(bp) {
                *x = ar.mul_add(bv, *x);
            }
        }
    }
    for (r, accr) in acc.iter().enumerate().take(rows_v) {
        let row = &mut out[origin + r * n..origin + r * n + cols_v];
        row.copy_from_slice(&accr[..cols_v]);
    }
}

/// `out[rows x n] += A_packed[rows x k] * B_packed[k x n]`, serial.
///
/// `out` is a contiguous row-major `rows x n` slice; `pa`/`pb` are the
/// packed panels from [`pack_a_strided`]/[`pack_b_strided`]. Column strips
/// form the outer loop so one B strip stays cache-hot across every row
/// strip of the panel.
pub(crate) fn gemm_packed(
    pa: &[f32],
    pb: &[f32],
    out: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(pa.len(), packed_a_len(rows, k));
    debug_assert_eq!(pb.len(), packed_b_len(k, n));
    debug_assert_eq!(out.len(), rows * n);
    (crate::isa::dispatch().gemm_panel_acc)(pa, pb, out, rows, k, n);
}

/// `out[rows x n] = A_packed[rows x k] * B_packed[k x n]`, serial.
///
/// The *overwrite* form of [`gemm_packed`]: the register tile starts at
/// zero instead of loading the previous output, so `out` may hold
/// arbitrary garbage (e.g. dirty pool scratch) on entry. Bit-identical to
/// zero-filling `out` and calling [`gemm_packed`], without the extra
/// write + read sweep over the output.
pub(crate) fn gemm_packed_overwrite(
    pa: &[f32],
    pb: &[f32],
    out: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(pa.len(), packed_a_len(rows, k));
    debug_assert_eq!(pb.len(), packed_b_len(k, n));
    debug_assert_eq!(out.len(), rows * n);
    (crate::isa::dispatch().gemm_panel_over)(pa, pb, out, rows, k, n);
}

fn gemm_packed_impl<const LOAD: bool>(
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
            micro_tile::<LOAD>(pa_strip, pb_strip, out, r0 * n + c0, n, rows_v, cols_v);
        }
    }
}

/// Scalar-tier accumulating panel drive (dispatch table entry).
pub(crate) fn gemm_panel_scalar_acc(
    pa: &[f32],
    pb: &[f32],
    out: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
) {
    gemm_packed_impl::<true>(pa, pb, out, rows, k, n);
}

/// Scalar-tier overwriting panel drive (dispatch table entry).
pub(crate) fn gemm_panel_scalar_over(
    pa: &[f32],
    pb: &[f32],
    out: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
) {
    gemm_packed_impl::<false>(pa, pb, out, rows, k, n);
}

/// `out[m,n] += a[m,k] x b[k,n]` — the serial `ikj` reference loop.
///
/// This is the accumulation-order oracle for the packed kernel: every
/// other matmul path in the crate must match it bit for bit. Each step is
/// the same exactly-rounded `f32::mul_add` the micro-kernel uses.
pub(crate) fn matmul_naive_into(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o = av.mul_add(bv, *o);
            }
        }
    }
}

/// `out[m,n] += a[m,k] x b[k,n]`: packed, register-tiled, band-parallel.
///
/// B is packed once into shared read-only column strips (in parallel when
/// large enough to clear the pool cutoff); output rows are then split into
/// fixed [`MC`]-row bands, each task packing its own A rows into a
/// per-worker scratch and driving [`gemm_packed`] over its disjoint band.
/// Tiny products skip packing entirely and run the naive loop — the
/// accumulation order is identical either way.
pub(crate) fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let _span = o4a_obs::span!("kernel_gemm");
    o4a_obs::counter!(
        "o4a_kernel_gemm_flops_total",
        "floating-point operations issued by the GEMM kernel (2*m*k*n per call)"
    )
    .add(2 * (m * k * n) as u64);
    if 2 * m * k * n < GEMM_MIN_FLOPS {
        matmul_naive_into(a, b, out, m, k, n);
        return;
    }

    // Pool scratch has unspecified contents, so the pad lanes of the last
    // strip are zeroed explicitly by the strip packer (a fresh
    // `vec![0.0; ..]` used to guarantee that implicitly).
    let pack_b_strip = crate::isa::dispatch().pack_b_strip;
    let mut packed_b = crate::pool::scratch(packed_b_len(k, n));
    crate::parallel::par_chunks_mut(&mut packed_b, k * NR, 1, |sj, strip| {
        pack_b_strip(b, strip, k, n, sj * NR);
    });

    let packed_b = &packed_b;
    crate::parallel::par_chunks_mut(out, MC * n, 2 * k, |band, out_band| {
        let row0 = band * MC;
        let rows = out_band.len() / n;
        BAND_PACK_SCRATCH.with(|cell| {
            let mut pa = cell.borrow_mut();
            pa.resize(packed_a_len(rows, k), 0.0);
            pack_a_strided(&a[row0 * k..(row0 + rows) * k], &mut pa, rows, k, k, 1);
            gemm_packed(&pa, packed_b, out_band, rows, k, n);
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(len: usize, mul: f32) -> Vec<f32> {
        (0..len).map(|i| (i as f32 * mul).sin()).collect()
    }

    fn assert_matches_naive(m: usize, k: usize, n: usize) {
        let a = seq(m * k, 0.37);
        let b = seq(k * n, 0.53);
        let mut packed = vec![0.0f32; m * n];
        let mut naive = vec![0.0f32; m * n];
        matmul_into(&a, &b, &mut packed, m, k, n);
        matmul_naive_into(&a, &b, &mut naive, m, k, n);
        let pb: Vec<u32> = packed.iter().map(|v| v.to_bits()).collect();
        let nb: Vec<u32> = naive.iter().map(|v| v.to_bits()).collect();
        assert_eq!(pb, nb, "packed != naive for ({m},{k},{n})");
    }

    #[test]
    fn packed_matches_naive_on_exact_tiles() {
        assert_matches_naive(MR, 64, NR);
        assert_matches_naive(2 * MR, 33, 2 * NR);
    }

    #[test]
    fn packed_matches_naive_on_ragged_edges() {
        assert_matches_naive(MR + 3, 17, NR + 5);
        assert_matches_naive(1, 1, 1);
        assert_matches_naive(MR - 1, 130, NR - 1);
        assert_matches_naive(MC + MR + 1, 64, NR * 3 + 7);
    }

    #[test]
    fn overwrite_matches_zero_then_accumulate() {
        for &(m, k, n) in &[(MR, 4, NR), (11, 5, 19), (1, 1, 1), (MR + 3, 130, NR - 1)] {
            let a = seq(m * k, 0.41);
            let b = seq(k * n, 0.59);
            let mut pa = vec![0.0; packed_a_len(m, k)];
            let mut pb = vec![0.0; packed_b_len(k, n)];
            pack_a_strided(&a, &mut pa, m, k, k, 1);
            pack_b_strided(&b, &mut pb, k, n, n, 1);
            let mut accum = vec![0.0f32; m * n];
            gemm_packed(&pa, &pb, &mut accum, m, k, n);
            // the overwrite form must ignore whatever garbage is in `out`
            let mut over = vec![f32::NAN; m * n];
            gemm_packed_overwrite(&pa, &pb, &mut over, m, k, n);
            let ab: Vec<u32> = accum.iter().map(|v| v.to_bits()).collect();
            let ob: Vec<u32> = over.iter().map(|v| v.to_bits()).collect();
            assert_eq!(ab, ob, "overwrite != accumulate for ({m},{k},{n})");
        }
    }

    #[test]
    fn pack_a_transposed_view() {
        // Packing a 3x2 operand stored column-major (i.e. the transpose of
        // a 2x3 row-major buffer) via strides must equal packing the
        // materialized transpose directly.
        let src = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2x3 row-major
        let t = [1.0, 4.0, 2.0, 5.0, 3.0, 6.0]; // its 3x2 transpose
        let (m, k) = (3, 2);
        let mut via_strides = vec![0.0; packed_a_len(m, k)];
        let mut via_copy = vec![0.0; packed_a_len(m, k)];
        pack_a_strided(&src, &mut via_strides, m, k, 1, 3);
        pack_a_strided(&t, &mut via_copy, m, k, k, 1);
        assert_eq!(via_strides, via_copy);
    }

    #[test]
    fn pack_b_pads_tail_strip_with_zeros() {
        let (k, n) = (2, NR + 2);
        let src: Vec<f32> = (0..k * n).map(|i| i as f32 + 1.0).collect();
        let mut dst = vec![7.0; packed_b_len(k, n)];
        pack_b_strided(&src, &mut dst, k, n, n, 1);
        // tail strip, columns past n, must be zeroed for every p
        for p in 0..k {
            let row = &dst[k * NR + p * NR..k * NR + (p + 1) * NR];
            assert!(
                row[2..].iter().all(|&v| v == 0.0),
                "pad not zeroed: {row:?}"
            );
        }
    }
}
