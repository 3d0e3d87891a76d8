//! Runtime ISA detection and kernel dispatch.
//!
//! The kernels that carry the training workload's time (the GEMM
//! micro-kernel family, the panel packers and the stride-1 convolutions)
//! exist in up to three implementations:
//!
//! * **Scalar** — the portable Rust loops. With `target-cpu=native` the
//!   compiler still autovectorizes them, so "scalar" here means *no
//!   `std::arch` intrinsics*, not "no SIMD instructions"; it is the tier
//!   that runs on any x86-64 and on every other architecture.
//! * **Avx2** — explicit AVX2+FMA kernels (`_mm256_fmadd_ps` tiles, the
//!   8x8-block transpose A-packer).
//! * **Avx512** — explicit AVX-512F kernels: the two-strip `8x32` GEMM
//!   micro-kernel (16 zmm accumulators, `k` unrolled by 4), zmm panel
//!   packers and the implicit-GEMM convolutions.
//!
//! A kernel gets an explicit-SIMD body only where an end-to-end workload
//! measurably pays for it; every other slot of a SIMD tier points at the
//! scalar body. The memory-bound sweeps (`add`, `relu`, the fused Adam
//! update) and the f16 narrowing are not dispatched at all: each is one
//! portable loop (`ops`, [`crate::half`]) on every tier.
//!
//! The implementation family is chosen **once**, on first use, via
//! [`std::is_x86_feature_detected!`], and cached in a [`OnceLock`] as a
//! table of plain function pointers (`Dispatch`). The choice can be
//! overridden for testing with `O4A_ISA=scalar|avx2|avx512` (requesting a
//! tier the CPU lacks falls back to the best available with a warning), or
//! programmatically with [`force`] (which panics on an unavailable tier;
//! tests that force tiers on parallel threads must serialize, see its
//! docs).
//!
//! **Bit-identity.** Dispatch never changes results: every tier computes
//! each output element through the *same* exactly-rounded operation chain
//! (see the `gemm` module docs), so `O4A_ISA=scalar` is bit-for-bit
//! identical to the dispatched run. This is property-tested per tier in
//! `crates/tensor/tests/gemm_props.rs` / `conv_props.rs`.
//!
//! The selected tier and the detected CPU features are exported through
//! `o4a-obs` as plain gauges (`o4a_isa_active`, `o4a_isa_feature_*`) and
//! logged once at resolution, so a serve deployment's `METRICS` scrape
//! shows which kernel family is live.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::conv::ConvGeom;

/// Instruction-set tier of a kernel implementation family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable Rust loops (autovectorized by the compiler, no intrinsics).
    Scalar,
    /// Explicit AVX2 + FMA kernels.
    Avx2,
    /// Explicit AVX-512F kernels (implies the AVX2 tier's features).
    Avx512,
}

impl Isa {
    /// Short lowercase name, as accepted by `O4A_ISA`.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    fn level(self) -> u8 {
        match self {
            Isa::Scalar => 0,
            Isa::Avx2 => 1,
            Isa::Avx512 => 2,
        }
    }
}

/// Drives the micro-kernel over a fully packed `rows x k` A panel and
/// `k x n` B panel into a row-major `rows x n` output slice.
pub(crate) type GemmPanelFn =
    fn(pa: &[f32], pb: &[f32], out: &mut [f32], rows: usize, k: usize, n: usize);

/// Packs a strided `m x k` view into `MR`-high row strips
/// (see [`crate::gemm::pack_a_strided`] for the layout contract).
pub(crate) type PackAFn =
    fn(src: &[f32], dst: &mut [f32], m: usize, k: usize, row_stride: usize, col_stride: usize);

/// Packs one `NR`-wide column strip (strip index implied by `c0 / NR`) of a
/// row-major `k x n` matrix, zero-padding columns past `n`.
pub(crate) type PackBStripFn = fn(b: &[f32], strip: &mut [f32], k: usize, n: usize, c0: usize);

/// One sample's stride-1 convolution: `out = bias + W x unrolled(img)`,
/// from the packed `[c_out, krows]` weight panel.
pub(crate) type ConvFwdFn =
    fn(img: &[f32], packed_w: &[f32], bias: &[f32], out: &mut [f32], g: &ConvGeom);

/// One sample's stride-1 input gradient into `gi`, which starts at zero,
/// from the packed `[krows, c_out]` `W^T` panel.
pub(crate) type ConvBwdDataFn = fn(go: &[f32], packed_wt: &[f32], gi: &mut [f32], g: &ConvGeom);

/// The per-ISA kernel table. One static instance exists per tier; all hot
/// paths route through [`dispatch`]`()` so the selection is a single atomic
/// load + indirect call.
pub(crate) struct Dispatch {
    /// Which tier this table implements.
    pub isa: Isa,
    /// Accumulating GEMM panel drive (`out += A*B`).
    pub gemm_panel_acc: GemmPanelFn,
    /// Overwriting GEMM panel drive (`out = A*B`, `out` may be garbage).
    pub gemm_panel_over: GemmPanelFn,
    /// Strided A packer.
    pub pack_a: PackAFn,
    /// Row-major B strip packer.
    pub pack_b_strip: PackBStripFn,
    /// Per-sample forward of a stride-1 conv with `pad < kernel`.
    ///
    /// The packed body (`im2col` into the GEMM panel, then the packed
    /// GEMM) is the reference. The AVX-512 body is an implicit GEMM: an
    /// `8 x 32` tile of 8 output channels over two 16-pixel strips reads
    /// each strip of a window straight from a zero-padded copy of the
    /// input. Each output element is seeded with its bias and takes the
    /// fma chain over `p = (c, ki, kj)` in ascending order, as the packed
    /// GEMM does, and a padding tap reads the 0.0 that `im2col` writes.
    pub conv_fwd: ConvFwdFn,
    /// Per-sample input gradient of a stride-1 conv with `pad < kernel`.
    ///
    /// The packed body (`col_grad = W^T x grad_output`, then `col2im`) is
    /// the reference. The AVX-512 body is an implicit GEMM over 4 input
    /// channels and two 16-pixel strips: for each input-gradient element
    /// it takes the taps `(ki, kj)` in lexicographic order (`col2im`'s
    /// order), forms the tap's sum as an fma chain over `oc` ascending
    /// from +0 (`col_grad`'s element) and adds it into the element, which
    /// starts at +0 (held in a register until its last tap). A tap
    /// whose `grad_output` pixel lies outside the output is skipped, by row
    /// or by lane mask, as `col2im` skips it: a sum computed from padding
    /// would turn an infinite weight into NaN there.
    pub conv_bwd_data: ConvBwdDataFn,
}

static SCALAR: Dispatch = Dispatch {
    isa: Isa::Scalar,
    gemm_panel_acc: crate::gemm::gemm_panel_scalar_acc,
    gemm_panel_over: crate::gemm::gemm_panel_scalar_over,
    pack_a: crate::gemm::pack_a_strided_scalar,
    pack_b_strip: crate::gemm::pack_b_strip_scalar,
    conv_fwd: crate::conv::conv_fwd_packed,
    conv_bwd_data: crate::conv::conv_bwd_data_packed,
};

/// The AVX2 tier upgrades the GEMM micro-kernel and the A packer; its B
/// packer is the scalar one, and its convs take the packed path, through
/// its GEMM micro-kernel and A packer.
#[cfg(target_arch = "x86_64")]
static AVX2: Dispatch = Dispatch {
    isa: Isa::Avx2,
    gemm_panel_acc: crate::simd::avx2::gemm_panel_acc,
    gemm_panel_over: crate::simd::avx2::gemm_panel_over,
    pack_a: crate::simd::avx2::pack_a_strided,
    pack_b_strip: crate::gemm::pack_b_strip_scalar,
    conv_fwd: crate::conv::conv_fwd_packed,
    conv_bwd_data: crate::conv::conv_bwd_data_packed,
};

#[cfg(target_arch = "x86_64")]
static AVX512: Dispatch = Dispatch {
    isa: Isa::Avx512,
    gemm_panel_acc: crate::simd::avx512::gemm_panel_acc,
    gemm_panel_over: crate::simd::avx512::gemm_panel_over,
    pack_a: crate::simd::avx2::pack_a_strided,
    pack_b_strip: crate::simd::avx512::pack_b_strip,
    conv_fwd: crate::simd::avx512::conv_fwd,
    conv_bwd_data: crate::simd::avx512::conv_bwd_data,
};

fn table(isa: Isa) -> &'static Dispatch {
    match isa {
        Isa::Scalar => &SCALAR,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => &AVX2,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => &AVX512,
        #[cfg(not(target_arch = "x86_64"))]
        _ => &SCALAR,
    }
}

/// Best tier the CPU supports, from feature detection alone (ignores
/// `O4A_ISA` and [`force`]).
pub fn detected() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        let avx2_tier = std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma");
        if avx2_tier && std::arch::is_x86_feature_detected!("avx512f") {
            return Isa::Avx512;
        }
        if avx2_tier {
            return Isa::Avx2;
        }
    }
    Isa::Scalar
}

/// Forced-tier override for tests and benches. `0` = none.
static FORCE: AtomicU8 = AtomicU8::new(0);

/// The startup-resolved tier (detection + `O4A_ISA`).
static RESOLVED: OnceLock<Isa> = OnceLock::new();

fn resolve() -> Isa {
    *RESOLVED.get_or_init(|| {
        let best = detected();
        let chosen = match std::env::var("O4A_ISA") {
            Ok(v) => {
                let req = match v.as_str() {
                    "scalar" => Some(Isa::Scalar),
                    "avx2" => Some(Isa::Avx2),
                    "avx512" => Some(Isa::Avx512),
                    _ => None,
                };
                match req {
                    Some(r) if r.level() <= best.level() => r,
                    Some(r) => {
                        o4a_obs::warn!("tensor", "O4A_ISA requests unavailable tier, using best detected";
                            requested = r.name(), detected = best.name());
                        best
                    }
                    None => {
                        o4a_obs::warn!("tensor", "unrecognized O4A_ISA value ignored"; value = v.as_str());
                        best
                    }
                }
            }
            Err(_) => best,
        };
        export(chosen, best);
        chosen
    })
}

/// Registers the ISA gauges in the global metrics registry and logs the
/// resolved tier once.
fn export(chosen: Isa, best: Isa) {
    let reg = o4a_obs::global();
    reg.gauge(
        "o4a_isa_active",
        "kernel ISA tier selected at startup (0=scalar, 1=avx2, 2=avx512)",
    )
    .set(chosen.level() as f64);
    let feats: &[(&str, bool)] = &[
        ("avx2", best.level() >= 1),
        ("fma", best.level() >= 1),
        ("avx512f", best.level() >= 2),
    ];
    for &(name, on) in feats {
        reg.gauge(
            &format!("o4a_isa_feature_{name}"),
            "CPU feature detected at startup (1 = available to the kernel dispatch)",
        )
        .set(on as u8 as f64);
    }
    o4a_obs::info!("tensor", "kernel ISA dispatch resolved";
        isa = chosen.name(), detected = best.name());
}

/// The tier the next kernel call will run on (force override, else the
/// startup-resolved choice). Calling this resolves and exports the choice.
pub fn active() -> Isa {
    match FORCE.load(Ordering::Relaxed) {
        1 => Isa::Scalar,
        2 => Isa::Avx2,
        3 => Isa::Avx512,
        _ => resolve(),
    }
}

/// Forces a specific tier (`Some`) or restores startup dispatch (`None`).
///
/// Test/bench hook, mirroring `pool::set_enabled`: the override is global,
/// so it changes the tier of every thread's kernels. Results stay correct
/// whatever the interleaving, because every tier is bit-identical; but a
/// test binary whose tests force tiers on parallel threads must serialize
/// those sections (one test's `force(None)` would otherwise hand another
/// the resolved tier mid-loop, and it would pass without running the tier
/// it names).
///
/// # Panics
/// If the requested tier is not available on this CPU, so a forced-tier
/// test cannot pass on a tier the CPU lacks.
pub fn force(isa: Option<Isa>) {
    if let Some(i) = isa {
        assert!(
            i.level() <= detected().level(),
            "cannot force {} kernels: CPU supports only {}",
            i.name(),
            detected().name()
        );
    }
    FORCE.store(isa.map_or(0, |i| i.level() + 1), Ordering::Relaxed);
}

/// Every tier available on this CPU, scalar first. Tests iterate this to
/// pin each dispatch path against the serial oracle.
pub fn available() -> Vec<Isa> {
    let mut v = vec![Isa::Scalar];
    if detected().level() >= 1 {
        v.push(Isa::Avx2);
    }
    if detected().level() >= 2 {
        v.push(Isa::Avx512);
    }
    v
}

/// The active kernel table.
#[inline]
pub(crate) fn dispatch() -> &'static Dispatch {
    // One read of the tier: a concurrent `force()` between two reads
    // would pair a table with a different tier than the one it serves.
    let isa = active();
    let t = table(isa);
    debug_assert_eq!(t.isa, isa);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available() {
        assert_eq!(available()[0], Isa::Scalar);
        assert!(available().contains(&detected()));
    }

    #[test]
    fn force_roundtrip() {
        force(Some(Isa::Scalar));
        assert_eq!(active(), Isa::Scalar);
        assert_eq!(dispatch().isa, Isa::Scalar);
        force(None);
        assert_eq!(active(), resolve());
    }

    #[test]
    fn tables_match_their_tier() {
        for isa in available() {
            assert_eq!(table(isa).isa, isa);
        }
    }
}
