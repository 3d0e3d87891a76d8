//! Runtime ISA detection and kernel dispatch.
//!
//! Every hot kernel in the crate (the GEMM micro-kernel family, the panel
//! packers, the fused elementwise / Adam sweeps, and the f16 narrowing that
//! fills the prediction store's half-width frames) exists in up to three
//! implementations:
//!
//! * **Scalar** — the portable Rust loops. With `target-cpu=native` the
//!   compiler still autovectorizes them, so "scalar" here means *no
//!   `std::arch` intrinsics*, not "no SIMD instructions"; it is the tier
//!   that runs on any x86-64 and on every other architecture.
//! * **Avx2** — explicit AVX2+FMA kernels (`_mm256_fmadd_ps` tiles, the
//!   8x8-block transpose A-packer) plus hardware `F16C` narrowing.
//! * **Avx512** — explicit AVX-512F kernels: the two-strip `8x32` GEMM
//!   micro-kernel (16 zmm accumulators, `k` unrolled by 4), zmm panel
//!   packers, 16-lane fused elementwise/Adam sweeps, and `vcvtps2ph`
//!   narrowing.
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
//! `crates/tensor/tests/gemm_props.rs` / `into_props.rs` / `half_props.rs`.
//!
//! The selected tier and the detected CPU features are exported through
//! `o4a-obs` as plain gauges (`o4a_isa_active`, `o4a_isa_feature_*`) and
//! logged once at resolution, so a serve deployment's `METRICS` scrape
//! shows which kernel family is live.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::ops::AdamUpdate;

/// Instruction-set tier of a kernel implementation family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable Rust loops (autovectorized by the compiler, no intrinsics).
    Scalar,
    /// Explicit AVX2 + FMA + F16C kernels.
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

/// Elementwise binary kernel over equal-length slices.
pub(crate) type BinFn = fn(a: &[f32], b: &[f32], out: &mut [f32]);

/// Elementwise unary kernel.
pub(crate) type UnaryFn = fn(a: &[f32], out: &mut [f32]);

/// Per-channel affine `out = src * s + t` over one channel plane.
pub(crate) type AffineFn = fn(src: &[f32], out: &mut [f32], s: f32, t: f32);

/// Fused Adam moment + parameter update over one chunk.
pub(crate) type AdamFn =
    fn(pd: &mut [f32], g: &[f32], md: &mut [f32], vd: &mut [f32], hp: AdamUpdate);

/// f32 -> f16 slice narrowing (IEEE round-to-nearest-even, NaNs quieted —
/// the exact semantics of the `vcvtps2ph` instruction).
pub(crate) type NarrowFn = fn(src: &[f32], dst: &mut [u16]);

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
    /// `out = a + b`.
    pub add: BinFn,
    /// `out = a - b`.
    pub sub: BinFn,
    /// `out = a * b`.
    pub mul: BinFn,
    /// `out = max(a + b, 0)` (fused residual join).
    pub add_relu: BinFn,
    /// `out = max(a, 0)`.
    pub relu: UnaryFn,
    /// `out = src * s + t` (BN-style per-channel affine).
    pub affine: AffineFn,
    /// Fused Adam update chunk.
    pub adam: AdamFn,
    /// f32 -> f16 narrowing.
    pub narrow_f16: NarrowFn,
}

static SCALAR: Dispatch = Dispatch {
    isa: Isa::Scalar,
    gemm_panel_acc: crate::gemm::gemm_panel_scalar_acc,
    gemm_panel_over: crate::gemm::gemm_panel_scalar_over,
    pack_a: crate::gemm::pack_a_strided_scalar,
    pack_b_strip: crate::gemm::pack_b_strip_scalar,
    add: crate::simd::scalar::add,
    sub: crate::simd::scalar::sub,
    mul: crate::simd::scalar::mul,
    add_relu: crate::simd::scalar::add_relu,
    relu: crate::simd::scalar::relu,
    affine: crate::simd::scalar::affine,
    adam: crate::simd::scalar::adam,
    narrow_f16: crate::half::narrow_f16_scalar,
};

/// The AVX2 tier upgrades the GEMM micro-kernel, the A packer and the f16
/// narrowing (F16C); the streaming elementwise sweeps stay on the
/// autovectorized scalar path, which measures at parity for memory-bound
/// kernels on AVX2-only hardware.
#[cfg(target_arch = "x86_64")]
static AVX2: Dispatch = Dispatch {
    isa: Isa::Avx2,
    gemm_panel_acc: crate::simd::avx2::gemm_panel_acc,
    gemm_panel_over: crate::simd::avx2::gemm_panel_over,
    pack_a: crate::simd::avx2::pack_a_strided,
    pack_b_strip: crate::gemm::pack_b_strip_scalar,
    add: crate::simd::scalar::add,
    sub: crate::simd::scalar::sub,
    mul: crate::simd::scalar::mul,
    add_relu: crate::simd::scalar::add_relu,
    relu: crate::simd::scalar::relu,
    affine: crate::simd::scalar::affine,
    adam: crate::simd::scalar::adam,
    narrow_f16: crate::simd::avx2::narrow_f16,
};

#[cfg(target_arch = "x86_64")]
static AVX512: Dispatch = Dispatch {
    isa: Isa::Avx512,
    gemm_panel_acc: crate::simd::avx512::gemm_panel_acc,
    gemm_panel_over: crate::simd::avx512::gemm_panel_over,
    pack_a: crate::simd::avx2::pack_a_strided,
    pack_b_strip: crate::simd::avx512::pack_b_strip,
    add: crate::simd::avx512::add,
    sub: crate::simd::avx512::sub,
    mul: crate::simd::avx512::mul,
    add_relu: crate::simd::avx512::add_relu,
    relu: crate::simd::avx512::relu,
    affine: crate::simd::avx512::affine,
    adam: crate::simd::avx512::adam,
    narrow_f16: crate::simd::avx512::narrow_f16,
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
            && std::arch::is_x86_feature_detected!("fma")
            && std::arch::is_x86_feature_detected!("f16c");
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
        ("f16c", best.level() >= 1),
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
