//! f16 conversion identity and error-bound contract.
//!
//! Widening (`f16_bits_to_f32`, which every half-width prediction-store
//! read goes through) is checked exhaustively over all 2^16 f16 patterns
//! against a decoding written here. The dispatched narrowing (hardware
//! `F16C` `vcvtps2ph` on the AVX2/AVX-512 tiers) must equal the software
//! reference in `o4a_tensor::half` **bit for bit** on every tier, checked
//! by proptest over the f32 space (NaNs, infinities and subnormals
//! included). The round-trip error must stay inside the bound documented
//! in `half`'s module docs.

use o4a_tensor::half::{f16_bits_to_f32, f32_to_f16_bits, narrow_f16};
use o4a_tensor::isa;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// `isa::force` sets one process-wide tier and the harness runs tests on
/// parallel threads, so every forced section holds this lock: otherwise
/// one test's `force(None)` could reset another's tier mid-loop, and that
/// test would run the resolved tier instead of the one it names.
static FORCE_LOCK: Mutex<()> = Mutex::new(());

fn force_lock() -> MutexGuard<'static, ()> {
    // A test that panicked while holding the lock reports its own
    // failure; the lock guards no data, and each holder forces its tier
    // afresh.
    FORCE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The value of f16 bit pattern `h` by the binary16 definition, in `f64`:
/// sign × mantissa × 2^exp for zeros, subnormals and normals, ±∞ for the
/// all-ones exponent with a zero mantissa; `None` for NaNs.
fn decode_f16(h: u16) -> Option<f64> {
    let sign = if h & 0x8000 != 0 { -1.0 } else { 1.0 };
    let exp = i32::from((h >> 10) & 0x1f);
    let man = f64::from(h & 0x3ff);
    match exp {
        0 => Some(sign * man * 2f64.powi(-24)),
        31 if man == 0.0 => Some(sign * f64::INFINITY),
        31 => None,
        _ => Some(sign * (1024.0 + man) * 2f64.powi(exp - 25)),
    }
}

/// All 2^16 f16 bit patterns widen to the value the format defines:
/// exactly, sign of zero and of infinity included; a NaN to the f32 NaN
/// with the same sign, its 10-bit payload in the top mantissa bits and
/// the quiet bit forced (`vcvtph2ps` semantics).
#[test]
fn widen_matches_binary16_definition_exhaustively() {
    for h in 0..=u16::MAX {
        let got = f16_bits_to_f32(h);
        match decode_f16(h) {
            Some(want) => assert_eq!(
                f64::from(got).to_bits(),
                want.to_bits(),
                "h={h:#06x}: got {got}, want {want}"
            ),
            None => {
                let payload = u32::from(h & 0x3ff) << 13;
                let want = (u32::from(h & 0x8000) << 16) | 0x7fc0_0000 | payload;
                assert_eq!(got.to_bits(), want, "h={h:#06x}: NaN payload");
            }
        }
    }
}

/// Narrowing edge cases every tier must agree on: signed zeros, signed
/// infinities, NaN (quieted, payload truncated), the f16 subnormal range,
/// RNE midpoints, and the overflow threshold 65520.
#[test]
fn narrow_edge_cases_match_on_every_tier() {
    let src: Vec<f32> = vec![
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::from_bits(0x7f80_0001), // signalling NaN
        f32::MIN_POSITIVE,           // f32 smallest normal -> f16 subnormal range
        f32::from_bits(1),           // f32 smallest subnormal -> signed zero
        -f32::from_bits(1),
        f32::from_bits(0x3380_0000), // 2^-24, smallest f16 subnormal
        f32::from_bits(0x3300_0000), // 2^-25, the subnormal RNE midpoint
        f32::from_bits(0x3880_0000), // 2^-14, smallest f16 normal
        1.0 + f32::from_bits(0x3a00_0000), // 1 + 2^-11, normal RNE midpoint
        65504.0,                     // f16 max
        65519.9,                     // below overflow threshold
        65520.0,                     // rounds to infinity
        -65520.0,
        1e9,
        -1e-9,
    ];
    let want: Vec<u16> = src.iter().map(|&v| f32_to_f16_bits(v)).collect();
    let _forced = force_lock();
    for tier in isa::available() {
        isa::force(Some(tier));
        let mut dst = vec![0u16; src.len()];
        narrow_f16(&src, &mut dst);
        isa::force(None);
        assert_eq!(want, dst, "{} narrow diverged on edge cases", tier.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dispatched narrowing equals the software reference bit for bit on
    /// every tier, over arbitrary f32 bit patterns and ragged lengths
    /// (exercising each tier's masked remainder path).
    #[test]
    fn narrow_matches_software(
        raw in proptest::collection::vec(any::<u32>(), 1..257),
    ) {
        let src: Vec<f32> = raw.iter().map(|&b| f32::from_bits(b)).collect();
        let want: Vec<u16> = src.iter().map(|&v| f32_to_f16_bits(v)).collect();
        let _forced = force_lock();
        for tier in isa::available() {
            isa::force(Some(tier));
            let mut dst = vec![0u16; src.len()];
            narrow_f16(&src, &mut dst);
            isa::force(None);
            prop_assert_eq!(&want, &dst, "{} narrow diverged", tier.name());
        }
    }

    /// The narrow-then-widen round trip stays inside the documented bound:
    /// relative error `<= 2^-11` in the f16 normal range, absolute error
    /// `<= 2^-25` below it, overflow to infinity only at `|v| >= 65520`.
    #[test]
    fn roundtrip_error_within_documented_bound(
        raw in proptest::collection::vec(any::<u32>(), 1..129),
    ) {
        for &b in &raw {
            let v = f32::from_bits(b);
            if !v.is_finite() {
                continue;
            }
            let w = f16_bits_to_f32(f32_to_f16_bits(v));
            if v.abs() >= 65520.0 {
                prop_assert!(w.is_infinite(), "v={v} should overflow, got {w}");
                continue;
            }
            let bound = if w.abs() >= f32::from_bits(0x3880_0000) {
                v.abs() as f64 * (-11f64).exp2()
            } else {
                (-25f64).exp2()
            };
            let err = (w as f64 - v as f64).abs();
            prop_assert!(err <= bound, "v={v} w={w} err={err} > bound={bound}");
        }
    }
}
