//! f16 conversion identity and error-bound contract.
//!
//! Widening (`f16_bits_to_f32`, which every half-width prediction-store
//! read goes through) is checked exhaustively over all 2^16 f16 patterns
//! against a decoding written here. Narrowing (`narrow_f16`, one software
//! loop on every ISA tier) is checked against the same decoding, by
//! proptest over the f32 space (NaNs, infinities, subnormals and RNE
//! midpoints included), and against edge cases pinned as the bit patterns
//! the `F16C` instruction `vcvtps2ph` produces. The round-trip error must
//! stay inside the bound documented in `half`'s module docs.

use o4a_tensor::half::{f16_bits_to_f32, f32_to_f16_bits, narrow_f16};
use proptest::prelude::*;

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

/// Narrowing edge cases, pinned as bit patterns: signed zeros, signed
/// infinities, NaNs (quieted, top 10 payload bits kept), the f16
/// subnormal range, RNE midpoints (each resolved to the even mantissa, one
/// of them by a carry into the next exponent), and the overflow threshold
/// 65520. The patterns are those `vcvtps2ph` produces.
#[test]
fn narrow_edge_cases_match_pinned_bits() {
    let cases: &[(f32, u16)] = &[
        (0.0, 0x0000),
        (-0.0, 0x8000),
        (f32::INFINITY, 0x7c00),
        (f32::NEG_INFINITY, 0xfc00),
        (f32::NAN, 0x7e00),
        (f32::from_bits(0x7f80_0001), 0x7e00), // signalling NaN, low payload
        (f32::from_bits(0x7fbf_e000), 0x7fff), // signalling NaN, top payload
        (f32::from_bits(0xffc0_1234), 0xfe00), // negative quiet NaN
        (f32::MIN_POSITIVE, 0x0000),           // 2^-126 -> zero
        (f32::from_bits(1), 0x0000),           // f32 smallest subnormal
        (-f32::from_bits(1), 0x8000),
        (f32::from_bits(0x3380_0000), 0x0001), // 2^-24, smallest f16 subnormal
        (f32::from_bits(0x3300_0000), 0x0000), // 2^-25, subnormal midpoint -> even
        (f32::from_bits(0x387f_e000), 0x0400), // 1023.5 * 2^-24 -> carry to 2^-14
        (f32::from_bits(0x3880_0000), 0x0400), // 2^-14, smallest f16 normal
        (1.0 + f32::from_bits(0x3a00_0000), 0x3c00), // 1 + 2^-11, midpoint -> even
        (2046.5, 0x67fe),                      // midpoint, even below
        (2047.5, 0x6800),                      // midpoint, carry to 2048
        (65504.0, 0x7bff),                     // f16 max
        (65519.9, 0x7bff),                     // below the overflow threshold
        (65520.0, 0x7c00),                     // rounds to infinity
        (-65520.0, 0xfc00),
        (1e9, 0x7c00),
        (-1e-9, 0x8000),
    ];
    let src: Vec<f32> = cases.iter().map(|&(v, _)| v).collect();
    let want: Vec<u16> = cases.iter().map(|&(_, h)| h).collect();
    let mut dst = vec![0u16; src.len()];
    narrow_f16(&src, &mut dst);
    assert_eq!(want, dst, "narrow diverged on edge cases");
}

/// Whether `h` is the binary16 narrowing of `v` by the format's
/// definition: a NaN becomes a quiet NaN with `v`'s sign and the top 10
/// bits of its payload; `|v| >= 65520` a signed infinity; any other `v`
/// the f16 nearest to it, ties to an even mantissa, with `v`'s sign.
fn is_binary16_narrowing(v: f32, h: u16) -> bool {
    let bits = v.to_bits();
    if (h & 0x8000 != 0) != (bits >> 31 == 1) {
        return false;
    }
    let m = h & 0x7fff;
    if v.is_nan() {
        return m == 0x7e00 | ((bits >> 13) & 0x3ff) as u16;
    }
    let a = f64::from(v.abs());
    if a >= 65520.0 {
        return m == 0x7c00;
    }
    if m >= 0x7c00 {
        return false;
    }
    // f16 magnitudes ascend with their bit patterns, so the nearest value
    // is the one no farther than either neighbour.
    let dist = |m: u16| (decode_f16(m).expect("not a NaN pattern") - a).abs();
    let d = dist(m);
    [m.checked_sub(1), Some(m + 1)]
        .into_iter()
        .flatten()
        .all(|n| d < dist(n) || (d == dist(n) && m & 1 == 0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Narrowing is the binary16 narrowing over arbitrary f32 bit patterns
    /// and the midpoints between adjacent finite f16 values.
    #[test]
    fn narrow_matches_binary16_definition(
        raw in proptest::collection::vec(any::<u32>(), 1..257),
        mids in proptest::collection::vec(0u16..0x7bff, 0..33),
    ) {
        let mut src: Vec<f32> = raw.iter().map(|&b| f32::from_bits(b)).collect();
        for &m in &mids {
            // exact in f32: two adjacent f16 values need 12 bits
            let mid = (f16_bits_to_f32(m) + f16_bits_to_f32(m + 1)) / 2.0;
            src.extend([mid, -mid]);
        }
        let mut dst = vec![0u16; src.len()];
        narrow_f16(&src, &mut dst);
        for (&v, &h) in src.iter().zip(&dst) {
            prop_assert!(
                is_binary16_narrowing(v, h),
                "narrowed {v:e} ({:#010x}) to {h:#06x}",
                v.to_bits()
            );
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
