//! IEEE binary16 ("f16") conversions for the prediction store's half-width
//! storage.
//!
//! The workspace computes **exclusively in f32** — f16 is a *storage*
//! format: `o4a-core`'s `FrameSet` can hold the stored multi-scale
//! predictions half-width, narrowed once per publish through
//! [`narrow_f16`] and widened value by value through [`f16_bits_to_f32`]
//! as queries read them. Accumulation is always f32.
//!
//! # Conversion semantics
//!
//! The conversions here are software loops on every ISA tier (narrowing
//! runs once per publish, and only when half storage is on), and they
//! implement exactly the semantics of the x86 `F16C` instructions
//! (`vcvtps2ph`, `vcvtph2ps`):
//!
//! * narrowing rounds to nearest, ties to even (`RNE`); overflow goes to
//!   infinity; f32 subnormals (< 2^-126) narrow to signed zero; NaNs keep
//!   their truncated payload with the quiet bit forced;
//! * widening is exact for every non-NaN value (every f16 value is exactly
//!   representable in f32); signalling NaNs are quieted.
//!
//! `crates/tensor/tests/half_props.rs` checks widening exhaustively over
//! all 2^16 f16 bit patterns against an independent decoding, and
//! narrowing by proptest against the binary16 definition (nearest value,
//! ties to even, through the same decoding) and on edge cases pinned as
//! the bit patterns `vcvtps2ph` produces.
//!
//! # Error bound
//!
//! Narrowing a finite f32 `v` to f16 and widening back yields `v'` with
//!
//! * `|v' - v| <= 2^-11 * |v|` when `|v'|` is in the f16 normal range
//!   (`>= 2^-14`): 10 explicit mantissa bits, RNE, so the relative error is
//!   at most half an ulp = 2^-11;
//! * `|v' - v| <= 2^-25` when the result is f16-subnormal or zero
//!   (`|v| < 2^-14`): absolute error of half the subnormal ulp `2^-24`;
//! * values with `|v| >= 65520` overflow to infinity (the prediction store
//!   holds bounded flow predictions, far inside the finite range).
//!
//! This per-value bound is what the end-to-end f16 query tolerance test in
//! `o4a-core` asserts (a query summing `T` stored values `v_t` is within
//! `sum_t 2^-11 |v_t| + T * 2^-25` of the f32 answer, up to f32 summation
//! rounding of the perturbed terms).

/// Narrows one f32 to f16 bits: round-to-nearest-even, overflow to
/// infinity, subnormal-aware, NaN payload truncated with the quiet bit
/// forced — exactly `vcvtps2ph` with default rounding.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        // infinity or NaN; quiet NaNs like the hardware does
        return if man == 0 {
            sign | 0x7c00
        } else {
            sign | 0x7c00 | 0x200 | ((man >> 13) as u16 & 0x3ff)
        };
    }
    let exp16 = exp - 127 + 15;
    if exp16 >= 0x1f {
        return sign | 0x7c00; // overflow -> inf
    }
    if exp16 <= 0 {
        // f16 subnormal (or zero). Magnitudes below 2^-25 round to zero;
        // f32 subnormal inputs (exp == 0) land here with exp16 <= -112.
        if exp16 < -11 {
            return sign;
        }
        let m24 = man | 0x0080_0000; // implicit bit
        let shift = (14 - exp16) as u32; // 14..=25
        let h = m24 >> shift;
        let rem = m24 & ((1u32 << shift) - 1);
        let half = 1u32 << (shift - 1);
        let h = if rem > half || (rem == half && h & 1 == 1) {
            h + 1 // may carry into the exponent: smallest normal, correct
        } else {
            h
        };
        return sign | h as u16;
    }
    // normal range: mantissa >> 13 with RNE on the 13 dropped bits; a
    // mantissa carry propagates into the exponent (and to infinity at the
    // top) by integer arithmetic.
    let h = ((exp16 as u32) << 10) | (man >> 13);
    let rem = man & 0x1fff;
    let h = if rem > 0x1000 || (rem == 0x1000 && h & 1 == 1) {
        h + 1
    } else {
        h
    };
    sign | h as u16
}

/// Widens f16 bits to f32: exact for all non-NaN values, signalling NaNs
/// quieted with payload preserved — exactly `vcvtph2ps`.
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = (h >> 10) & 0x1f;
    let man = (h & 0x3ff) as u32;
    let bits = if exp == 0x1f {
        if man == 0 {
            sign | 0x7f80_0000
        } else {
            sign | 0x7fc0_0000 | (man << 13) // quiet bit forced
        }
    } else if exp == 0 {
        // zero or subnormal: man * 2^-24, exact in f32
        let v = man as f32 * f32::from_bits(0x3380_0000); // 2^-24
        return if sign != 0 { -v } else { v };
    } else {
        sign | ((exp as u32 + 112) << 23) | (man << 13)
    };
    f32::from_bits(bits)
}

/// Narrows a slice of f32 into f16 bit patterns through
/// [`f32_to_f16_bits`] — round-to-nearest-even, see the module docs for
/// semantics and the error bound. `src` and `dst` must have equal lengths.
pub fn narrow_f16(src: &[f32], dst: &mut [u16]) {
    assert_eq!(src.len(), dst.len());
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = f32_to_f16_bits(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widen_is_exact_for_simple_values() {
        for &(h, f) in &[
            (0x0000u16, 0.0f32),
            (0x8000, -0.0),
            (0x3c00, 1.0),
            (0xbc00, -1.0),
            (0x4000, 2.0),
            (0x3800, 0.5),
            (0x7bff, 65504.0),
            (0x0001, f32::from_bits(0x33800000)), // smallest subnormal 2^-24
            (0x0400, f32::from_bits(0x38800000)), // smallest normal 2^-14
        ] {
            assert_eq!(f16_bits_to_f32(h).to_bits(), f.to_bits(), "h={h:#06x}");
        }
        assert_eq!(f16_bits_to_f32(0x7c00), f32::INFINITY);
        assert_eq!(f16_bits_to_f32(0xfc00), f32::NEG_INFINITY);
        assert!(f16_bits_to_f32(0x7e00).is_nan());
    }

    #[test]
    fn narrow_rounds_to_nearest_even() {
        assert_eq!(f32_to_f16_bits(1.0), 0x3c00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xc000);
        // 1 + 2^-11 is exactly halfway between 1.0 and the next f16; RNE
        // picks the even mantissa (1.0)
        assert_eq!(f32_to_f16_bits(1.0 + f32::from_bits(0x3a000000)), 0x3c00);
        // slightly above the midpoint rounds up
        assert_eq!(
            f32_to_f16_bits(1.0 + f32::from_bits(0x3a000000) * 1.001),
            0x3c01
        );
        // overflow to inf
        assert_eq!(f32_to_f16_bits(1e9), 0x7c00);
        assert_eq!(f32_to_f16_bits(-1e9), 0xfc00);
        // f32 subnormals flush to zero through the exponent path
        assert_eq!(f32_to_f16_bits(f32::from_bits(1)), 0x0000);
        assert_eq!(f32_to_f16_bits(-f32::from_bits(1)), 0x8000);
    }

    #[test]
    fn roundtrip_is_identity_on_f16_values() {
        // every finite f16 value narrows back to itself
        for h in 0u16..=0xffff {
            let f = f16_bits_to_f32(h);
            if f.is_nan() {
                continue;
            }
            assert_eq!(f32_to_f16_bits(f), h, "h={h:#06x} f={f}");
        }
    }

    #[test]
    fn roundtrip_error_is_within_documented_bound() {
        let mut rng = crate::SeededRng::new(7);
        let t = rng.uniform_tensor(&[4096], -100.0, 100.0);
        let mut bits = vec![0u16; t.len()];
        narrow_f16(t.data(), &mut bits);
        for (&v, &h) in t.data().iter().zip(&bits) {
            let w = f16_bits_to_f32(h);
            let bound = if v.abs() >= f32::from_bits(0x38800000) {
                v.abs() * f32::from_bits(0x3a000000) // 2^-11 relative
            } else {
                f32::from_bits(0x33000000) // 2^-25 absolute
            };
            assert!((w - v).abs() <= bound, "v={v} w={w} bound={bound}");
        }
    }
}
