//! Fuzz-hardening properties for the `O4ARPC02` wire codec: the decoder
//! must be total — truncated, bit-flipped, or arbitrary byte streams
//! return `Err`, never panic, and the payload checksum makes any
//! single-bit corruption detectable.

use o4a_grid::Mask;
use o4a_serve::wire::{
    encode_request, encode_response, parse_request_bytes, parse_response_bytes, Request, Response,
    TimingNs, MAGIC,
};
use o4a_tensor::SeededRng;

/// A deterministic mask whose shape varies with `seed`.
fn mask_for(seed: u64) -> Mask {
    let mut rng = SeededRng::new(seed);
    let h = 4 + rng.uniform(0.0, 28.0) as usize;
    let w = 4 + rng.uniform(0.0, 28.0) as usize;
    let bits = (0..h * w).map(|_| rng.uniform(0.0, 1.0) > 0.5).collect();
    Mask::from_bits(h, w, bits)
}

fn request_for(seed: u64) -> Request {
    match seed % 4 {
        0 => Request::Health,
        1 => Request::Stats,
        2 => Request::Query(mask_for(seed)),
        _ => Request::Batch((0..1 + seed % 5).map(|i| mask_for(seed + i)).collect()),
    }
}

fn response_for(seed: u64) -> Response {
    let timing = TimingNs {
        decompose_ns: seed.wrapping_mul(31),
        index_ns: seed.wrapping_mul(17),
    };
    match seed % 4 {
        0 => Response::Busy,
        1 => Response::Error(format!("synthetic failure {seed}")),
        2 => Response::Prediction {
            value: seed as f32 * 0.5,
            timing,
        },
        _ => Response::BatchResult {
            values: (0..seed % 7).map(|i| i as f32).collect(),
            timing,
        },
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

    /// Encode/decode is the identity for every request shape.
    #[test]
    fn request_roundtrip(seed in 0u64..1_000_000) {
        let req = request_for(seed);
        let decoded = parse_request_bytes(&encode_request(&req)).unwrap();
        proptest::prop_assert_eq!(decoded, req);
    }

    /// Encode/decode is the identity for every response shape
    /// (f32 payloads compared bit-for-bit through PartialEq).
    #[test]
    fn response_roundtrip(seed in 0u64..1_000_000) {
        let resp = response_for(seed);
        let decoded = parse_response_bytes(&encode_response(&resp)).unwrap();
        proptest::prop_assert_eq!(decoded, resp);
    }

    /// Every strict prefix of a request frame is rejected.
    #[test]
    fn truncated_request_always_errs(seed in 0u64..1_000_000) {
        let bytes = encode_request(&request_for(seed));
        let mut rng = SeededRng::new(seed);
        let cut = (rng.uniform(0.0, bytes.len() as f32) as usize).min(bytes.len() - 1);
        proptest::prop_assert!(parse_request_bytes(&bytes[..cut]).is_err());
    }

    /// Any single bit flip anywhere in a request frame is rejected: header
    /// corruption trips magic/verb/length checks, payload corruption trips
    /// the CRC.
    #[test]
    fn bit_flipped_request_always_errs(seed in 0u64..1_000_000) {
        let mut bytes = encode_request(&request_for(seed));
        let mut rng = SeededRng::new(seed);
        let pos = (rng.uniform(0.0, bytes.len() as f32) as usize).min(bytes.len() - 1);
        let bit = (rng.uniform(0.0, 8.0) as u32).min(7);
        bytes[pos] ^= 1u8 << bit;
        proptest::prop_assert!(parse_request_bytes(&bytes).is_err());
    }

    /// Any single bit flip in a response frame is rejected too.
    #[test]
    fn bit_flipped_response_always_errs(seed in 0u64..1_000_000) {
        let mut bytes = encode_response(&response_for(seed));
        let mut rng = SeededRng::new(seed);
        let pos = (rng.uniform(0.0, bytes.len() as f32) as usize).min(bytes.len() - 1);
        let bit = (rng.uniform(0.0, 8.0) as u32).min(7);
        bytes[pos] ^= 1u8 << bit;
        proptest::prop_assert!(parse_response_bytes(&bytes).is_err());
    }

    /// Arbitrary byte soup never panics the frame decoder; half the cases
    /// lead with the real magic to reach the payload parsers.
    #[test]
    fn garbage_never_panics(seed in 0u64..1_000_000, len in 0usize..512) {
        let mut rng = SeededRng::new(seed);
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.uniform(0.0, 256.0) as u8).collect();
        if seed % 2 == 0 && bytes.len() >= 8 {
            bytes[..8].copy_from_slice(MAGIC);
        }
        let _ = parse_request_bytes(&bytes);
        let _ = parse_response_bytes(&bytes);
    }

    /// Appending trailing bytes to a valid frame is rejected by the
    /// exactly-one-frame parsers.
    #[test]
    fn trailing_bytes_rejected(seed in 0u64..1_000_000) {
        let mut bytes = encode_request(&request_for(seed));
        bytes.push(0);
        proptest::prop_assert!(parse_request_bytes(&bytes).is_err());
    }
}
