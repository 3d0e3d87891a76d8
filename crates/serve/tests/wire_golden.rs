//! Byte-exact goldens for request frames carrying masks, and for the
//! HEALTH_OK and STATS_RESULT responses.
//!
//! The roundtrip properties in `wire_props.rs` cannot see a change made to
//! encoder and decoder at once, such as packing bits MSB-first or swapping
//! two counters; that would still roundtrip, and break every deployed
//! client. These frames pin the wire form itself: the revision-02 header,
//! row-major cells, LSB-first within each byte, zero padding bits, the
//! order and width of every response field, and the payload checksum,
//! which each golden also recomputes with [`reference_checksum`], written
//! here from the protocol's definition rather than taken from the codec.

use o4a_grid::Mask;
use o4a_serve::wire::{
    encode_request, encode_response, parse_request_bytes, parse_response_bytes, HealthInfo,
    Request, Response, StatsSnapshot,
};

/// 5×7 = 35 cells: 5 payload bytes, the last one holding 3 cells and 5
/// padding bits. Cell (4, 6), the last one, is set.
fn mask_5x7() -> Mask {
    let mut m = Mask::rect(5, 7, 1, 2, 4, 6);
    m.set(0, 0, true);
    m.set(2, 3, false);
    m.set(4, 6, true);
    m
}

/// A 32×32 mask with no symmetry a bit-order change could preserve.
fn mask_32x32() -> Mask {
    let mut m = Mask::empty(32, 32);
    for r in 0..32 {
        for c in 0..32 {
            if (r * 31 + c * 17) % 7 < 3 || (r == 5 && c > 20) {
                m.set(r, c, true);
            }
        }
    }
    m
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
        .collect()
}

/// The revision-02 payload checksum, from its definition: byte `i` of the
/// whole 32-byte blocks is byte `i % 4` (little-endian) of a word for lane
/// `(i / 4) % 8`, and each completed word steps its lane with FNV-1a; the
/// eight lanes are then folded in order into one FNV-1a state, followed by
/// the remaining bytes one at a time.
fn reference_checksum(payload: &[u8]) -> u32 {
    const BASIS: u32 = 0x811c_9dc5;
    const PRIME: u32 = 0x0100_0193;
    let whole = payload.len() / 32 * 32;
    let mut lanes = [BASIS; 8];
    let mut words = [0u32; 8];
    for (i, &b) in payload[..whole].iter().enumerate() {
        let lane = (i / 4) % 8;
        words[lane] |= u32::from(b) << (8 * (i % 4));
        if i % 4 == 3 {
            lanes[lane] = (lanes[lane] ^ words[lane]).wrapping_mul(PRIME);
            words[lane] = 0;
        }
    }
    let mut h = BASIS;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(PRIME);
    }
    for &b in &payload[whole..] {
        h = (h ^ u32::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// Requires the golden's typed checksum to be the reference checksum of
/// its typed payload.
fn assert_checksum_typed_right(golden: &str) {
    let bytes = unhex(golden);
    let typed = u32::from_le_bytes(bytes[14..18].try_into().expect("4 bytes"));
    assert_eq!(
        typed,
        reference_checksum(&bytes[18..]),
        "golden's checksum is not the reference checksum of its payload"
    );
}

fn assert_golden(req: Request, golden: &str) {
    assert_checksum_typed_right(golden);
    assert_eq!(hex(&encode_request(&req)), golden, "encoded bytes moved");
    assert_eq!(
        parse_request_bytes(&unhex(golden)).expect("golden decodes"),
        req,
        "golden decodes to a different request"
    );
}

fn assert_response_golden(resp: Response, golden: &str) {
    assert_checksum_typed_right(golden);
    assert_eq!(hex(&encode_response(&resp)), golden, "encoded bytes moved");
    assert_eq!(
        parse_response_bytes(&unhex(golden)).expect("golden decodes"),
        resp,
        "golden decodes to a different response"
    );
}

#[test]
fn query_frame_bytes() {
    assert_golden(
        Request::Query(mask_5x7()),
        concat!(
            "4f34415250433032", // magic "O4ARPC02"
            "01",               // verb QUERY
            "00",               // flags
            "09000000",         // payload length
            "0099bffc",         // payload checksum
            "0500",             // h = 5
            "0700",             // w = 7
            "011e8d0704",       // cells, LSB-first; 5 zero padding bits
        ),
    );
}

#[test]
fn batch_frame_bytes() {
    assert_golden(
        Request::Batch(vec![mask_5x7(), mask_32x32()]),
        concat!(
            "4f34415250433032",   // magic "O4ARPC02"
            "02",                 // verb BATCH
            "00",                 // flags
            "8f000000",           // payload length
            "adf1663d",           // payload checksum
            "0200",               // 2 masks
            "05000700011e8d0704", // the 5x7 mask, as in the QUERY frame
            "20002000",           // h = 32, w = 32
            "a9542a95542a954a2a954aa5954aa5524aa552a9a552e9ff52a9542aa9542a95",
            "542a954a2a954aa5954aa5524aa552a9a552a95452a9542aa9542a95542a954a",
            "2a954aa5954aa5524aa552a9a552a95452a9542aa9542a95542a954a2a954aa5",
            "954aa5524aa552a9a552a95452a9542aa9542a95542a954a2a954aa5954aa552",
        ),
    );
}

#[test]
fn health_ok_frame_bytes() {
    assert_response_golden(
        Response::Health(HealthInfo {
            ready: true,
            h: 128,
            w: 64,
            layers: 6,
            uptime_secs: 3600,
            started_unix: 1_700_000_000,
        }),
        concat!(
            "4f34415250433032", // magic "O4ARPC02"
            "83",               // verb HEALTH_OK
            "00",               // flags
            "1a000000",         // payload length
            "8bb376b4",         // payload checksum
            "01",               // ready
            "06",               // layers
            "80000000",         // h = 128
            "40000000",         // w = 64
            "100e000000000000", // uptime_secs = 3600
            "00f1536500000000", // started_unix = 1_700_000_000
        ),
    );
}

#[test]
fn stats_result_frame_bytes() {
    assert_response_golden(
        Response::Stats(StatsSnapshot {
            connections: 5,
            requests: 1000,
            masks_served: 4000,
            exec_batches: 120,
            coalesced_masks: 3900,
            busy_rejections: 7,
            protocol_errors: 2,
            decompose_ns: 123_456,
            index_ns: 654_321,
            decomp_cache_hits: 3950,
            decomp_cache_misses: 50,
            plan_revision: 4,
            shard_loads: vec![1100, 2200, 900],
            plan_cache_hits: 3800,
            plan_cache_misses: 200,
            plan_cache_evictions: 12,
            compiled_terms: 91_000,
        }),
        concat!(
            "4f34415250433032", // magic "O4ARPC02"
            "84",               // verb STATS_RESULT
            "00",               // flags
            "9a000000",         // payload length
            "9363d461",         // payload checksum
            "0500000000000000", // connections = 5
            "e803000000000000", // requests = 1000
            "a00f000000000000", // masks_served = 4000
            "7800000000000000", // exec_batches = 120
            "3c0f000000000000", // coalesced_masks = 3900
            "0700000000000000", // busy_rejections = 7
            "0200000000000000", // protocol_errors = 2
            "40e2010000000000", // decompose_ns = 123456
            "f1fb090000000000", // index_ns = 654321
            "6e0f000000000000", // decomp_cache_hits = 3950
            "3200000000000000", // decomp_cache_misses = 50
            "0400000000000000", // plan_revision = 4
            "0300",             // 3 shard loads
            "4c04000000000000", // 1100
            "9808000000000000", // 2200
            "8403000000000000", // 900
            "d80e000000000000", // plan_cache_hits = 3800
            "c800000000000000", // plan_cache_misses = 200
            "0c00000000000000", // plan_cache_evictions = 12
            "7863010000000000", // compiled_terms = 91000
        ),
    );
}
