//! Byte-exact goldens for request frames carrying masks.
//!
//! The roundtrip properties in `wire_props.rs` cannot see a change made to
//! encoder and decoder at once, such as packing bits MSB-first; that would
//! still roundtrip, and break every deployed client. These frames pin the
//! wire form itself: row-major cells, LSB-first within each byte, zero
//! padding bits.

use o4a_grid::Mask;
use o4a_serve::wire::{encode_request, parse_request_bytes, Request};

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

fn assert_golden(req: Request, golden: &str) {
    assert_eq!(hex(&encode_request(&req)), golden, "encoded bytes moved");
    assert_eq!(
        parse_request_bytes(&unhex(golden)).expect("golden decodes"),
        req,
        "golden decodes to a different request"
    );
}

#[test]
fn query_frame_bytes() {
    assert_golden(
        Request::Query(mask_5x7()),
        concat!(
            "4f34415250433031", // magic "O4ARPC01"
            "01",               // verb QUERY
            "00",               // flags
            "09000000",         // payload length
            "48facc47",         // payload FNV-1a
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
            "4f34415250433031",   // magic "O4ARPC01"
            "02",                 // verb BATCH
            "00",                 // flags
            "8f000000",           // payload length
            "2eeed494",           // payload FNV-1a
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
