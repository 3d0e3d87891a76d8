//! Fuzz-hardening properties for the `O4AENS01` plan codec: feeding
//! truncated, bit-flipped or arbitrary byte streams into
//! [`decode_plan`] must return `Err` — never panic, and never silently
//! accept a corrupted artifact (the FNV-1a integrity trailer makes
//! single-bit corruption detectable).

use o4a_core::one4all::truth_pyramid;
use o4a_data::features::TemporalConfig;
use o4a_data::synthetic::DatasetKind;
use o4a_ensemble::{
    decode_plan, encode_plan, plan_ensemble, profile_members, HotspotExpert, PlanOptions,
};
use o4a_grid::Hierarchy;
use o4a_models::multiscale::PyramidPredictor;
use o4a_tensor::SeededRng;
use proptest::prelude::*;
use std::sync::OnceLock;

/// A small but non-trivial encoded 2-member plan, built once.
fn plan_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let hier = Hierarchy::new(8, 8, 2, 3).unwrap();
        let cfg = TemporalConfig::compact();
        let flow = DatasetKind::TaxiNycLike.config(8, 8, 12, 3).generate();
        let val_slots: Vec<usize> = (8..12).collect();
        let mut experts = HotspotExpert::stripes(&hier, 2, 400, 5);
        let mut refs: Vec<&mut dyn PyramidPredictor> = experts
            .iter_mut()
            .map(|e| e as &mut dyn PyramidPredictor)
            .collect();
        let profiles = profile_members(&mut refs, &flow, &cfg, &val_slots);
        let truths = truth_pyramid(&hier, &flow, &val_slots);
        let plan = plan_ensemble(
            &hier,
            &profiles,
            &truths,
            &PlanOptions {
                revision: 3,
                ..PlanOptions::default()
            },
        );
        encode_plan(&plan)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every strict prefix of a plan stream is rejected.
    #[test]
    fn truncated_plan_always_errs(seed in 0u64..1_000_000) {
        let bytes = plan_bytes();
        let mut rng = SeededRng::new(seed);
        let cut = (rng.uniform(0.0, bytes.len() as f32) as usize).min(bytes.len() - 1);
        prop_assert!(decode_plan(&bytes[..cut]).is_err());
    }

    /// Any single bit flip anywhere in a plan stream is rejected
    /// (integrity trailer), and decoding never panics.
    #[test]
    fn bit_flipped_plan_always_errs(seed in 0u64..1_000_000) {
        let mut bytes = plan_bytes().to_vec();
        let mut rng = SeededRng::new(seed);
        let pos = (rng.uniform(0.0, bytes.len() as f32) as usize).min(bytes.len() - 1);
        let bit = (rng.uniform(0.0, 8.0) as u32).min(7);
        bytes[pos] ^= 1u8 << bit;
        prop_assert!(decode_plan(&bytes).is_err());
    }

    /// Corruption confined to the 4-byte FNV-1a trailer is still caught.
    #[test]
    fn trailer_corruption_always_errs(seed in 0u64..1_000_000) {
        let mut bytes = plan_bytes().to_vec();
        let mut rng = SeededRng::new(seed);
        let n = bytes.len();
        let pos = n - 4 + (rng.uniform(0.0, 4.0) as usize).min(3);
        let bit = (rng.uniform(0.0, 8.0) as u32).min(7);
        bytes[pos] ^= 1u8 << bit;
        prop_assert!(decode_plan(&bytes).is_err());
    }

    /// Arbitrary byte soup never panics the plan decoder.
    #[test]
    fn garbage_plan_never_panics(seed in 0u64..1_000_000, len in 0usize..256) {
        let mut rng = SeededRng::new(seed);
        let mut bytes: Vec<u8> = (0..len)
            .map(|_| rng.uniform(0.0, 256.0) as u8)
            .collect();
        // half the cases start with the real magic to reach deeper code
        if seed % 2 == 0 && bytes.len() >= 8 {
            bytes[..8].copy_from_slice(b"O4AENS01");
        }
        prop_assert!(decode_plan(&bytes).is_err());
    }

    /// Appending trailing bytes to a valid stream is rejected — the
    /// decoder must consume the stream exactly.
    #[test]
    fn trailing_bytes_always_err(extra in 1usize..16, fill in 0u8..=255) {
        let mut bytes = plan_bytes().to_vec();
        bytes.extend(std::iter::repeat_n(fill, extra));
        prop_assert!(decode_plan(&bytes).is_err());
    }
}

/// Sanity: the untouched stream still decodes and re-encodes
/// bit-identically, so the fuzz properties exercise real corruption
/// rather than an always-failing decoder.
#[test]
fn pristine_stream_decodes_and_roundtrips() {
    let plan = decode_plan(plan_bytes()).expect("pristine plan decodes");
    assert_eq!(encode_plan(&plan), plan_bytes());
    assert_eq!(plan.members.len(), 2);
    assert_eq!(plan.revision, 3);
}

/// One crafted entry: root, path bytes and `(layer, row, col, sign)`
/// terms, every term read from member 0.
type Entry<'a> = ((u16, u16), &'a [u8], &'a [(u8, u16, u16, i8)]);

/// A checksum-valid one-member `O4AENS01` stream with the given header
/// and entries, so the decoder reaches its field checks.
fn crafted_plan(h: u32, w: u32, k: u8, layers: u8, entries: &[Entry]) -> Vec<u8> {
    let mut b = b"O4AENS01".to_vec();
    b.extend(h.to_le_bytes());
    b.extend(w.to_le_bytes());
    b.extend([k, layers, 1]);
    b.extend(1u32.to_le_bytes()); // revision
    b.extend(1u16.to_le_bytes()); // one member, named "m"
    b.extend(1u16.to_le_bytes());
    b.push(b'm');
    b.extend((entries.len() as u32).to_le_bytes());
    for &((r, c), path, terms) in entries {
        b.extend(r.to_le_bytes());
        b.extend(c.to_le_bytes());
        b.push(path.len() as u8);
        b.extend(path);
        b.extend((terms.len() as u16).to_le_bytes());
        for &(layer, row, col, sign) in terms {
            b.extend(0u16.to_le_bytes());
            b.push(layer);
            b.extend(row.to_le_bytes());
            b.extend(col.to_le_bytes());
            b.push(sign as u8);
        }
    }
    b.extend(0.0f64.to_le_bytes()); // plan cost
    let sum = o4a_core::codec::fnv1a32(&b);
    b.extend(sum.to_le_bytes());
    b
}

/// Child code bytes: singles `A` = 0 .. `D` = 3, multis `E` = 4 .. `L` = 11.
const A: u8 = 0;
const E: u8 = 4;

/// Checksum-valid plans whose entry codes leave the hierarchy (or whose
/// header has no coding rule) are rejected as corrupt, while
/// in-hierarchy entries crafted the same way decode.
#[test]
fn crafted_codes_outside_the_hierarchy_are_corrupt() {
    use o4a_ensemble::PlanCodecError::Corrupt;
    use o4a_grid::LayerCell;
    let atomic: &[(u8, u16, u16, i8)] = &[(0, 0, 0, 1)];
    // controls on a 2x2 raster with 2 layers: one root with four cells
    let cell = crafted_plan(2, 2, 2, 2, &[((0, 0), &[A], atomic)]);
    let plan = decode_plan(&cell).expect("in-hierarchy cell decodes");
    assert_eq!(plan.len(), 1);
    assert!(plan.for_cell(LayerCell::new(0, 0, 0)).is_some());
    let multi = crafted_plan(2, 2, 2, 2, &[((0, 0), &[E], atomic)]);
    let plan = decode_plan(&multi).expect("in-hierarchy multi-grid decodes");
    assert!(plan.tree.get_multi(0, &[(0, 0), (0, 1)]).is_some());

    let cases: [(&str, Vec<u8>, &str); 5] = [
        (
            "K = 3 header",
            crafted_plan(36, 36, 3, 3, &[((0, 0), &[], &[(2, 0, 0, 1)])]),
            "plan artifact requires K = 2",
        ),
        (
            "root beyond the coarsest layer",
            crafted_plan(2, 2, 2, 2, &[((0, 1), &[], atomic)]),
            "entry root outside the coarsest layer",
        ),
        (
            "path deeper than the layers",
            crafted_plan(2, 2, 2, 2, &[((0, 0), &[A, A], atomic)]),
            "entry path deeper than the hierarchy",
        ),
        (
            "multi code after L-1 singles",
            crafted_plan(2, 2, 2, 2, &[((0, 0), &[A, E], atomic)]),
            "entry path deeper than the hierarchy",
        ),
        (
            "65536x65536 raster in a 44-byte stream",
            crafted_plan(1 << 16, 1 << 16, 2, 1, &[]),
            "hierarchy larger than the stream",
        ),
    ];
    for (what, bytes, why) in cases {
        assert_eq!(decode_plan(&bytes).err(), Some(Corrupt(why)), "{what}");
    }
}
