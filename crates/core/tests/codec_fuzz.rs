//! Fuzz-hardening properties for the persistence codecs: feeding
//! truncated, bit-flipped or arbitrary byte streams into
//! `codec::decode_index` / `deploy::load_model` must return `Err` —
//! never panic, and never silently accept a corrupted artifact (the
//! FNV-1a integrity trailer makes single-bit corruption detectable).

use o4a_core::codec::{decode_index, encode_index};
use o4a_core::combination::{search_optimal_combinations, SearchStrategy};
use o4a_core::deploy::{load_model, save_model};
use o4a_core::one4all::One4AllSt;
use o4a_data::features::TemporalConfig;
use o4a_grid::Hierarchy;
use o4a_models::predictor::TrainConfig;
use o4a_tensor::SeededRng;
use proptest::prelude::*;
use std::cell::RefCell;
use std::sync::OnceLock;

/// A small but non-trivial encoded index, built once.
fn index_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let hier = Hierarchy::new(4, 4, 2, 3).unwrap();
        let mut preds = Vec::new();
        let mut truths = Vec::new();
        for layer in 0..3 {
            let (r, c) = hier.layer_dims(layer);
            let scale = hier.scale(layer);
            let mut tl = Vec::new();
            let mut pl = Vec::new();
            for s in 0..3usize {
                let truth = vec![(scale * scale * (s + 1)) as f32; r * c];
                let pred: Vec<f32> = truth
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| if layer == 1 { v } else { v + (i + 1) as f32 })
                    .collect();
                tl.push(truth);
                pl.push(pred);
            }
            truths.push(tl);
            preds.push(pl);
        }
        let index =
            search_optimal_combinations(&hier, &preds, &truths, SearchStrategy::UnionSubtraction);
        encode_index(&index)
    })
}

fn tiny_model() -> One4AllSt {
    let hier = Hierarchy::new(4, 4, 2, 2).unwrap();
    let mut rng = SeededRng::new(7);
    One4AllSt::standard(
        &mut rng,
        hier,
        &TemporalConfig::compact(),
        TrainConfig::default(),
    )
}

/// A saved model stream (untrained weights serialize the same way), built
/// once.
fn model_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| save_model(&mut tiny_model()))
}

thread_local! {
    /// Per-thread load target so each proptest case skips reconstruction.
    static TARGET: RefCell<Option<One4AllSt>> = const { RefCell::new(None) };
}

fn load_into_target(bytes: &[u8]) -> bool {
    TARGET.with(|cell| {
        let mut slot = cell.borrow_mut();
        let model = slot.get_or_insert_with(tiny_model);
        load_model(model, bytes).is_err()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every strict prefix of an index stream is rejected.
    #[test]
    fn truncated_index_always_errs(seed in 0u64..1_000_000) {
        let bytes = index_bytes();
        let mut rng = SeededRng::new(seed);
        let cut = rng.uniform(0.0, bytes.len() as f32) as usize;
        prop_assert!(decode_index(&bytes[..cut.min(bytes.len() - 1)]).is_err());
    }

    /// Any single bit flip in an index stream is rejected (integrity
    /// trailer), and decoding never panics.
    #[test]
    fn bit_flipped_index_always_errs(seed in 0u64..1_000_000) {
        let mut bytes = index_bytes().to_vec();
        let mut rng = SeededRng::new(seed);
        let pos = (rng.uniform(0.0, bytes.len() as f32) as usize).min(bytes.len() - 1);
        let bit = (rng.uniform(0.0, 8.0) as u32).min(7);
        bytes[pos] ^= 1u8 << bit;
        prop_assert!(decode_index(&bytes).is_err());
    }

    /// Arbitrary byte soup never panics the index decoder.
    #[test]
    fn garbage_index_never_panics(seed in 0u64..1_000_000, len in 0usize..256) {
        let mut rng = SeededRng::new(seed);
        let mut bytes: Vec<u8> = (0..len)
            .map(|_| rng.uniform(0.0, 256.0) as u8)
            .collect();
        // half the cases start with the real magic to reach deeper code
        if seed % 2 == 0 && bytes.len() >= 8 {
            bytes[..8].copy_from_slice(b"O4AIDX01");
        }
        prop_assert!(decode_index(&bytes).is_err());
    }

    /// Every strict prefix of a model stream is rejected.
    #[test]
    fn truncated_model_always_errs(seed in 0u64..1_000_000) {
        let bytes = model_bytes();
        let mut rng = SeededRng::new(seed);
        let cut = (rng.uniform(0.0, bytes.len() as f32) as usize).min(bytes.len() - 1);
        prop_assert!(load_into_target(&bytes[..cut]));
    }

    /// Any single bit flip in a model stream is rejected, and loading
    /// never panics.
    #[test]
    fn bit_flipped_model_always_errs(seed in 0u64..1_000_000) {
        let mut bytes = model_bytes().to_vec();
        let mut rng = SeededRng::new(seed);
        let pos = (rng.uniform(0.0, bytes.len() as f32) as usize).min(bytes.len() - 1);
        let bit = (rng.uniform(0.0, 8.0) as u32).min(7);
        bytes[pos] ^= 1u8 << bit;
        prop_assert!(load_into_target(&bytes));
    }
}

/// Sanity: the untouched streams still decode, so the fuzz properties are
/// exercising real corruption rather than an always-failing decoder.
#[test]
fn pristine_streams_still_decode() {
    assert!(decode_index(index_bytes()).is_ok());
    assert!(!load_into_target(model_bytes()));
}

/// One crafted entry: root, path bytes and `(layer, row, col, sign)` terms.
type Entry<'a> = ((u16, u16), &'a [u8], &'a [(u8, u16, u16, i8)]);

/// A checksum-valid `O4AIDX01` stream (Union strategy) with the given
/// header and entries, so the decoder reaches its field checks.
fn crafted_index(h: u32, w: u32, k: u8, layers: u8, entries: &[Entry]) -> Vec<u8> {
    let mut b = b"O4AIDX01".to_vec();
    b.extend(h.to_le_bytes());
    b.extend(w.to_le_bytes());
    b.extend([k, layers, 1]);
    b.extend((entries.len() as u32).to_le_bytes());
    for &((r, c), path, terms) in entries {
        b.extend(r.to_le_bytes());
        b.extend(c.to_le_bytes());
        b.push(path.len() as u8);
        b.extend(path);
        b.extend((terms.len() as u16).to_le_bytes());
        for &(layer, row, col, sign) in terms {
            b.push(layer);
            b.extend(row.to_le_bytes());
            b.extend(col.to_le_bytes());
            b.push(sign as u8);
        }
    }
    let sum = o4a_core::codec::fnv1a32(&b);
    b.extend(sum.to_le_bytes());
    b
}

/// Child code bytes: singles `A` = 0 .. `D` = 3, multis `E` = 4 .. `L` = 11.
const A: u8 = 0;
const E: u8 = 4;

/// Checksum-valid streams whose entry codes leave the hierarchy (or
/// whose header has no coding rule) are rejected as corrupt, while
/// in-hierarchy entries crafted the same way decode.
#[test]
fn crafted_codes_outside_the_hierarchy_are_corrupt() {
    use o4a_core::codec::CodecError::Corrupt;
    use o4a_grid::LayerCell;
    let atomic: &[(u8, u16, u16, i8)] = &[(0, 0, 0, 1)];
    // controls on a 2x2 raster with 2 layers: one root with four cells
    let cell = crafted_index(2, 2, 2, 2, &[((0, 0), &[A], atomic)]);
    let index = decode_index(&cell).expect("in-hierarchy cell decodes");
    assert_eq!(index.len(), 1);
    assert!(index.for_cell(LayerCell::new(0, 0, 0)).is_some());
    let multi = crafted_index(2, 2, 2, 2, &[((0, 0), &[E], atomic)]);
    let index = decode_index(&multi).expect("in-hierarchy multi-grid decodes");
    assert!(index.for_multi(0, &[(0, 0), (0, 1)]).is_some());

    let cases: [(&str, Vec<u8>, &str); 5] = [
        (
            "K = 3 header",
            crafted_index(36, 36, 3, 3, &[((0, 0), &[], &[(2, 0, 0, 1)])]),
            "index artifact requires K = 2",
        ),
        (
            "root beyond the coarsest layer",
            crafted_index(2, 2, 2, 2, &[((0, 1), &[], atomic)]),
            "entry root outside the coarsest layer",
        ),
        (
            "path deeper than the layers",
            crafted_index(2, 2, 2, 2, &[((0, 0), &[A, A], atomic)]),
            "entry path deeper than the hierarchy",
        ),
        (
            "multi code after L-1 singles",
            crafted_index(2, 2, 2, 2, &[((0, 0), &[A, E], atomic)]),
            "entry path deeper than the hierarchy",
        ),
        (
            "65536x65536 raster in a 27-byte stream",
            crafted_index(1 << 16, 1 << 16, 2, 1, &[]),
            "hierarchy larger than the stream",
        ),
    ];
    for (what, bytes, why) in cases {
        assert_eq!(decode_index(&bytes).err(), Some(Corrupt(why)), "{what}");
    }
}
