//! Byte-exact pins of the two serving artifacts at 32×32.
//!
//! `serve`'s synthetic mode persists an `O4AIDX01` index searched on a
//! seeded taxi-like flow; `serve --ensemble 2` persists an `O4AENS01`
//! plan over two stripe experts. Both encoders write entries in
//! `ExtendedQuadTree::for_each` order, so a change to the tree's layout
//! that reorders the walk, or a change to the search or planner that
//! moves an entry, changes these bytes. The digests were taken from the
//! boxed-node tree that preceded the implicit layout.

use o4a_core::codec::{decode_index, encode_index};
use o4a_core::combination::{search_optimal_combinations, SearchStrategy};
use o4a_core::one4all::truth_pyramid;
use o4a_data::features::TemporalConfig;
use o4a_data::flow::FlowSeries;
use o4a_data::synthetic::DatasetKind;
use o4a_ensemble::{
    decode_plan, encode_plan, plan_ensemble, profile_members, HotspotExpert, PlanOptions,
};
use o4a_grid::Hierarchy;
use o4a_models::multiscale::PyramidPredictor;

const SIDE: usize = 32;

/// FNV-1a (64-bit) over a byte stream.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The `serve` bin's synthetic fixture: its hierarchy, flow and the
/// eight validation slots its offline phase searches and plans on.
fn fixture() -> (Hierarchy, FlowSeries, Vec<usize>) {
    let hier = Hierarchy::with_max_scale(SIDE, SIDE, 2, 32).unwrap();
    let flow = DatasetKind::TaxiNycLike
        .config(SIDE, SIDE, 24 * 9, 5)
        .generate();
    let val: Vec<usize> = (flow.len_t() - 8..flow.len_t()).collect();
    (hier, flow, val)
}

#[test]
fn index_artifact_bytes_are_pinned() {
    let (hier, flow, val) = fixture();
    let truths = truth_pyramid(&hier, &flow, &val);
    let index = search_optimal_combinations(&hier, &truths, &truths, SearchStrategy::Union);
    let bytes = encode_index(&index);
    assert_eq!(index.tree.len(), 4_093);
    assert_eq!(
        (bytes.len(), fnv1a64(&bytes)),
        (96_904, 15_230_701_714_344_440_887)
    );
    assert_eq!(encode_index(&decode_index(&bytes).unwrap()), bytes);
}

#[test]
fn plan_artifact_bytes_are_pinned() {
    let (hier, flow, val) = fixture();
    let mut experts = HotspotExpert::stripes(&hier, 2, 400, 99);
    let mut refs: Vec<&mut dyn PyramidPredictor> = experts
        .iter_mut()
        .map(|e| e as &mut dyn PyramidPredictor)
        .collect();
    let profiles = profile_members(&mut refs, &flow, &TemporalConfig::compact(), &val);
    let truths = truth_pyramid(&hier, &flow, &val);
    let plan = plan_ensemble(&hier, &profiles, &truths, &PlanOptions::default());
    let bytes = encode_plan(&plan);
    assert_eq!(plan.tree.len(), 4_093);
    assert_eq!(
        (bytes.len(), fnv1a64(&bytes)),
        (113_374, 16_040_924_985_893_016_018)
    );
    assert_eq!(encode_plan(&decode_plan(&bytes).unwrap()), bytes);
}
