//! Byte-exact pins of the two serving artifacts at 32×32.
//!
//! `serve`'s synthetic mode persists an `O4AIDX01` index searched on a
//! seeded taxi-like flow; `serve --ensemble 2` persists an `O4AENS01`
//! plan over two stripe experts. Both encoders write entries in
//! `ExtendedQuadTree::for_each` order, so a change to the tree's layout
//! that reorders the walk, or a change to the search or planner that
//! moves an entry, changes these bytes. The digests were taken from the
//! boxed-node tree that preceded the implicit layout.
//!
//! The plan artifact persists only `plan_cost` of the planner's report,
//! so a three-member plan on the same fixture pins every `PlanReport`
//! field as well.

use o4a_core::codec::{decode_index, encode_index};
use o4a_core::combination::{search_optimal_combinations, SearchStrategy};
use o4a_core::one4all::truth_pyramid;
use o4a_data::features::TemporalConfig;
use o4a_data::flow::FlowSeries;
use o4a_data::synthetic::DatasetKind;
use o4a_ensemble::{
    decode_plan, encode_plan, plan_ensemble, profile_members, HotspotExpert, PlanOptions,
    PlanReport,
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

/// Three overlapping experts on the `serve` fixture take every branch of
/// the planner: each member serves some grids at their own scale, one
/// member's own composed optimum is adopted, some grids fuse children of
/// different members, and some multi-grids subtract.
#[test]
fn plan_report_is_pinned() {
    let (hier, flow, val) = fixture();
    let mut experts = [
        HotspotExpert::new(&hier, "nw", (0, 0, 21, 21), 400, 1),
        HotspotExpert::new(&hier, "se", (10, 10, 32, 32), 700, 2),
        HotspotExpert::new(&hier, "none", (0, 0, 0, 0), 250, 3),
    ];
    let mut refs: Vec<&mut dyn PyramidPredictor> = experts
        .iter_mut()
        .map(|e| e as &mut dyn PyramidPredictor)
        .collect();
    let profiles = profile_members(&mut refs, &flow, &TemporalConfig::compact(), &val);
    let truths = truth_pyramid(&hier, &flow, &val);
    let plan = plan_ensemble(&hier, &profiles, &truths, &PlanOptions::default());
    let PlanReport {
        direct_cells,
        delegated_cells,
        fused_cells,
        multi_entries,
        subtraction_multis,
        plan_cost,
        model_costs,
    } = plan.report;
    assert_eq!(direct_cells, [571, 485, 298]);
    assert_eq!(delegated_cells, [0, 0, 5]);
    assert_eq!(fused_cells, 6);
    assert_eq!((subtraction_multis, multi_entries), (367, 2_728));
    // 52.20053547139355
    assert_eq!(plan_cost.to_bits(), 4_632_543_389_562_546_528);
    // 339.3907293172831, 968.0999713744529 and 228.39390278006306
    let bits: Vec<u64> = model_costs.iter().map(|c| c.to_bits()).collect();
    assert_eq!(
        bits,
        [
            4_644_678_241_043_510_556,
            4_651_726_713_221_987_966,
            4_642_239_912_622_474_644
        ]
    );
}
