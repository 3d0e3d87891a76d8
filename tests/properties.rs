//! Property-based tests (proptest) on the core invariants:
//!
//! * hierarchical decomposition is an exact, non-mergeable cover of any
//!   region (Algorithm 1's contract),
//! * the extended quad-tree behaves like a map keyed by grid codes,
//! * the index codec roundtrips arbitrary combinations,
//! * scale aggregation preserves totals for arbitrary flows,
//! * metrics are well-behaved (RMSE >= MAE, zero on perfect predictions).

use proptest::prelude::*;

use one4all_st::core::codec::{decode_index, encode_index};
use one4all_st::core::combination::{
    search_optimal_combinations, CombinationIndex, SearchStrategy,
};
use one4all_st::data::flow::FlowSeries;
use one4all_st::data::metrics::{mae, rmse};
use one4all_st::grid::decompose::decompose;
use one4all_st::grid::{GridCode, Hierarchy, LayerCell, Mask};

const H: usize = 8;
const W: usize = 8;

fn hier() -> Hierarchy {
    Hierarchy::new(H, W, 2, 4).unwrap()
}

prop_compose! {
    /// An arbitrary (possibly disconnected) region over the 8x8 raster.
    fn arb_region()(bits in prop::collection::vec(any::<bool>(), H * W)) -> Mask {
        Mask::from_bits(H, W, bits)
    }
}

prop_compose! {
    fn arb_flow()(values in prop::collection::vec(0.0f32..50.0, 6 * H * W)) -> FlowSeries {
        FlowSeries::from_vec(6, H, W, values)
    }
}

proptest! {
    #[test]
    fn decomposition_is_exact_cover(region in arb_region()) {
        let hier = hier();
        let groups = decompose(&hier, &region);
        let mut acc = Mask::empty(H, W);
        for g in &groups {
            let gm = g.to_mask(&hier);
            prop_assert!(!acc.intersects(&gm), "groups overlap");
            acc.union_with(&gm);
        }
        prop_assert_eq!(acc, region);
    }

    #[test]
    fn decomposition_groups_cannot_merge_coarser(region in arb_region()) {
        let hier = hier();
        for g in decompose(&hier, &region) {
            if g.layer() + 1 >= hier.num_layers() {
                continue;
            }
            // within each parent, a group never holds all K^2 children
            use std::collections::HashMap;
            let mut by_parent: HashMap<(usize, usize), usize> = HashMap::new();
            for (r, c) in g.cells() {
                *by_parent.entry((r / 2, c / 2)).or_insert(0) += 1;
            }
            for (_, count) in by_parent {
                prop_assert!(count < 4, "a full parent survived decomposition");
            }
        }
    }

    #[test]
    fn decomposition_prefers_coarse_grids(region in arb_region()) {
        // if a coarse grid fits entirely in the region, no decomposed group
        // may fragment it: total group count is at most the atomic count
        let hier = hier();
        let groups = decompose(&hier, &region);
        let cells: usize = groups.iter().map(|g| g.len()).sum();
        prop_assert!(cells <= region.area());
    }

    #[test]
    fn quadtree_is_a_map(entries in prop::collection::vec((0usize..4, 0usize..16), 1..40)) {
        let hier = hier();
        let mut tree = one4all_st::grid::ExtendedQuadTree::new(&hier);
        let mut reference = std::collections::HashMap::new();
        for (i, &(layer, cell)) in entries.iter().enumerate() {
            let (rows, cols) = hier.layer_dims(layer);
            let (r, c) = (cell / cols % rows, cell % cols);
            let code = GridCode::for_cell(&hier, LayerCell::new(layer, r, c));
            tree.insert(&code, i);
            reference.insert(format!("{code}"), i);
        }
        prop_assert_eq!(tree.len(), reference.len());
        let mut seen = 0usize;
        tree.for_each(|code, &v| {
            assert_eq!(reference.get(&format!("{code}")), Some(&v));
            seen += 1;
        });
        prop_assert_eq!(seen, reference.len());
    }

    #[test]
    fn aggregation_preserves_totals(flow in arb_flow()) {
        let hier = hier();
        for layer in 0..hier.num_layers() {
            let agg = flow.aggregate_to_layer(&hier, layer);
            for t in 0..flow.len_t() {
                let a: f32 = agg.frame(t).iter().sum();
                let b: f32 = flow.frame(t).iter().sum();
                prop_assert!((a - b).abs() <= 1e-2 * b.abs().max(1.0));
            }
        }
    }

    #[test]
    fn metrics_well_behaved(pairs in prop::collection::vec((0.0f32..100.0, 0.0f32..100.0), 1..50)) {
        let pred: Vec<f32> = pairs.iter().map(|p| p.0).collect();
        let truth: Vec<f32> = pairs.iter().map(|p| p.1).collect();
        let r = rmse(&pred, &truth);
        let m = mae(&pred, &truth);
        prop_assert!(r >= m - 1e-9, "RMSE {r} < MAE {m}");
        prop_assert!(rmse(&truth, &truth) < 1e-9);
    }

    #[test]
    fn codec_roundtrips_searched_indexes(noise_seed in 0u64..1000) {
        let hier = hier();
        let index = random_index(&hier, noise_seed);
        let bytes = encode_index(&index);
        let back = decode_index(&bytes).unwrap();
        prop_assert_eq!(back.tree.len(), index.tree.len());
        index.tree.for_each(|code, comb| {
            assert_eq!(back.tree.get(code), Some(comb));
        });
    }

    /// Decoding arbitrary bytes must return an error, never panic.
    #[test]
    fn codec_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = decode_index(&bytes);
    }

    /// Decoding a truncated or bit-flipped valid stream must not panic.
    #[test]
    fn codec_never_panics_on_mutations(seed in 0u64..50, cut in 0usize..400, flip in 0usize..400) {
        let hier = hier();
        let index = random_index(&hier, seed);
        let mut bytes = encode_index(&index);
        if flip < bytes.len() {
            bytes[flip] ^= 0x5a;
        }
        let cut = cut.min(bytes.len());
        let _ = decode_index(&bytes[..cut]);
        let _ = decode_index(&bytes);
    }

    /// Eq. 5 over the K = 2 raster, whose groups may hit multi-grid
    /// entries, and over a K = 3 (9x9) and a K = 4 (16x16) one, whose
    /// multi-cell groups resolve to the union of their cells' entries.
    #[test]
    fn query_combination_covers_exactly(
        shape in 0usize..3,
        bits in prop::collection::vec(any::<bool>(), 16 * 16),
        seed in 0u64..100,
    ) {
        let hier = [
            Hierarchy::new(H, W, 2, 4),
            Hierarchy::new(9, 9, 3, 3),
            Hierarchy::new(16, 16, 4, 3),
        ][shape]
            .clone()
            .unwrap();
        let (h, w) = (hier.h(), hier.w());
        let region = Mask::from_bits(h, w, bits[..h * w].to_vec());
        if region.is_empty() {
            return Ok(());
        }
        let index = random_index(&hier, seed);
        let comb = one4all_st::core::server::query_combination(&hier, &index, &region);
        let cov = comb.signed_coverage(&hier);
        for r in 0..h {
            for c in 0..w {
                prop_assert_eq!(cov[r * w + c], i32::from(region.get(r, c)));
            }
        }
    }
}

/// A searched index over random noisy series.
fn random_index(hier: &Hierarchy, seed: u64) -> CombinationIndex {
    use one4all_st::tensor::SeededRng;
    let mut rng = SeededRng::new(seed);
    let samples = 3usize;
    let mut preds = Vec::new();
    let mut truths = Vec::new();
    for layer in 0..hier.num_layers() {
        let (r, c) = hier.layer_dims(layer);
        let scale = hier.scale(layer);
        let mut tl = Vec::new();
        let mut pl = Vec::new();
        for s in 0..samples {
            let truth: Vec<f32> = (0..r * c)
                .map(|i| (scale * scale) as f32 * (2.0 + ((i + s) % 5) as f32))
                .collect();
            let pred: Vec<f32> = truth.iter().map(|&v| v + 2.0 * rng.normal()).collect();
            tl.push(truth);
            pl.push(pred);
        }
        truths.push(tl);
        preds.push(pl);
    }
    search_optimal_combinations(hier, &preds, &truths, SearchStrategy::UnionSubtraction)
}
