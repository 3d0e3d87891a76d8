//! Compiled-plan exactness and invalidation contracts.
//!
//! A [`o4a_core::compiled::CompiledPlan`] is a pure re-expression of the
//! interpreted query path — same terms, same signs, same fold order — so
//! its answers must equal the `interpret` oracle **bit for bit**
//! on every storage precision and every ISA tier, and the plan cache must
//! never let a compiled plan outlive the snapshot layout or values it was
//! proven against.

use o4a_core::combination::{search_optimal_combinations, SearchStrategy};
use o4a_core::compiled::{compile_groups, with_scratch};
use o4a_core::frames::FrameSet;
use o4a_core::server::{interpret, PredictionStore, QueryBackend, RegionServer};
use o4a_core::CombinationIndex;
use o4a_grid::decompose::decompose;
use o4a_grid::quadtree::ExtendedQuadTree;
use o4a_grid::{Hierarchy, Mask};
use o4a_tensor::isa;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

const SIDE: usize = 8;

/// Shared fixture: the search is the expensive part, so one hierarchy +
/// subtraction-enhanced index serve every proptest case.
fn fixture() -> &'static (Hierarchy, CombinationIndex) {
    static FIX: OnceLock<(Hierarchy, CombinationIndex)> = OnceLock::new();
    FIX.get_or_init(|| {
        let hier = Hierarchy::new(SIDE, SIDE, 2, 4).unwrap();
        let frames = seeded_frames(&hier, 7);
        let preds: Vec<Vec<Vec<f32>>> = frames.iter().map(|f| vec![f.clone(); 2]).collect();
        let index =
            search_optimal_combinations(&hier, &preds, &preds, SearchStrategy::UnionSubtraction);
        (hier, index)
    })
}

/// Deterministic pseudo-random pyramid with magnitudes spread across the
/// f16 normal and subnormal ranges (coarser layers sum the atomic layer,
/// as a real prediction pyramid would).
fn seeded_frames(hier: &Hierarchy, seed: u32) -> Vec<Vec<f32>> {
    let mut state = seed.wrapping_mul(0x9e37_79b9) | 1;
    let mut next = move || {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        let v = (state >> 8) as f32 / (1 << 17) as f32 - 64.0;
        if state.is_multiple_of(7) {
            v * 2.0f32.powi(-18)
        } else {
            v
        }
    };
    let (h, w) = hier.layer_dims(0);
    let atomic: Vec<f32> = (0..h * w).map(|_| next()).collect();
    let mut frames = vec![atomic.clone()];
    for layer in 1..hier.num_layers() {
        let s = hier.scale(layer);
        let (lh, lw) = hier.layer_dims(layer);
        let mut f = vec![0.0f32; lh * lw];
        for r in 0..h {
            for c in 0..w {
                f[(r / s) * lw + c / s] += atomic[r * w + c];
            }
        }
        frames.push(f);
    }
    frames
}

/// Executes `plan` over `fs` on one forced ISA tier and asserts the bit
/// pattern equals the interpreted answer over the very same view.
fn assert_identical_on_all_tiers(
    index: &CombinationIndex,
    fs: &FrameSet,
    groups: &[o4a_grid::decompose::DecomposedGroup],
) -> Result<(), TestCaseError> {
    let plan = compile_groups(index, groups);
    let want = interpret(index, &[fs.view()], groups);
    for tier in isa::available() {
        isa::force(Some(tier));
        let got = with_scratch(|s| plan.execute_sum(&[fs], s));
        isa::force(None);
        let got = got.expect("layout signature matches the compiling hierarchy");
        prop_assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{} tier diverged from interpreter: {} != {}",
            tier.name(),
            got,
            want
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random rectangles over random snapshots: the compiled plan equals
    /// the interpreter bit for bit on f32 *and* f16 storage, on every ISA
    /// tier this host offers (check.sh additionally repeats the suite
    /// under `O4A_ISA=scalar|avx2|avx512`).
    #[test]
    fn compiled_matches_interpreted_on_both_precisions_and_all_tiers(
        origin in (0usize..SIDE, 0usize..SIDE),
        extent in (1usize..SIDE + 1, 1usize..SIDE + 1),
        seed in any::<u32>(),
    ) {
        let (hier, index) = fixture();
        let ((r0, c0), (dr, dc)) = (origin, extent);
        let mask = Mask::rect(SIDE, SIDE, r0, c0, (r0 + dr).min(SIDE), (c0 + dc).min(SIDE));
        let groups = decompose(hier, &mask);
        let frames = seeded_frames(hier, seed);

        let full = FrameSet::from_f32(frames.clone());
        assert_identical_on_all_tiers(index, &full, &groups)?;

        let half = FrameSet::narrow(frames);
        prop_assert!(half.is_half());
        assert_identical_on_all_tiers(index, &half, &groups)?;
    }

    /// A foreign index (no entry for any cell) forces the per-cell direct
    /// fallback; the compiled plan must encode the same fallback terms
    /// and stay bit-identical.
    #[test]
    fn foreign_index_fallback_is_bit_identical(seed in any::<u32>()) {
        let (hier, index) = fixture();
        let mut foreign = index.clone();
        foreign.tree = ExtendedQuadTree::new(hier);
        foreign.flat.clear();
        prop_assert!(foreign.is_empty());

        let mask = Mask::rect(SIDE, SIDE, 1, 1, 7, 6);
        let groups = decompose(hier, &mask);
        let fs = FrameSet::from_f32(seeded_frames(hier, seed));
        assert_identical_on_all_tiers(&foreign, &fs, &groups)?;
    }
}

/// `publish_checked` swaps snapshot *values* under a fixed layout; the
/// plan cache keys on mask + layout, so the second query must be a cache
/// hit that nevertheless reads the freshly published values — a stale
/// compiled answer here would be a correctness bug, not a perf bug.
#[test]
fn publish_checked_never_serves_stale_values_through_the_plan_cache() {
    let (hier, index) = fixture();
    let store = Arc::new(PredictionStore::for_hierarchy(hier));
    store.publish_checked(seeded_frames(hier, 1)).unwrap();
    let server = RegionServer::new(index.clone(), store.clone());
    let mask = Mask::rect(SIDE, SIDE, 0, 1, 6, 7);
    let groups = decompose(hier, &mask);

    let before = server.query(&mask);
    let (h0, m0, _) = server.plan_cache_stats();

    let frames2 = seeded_frames(hier, 2);
    store.publish_checked(frames2.clone()).unwrap();
    let after = server.query(&mask);
    let (h1, m1, _) = server.plan_cache_stats();

    assert_eq!(m1, m0, "same mask + layout must not recompile");
    assert_eq!(h1, h0 + 1, "second query must hit the plan cache");
    assert!(server.compiled_terms() > 0, "compiled path must have run");
    let want = interpret(index, &[FrameSet::from_f32(frames2).view()], &groups);
    assert_eq!(
        after.to_bits(),
        want.to_bits(),
        "cached plan served stale or wrong values after publish_checked"
    );
    assert_ne!(
        before.to_bits(),
        after.to_bits(),
        "fixture snapshots must actually differ for this test to prove anything"
    );
}

/// The engine serves only stores built for its index's hierarchy, so a
/// snapshot whose layout the compiled plans do not address can never
/// reach a query: a store built for another hierarchy is refused at
/// construction.
#[test]
#[should_panic(expected = "built for another hierarchy")]
fn engine_rejects_a_store_built_for_another_hierarchy() {
    let (hier, index) = fixture();
    let other = Hierarchy::new(SIDE, SIDE, 2, hier.num_layers() - 1).unwrap();
    let store = Arc::new(PredictionStore::for_hierarchy(&other));
    store.publish_checked(seeded_frames(&other, 3)).unwrap();
    RegionServer::new(index.clone(), store);
}
