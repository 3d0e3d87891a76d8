//! One engine, two resolvers: a `RegionServer` (combination index) and an
//! `EnsembleServer` (a hand-mixed two-member plan) both answer through
//! `interpret` from one mask → decomposition cache, and both must equal
//! the oracle **bit for bit** — on f32 and f16 stores, through the batch
//! path (`query_many_timed`, which caches by mask) and through the shard
//! leg (`query_groups_timed`, which caches nothing, folded back in
//! decompose order), on a cold cache and on a warm one. The engine also
//! reads every snapshot fresh and refuses stores of another hierarchy.

use o4a_core::combination::{search_optimal_combinations, Combination, SearchStrategy, Term};
use o4a_core::frames::FrameSet;
use o4a_core::server::{interpret, PredictionStore, QueryBackend, RegionServer, Resolver};
use o4a_core::CombinationIndex;
use o4a_ensemble::{EnsemblePlan, EnsembleServer, PlanReport};
use o4a_grid::decompose::decompose;
use o4a_grid::quadtree::ExtendedQuadTree;
use o4a_grid::{Hierarchy, Mask};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

const SIDE: usize = 8;

/// Deterministic pseudo-random pyramid; every 7th atomic value is pushed
/// into the f16 subnormal range so narrowing actually loses bits.
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

/// A searched index, and a two-member plan over the same entries whose
/// terms alternate members by position and cell — every combination of
/// two or more terms reads from both members.
fn fixture() -> &'static (Hierarchy, CombinationIndex, EnsemblePlan) {
    static FIX: OnceLock<(Hierarchy, CombinationIndex, EnsemblePlan)> = OnceLock::new();
    FIX.get_or_init(|| {
        let hier = Hierarchy::new(SIDE, SIDE, 2, 4).unwrap();
        let preds: Vec<Vec<Vec<f32>>> = seeded_frames(&hier, 5)
            .into_iter()
            .map(|f| vec![f; 2])
            .collect();
        let index =
            search_optimal_combinations(&hier, &preds, &preds, SearchStrategy::UnionSubtraction);
        let mut tree = ExtendedQuadTree::new(&hier);
        index.tree.for_each(|code, comb| {
            let terms = comb
                .terms
                .iter()
                .enumerate()
                .map(|(i, t)| Term {
                    member: ((i + t.cell.row + t.cell.col) % 2) as u16,
                    ..*t
                })
                .collect();
            tree.insert(code, Combination { terms });
        });
        let plan = EnsemblePlan {
            hier: hier.clone(),
            members: vec!["even".into(), "odd".into()],
            strategy: SearchStrategy::UnionSubtraction,
            revision: 3,
            tree,
            report: PlanReport::default(),
        };
        (hier, index, plan)
    })
}

/// A store for `hier` holding `frames` in the requested precision.
fn store(hier: &Hierarchy, frames: Vec<Vec<f32>>, half: bool) -> Arc<PredictionStore> {
    let store = Arc::new(PredictionStore::for_hierarchy(hier));
    store.set_half_storage(half);
    store.publish_checked(frames).unwrap();
    store
}

/// The engine's answers for `mask` — batch path twice (cold, then warm
/// cache) and the shard leg folded in decompose order — must all carry
/// the oracle's bits.
fn assert_engine_matches_oracle<R: Resolver>(
    name: &str,
    query_many: impl Fn(&[Mask]) -> Vec<f32>,
    query_groups: impl Fn(&[o4a_grid::decompose::DecomposedGroup]) -> Vec<f32>,
    resolver: &R,
    snaps: &[Arc<FrameSet>],
    mask: &Mask,
) -> Result<(), TestCaseError> {
    let groups = decompose(resolver.hierarchy(), mask);
    let views: Vec<_> = snaps.iter().map(|s| s.view()).collect();
    let want = interpret(resolver, &views, &groups).to_bits();
    for pass in ["cold", "warm"] {
        let got = query_many(std::slice::from_ref(mask))[0];
        prop_assert_eq!(got.to_bits(), want, "{} batch path ({})", name, pass);
        let folded = query_groups(&groups).iter().fold(0.0f32, |acc, &v| acc + v);
        prop_assert_eq!(folded.to_bits(), want, "{} shard leg ({})", name, pass);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn both_resolvers_match_the_oracle_bit_for_bit(
        origin in (0usize..SIDE, 0usize..SIDE),
        extent in (1usize..SIDE + 1, 1usize..SIDE + 1),
        seed in any::<u32>(),
        half in any::<bool>(),
    ) {
        let (hier, index, plan) = fixture();
        let ((r0, c0), (dr, dc)) = (origin, extent);
        let mask = Mask::rect(SIDE, SIDE, r0, c0, (r0 + dr).min(SIDE), (c0 + dc).min(SIDE));

        let region_store = store(hier, seeded_frames(hier, seed), half);
        let region = RegionServer::new(index.clone(), region_store.clone());
        assert_engine_matches_oracle(
            "region",
            |m| region.query_many_timed(m).0,
            |g| region.query_groups_timed(g).0,
            index,
            &[region_store.snapshot()],
            &mask,
        )?;

        let members = vec![
            store(hier, seeded_frames(hier, seed), half),
            store(hier, seeded_frames(hier, seed.wrapping_add(1)), half),
        ];
        let snaps: Vec<_> = members.iter().map(|s| s.snapshot()).collect();
        prop_assert_eq!(snaps[0].is_half(), half);
        let ensemble = EnsembleServer::new(plan.clone(), members);
        assert_engine_matches_oracle(
            "ensemble",
            |m| ensemble.query_many_timed(m).0,
            |g| ensemble.query_groups_timed(g).0,
            plan,
            &snaps,
            &mask,
        )?;
        // the warm pass hits the mask the cold pass cached; the shard
        // leg touches no cache
        prop_assert_eq!(ensemble.plan_cache_stats(), (1, 1, 0));
    }
}

/// `publish_checked` swaps snapshot *values* under a fixed layout; the
/// engine caches by mask, so the second query must be a cache hit that
/// nevertheless reads the freshly published values — a stale answer here
/// would be a correctness bug, not a perf bug.
#[test]
fn publish_checked_never_serves_stale_values_through_the_plan_cache() {
    let (hier, index, _) = fixture();
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

    assert_eq!(m1, m0, "same mask must not decompose again");
    assert_eq!(h1, h0 + 1, "second query must hit the cache");
    assert!(server.compiled_terms() > 0, "queries must have read terms");
    let want = interpret(index, &[FrameSet::from_f32(frames2).view()], &groups);
    assert_eq!(
        after.to_bits(),
        want.to_bits(),
        "a cache hit served stale or wrong values after publish_checked"
    );
    assert_ne!(
        before.to_bits(),
        after.to_bits(),
        "fixture snapshots must actually differ for this test to prove anything"
    );
}

/// The engine serves only stores built for its index's hierarchy, so a
/// snapshot without a value for some cell the index names can never
/// reach a query: a store built for another hierarchy is refused at
/// construction.
#[test]
#[should_panic(expected = "built for another hierarchy")]
fn engine_rejects_a_store_built_for_another_hierarchy() {
    let (hier, index, _) = fixture();
    let other = Hierarchy::new(SIDE, SIDE, 2, hier.num_layers() - 1).unwrap();
    let store = Arc::new(PredictionStore::for_hierarchy(&other));
    store.publish_checked(seeded_frames(&other, 3)).unwrap();
    RegionServer::new(index.clone(), store);
}
