//! Shard-router exactness properties: random masks through random
//! K-shard partitions must merge bit-identically to the unsharded
//! backend (K=1 == the plain `RegionServer`, K>1 == K=1), and the
//! timed-path stage accounting must sum exactly across shards.

use o4a_core::combination::{search_optimal_combinations, SearchStrategy};
use o4a_core::one4all::truth_pyramid;
use o4a_core::server::{PredictionStore, QueryBackend, QueryTiming, RegionServer};
use o4a_data::synthetic::DatasetKind;
use o4a_grid::decompose::{decompose, DecomposedGroup};
use o4a_grid::queries::{task_queries, TaskSpec};
use o4a_grid::{Hierarchy, Mask};
use o4a_serve::ShardRouter;
use o4a_tensor::SeededRng;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

const SIDE: usize = 16;

/// Shared fixture: one searched index + published ground-truth store; the
/// unsharded reference and every shard replica are built from clones.
fn fixture() -> &'static (
    Hierarchy,
    Arc<RegionServer>,
    Vec<ShardRouter>, // routers for K = 1..=4 over replica shards
) {
    static FIX: OnceLock<(Hierarchy, Arc<RegionServer>, Vec<ShardRouter>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let hier = Hierarchy::new(SIDE, SIDE, 2, 4).unwrap();
        let flow = DatasetKind::TaxiNycLike
            .config(SIDE, SIDE, 32, 9)
            .generate();
        let slots: Vec<usize> = (24..32).collect();
        let truths = truth_pyramid(&hier, &flow, &slots);
        let index =
            search_optimal_combinations(&hier, &truths, &truths, SearchStrategy::UnionSubtraction);
        let store = Arc::new(PredictionStore::for_hierarchy(&hier));
        store
            .publish_checked(truths.iter().map(|layer| layer[0].clone()).collect())
            .unwrap();
        let single = Arc::new(RegionServer::new(index.clone(), store.clone()));
        let routers = (1..=4usize)
            .map(|k| {
                let shards: Vec<Arc<dyn QueryBackend>> = (0..k)
                    .map(|_| {
                        Arc::new(RegionServer::new(index.clone(), store.clone()))
                            as Arc<dyn QueryBackend>
                    })
                    .collect();
                ShardRouter::new(shards)
            })
            .collect();
        (hier, single, routers)
    })
}

/// A deterministic 16x16 mask: rects, mask-pool tasks, or random bits.
fn mask_for(seed: u64) -> Mask {
    let mut rng = SeededRng::new(seed);
    match seed % 3 {
        0 => {
            let r0 = rng.uniform(0.0, 12.0) as usize;
            let c0 = rng.uniform(0.0, 12.0) as usize;
            let rh = 1 + rng.uniform(0.0, (SIDE - r0 - 1) as f32) as usize;
            let cw = 1 + rng.uniform(0.0, (SIDE - c0 - 1) as f32) as usize;
            Mask::rect(SIDE, SIDE, r0, c0, r0 + rh, c0 + cw)
        }
        1 => {
            let specs = TaskSpec::standard_tasks(150.0);
            let spec = specs[seed as usize % specs.len()];
            let mut pool = task_queries(SIDE, SIDE, spec, false, &mut rng);
            pool.remove(seed as usize % pool.len())
        }
        _ => {
            let bits = (0..SIDE * SIDE)
                .map(|_| rng.uniform(0.0, 1.0) > 0.35)
                .collect();
            Mask::from_bits(SIDE, SIDE, bits)
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

    /// Random mask batches through every shard count: each router's
    /// merged answers must be bit-identical to the unsharded
    /// `RegionServer` (so K=1 == the current server and K>1 == K=1 by
    /// transitivity), and the per-mask group accounting must land
    /// entirely on the routers' load counters.
    #[test]
    fn random_masks_bit_identical_across_shard_counts(seed in 0u64..1_000_000) {
        let (_, single, routers) = fixture();
        // plus a mask without cells, which decomposes to no groups
        let masks: Vec<Mask> = (0..1 + seed % 5)
            .map(|i| mask_for(seed.wrapping_mul(97).wrapping_add(i)))
            .chain([Mask::empty(SIDE, SIDE)])
            .collect();
        let (reference, _) = single.query_many_timed(&masks);
        for (ki, router) in routers.iter().enumerate() {
            let (values, timing) = router.query_many_timed(&masks);
            proptest::prop_assert_eq!(values.len(), reference.len());
            for (i, (got, want)) in values.iter().zip(&reference).enumerate() {
                proptest::prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "mask {} differs at K={} (got {}, want {})",
                    i, ki + 1, got, want
                );
            }
            // decompose happened at the router; shards report index only
            proptest::prop_assert!(timing.decompose >= Duration::ZERO);
        }
    }

    /// The group-level entry point is itself routable: handing a router a
    /// pre-decomposed group list returns the same per-group values as
    /// evaluating the groups on the unsharded backend, in input order.
    #[test]
    fn group_queries_bit_identical_across_shard_counts(seed in 0u64..1_000_000) {
        let (hier, single, routers) = fixture();
        let mask = mask_for(seed);
        let groups = decompose(hier, &mask);
        let (reference, t) = single.query_groups_timed(&groups);
        proptest::prop_assert_eq!(t.decompose, Duration::ZERO);
        for router in routers {
            let (values, timing) = router.query_groups_timed(&groups);
            proptest::prop_assert_eq!(timing.decompose, Duration::ZERO);
            proptest::prop_assert_eq!(values.len(), reference.len());
            for (got, want) in values.iter().zip(&reference) {
                proptest::prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }
}

/// A mock shard with deterministic per-group values and timings, so the
/// scatter-gather bookkeeping can be asserted *exactly*: gathered values
/// must fold in decomposition order and the reported index time must be
/// the precise sum of the per-shard timings.
struct FakeShard {
    hier: Hierarchy,
}

fn fake_value(g: &DecomposedGroup) -> f32 {
    let (r, c) = g.cells().next().expect("a group has a cell");
    (g.layer() * 10_000 + r * 100 + c) as f32 * 0.5 + g.len() as f32
}

/// Deterministic per-group cost the fake shard charges to `index` time.
const FAKE_NS_PER_GROUP: u64 = 1_000;

impl QueryBackend for FakeShard {
    fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    fn is_ready(&self) -> bool {
        true
    }

    fn query_many_timed(&self, _masks: &[Mask]) -> (Vec<f32>, QueryTiming) {
        unreachable!("the router only ever calls query_groups_timed on shards")
    }

    fn query_groups_timed(&self, groups: &[DecomposedGroup]) -> (Vec<f32>, QueryTiming) {
        (
            groups.iter().map(fake_value).collect(),
            QueryTiming {
                decompose: Duration::ZERO,
                index: Duration::from_nanos(groups.len() as u64 * FAKE_NS_PER_GROUP),
            },
        )
    }

    fn decomp_cache_stats(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Exact accounting: with deterministic shard timings, the router's
/// reported `index` time must equal `total_groups * FAKE_NS_PER_GROUP`
/// regardless of how the groups split across shards, the gathered values
/// must be the in-order fold of the per-group values, and the shard load
/// counters must sum to the total group count (what a served STATS
/// exposes as `shard_loads`).
#[test]
fn stage_accounting_sums_exactly_across_shards() {
    let hier = Hierarchy::new(SIDE, SIDE, 2, 4).unwrap();
    for k in 1..=4usize {
        let shards: Vec<Arc<dyn QueryBackend>> = (0..k)
            .map(|_| Arc::new(FakeShard { hier: hier.clone() }) as Arc<dyn QueryBackend>)
            .collect();
        let router = ShardRouter::new(shards);
        let masks: Vec<Mask> = (0..24).map(|i| mask_for(1_000 + i)).collect();
        let total_groups: usize = masks.iter().map(|m| decompose(&hier, m).len()).sum();

        let (values, timing) = router.query_many_timed(&masks);
        for (mask, got) in masks.iter().zip(&values) {
            let want: f32 = decompose(&hier, mask).iter().map(fake_value).sum();
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "gather must fold per-group values in decomposition order"
            );
        }
        assert_eq!(
            timing.index,
            Duration::from_nanos(total_groups as u64 * FAKE_NS_PER_GROUP),
            "K={k}: index time must be the exact sum of shard timings"
        );
        let loads = router.shard_loads();
        assert_eq!(loads.len(), k);
        assert_eq!(
            loads.iter().sum::<u64>(),
            total_groups as u64,
            "K={k}: every routed group must be accounted to exactly one shard"
        );
        if k > 1 {
            assert!(
                loads.iter().filter(|&&l| l > 0).count() > 1,
                "K={k}: a 24-mask workload must touch more than one shard: {loads:?}"
            );
        }
        // the router decomposed every mask itself (memo counters line up
        // with what STATS reports as hits + misses == masks served)
        let (hits, misses) = router.decomp_cache_stats();
        assert_eq!(hits + misses, masks.len() as u64);
    }
}
