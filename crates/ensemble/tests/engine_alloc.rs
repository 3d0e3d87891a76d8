//! A warm engine allocates per call, never per query: the batch path
//! (`query_many_timed`) takes its decompositions from the cache, and the
//! shard leg (`query_groups_timed`) caches nothing but allocates only its
//! per-call buffers. This binary counts the allocation events of each
//! call on a region engine and a two-member ensemble engine and requires
//! the count not to grow with the number of masks or groups.
//!
//! The counting allocator is process-wide, so this binary holds exactly
//! one test.

use o4a_core::combination::{search_optimal_combinations, Combination, SearchStrategy, Term};
use o4a_core::server::{PredictionStore, QueryBackend, RegionServer};
use o4a_ensemble::{EnsemblePlan, EnsembleServer, PlanReport};
use o4a_grid::decompose::{decompose, DecomposedGroup};
use o4a_grid::quadtree::ExtendedQuadTree;
use o4a_grid::{Hierarchy, Mask};
use o4a_obs::CountingAlloc;
use std::sync::Arc;

#[global_allocator]
static A: CountingAlloc = CountingAlloc::new();

const SIDE: usize = 16;

/// Allocation events of one call of `f`.
fn allocations(f: impl FnOnce()) -> usize {
    let before = A.allocations();
    f();
    A.allocations() - before
}

#[test]
fn warm_calls_allocate_per_call_not_per_query() {
    let hier = Hierarchy::new(SIDE, SIDE, 2, 5).unwrap();
    let frames: Vec<Vec<f32>> = (0..hier.num_layers())
        .map(|l| {
            (0..hier.layer_len(l))
                .map(|i| ((i * 7 + l * 3) % 11) as f32)
                .collect()
        })
        .collect();
    let preds: Vec<Vec<Vec<f32>>> = frames.iter().map(|f| vec![f.clone(); 2]).collect();
    let index =
        search_optimal_combinations(&hier, &preds, &preds, SearchStrategy::UnionSubtraction);
    // two members, alternating by term position so every combination of
    // two or more terms reads from both
    let mut tree = ExtendedQuadTree::new(&hier);
    index.tree.for_each(|code, comb| {
        let terms = comb
            .terms
            .iter()
            .enumerate()
            .map(|(i, t)| Term {
                member: (i % 2) as u16,
                ..*t
            })
            .collect();
        tree.insert(code, Combination { terms });
    });
    let plan = EnsemblePlan {
        hier: hier.clone(),
        members: vec!["even".into(), "odd".into()],
        strategy: SearchStrategy::UnionSubtraction,
        revision: 1,
        tree,
        report: PlanReport::default(),
    };
    let store = || {
        let s = Arc::new(PredictionStore::for_hierarchy(&hier));
        s.publish_checked(frames.clone()).unwrap();
        s
    };
    let region = RegionServer::new(index, store());
    let ensemble = EnsembleServer::new(plan, vec![store(), store()]);
    let backends: [(&str, &dyn QueryBackend); 2] = [("region", &region), ("ensemble", &ensemble)];

    let masks: Vec<Mask> = (0..32)
        .map(|i| Mask::rect(SIDE, SIDE, i % 5, i % 7, 6 + i % 10, 5 + i % 11))
        .collect();
    let groups: Vec<DecomposedGroup> = masks.iter().flat_map(|m| decompose(&hier, m)).collect();
    assert!(groups.len() > 32);

    for (name, backend) in backends {
        // warm the cache, then every mask hits
        backend.query_many_timed(&masks);
        let one = allocations(|| drop(backend.query_many_timed(&masks[..1])));
        let all = allocations(|| drop(backend.query_many_timed(&masks)));
        assert_eq!(
            all, one,
            "{name}: 32 masks allocated {all} times, 1 mask {one}"
        );

        let one = allocations(|| drop(backend.query_groups_timed(&groups[..1])));
        let all = allocations(|| drop(backend.query_groups_timed(&groups)));
        let n = groups.len();
        assert_eq!(
            all, one,
            "{name}: {n} groups allocated {all} times, 1 group {one}"
        );
    }
}
