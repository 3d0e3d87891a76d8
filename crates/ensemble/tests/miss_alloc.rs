//! A decomposition-cache miss allocates twice: the clone of its mask key
//! and the cached slice of groups. Groups are heap-free `Copy` values and
//! `decompose` works in per-thread scratch, so neither the group count
//! nor the pyramid's layers add allocations. This binary pins:
//!
//! * a warm `decompose` of a 128x128, K = 2 mask allocates once (the
//!   `Vec` it returns);
//! * on a full engine cache, a batch of 16 distinct masks that all miss
//!   allocates at most 2 per mask plus what a warm one-mask call costs.
//!
//! The counting allocator is process-wide, so this binary holds exactly
//! one test.

use o4a_core::cache::DECOMP_CACHE_CAP;
use o4a_core::combination::{search_optimal_combinations, SearchStrategy};
use o4a_core::server::{PredictionStore, QueryBackend, RegionServer};
use o4a_grid::decompose::decompose;
use o4a_grid::{Hierarchy, Mask};
use o4a_obs::CountingAlloc;
use std::sync::Arc;

#[global_allocator]
static A: CountingAlloc = CountingAlloc::new();

const SIDE: usize = 128;
const BATCH: usize = 16;

/// Allocation events of one call of `f`.
fn allocations(f: impl FnOnce()) -> usize {
    let before = A.allocations();
    f();
    A.allocations() - before
}

/// `n` distinct masks, each a rectangle with a second one cut out of it,
/// so each decomposes into groups on several layers.
fn masks(n: usize) -> Vec<Mask> {
    let mut out = Vec::with_capacity(n);
    'fill: for size in [(61, 77), (45, 93), (83, 51)] {
        for r0 in 1..SIDE - size.0 {
            for c0 in 1..SIDE - size.1 {
                let mut m = Mask::rect(SIDE, SIDE, r0, c0, r0 + size.0, c0 + size.1);
                m.subtract(&Mask::rect(SIDE, SIDE, r0 + 5, c0 + 9, r0 + 22, c0 + 14));
                out.push(m);
                if out.len() == n {
                    break 'fill;
                }
            }
        }
    }
    assert_eq!(out.len(), n, "not enough distinct masks");
    out
}

#[test]
fn a_miss_allocates_the_key_and_one_slice() {
    let hier = Hierarchy::new(SIDE, SIDE, 2, 6).unwrap();
    // one sample per layer: the index's search is beside the point here
    let frames: Vec<Vec<f32>> = (0..hier.num_layers())
        .map(|l| {
            (0..hier.layer_len(l))
                .map(|i| ((i * 7 + l * 3) % 11) as f32)
                .collect()
        })
        .collect();
    let preds: Vec<Vec<Vec<f32>>> = frames.iter().map(|f| vec![f.clone()]).collect();
    let index = search_optimal_combinations(&hier, &preds, &preds, SearchStrategy::Union);
    let store = Arc::new(PredictionStore::for_hierarchy(&hier));
    store.publish_checked(frames).unwrap();
    let engine = RegionServer::new(index, store);

    // a cyclic scan over more masks than the cache holds misses on every
    // mask; the first pass fills the cache and grows every buffer
    let pool = masks(DECOMP_CACHE_CAP + 8 * BATCH);
    let groups: usize = pool[..64].iter().map(|m| decompose(&hier, m).len()).sum();
    assert!(
        groups > 5 * 64,
        "masks decompose into {groups} groups per 64"
    );

    let mask = &pool[0];
    let n = allocations(|| drop(decompose(&hier, mask)));
    assert_eq!(n, 1, "a warm decompose allocated {n} times");

    for chunk in pool.chunks(BATCH) {
        engine.query_many_timed(chunk);
    }
    let (_, _, evictions) = engine.plan_cache_stats();
    assert!(evictions > 0, "the cache never filled");
    // a warm one-mask call that hits: the per-call buffers alone
    let last = std::slice::from_ref(pool.last().unwrap());
    let per_call = allocations(|| drop(engine.query_many_timed(last)));

    let mut total = 0;
    for (i, batch) in pool.chunks(BATCH).take(8).enumerate() {
        let (hits, misses, _) = engine.plan_cache_stats();
        let n = allocations(|| drop(engine.query_many_timed(batch)));
        let after = engine.plan_cache_stats();
        assert_eq!(
            (after.0 - hits, after.1 - misses),
            (0, BATCH as u64),
            "batch {i} did not miss on every mask"
        );
        assert!(
            n <= 2 * BATCH + per_call,
            "batch {i}: {BATCH} misses allocated {n} times; a one-mask hit {per_call}"
        );
        total += n;
    }
    println!(
        "{:.3} allocations per missed mask, {per_call} per call",
        total as f64 / (8 * BATCH) as f64
    );
}
