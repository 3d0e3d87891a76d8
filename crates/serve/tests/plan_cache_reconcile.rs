//! An engine's mask → decomposition cache counters surface twice — as
//! the STATS plan-cache fields (the engine's own atomics) and as the
//! Prometheus families `o4a_plan_cache_{hits,misses,evictions}_total`
//! (process-global registry, fed by query engines only) — and both sides
//! are incremented in lockstep, so a METRICS scrape of an unsharded
//! engine must reconcile exactly with the STATS payload.
//!
//! This file deliberately contains exactly ONE `#[test]`: the counters
//! live in the process-global registry, so the backend under test must be
//! the only query backend in the process.

use o4a_core::combination::{search_optimal_combinations, SearchStrategy};
use o4a_core::one4all::truth_pyramid;
use o4a_core::server::{PredictionStore, QueryBackend, RegionServer};
use o4a_data::synthetic::DatasetKind;
use o4a_grid::queries::{task_queries, TaskSpec};
use o4a_grid::{Hierarchy, Mask};
use o4a_serve::{serve, Client, ClientConfig, ServeConfig};
use std::sync::Arc;

const SIDE: usize = 16;

fn fixture() -> Arc<RegionServer> {
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
    Arc::new(RegionServer::new(index, store))
}

fn query_masks() -> Vec<Mask> {
    let mut rng = o4a_tensor::SeededRng::new(91);
    let mut masks = Vec::new();
    for spec in TaskSpec::standard_tasks(150.0) {
        masks.extend(task_queries(SIDE, SIDE, spec, false, &mut rng));
    }
    masks.truncate(24);
    masks
}

/// Value of an unlabeled sample line `name value` in text exposition.
fn sample(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(name)?;
            rest.strip_prefix(' ')?.trim().parse::<f64>().ok()
        })
        .unwrap_or_else(|| panic!("no sample for {name} in:\n{exposition}")) as u64
}

#[test]
fn plan_cache_counters_reconcile_between_stats_and_metrics() {
    let handle = serve(
        fixture() as Arc<dyn QueryBackend>,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr(), ClientConfig::default()).unwrap();
    // two passes over a bounded mask set: the second pass must hit the
    // engine's cache
    let masks = query_masks();
    for _ in 0..2 {
        for mask in &masks {
            client.query(mask).unwrap();
        }
    }
    let stats = client.stats().unwrap();
    let exposition = client.metrics().unwrap();
    handle.shutdown();

    // the STATS plan-cache fields carry the engine's cache counters
    assert!(
        stats.plan_cache_misses > 0,
        "first pass must have decomposed masks"
    );
    assert!(
        stats.plan_cache_hits > 0,
        "second pass over the same masks must hit the cache"
    );
    assert!(stats.compiled_terms > 0, "queries must have read terms");

    // and they must equal the process-global Prometheus counters exactly
    assert_eq!(
        sample(&exposition, "o4a_plan_cache_hits_total"),
        stats.plan_cache_hits,
        "METRICS hits diverged from STATS"
    );
    assert_eq!(
        sample(&exposition, "o4a_plan_cache_misses_total"),
        stats.plan_cache_misses,
        "METRICS misses diverged from STATS"
    );
    assert_eq!(
        sample(&exposition, "o4a_plan_cache_evictions_total"),
        stats.plan_cache_evictions,
        "METRICS evictions diverged from STATS"
    );
}
