//! The per-shard routed-group counters surface twice — as the STATS
//! `shard_loads` (per-router atomics) and as the labeled
//! Prometheus family `o4a_shard_routed_total{shard="i"}` (global
//! registry) — and they are incremented in lockstep, so a METRICS
//! scrape must reconcile exactly with the STATS payload.
//!
//! This file deliberately contains exactly ONE `#[test]`: the labeled
//! counters live in the process-global registry, so the router under
//! test must be the only router in the process.

use o4a_core::combination::{search_optimal_combinations, SearchStrategy};
use o4a_core::one4all::truth_pyramid;
use o4a_core::server::{PredictionStore, QueryBackend, RegionServer};
use o4a_data::synthetic::DatasetKind;
use o4a_grid::queries::{task_queries, TaskSpec};
use o4a_grid::{Hierarchy, Mask};
use o4a_serve::{serve, Client, ClientConfig, ServeConfig, ShardRouter};
use std::sync::Arc;

const SIDE: usize = 16;

fn fixture(k: usize) -> Arc<ShardRouter> {
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
    let shards: Vec<Arc<dyn QueryBackend>> = (0..k)
        .map(|_| Arc::new(RegionServer::new(index.clone(), store.clone())) as Arc<dyn QueryBackend>)
        .collect();
    Arc::new(ShardRouter::new(shards))
}

fn query_masks() -> Vec<Mask> {
    let mut rng = o4a_tensor::SeededRng::new(73);
    let mut masks = Vec::new();
    for spec in TaskSpec::standard_tasks(150.0) {
        masks.extend(task_queries(SIDE, SIDE, spec, false, &mut rng));
    }
    masks.truncate(48);
    masks
}

/// Extracts `o4a_shard_routed_total{shard="i"}` samples from Prometheus
/// text exposition as `(shard, value)` pairs.
fn routed_samples(exposition: &str) -> Vec<(usize, u64)> {
    exposition
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("o4a_shard_routed_total{shard=\"")?;
            let (shard, rest) = rest.split_once('"')?;
            let value = rest.strip_prefix("} ")?;
            Some((shard.parse().ok()?, value.parse().ok()?))
        })
        .collect()
}

#[test]
fn labeled_metrics_reconcile_with_stats_shard_loads() {
    let handle = serve(
        fixture(2) as Arc<dyn QueryBackend>,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr(), ClientConfig::default()).unwrap();
    for mask in &query_masks() {
        client.query(mask).unwrap();
    }
    let stats = client.stats().unwrap();
    let exposition = client.metrics().unwrap();
    handle.shutdown();

    assert_eq!(stats.shard_loads.len(), 2);
    assert!(stats.shard_loads.iter().all(|&l| l > 0));

    let mut samples = routed_samples(&exposition);
    samples.sort_unstable();
    assert_eq!(
        samples.len(),
        2,
        "one labeled sample per shard, got:\n{exposition}"
    );
    for (shard, value) in samples {
        assert_eq!(
            value, stats.shard_loads[shard],
            "METRICS shard {shard} diverged from STATS shard_loads"
        );
    }
    // help/type header is emitted once for the family
    assert_eq!(
        exposition
            .lines()
            .filter(|l| l.starts_with("# TYPE o4a_shard_routed_total"))
            .count(),
        1
    );
}
