//! Sharded serving over real sockets: a K=2 [`ShardRouter`] behind the
//! epoll data plane must answer bit-identically to the unsharded server,
//! surface per-shard load counters through STATS, and produce zero
//! protocol errors on a clean run.

use o4a_core::combination::{search_optimal_combinations, SearchStrategy};
use o4a_core::one4all::truth_pyramid;
use o4a_core::server::{PredictionStore, QueryBackend, RegionServer};
use o4a_data::synthetic::DatasetKind;
use o4a_grid::decompose::decompose;
use o4a_grid::queries::{task_queries, TaskSpec};
use o4a_grid::{Hierarchy, Mask};
use o4a_serve::{serve, Client, ClientConfig, ServeConfig, ServerHandle, ShardRouter};
use std::sync::Arc;

const SIDE: usize = 16;

fn fixture(k: usize) -> (Hierarchy, Arc<RegionServer>, Arc<ShardRouter>) {
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
    let shards: Vec<Arc<dyn QueryBackend>> = (0..k)
        .map(|_| Arc::new(RegionServer::new(index.clone(), store.clone())) as Arc<dyn QueryBackend>)
        .collect();
    (hier, single, Arc::new(ShardRouter::new(shards)))
}

fn start(router: Arc<ShardRouter>) -> ServerHandle {
    serve(
        router as Arc<dyn QueryBackend>,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .unwrap()
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

#[test]
fn sharded_answers_bit_match_unsharded_over_the_wire() {
    let (_, single, router) = fixture(2);
    let handle = start(router);
    let mut client = Client::connect(handle.addr(), ClientConfig::default()).unwrap();
    for mask in query_masks() {
        let (remote, _) = client.query(&mask).unwrap();
        let local = single.query(&mask);
        assert_eq!(
            remote.to_bits(),
            local.to_bits(),
            "K=2 wire answer differs from the unsharded backend"
        );
    }
    // batch path too: one frame, one coalesced execution
    let masks = query_masks();
    let (remote, timing) = client.query_batch(&masks).unwrap();
    for (mask, value) in masks.iter().zip(&remote) {
        assert_eq!(value.to_bits(), single.query(mask).to_bits());
    }
    assert!(timing.decompose_ns + timing.index_ns > 0);

    let stats = client.stats().unwrap();
    assert_eq!(stats.protocol_errors, 0, "clean run must stay clean");
    assert_eq!(stats.busy_rejections, 0);
    handle.shutdown();
}

#[test]
fn stats_surface_per_shard_loads_and_stage_sums() {
    let (hier, _, router) = fixture(2);
    let handle = start(router);
    let mut client = Client::connect(handle.addr(), ClientConfig::default()).unwrap();
    let masks = query_masks();
    let total_groups: u64 = masks.iter().map(|m| decompose(&hier, m).len() as u64).sum();
    for mask in &masks {
        client.query(mask).unwrap();
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.masks_served, masks.len() as u64);
    // the router decomposes every mask exactly once through its memo
    assert_eq!(
        stats.decomp_cache_hits + stats.decomp_cache_misses,
        stats.masks_served
    );
    // STATS per-shard group counters: every group accounted
    // to exactly one shard, visibly spread across both
    assert_eq!(stats.shard_loads.len(), 2);
    assert_eq!(stats.shard_loads.iter().sum::<u64>(), total_groups);
    assert!(
        stats.shard_loads.iter().all(|&l| l > 0),
        "48 masks must touch both shards: {:?}",
        stats.shard_loads
    );
    // timed-path stage accounting survives the scatter: both stages
    // accumulated (decompose at the router, index summed over shards)
    assert!(stats.decompose_ns > 0);
    assert!(stats.index_ns > 0);
    assert_eq!(stats.protocol_errors, 0);
    handle.shutdown();
}

#[test]
fn unsharded_stats_report_empty_shard_loads() {
    let (_, single, _) = fixture(1);
    let handle = serve(
        single as Arc<dyn QueryBackend>,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr(), ClientConfig::default()).unwrap();
    client.query(&Mask::rect(SIDE, SIDE, 1, 1, 7, 7)).unwrap();
    let stats = client.stats().unwrap();
    assert!(
        stats.shard_loads.is_empty(),
        "a plain RegionServer backend is unsharded"
    );
    handle.shutdown();
}
