//! End-to-end tracing over real sockets: with every query sampled, the
//! TRACE dump from a K=2 sharded server must render valid Chrome
//! trace-event JSON whose span tree covers both shards and whose
//! derived decompose/index stage durations sum **bit-exactly** to the
//! STATS counters (they are the same u64 nanosecond values, recorded
//! once into each sink).
//!
//! This file deliberately contains exactly ONE `#[test]`: the trace
//! rings and the sampling state are process-global, and a concurrently
//! running server in the same process would pollute the drained events.

use o4a_core::combination::{search_optimal_combinations, SearchStrategy};
use o4a_core::one4all::truth_pyramid;
use o4a_core::server::{PredictionStore, QueryBackend, RegionServer};
use o4a_data::synthetic::DatasetKind;
use o4a_grid::queries::{task_queries, TaskSpec};
use o4a_grid::{Hierarchy, Mask};
use o4a_obs::trace;
use o4a_serve::{serve, Client, ClientConfig, ServeConfig, ShardRouter};
use std::collections::{BTreeMap, BTreeSet};
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

#[test]
fn sampled_span_trees_reconcile_bit_exactly_with_stats() {
    trace::set_sample_every(1);
    let handle = serve(
        fixture(2) as Arc<dyn QueryBackend>,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr(), ClientConfig::default()).unwrap();
    // clear any residue (fixture construction does not query, but be
    // explicit: the reconcile below assumes the rings start empty)
    let _ = client.trace().unwrap();

    // Sequential single-mask queries: exactly one in flight at a time,
    // so every event-loop batch holds exactly one job and every query's
    // spans land in the dump.
    let masks = query_masks();
    for mask in &masks {
        client.query(mask).unwrap();
    }

    let stats = client.stats().unwrap();
    let json = client.trace().unwrap();
    handle.shutdown();

    let (events, dropped) =
        trace::parse_chrome_json(&json).expect("TRACE payload must be valid chrome trace JSON");
    assert_eq!(dropped, 0, "ring overflow would break the reconcile");
    assert!(!events.is_empty());

    let mut by_stage: BTreeMap<&str, (u64, u64)> = BTreeMap::new(); // name -> (count, sum dur_ns)
    let mut scatter_lanes: BTreeSet<u32> = BTreeSet::new();
    let mut roots: BTreeSet<u64> = BTreeSet::new();
    let mut traced: BTreeSet<u64> = BTreeSet::new();
    for e in &events {
        let entry = by_stage.entry(e.name.as_str()).or_default();
        entry.0 += 1;
        entry.1 += e.dur_ns;
        traced.insert(e.trace_id);
        match e.name.as_str() {
            "shard_scatter" => {
                scatter_lanes.insert(e.tid);
            }
            "request" => {
                assert!(e.parent.is_empty(), "request is the root span");
                roots.insert(e.trace_id);
            }
            _ => assert!(!e.parent.is_empty(), "stage {} must have a parent", e.name),
        }
    }

    // every query sampled → one full span tree per request
    let n = masks.len() as u64;
    for stage in [
        "assemble",
        "queue_wait",
        "exec_batch",
        "decompose",
        "index",
        "gather",
        "write_flush",
        "request",
    ] {
        assert_eq!(
            by_stage.get(stage).map(|s| s.0),
            Some(n),
            "expected one {stage} span per query"
        );
    }
    assert_eq!(roots, traced, "every trace id must have a request root");
    assert_eq!(
        scatter_lanes,
        BTreeSet::from([0u32, 1u32]),
        "48 masks must scatter to both shards"
    );

    // The tentpole contract: the derived stage events carry the *same*
    // u64 nanosecond values run_batch adds to the STATS counters, so the
    // sums match bit-exactly — not approximately.
    assert_eq!(by_stage["decompose"].1, stats.decompose_ns);
    assert_eq!(by_stage["index"].1, stats.index_ns);

    // per-shard work is measured for real (wall-clock spans), and the
    // shard leg's aggregate span rode the event loop's current-trace id
    // (a shard probes no cache, so it emits no lookup span)
    assert!(by_stage["shard_scatter"].1 > 0);
    assert!(by_stage.contains_key("aggregate") && !by_stage.contains_key("lookup"));
    assert_eq!(stats.protocol_errors, 0);

    trace::set_sample_every(0);
}
