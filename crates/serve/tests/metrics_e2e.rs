//! End-to-end observability test: a real server on an ephemeral port,
//! scraped through the `METRICS` verb, with the exposition validated
//! structurally and the query-stage histogram sums reconciled exactly
//! against the end-to-end `QueryTiming` totals from `STATS`.
//!
//! This file contains exactly ONE `#[test]`: the metrics registry is
//! process-global, and a concurrent test issuing queries would break the
//! exact span-sum reconciliation.

use o4a_core::combination::{search_optimal_combinations, SearchStrategy};
use o4a_core::one4all::truth_pyramid;
use o4a_core::server::{PredictionStore, QueryBackend, RegionServer};
use o4a_data::synthetic::DatasetKind;
use o4a_grid::queries::{task_queries, TaskSpec};
use o4a_grid::{Hierarchy, Mask};
use o4a_serve::{serve, Client, ClientConfig, ServeConfig, ShardRouter};
use o4a_tensor::{conv2d, Tensor};
use std::collections::HashMap;
use std::sync::Arc;

const SIDE: usize = 16;

fn region_fixture() -> Arc<RegionServer> {
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
    let mut rng = o4a_tensor::SeededRng::new(31);
    let mut masks = Vec::new();
    for spec in TaskSpec::standard_tasks(150.0) {
        masks.extend(task_queries(SIDE, SIDE, spec, false, &mut rng));
    }
    masks.truncate(48);
    masks
}

/// Minimal Prometheus text-exposition parser/validator. Returns
/// `name -> value` for every sample line; panics on any structural
/// violation (sample without HELP/TYPE, non-numeric value, histogram
/// whose cumulative buckets decrease or whose `+Inf` bucket disagrees
/// with `_count`).
fn validate_exposition(text: &str) -> HashMap<String, f64> {
    let mut typed: HashMap<String, String> = HashMap::new();
    let mut helped: HashMap<String, ()> = HashMap::new();
    let mut samples: HashMap<String, f64> = HashMap::new();
    let mut last_bucket: HashMap<String, f64> = HashMap::new();

    for line in text.lines() {
        assert!(!line.is_empty(), "blank line in exposition");
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().expect("HELP name");
            helped.insert(name.to_string(), ());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("TYPE name").to_string();
            let kind = it.next().expect("TYPE kind").to_string();
            assert!(
                matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
                "unknown TYPE {kind} for {name}"
            );
            assert!(helped.contains_key(&name), "TYPE before HELP for {name}");
            typed.insert(name, kind);
            continue;
        }
        // sample line: `name value` or `name_bucket{le="..."} value`
        let (key, value) = line.split_once(' ').expect("sample line has a value");
        let value: f64 = value.parse().unwrap_or_else(|_| {
            panic!("non-numeric sample value in line {line:?}");
        });
        let bare = key.split('{').next().unwrap().to_string();
        let family = bare
            .strip_suffix("_bucket")
            .or_else(|| bare.strip_suffix("_sum"))
            .or_else(|| bare.strip_suffix("_count"))
            .filter(|f| typed.get(*f).map(String::as_str) == Some("histogram"))
            .unwrap_or(&bare)
            .to_string();
        assert!(
            typed.contains_key(&family),
            "sample {key} has no TYPE header"
        );
        if bare.ends_with("_bucket") && typed.get(&family).map(String::as_str) == Some("histogram")
        {
            let prev = last_bucket.entry(family.clone()).or_insert(0.0);
            assert!(
                value >= *prev,
                "histogram {family} buckets are not cumulative"
            );
            *prev = value;
            if key.contains("le=\"+Inf\"") {
                samples.insert(format!("{family}_inf"), value);
            }
            continue;
        }
        samples.insert(key.to_string(), value);
    }
    // every histogram's +Inf bucket must equal its _count
    for (name, kind) in &typed {
        if kind == "histogram" {
            let inf = samples[&format!("{name}_inf")];
            let count = samples[&format!("{name}_count")];
            assert_eq!(inf, count, "histogram {name} +Inf bucket != count");
        }
    }
    samples
}

#[test]
fn metrics_scrape_is_complete_and_reconciles_with_stats() {
    // Metrics must populate even with logging effectively off.
    o4a_obs::set_max_level(o4a_obs::Level::Error);

    let region = region_fixture();
    let handle = serve(
        Arc::clone(&region) as Arc<dyn QueryBackend>,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr(), ClientConfig::default()).unwrap();

    // Exercise every path that feeds the registry: health, batch + single
    // queries (stage histograms, decomp cache), and a tiny gemm + conv in
    // this process (kernel histograms).
    let health = client.health().unwrap();
    assert!(health.ready);
    assert!(health.started_unix > 0, "server must report its start time");

    let masks = query_masks();
    let (values, _) = client.query_batch(&masks).unwrap();
    assert_eq!(values.len(), masks.len());
    for mask in &masks[..8] {
        client.query(mask).unwrap();
    }

    let a = Tensor::from_vec(vec![1.0; 6], &[2, 3]).unwrap();
    let b = Tensor::from_vec(vec![2.0; 12], &[3, 4]).unwrap();
    let _ = a.matmul(&b).unwrap();
    let img = Tensor::from_vec(vec![0.5; 16], &[1, 1, 4, 4]).unwrap();
    let w = Tensor::from_vec(vec![1.0; 9], &[1, 1, 3, 3]).unwrap();
    let bias = Tensor::from_vec(vec![0.0], &[1]).unwrap();
    let _ = conv2d(&img, &w, &bias, 1, 1).unwrap();

    // Scrape and validate. No further queries happen after this point
    // until the STATS comparison below, so totals are stable.
    let text = client.metrics().unwrap();
    let samples = validate_exposition(&text);

    for required in [
        "o4a_serve_requests_total",
        "o4a_serve_busy_total",
        "o4a_serve_protocol_errors_total",
        "o4a_serve_connections_total",
        "o4a_query_decompose_ns_count",
        "o4a_query_aggregate_ns_count",
        "o4a_kernel_gemm_ns_count",
        "o4a_kernel_conv2d_ns_count",
        "o4a_serve_request_ns_count",
    ] {
        assert!(
            samples.contains_key(required),
            "exposition is missing {required}; got:\n{text}"
        );
    }

    // 1 batch of 48 + 8 singles = 56 stage samples, one per mask.
    let stage_samples = samples["o4a_query_decompose_ns_count"] as u64;
    assert_eq!(stage_samples, masks.len() as u64 + 8);
    // health + batch + 8 singles + the METRICS request itself = 11+
    assert!(samples["o4a_serve_requests_total"] as u64 >= 11);
    assert!(samples["o4a_kernel_gemm_ns_count"] as u64 >= 1);
    assert!(samples["o4a_kernel_conv2d_ns_count"] as u64 >= 1);

    // Span sums must reconcile exactly with the end-to-end QueryTiming
    // totals STATS reports: both sides accumulate the identical per-mask
    // nanosecond measurements, and `index` = aggregate (the index lookups
    // run inside the aggregate walk).
    let stats = client.stats().unwrap();
    let decompose_sum = samples["o4a_query_decompose_ns_sum"] as u64;
    let aggregate_sum = samples["o4a_query_aggregate_ns_sum"] as u64;
    assert_eq!(
        stats.decompose_ns, decompose_sum,
        "decompose stage histogram sum diverged from STATS total"
    );
    assert_eq!(
        stats.index_ns, aggregate_sum,
        "aggregate stage sum diverged from STATS index total"
    );
    handle.shutdown();

    // Cache counters travel both roads too: STATS (per-router atomics)
    // and the registry (global counters). A shard router reports its own
    // memo under o4a_decomp_cache_*; one router exists here, so they must
    // agree.
    let router = ShardRouter::new(vec![region as Arc<dyn QueryBackend>]);
    let handle = serve(
        Arc::new(router),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr(), ClientConfig::default()).unwrap();
    client.query_batch(&masks).unwrap();
    for mask in &masks[..8] {
        client.query(mask).unwrap();
    }
    let samples = validate_exposition(&client.metrics().unwrap());
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.decomp_cache_hits,
        samples["o4a_decomp_cache_hits_total"] as u64
    );
    assert_eq!(
        stats.decomp_cache_misses,
        samples["o4a_decomp_cache_misses_total"] as u64
    );

    handle.shutdown();
}
