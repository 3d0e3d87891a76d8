//! Online serving scenario (the paper's Sec. III workflow): a model-server
//! thread periodically refreshes the multi-scale prediction snapshot while
//! several region-decomposition servers answer location-based-service
//! queries concurrently — measuring the response-time distribution.
//!
//! Run with: `cargo run --release --example online_server`

use one4all_st::core::combination::{search_optimal_combinations, SearchStrategy};
use one4all_st::core::one4all::truth_pyramid;
use one4all_st::core::server::{PredictionStore, RegionServer};
use one4all_st::data::synthetic::DatasetKind;
use one4all_st::grid::queries::{task_queries, TaskSpec};
use one4all_st::grid::Hierarchy;
use one4all_st::tensor::SeededRng;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // the paper's full online scale: 128x128 grids, P = {1,...,32}
    let side = 128usize;
    let hier = Hierarchy::new(side, side, 2, 6).expect("divisible raster");
    let flow = DatasetKind::TaxiNycLike
        .config(side, side, 48, 1)
        .generate();
    let slots: Vec<usize> = (40..48).collect();
    let truths = truth_pyramid(&hier, &flow, &slots);
    let index =
        search_optimal_combinations(&hier, &truths, &truths, SearchStrategy::UnionSubtraction);
    println!(
        "offline phase done: {} indexed combinations over {} scales",
        index.tree.len(),
        hier.num_layers()
    );

    let store = Arc::new(PredictionStore::for_hierarchy(&index.hier));
    store.publish(truths.iter().map(|layer| layer[0].clone()).collect());
    let server = Arc::new(RegionServer::new(index, store.clone()));

    // workload: a mix of all four task scales
    let mut qrng = SeededRng::new(8);
    let mut masks = Vec::new();
    for spec in TaskSpec::standard_tasks(150.0) {
        masks.extend(task_queries(side, side, spec, false, &mut qrng));
    }
    println!(
        "workload: {} region queries across 4 task scales",
        masks.len()
    );

    // the model server refreshes the snapshot; 4 region servers answer
    let snapshots: Vec<Vec<Vec<f32>>> = slots
        .iter()
        .enumerate()
        .map(|(i, _)| truths.iter().map(|layer| layer[i].clone()).collect())
        .collect();
    let refresher = {
        let store = store.clone();
        std::thread::spawn(move || {
            for snap in snapshots {
                store.publish(snap);
                std::thread::sleep(Duration::from_millis(20));
            }
        })
    };
    let workers: Vec<_> = (0..4)
        .map(|wid| {
            let server = server.clone();
            let masks = masks.clone();
            std::thread::spawn(move || {
                let mut latencies: Vec<Duration> = Vec::with_capacity(masks.len());
                for mask in masks.iter().skip(wid).step_by(4) {
                    let (_, timing) = server.query_timed(mask);
                    latencies.push(timing.total());
                }
                latencies
            })
        })
        .collect();
    refresher.join().expect("refresher panicked");
    let mut latencies: Vec<Duration> = workers
        .into_iter()
        .flat_map(|wk| wk.join().expect("worker panicked"))
        .collect();
    latencies.sort();
    let pct = |p: f64| latencies[(latencies.len() as f64 * p) as usize];
    println!(
        "latency under concurrent refresh: p50 {:?}, p95 {:?}, p99 {:?}, max {:?}",
        pct(0.50),
        pct(0.95),
        pct(0.99),
        latencies[latencies.len() - 1]
    );
    println!("(the paper reports <2 ms averages and <20 ms maxima — Fig. 15)");
}
