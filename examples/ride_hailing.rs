//! Ride-hailing scenario (the paper's Fig. 1 motivation): one platform
//! needs demand prediction on ~1 km² supply-demand zones *and* taxi-flow
//! control on ~0.25 km² blocks — two region specifications, classically two
//! ad-hoc models with conflicting outputs. One4All-ST serves both from a
//! single model, and because every answer aggregates the same multi-scale
//! snapshot, the outputs are *consistent by construction*: a zone's
//! prediction equals the sum of its blocks' predictions whenever the
//! combinations resolve to the same grids.
//!
//! Run with: `cargo run --release --example ride_hailing`

use one4all_st::core::combination::SearchStrategy;
use one4all_st::core::one4all::One4AllSt;
use one4all_st::core::server::{PredictionStore, RegionServer};
use one4all_st::data::features::{chronological_split, TemporalConfig};
use one4all_st::data::synthetic::DatasetKind;
use one4all_st::grid::queries::road_segment_queries;
use one4all_st::grid::{Hierarchy, Mask};
use one4all_st::models::multiscale::PyramidPredictor;
use one4all_st::models::predictor::TrainConfig;
use one4all_st::tensor::SeededRng;
use std::sync::Arc;

fn main() {
    let (h, w) = (16usize, 16usize);
    let hier = Hierarchy::new(h, w, 2, 5).expect("divisible raster");
    let flow = DatasetKind::TaxiNycLike
        .config(h, w, 24 * 14, 11)
        .generate();
    let temporal = TemporalConfig::compact();
    let split = chronological_split(&flow, &temporal);

    let mut rng = SeededRng::new(3);
    let mut model = One4AllSt::standard(
        &mut rng,
        hier.clone(),
        &temporal,
        TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        },
    );
    model.fit(&flow, &temporal, &split.train);
    let index = model.build_index(
        &flow,
        &temporal,
        &split.val,
        SearchStrategy::UnionSubtraction,
    );

    let t = split.test[0];
    let frames: Vec<Vec<f32>> = model
        .predict_pyramid(&flow, &temporal, &[t])
        .into_iter()
        .map(|mut per_t| per_t.remove(0))
        .collect();
    let store = Arc::new(PredictionStore::for_hierarchy(&index.hier));
    store.publish(frames);
    let server = RegionServer::new(index, store);

    // service A: supply-demand zones (~1 km² = ~44 atomic cells of 150 m)
    let mut qrng = SeededRng::new(9);
    let zones = road_segment_queries(h, w, 44.0, &mut qrng);
    // service B: flow-control blocks (~0.25 km² = ~11 cells)
    let blocks = road_segment_queries(h, w, 11.0, &mut qrng);

    println!(
        "service A (supply-demand, ~1 km² zones): {} queries",
        zones.len()
    );
    for (i, zone) in zones.iter().take(4).enumerate() {
        let pred = server.query(zone);
        let truth = flow.region_flow(t, zone);
        println!("  zone {i}: predicted {pred:7.1}  actual {truth:7.1}");
    }
    println!(
        "service B (flow control, ~0.25 km² blocks): {} queries",
        blocks.len()
    );
    for (i, block) in blocks.iter().take(4).enumerate() {
        let pred = server.query(block);
        let truth = flow.region_flow(t, block);
        println!("  block {i}: predicted {pred:7.1}  actual {truth:7.1}");
    }

    // consistency check: the citywide total answered as ONE query vs as the
    // sum of the fine blocks — one model, one snapshot, no MAUP conflict
    let city = Mask::full(h, w);
    let city_pred = server.query(&city);
    let block_sum: f32 = blocks.iter().map(|b| server.query(b)).sum();
    println!(
        "\nconsistency: citywide query {city_pred:.1} vs sum over all blocks {block_sum:.1} \
         (rel diff {:.2}%)",
        100.0 * (city_pred - block_sum).abs() / city_pred.max(1.0)
    );
    println!(
        "with ad-hoc per-scale models these two numbers routinely disagree — \
         the inconsistency One4All-ST was designed to remove."
    );
}
