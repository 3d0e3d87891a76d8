//! Quickstart: train One4All-ST on a synthetic city, build the optimal
//! combination index, and answer arbitrary region queries — the full
//! offline + online pipeline in one file.
//!
//! Run with: `cargo run --release --example quickstart`

use one4all_st::core::combination::SearchStrategy;
use one4all_st::core::one4all::One4AllSt;
use one4all_st::core::server::{PredictionStore, RegionServer};
use one4all_st::data::features::{chronological_split, TemporalConfig};
use one4all_st::data::synthetic::DatasetKind;
use one4all_st::grid::geometry::{Point, Polygon};
use one4all_st::grid::Hierarchy;
use one4all_st::models::multiscale::PyramidPredictor;
use one4all_st::models::predictor::TrainConfig;
use one4all_st::tensor::SeededRng;
use std::sync::Arc;

fn main() {
    // 1. A city: 16x16 atomic grids (150 m each), hierarchical structure
    //    P = {1, 2, 4, 8, 16}, and two weeks of hourly taxi-like demand.
    let (h, w) = (16usize, 16usize);
    let hier = Hierarchy::new(h, w, 2, 5).expect("divisible raster");
    let flow = DatasetKind::TaxiNycLike
        .config(h, w, 24 * 7 + 24 * 7, 42)
        .generate();
    let temporal = TemporalConfig::compact();
    let split = chronological_split(&flow, &temporal);
    println!(
        "city: {h}x{w} grids, scales {:?}, {} hourly slots ({} train targets)",
        hier.scales(),
        flow.len_t(),
        split.train.len()
    );

    // 2. Offline phase: train the single multi-scale model...
    let mut rng = SeededRng::new(7);
    let mut model = One4AllSt::standard(
        &mut rng,
        hier.clone(),
        &temporal,
        TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        },
    );
    let stats = model.fit(&flow, &temporal, &split.train);
    println!(
        "trained One4All-ST: {} params, {:.2}s/epoch, final loss {:.4}",
        stats.num_params, stats.sec_per_epoch, stats.final_loss
    );

    // ...and search the optimal combinations on the validation window.
    let index = model.build_index(
        &flow,
        &temporal,
        &split.val,
        SearchStrategy::UnionSubtraction,
    );
    println!(
        "index: {} combinations ({} composed grids, {} subtraction multi-grids)",
        index.tree.len(),
        index.report.composed_cells,
        index.report.subtraction_multis
    );

    // 3. Online phase: publish a prediction snapshot and answer queries.
    let t = split.test[0];
    let frames: Vec<Vec<f32>> = model
        .predict_pyramid(&flow, &temporal, &[t])
        .into_iter()
        .map(|mut per_t| per_t.remove(0))
        .collect();
    let store = Arc::new(PredictionStore::for_hierarchy(&index.hier));
    store.publish(frames);
    let server = RegionServer::new(index, store);

    // an arbitrary polygon region of interest (raster coordinates)
    let polygon = Polygon::new(vec![
        Point::new(2.0, 3.0),
        Point::new(11.0, 2.0),
        Point::new(13.0, 9.0),
        Point::new(6.0, 12.0),
    ]);
    let mask = polygon.rasterize(h, w);
    let (pred, timing) = server.query_timed(&mask);
    let truth = flow.region_flow(t, &mask);
    println!(
        "\nregion query ({} atomic cells): predicted {pred:.1}, actual {truth:.1}",
        mask.area()
    );
    println!(
        "response time: {:?} decompose + {:?} index = {:?} total",
        timing.decompose,
        timing.index,
        timing.total()
    );
}
