//! Bring-your-own-data: from raw trip records (CSV with pick-up time and
//! coordinates — the format both of the paper's datasets start as) to a
//! served One4All-ST model.
//!
//! Run with: `cargo run --release --example custom_data`

use one4all_st::core::combination::SearchStrategy;
use one4all_st::core::one4all::One4AllSt;
use one4all_st::core::server::{PredictionStore, RegionServer};
use one4all_st::data::features::{chronological_split, TemporalConfig};
use one4all_st::data::ingest::{parse_csv_records, FlowBuilder, GeoBounds};
use one4all_st::grid::{Hierarchy, Mask};
use one4all_st::models::multiscale::PyramidPredictor;
use one4all_st::models::predictor::TrainConfig;
use one4all_st::tensor::SeededRng;
use std::fmt::Write as _;
use std::sync::Arc;

/// Synthesizes a CSV of trip records (in a real deployment this comes from
/// the operator's trip log — e.g. the NYC TLC export).
fn synthesize_csv(days: usize, seed: u64) -> String {
    let mut rng = SeededRng::new(seed);
    let mut csv = String::from("timestamp_s,lat,lng\n");
    for day in 0..days {
        for hour in 0..24 {
            // demand peaks at 8h and 18h around two hotspots
            let intensity = match hour {
                7..=9 => 240,
                17..=19 => 320,
                _ => 60,
            };
            for _ in 0..intensity {
                let (lat0, lng0) = if rng.bernoulli(0.5) {
                    (40.75, -73.98) // "midtown"
                } else {
                    (40.70, -74.01) // "downtown"
                };
                let ts = (day * 24 + hour) * 3600 + rng.index(3600);
                writeln!(
                    csv,
                    "{},{:.5},{:.5}",
                    ts,
                    lat0 + rng.normal_scaled(0.0, 0.03) as f64,
                    lng0 + rng.normal_scaled(0.0, 0.03) as f64
                )
                .expect("writing to string cannot fail");
            }
        }
    }
    csv
}

fn main() {
    // 1. ingest: CSV -> rasterized citywide flow
    let days = 14usize;
    let csv = synthesize_csv(days, 11);
    let records = parse_csv_records(&csv).expect("well-formed CSV");
    let bounds = GeoBounds {
        lat_min: 40.60,
        lat_max: 40.85,
        lng_min: -74.10,
        lng_max: -73.85,
    };
    let (h, w) = (16usize, 16usize);
    let mut builder = FlowBuilder::new(bounds, h, w, days * 24, 3600);
    builder.extend(records);
    let (flow, report) = builder.finish();
    println!(
        "ingested {} records ({} outside the area, {} outside the time range)",
        report.accepted, report.out_of_area, report.out_of_time
    );
    println!("mean flow per cell-hour: {:.2}", flow.mean());

    // 2. offline phase: train + search, as in the quickstart
    let hier = Hierarchy::new(h, w, 2, 5).expect("divisible raster");
    let temporal = TemporalConfig::compact();
    let split = chronological_split(&flow, &temporal);
    let mut rng = SeededRng::new(5);
    let mut model = One4AllSt::standard(
        &mut rng,
        hier,
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

    // 3. online phase: answer a "downtown" region query
    let t = split.test[0];
    let frames: Vec<Vec<f32>> = model
        .predict_pyramid(&flow, &temporal, &[t])
        .into_iter()
        .map(|mut v| v.remove(0))
        .collect();
    let store = Arc::new(PredictionStore::for_hierarchy(&index.hier));
    store.publish(frames);
    let server = RegionServer::new(index, store);
    let downtown = Mask::rect(h, w, 8, 4, 14, 10);
    let pred = server.query(&downtown);
    let truth = flow.region_flow(t, &downtown);
    println!("downtown demand at slot {t}: predicted {pred:.1}, actual {truth:.1}");
}
