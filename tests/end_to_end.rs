//! End-to-end integration test: synthetic city → trained One4All-ST →
//! optimal-combination index → online region server, with accuracy and
//! consistency assertions across the whole pipeline.

use one4all_st::core::combination::SearchStrategy;
use one4all_st::core::one4all::One4AllSt;
use one4all_st::core::server::{PredictionStore, RegionServer};
use one4all_st::data::features::{chronological_split, TemporalConfig};
use one4all_st::data::metrics::MetricAccumulator;
use one4all_st::data::synthetic::DatasetKind;
use one4all_st::grid::queries::{road_segment_queries, tract_queries};
use one4all_st::grid::{Hierarchy, Mask};
use one4all_st::models::hm::HistoryMean;
use one4all_st::models::multiscale::PyramidPredictor;
use one4all_st::models::predictor::{Predictor, TrainConfig};
use one4all_st::tensor::SeededRng;
use std::sync::Arc;

struct Pipeline {
    flow: one4all_st::data::flow::FlowSeries,
    temporal: TemporalConfig,
    server: RegionServer,
    test_slot: usize,
    /// Per-layer predicted frames at `test_slot`.
    frames: Vec<Vec<f32>>,
    /// Per-layer total predictions (for cross-scale consistency checks).
    layer_totals: Vec<f32>,
}

/// Training is the expensive part; build the pipeline once and share it
/// across the tests in this file.
fn pipeline() -> &'static Pipeline {
    use std::sync::OnceLock;
    static PIPELINE: OnceLock<Pipeline> = OnceLock::new();
    PIPELINE.get_or_init(build_pipeline)
}

fn build_pipeline() -> Pipeline {
    let (h, w) = (16usize, 16usize);
    let hier = Hierarchy::new(h, w, 2, 5).expect("divisible raster");
    let flow = DatasetKind::TaxiNycLike
        .config(h, w, 24 * 12, 77)
        .generate();
    let temporal = TemporalConfig::compact();
    let split = chronological_split(&flow, &temporal);
    let mut rng = SeededRng::new(1);
    let mut model = One4AllSt::standard(
        &mut rng,
        hier.clone(),
        &temporal,
        TrainConfig {
            epochs: 12,
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
    let test_slot = split.test[split.test.len() / 2];
    let frames: Vec<Vec<f32>> = model
        .predict_pyramid(&flow, &temporal, &[test_slot])
        .into_iter()
        .map(|mut v| v.remove(0))
        .collect();
    let layer_totals: Vec<f32> = frames.iter().map(|f| f.iter().sum()).collect();
    let store = Arc::new(PredictionStore::for_hierarchy(&index.hier));
    store.publish(frames.clone());
    Pipeline {
        flow,
        temporal,
        server: RegionServer::new(index, store),
        test_slot,
        frames,
        layer_totals,
    }
}

#[test]
fn pipeline_answers_queries_accurately() {
    let p = pipeline();
    let mut qrng = SeededRng::new(5);
    let queries = road_segment_queries(16, 16, 30.0, &mut qrng);
    let mut acc = MetricAccumulator::new();
    for q in &queries {
        acc.push(p.server.query(q), p.flow.region_flow(p.test_slot, q));
    }
    let truth_mean: f64 = queries
        .iter()
        .map(|q| p.flow.region_flow(p.test_slot, q) as f64)
        .sum::<f64>()
        / queries.len() as f64;
    let rmse = acc.rmse();
    assert!(
        rmse < 0.5 * truth_mean,
        "query RMSE {rmse} too high (truth mean {truth_mean})"
    );
}

#[test]
fn pipeline_beats_history_mean_on_queries() {
    let p = pipeline();
    let split = chronological_split(&p.flow, &p.temporal);
    let mut hm = HistoryMean::paper();
    hm.fit(&p.flow, &p.temporal, &split.train);
    let hm_frame = hm.predict(&p.flow, &p.temporal, &[p.test_slot]).remove(0);

    let mut qrng = SeededRng::new(6);
    let queries = tract_queries(16, 16, 14, &mut qrng);
    let (mut ours, mut theirs) = (MetricAccumulator::new(), MetricAccumulator::new());
    for q in &queries {
        let truth = p.flow.region_flow(p.test_slot, q);
        ours.push(p.server.query(q), truth);
        let hm_pred: f32 = q.iter_set().map(|(r, c)| hm_frame[r * 16 + c]).sum();
        theirs.push(hm_pred, truth);
    }
    assert!(
        ours.rmse() < 1.3 * theirs.rmse(),
        "One4All-ST ({}) should be competitive with HM ({}) on tract queries",
        ours.rmse(),
        theirs.rmse()
    );
}

#[test]
fn citywide_query_consistent_with_partition_sum() {
    // the MAUP-consistency property: one model, one snapshot => a region's
    // prediction cannot drift far from the sum of a partition of it
    let p = pipeline();
    let city = Mask::full(16, 16);
    let city_pred = p.server.query(&city);
    let mut qrng = SeededRng::new(7);
    let parts = road_segment_queries(16, 16, 20.0, &mut qrng);
    let total_area: usize = parts.iter().map(Mask::area).sum();
    assert_eq!(total_area, 256, "parts must partition the city");
    let part_sum: f32 = parts.iter().map(|q| p.server.query(q)).sum();
    let rel = (city_pred - part_sum).abs() / city_pred.max(1.0);
    assert!(
        rel < 0.15,
        "citywide {city_pred} vs partition sum {part_sum} (rel {rel})"
    );
}

#[test]
fn pyramid_predictions_are_internally_consistent() {
    // coarse-scale predictions should track the aggregate of fine ones
    // (they share a backbone), within the tolerance of separate heads
    let p = pipeline();
    let fine_total = p.layer_totals[0];
    let coarse_total = *p.layer_totals.last().expect("layers");
    let rel = (fine_total - coarse_total).abs() / fine_total.max(1.0);
    assert!(
        rel < 0.5,
        "scale totals diverge: fine {fine_total} vs coarse {coarse_total}"
    );
}

#[test]
fn server_roundtrips_through_codec() {
    use one4all_st::core::codec::{decode_index, encode_index};
    let p = pipeline();
    let bytes = encode_index(p.server.index());
    let decoded = decode_index(&bytes).expect("codec roundtrip");
    // the decoded index answers queries identically
    let frames = &p.frames;
    let mut qrng = SeededRng::new(8);
    for q in tract_queries(16, 16, 10, &mut qrng) {
        let a = one4all_st::core::server::predict_query(
            &p.server.index().hier,
            p.server.index(),
            frames,
            &q,
        );
        let b = one4all_st::core::server::predict_query(&decoded.hier, &decoded, frames, &q);
        assert!((a - b).abs() < 1e-5, "decoded index diverges: {a} vs {b}");
    }
}
