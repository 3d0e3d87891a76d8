//! Table III — region-query decomposition strategies: Direct vs Union vs
//! Union & Subtraction. Reports, per task:
//!
//! * RMSE over all queries for each strategy,
//! * Prop.% — the share of queries whose combination differs from Direct,
//! * Imprv.% — the RMSE improvement on exactly those differing queries.
//!
//! Usage: `cargo run -p o4a-bench --release --bin table3 [-- --quick]`

use o4a_bench::{build_index, ExpConfig, Experiment, MAPE_THRESHOLD};
use o4a_core::combination::{CombinationIndex, SearchStrategy};
use o4a_core::frames::FrameView;
use o4a_core::one4all::One4AllSt;
use o4a_core::server::{interpret, query_combination};
use o4a_data::metrics::MetricAccumulator;
use o4a_data::synthetic::DatasetKind;
use o4a_grid::decompose::decompose;
use o4a_grid::Mask;
use o4a_models::multiscale::PyramidPredictor;
use o4a_tensor::SeededRng;

/// RMSE of one strategy over a subset of queries.
fn rmse_on(
    exp: &Experiment,
    index: &CombinationIndex,
    pyramid: &[Vec<Vec<f32>>],
    masks: &[&Mask],
) -> f64 {
    let mut acc = MetricAccumulator::new();
    for mask in masks {
        let groups = decompose(&exp.hier, mask);
        for (s, &t) in exp.test_slots.iter().enumerate() {
            let frames: Vec<Vec<f32>> = pyramid.iter().map(|l| l[s].clone()).collect();
            acc.push(
                interpret(index, &[FrameView::F32(&frames)], &groups),
                exp.flow.region_flow(t, mask),
            );
        }
    }
    let _ = MAPE_THRESHOLD; // MAPE not reported in Table III
    acc.rmse()
}

fn main() {
    let cfg = ExpConfig::from_args();
    let exp = Experiment::setup(DatasetKind::TaxiNycLike, &cfg);
    println!(
        "Table III reproduction — Taxi NYC (synthetic), raster {}x{}",
        cfg.h, cfg.w
    );

    let mut rng = SeededRng::new(cfg.seed);
    let mut model = One4AllSt::standard(&mut rng, exp.hier.clone(), &cfg.temporal, cfg.train);
    model.fit(&exp.flow, &cfg.temporal, &exp.split.train);
    let val_pyr = model.predict_pyramid(&exp.flow, &cfg.temporal, &o4a_bench::search_window(&exp));
    let test_pyr = model.predict_pyramid(&exp.flow, &cfg.temporal, &exp.test_slots);

    let direct = build_index(&exp, &val_pyr, SearchStrategy::Direct);
    let union = build_index(&exp, &val_pyr, SearchStrategy::Union);
    let union_sub = build_index(&exp, &val_pyr, SearchStrategy::UnionSubtraction);

    println!(
        "{:<7} {:>9} | {:>7} {:>7} {:>9} | {:>7} {:>7} {:>9}",
        "Task", "Direct", "Prop.%", "Imprv.%", "Union", "Prop.%", "Imprv.%", "U&S"
    );
    for (ti, masks) in exp.tasks.iter().enumerate() {
        let all: Vec<&Mask> = masks.iter().collect();
        let rmse_direct = rmse_on(&exp, &direct, &test_pyr, &all);
        let rmse_union = rmse_on(&exp, &union, &test_pyr, &all);
        let rmse_us = rmse_on(&exp, &union_sub, &test_pyr, &all);

        // queries whose full combination differs from Direct's
        let stats = |idx: &CombinationIndex| -> (f64, f64) {
            let differing: Vec<&Mask> = masks
                .iter()
                .filter(|m| {
                    query_combination(&exp.hier, idx, m) != query_combination(&exp.hier, &direct, m)
                })
                .collect();
            if differing.is_empty() {
                return (0.0, 0.0);
            }
            let prop = 100.0 * differing.len() as f64 / masks.len() as f64;
            let d = rmse_on(&exp, &direct, &test_pyr, &differing);
            let s = rmse_on(&exp, idx, &test_pyr, &differing);
            let imprv = 100.0 * (d - s) / d.max(1e-9);
            (prop, imprv)
        };
        let (prop_u, imprv_u) = stats(&union);
        let (prop_us, imprv_us) = stats(&union_sub);
        println!(
            "Task {:<2} {rmse_direct:>9.3} | {prop_u:>6.1}% {imprv_u:>6.1}% {rmse_union:>9.3} | {prop_us:>6.1}% {imprv_us:>6.1}% {rmse_us:>9.3}",
            ti + 1
        );
    }
    println!(
        "\nsearch report (U&S): {} direct / {} composed single grids, {}/{} multi-grids use subtraction",
        union_sub.report.direct_cells,
        union_sub.report.composed_cells,
        union_sub.report.subtraction_multis,
        union_sub.report.multi_entries
    );
}
