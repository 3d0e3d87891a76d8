//! Urban-planning scenario: census-tract-style analysis over freight
//! demand. Shows the *analysis* half of the toolkit — predictability (ACF)
//! by scale, hierarchical decomposition of irregular tracts, and which
//! optimal combinations the offline search picked (union vs subtraction).
//!
//! Run with: `cargo run --release --example urban_planning`

use one4all_st::core::combination::SearchStrategy;
use one4all_st::core::frames::FrameView;
use one4all_st::core::one4all::{truth_pyramid, One4AllSt};
use one4all_st::core::server::query_combination;
use one4all_st::data::acf::{acf_map, acf_stats};
use one4all_st::data::features::{chronological_split, TemporalConfig};
use one4all_st::data::synthetic::DatasetKind;
use one4all_st::data::viz::heatmap;
use one4all_st::grid::decompose::decompose;
use one4all_st::grid::queries::tract_queries;
use one4all_st::grid::Hierarchy;
use one4all_st::models::multiscale::PyramidPredictor;
use one4all_st::models::predictor::TrainConfig;
use one4all_st::tensor::SeededRng;

fn main() {
    let (h, w) = (16usize, 16usize);
    let hier = Hierarchy::new(h, w, 2, 5).expect("divisible raster");
    let flow = DatasetKind::FreightLike
        .config(h, w, 24 * 14, 21)
        .generate();
    let temporal = TemporalConfig::compact();
    let split = chronological_split(&flow, &temporal);

    // 1. predictability analysis (the paper's Fig. 10): ACF by scale
    println!("where is demand predictable? (per-cell ACF at lag 24h)");
    print!("{}", heatmap(&acf_map(&flow, 24), h, w));
    println!("predictability by scale (ACF at lag 24h):");
    for (layer, agg) in flow.pyramid(&hier).iter().enumerate() {
        let (mean, std) = acf_stats(agg, 24);
        println!("  S{:<3} mean {mean:5.3} ± {std:5.3}", hier.scale(layer));
    }

    // 2. tract workload: irregular connected partitions
    let mut qrng = SeededRng::new(5);
    let tracts = tract_queries(h, w, 20, &mut qrng);
    println!("\n{} census-tract-like regions generated", tracts.len());
    let tract = &tracts[0];
    let groups = decompose(&hier, tract);
    println!(
        "tract 0 ({} cells) decomposes into {} hierarchical grids:",
        tract.area(),
        groups.len()
    );
    for g in &groups {
        println!(
            "  layer {} (scale {}): {} cell(s) {:?}",
            g.layer(),
            hier.scale(g.layer()),
            g.len(),
            g.cells().take(4).collect::<Vec<_>>()
        );
    }

    // 3. train the model and inspect the searched combinations
    let mut rng = SeededRng::new(2);
    let mut model = One4AllSt::standard(
        &mut rng,
        hier.clone(),
        &temporal,
        TrainConfig {
            epochs: 8,
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
    println!(
        "\nsearch report: {} grids predict directly, {} compose from finer grids, \
         {} of {} multi-grids use subtraction",
        index.report.direct_cells,
        index.report.composed_cells,
        index.report.subtraction_multis,
        index.report.multi_entries
    );

    // per-tract: which combination answers it, and how accurate is it?
    let t = split.test[0];
    let frames: Vec<Vec<f32>> = model
        .predict_pyramid(&flow, &temporal, &[t])
        .into_iter()
        .map(|mut per_t| per_t.remove(0))
        .collect();
    let truths = truth_pyramid(&hier, &flow, &[t]);
    let _ = truths;
    println!("\nper-tract predictions at slot {t}:");
    for (i, tract) in tracts.iter().take(6).enumerate() {
        let comb = query_combination(&hier, &index, tract);
        let pred = comb.evaluate(&hier, &[FrameView::F32(&frames)]);
        let truth = flow.region_flow(t, tract);
        println!(
            "  tract {i}: {} terms{}  predicted {pred:6.1}  actual {truth:6.1}",
            comb.terms.len(),
            if comb.uses_subtraction() {
                " (uses subtraction)"
            } else {
                ""
            },
        );
    }
}
