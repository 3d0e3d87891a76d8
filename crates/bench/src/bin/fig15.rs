//! Fig. 15 — online response time per region query (decomposition +
//! index retrieval), at the paper's full scale: a 128x128 atomic raster
//! with P = {1, 2, 4, 8, 16, 32}, for all four tasks on both datasets.
//!
//! Building the index needs per-grid error estimates, not a trained
//! network, so this binary drives the search with noisy copies of the
//! ground truth — the online path being timed (decompose + quad-tree
//! lookups + aggregation) is byte-for-byte the production one.
//!
//! Usage: `cargo run -p o4a-bench --release --bin fig15 [-- --quick]`

use o4a_core::combination::{search_optimal_combinations, SearchStrategy};
use o4a_core::one4all::truth_pyramid;
use o4a_core::server::{PredictionStore, RegionServer};
use o4a_data::synthetic::DatasetKind;
use o4a_grid::queries::{task_queries, TaskSpec};
use o4a_grid::Hierarchy;
use o4a_tensor::SeededRng;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (side, layers, steps) = if quick {
        (32, 6, 24 * 3)
    } else {
        (128, 6, 24 * 5)
    };
    let hier = Hierarchy::new(side, side, 2, layers).expect("valid hierarchy");
    println!(
        "Fig. 15 reproduction — response time, raster {side}x{side}, P = {:?}",
        hier.scales()
    );
    println!(
        "{:<28} {:>6} {:>12} {:>12} {:>10} {:>8}",
        "Dataset / Task", "#query", "avg (us)", "max (us)", "avg terms", "terms"
    );

    for kind in [DatasetKind::TaxiNycLike, DatasetKind::FreightLike] {
        let flow = kind.config(side, side, steps, 99).generate();
        // noisy per-scale predictions drive the offline search
        let slots: Vec<usize> = (steps - 16..steps).collect();
        let truths = truth_pyramid(&hier, &flow, &slots);
        let mut rng = SeededRng::new(7);
        let preds: Vec<Vec<Vec<f32>>> = truths
            .iter()
            .map(|layer| {
                layer
                    .iter()
                    .map(|frame| {
                        frame
                            .iter()
                            .map(|&v| (v + rng.normal_scaled(0.0, 0.3 * (v + 1.0).sqrt())).max(0.0))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let index =
            search_optimal_combinations(&hier, &preds, &truths, SearchStrategy::UnionSubtraction);
        let store = Arc::new(PredictionStore::for_hierarchy(&hier));
        store.publish(truths.iter().map(|layer| layer[0].clone()).collect());
        let server = RegionServer::new(index, store);

        let mut qrng = SeededRng::new(11);
        for (ti, spec) in TaskSpec::standard_tasks(150.0).iter().enumerate() {
            let masks = task_queries(side, side, *spec, kind.hex_task1(), &mut qrng);
            let mut total = Duration::ZERO;
            let mut max = Duration::ZERO;
            let mut terms = 0usize;
            for mask in &masks {
                let (_, timing) = server.query_timed(mask);
                total += timing.total();
                max = max.max(timing.total());
                terms += o4a_core::server::query_combination(&hier, server.index(), mask)
                    .terms
                    .len();
            }
            println!(
                "{:<28} {:>6} {:>12.1} {:>12.1} {:>10.1} {:>8}",
                format!("{} Task {}", kind.name(), ti + 1),
                masks.len(),
                total.as_micros() as f64 / masks.len() as f64,
                max.as_micros() as f64,
                terms as f64 / masks.len() as f64,
                terms
            );
        }
    }
    println!(
        "\nExpected shape (paper): response grows with task scale; averages stay \
         well under 2 ms and maxima under 20 ms."
    );
}
