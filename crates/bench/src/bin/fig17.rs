//! Fig. 17 — quad-tree index size per scale, both datasets, at the
//! paper's full configuration (128x128 atomic raster, P = {1,...,32}).
//!
//! The index stores the optimal combination of every single grid and every
//! multi-grid; this binary reports the serialized bytes contributed by
//! each scale's entries and the total. It also times the offline search
//! that builds each index, and one retrieval from the quad-tree against a
//! scan of the same entries held in a linear table (Sec. IV-C3 claims
//! O(log HW) against O(HW)). The retrieval is `CombinationIndex::for_cell`,
//! the call the query engine makes: it reaches the cell's slot of the
//! implicitly stored tree from its coordinates, in O(1).
//!
//! Usage: `cargo run -p o4a-bench --release --bin fig17 [-- --quick]`

use o4a_core::codec::encode_index;
use o4a_core::combination::{search_optimal_combinations, SearchStrategy};
use o4a_core::one4all::truth_pyramid;
use o4a_data::synthetic::DatasetKind;
use o4a_grid::coding::GridCode;
use o4a_grid::{Hierarchy, LayerCell};
use o4a_tensor::SeededRng;
use std::hint::black_box;
use std::time::Instant;

const SAMPLES: usize = 5;

/// Median over `SAMPLES` runs of `iters` calls, in nanoseconds per call.
fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[SAMPLES / 2]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (side, layers, steps) = if quick {
        (32, 6, 24 * 2)
    } else {
        (128, 6, 24 * 4)
    };
    let hier = Hierarchy::new(side, side, 2, layers).expect("valid hierarchy");
    println!(
        "Fig. 17 reproduction — index size per scale, raster {side}x{side}, P = {:?}",
        hier.scales()
    );
    for kind in [DatasetKind::TaxiNycLike, DatasetKind::FreightLike] {
        let flow = kind.config(side, side, steps, 5).generate();
        let slots: Vec<usize> = (steps - 12..steps).collect();
        let truths = truth_pyramid(&hier, &flow, &slots);
        let mut rng = SeededRng::new(3);
        let preds: Vec<Vec<Vec<f32>>> = truths
            .iter()
            .map(|layer| {
                layer
                    .iter()
                    .map(|f| {
                        f.iter()
                            .map(|&v| (v + rng.normal_scaled(0.0, 0.4 * (v + 1.0).sqrt())).max(0.0))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let t0 = Instant::now();
        let index =
            search_optimal_combinations(&hier, &preds, &truths, SearchStrategy::UnionSubtraction);
        let search_ms = t0.elapsed().as_secs_f64() * 1e3;

        // serialized bytes per entry, attributed to the scale of the grid
        // the entry describes (depth of its code path)
        let mut per_scale = vec![0usize; hier.num_layers()];
        let mut entries = vec![0usize; hier.num_layers()];
        index.tree.for_each(|code, comb| {
            // single grids at depth d live at layer n-1-d; multi-grid codes
            // are one deeper than their members' parent, i.e. members at
            // layer n-1-d as well
            let layer = hier.num_layers() - 1 - code.depth().min(hier.num_layers() - 1);
            let bytes = 2 + 2 + 1 + code.path.len() + 2 + comb.terms.len() * 6;
            per_scale[layer] += bytes;
            entries[layer] += 1;
        });
        let total = encode_index(&index).len();
        println!("\n--- {} ---", kind.name());
        println!("{:<8} {:>10} {:>12}", "Scale", "#entries", "bytes");
        for layer in 0..hier.num_layers() {
            println!(
                "S{:<7} {:>10} {:>12}",
                hier.scale(layer),
                entries[layer],
                per_scale[layer]
            );
        }
        println!(
            "total serialized index: {:.2} MB ({} entries)",
            total as f64 / 1e6,
            index.tree.len()
        );

        // the same entries in a linear table; both must return the same
        // combination for the probe before either is timed
        let mut linear = Vec::new();
        index
            .tree
            .for_each(|code, comb| linear.push((code.clone(), comb.clone())));
        let scan = |probe: &GridCode| {
            linear
                .iter()
                .find(|(c, _)| c == probe)
                .map(|(_, comb)| comb)
        };
        let centre = LayerCell::new(0, side / 2, side / 2);
        let probe = GridCode::for_cell(&hier, centre);
        assert!(index.for_cell(centre).is_some(), "centre cell has no entry");
        assert_eq!(
            scan(&probe),
            index.for_cell(centre),
            "scan and quad-tree disagree"
        );
        let (tree_iters, scan_iters) = if quick { (10_000, 20) } else { (100_000, 200) };
        let tree_ns = ns_per_call(tree_iters, || {
            black_box(index.for_cell(black_box(centre)));
        });
        let scan_ns = ns_per_call(scan_iters, || {
            black_box(scan(black_box(&probe)));
        });
        println!(
            "centre-cell lookup: quad-tree {tree_ns:.0} ns, linear scan of {} entries {:.1} us",
            linear.len(),
            scan_ns / 1e3
        );
        println!("combination search: {search_ms:.1} ms");
    }
    println!(
        "\nExpected shape (paper): finer scales dominate the index size; totals \
         are tens of MB at 128x128 and fit one server."
    );
}
