//! The zero-allocation training steady-state contract.
//!
//! Two claims are proven end to end through the public `fit()` loop:
//!
//! 1. **Allocation budget**: once the buffer pool, layer workspaces and
//!    optimizer state are warm, additional training epochs perform *zero*
//!    heap allocations — fitting for `E + K` epochs allocates exactly as
//!    many times as fitting for `E` epochs.
//! 2. **Pool invisibility**: disabling the pool
//!    ([`o4a_tensor::pool::set_enabled`]) changes where buffers come from
//!    but not a single output bit.
//!
//! A third holds for every layer type, not only the ones this `fit()`
//! runs: **the parameter walk allocates nothing**, so `zero_grad()` and
//! `num_params()` over a `Sequential` holding every layer type of
//! `o4a-nn` and `o4a-models` make zero allocations. Each training step
//! walks the parameters up to four times (zero-grad, the clip norm, the
//! clip scale, Adam).
//!
//! This file deliberately contains exactly ONE `#[test]`: the counting
//! global allocator is process-wide, and a concurrently running test
//! would pollute the delta.

use o4a_data::features::TemporalConfig;
use o4a_data::flow::FlowSeries;
use o4a_models::predictor::{DeepGridModel, Predictor, TrainConfig};
use o4a_nn::layers::{Conv2d, Relu};
use o4a_nn::module::Module;
use o4a_nn::Sequential;
use o4a_obs::CountingAlloc;
use o4a_tensor::{parallel, pool, SeededRng};

#[path = "support/every_layer.rs"]
mod every_layer;

#[global_allocator]
static A: CountingAlloc = CountingAlloc::new();

fn tiny_flow() -> (FlowSeries, TemporalConfig) {
    let cfg = TemporalConfig {
        closeness: 2,
        period: 1,
        trend: 1,
        steps_per_day: 4,
        days_per_week: 2,
    };
    let mut flow = FlowSeries::zeros(64, 4, 4);
    for t in 0..64 {
        for r in 0..4 {
            for c in 0..4 {
                let v = 3.0 + 2.0 * ((t % 4) as f32) + (r + c) as f32;
                flow.set(t, r, c, v);
            }
        }
    }
    (flow, cfg)
}

fn tiny_net(channels: usize) -> Box<dyn Module> {
    let mut rng = SeededRng::new(5);
    Box::new(
        Sequential::new()
            .push(Conv2d::same3x3(&mut rng, channels, 8))
            .push(Relu::new())
            .push(Conv2d::pointwise(&mut rng, 8, 1)),
    )
}

/// Fits a fresh deterministic model for `epochs` epochs, returning the
/// number of allocation events during `fit` and the model's predictions.
fn fit_and_measure(epochs: usize) -> (usize, Vec<Vec<f32>>) {
    let (flow, cfg) = tiny_flow();
    let train: Vec<usize> = (cfg.min_target()..48).collect();
    let mut model = DeepGridModel::new(
        "alloc-budget",
        tiny_net(cfg.channels()),
        TrainConfig {
            epochs,
            ..TrainConfig::default()
        },
    );
    let before = A.allocations();
    model.fit(&flow, &cfg, &train);
    let allocs = A.allocations() - before;
    let preds = model.predict(&flow, &cfg, &[48, 49, 50]);
    (allocs, preds)
}

#[test]
fn train_steady_state_allocates_nothing() {
    // Gate per-epoch debug logging and force the inline dispatch path so
    // the measurement is about the training step itself, not the log sink
    // or the worker pool's Arc'd job headers.
    o4a_obs::set_max_level(o4a_obs::Level::Error);
    parallel::set_threads(1);

    // Warm everything a first fit legitimately allocates once: pool free
    // lists, metric registrations, GEMM pack scratches, logger state.
    let (_, preds_warm) = fit_and_measure(2);

    // From a warm process, K extra epochs must cost exactly 0 allocations.
    let (allocs_short, preds_short) = fit_and_measure(2);
    let (allocs_long, preds_long) = fit_and_measure(2 + 3);
    assert_eq!(
        allocs_long,
        allocs_short,
        "3 extra epochs allocated {} times (short fit: {}, long fit: {})",
        allocs_long - allocs_short.min(allocs_long),
        allocs_short,
        allocs_long
    );

    // Determinism sanity: identical fits predict identically.
    assert_eq!(bits(&preds_warm), bits(&preds_short));

    // Pool off: same training run, bit-identical outputs.
    pool::set_enabled(false);
    let (_, preds_nopool) = fit_and_measure(2 + 3);
    pool::set_enabled(true);
    assert_eq!(
        bits(&preds_long),
        bits(&preds_nopool),
        "disabling the pool changed training results"
    );

    let mut net = every_layer::every_layer(&mut SeededRng::new(9));
    net.zero_grad();
    let before = A.allocations();
    net.zero_grad();
    let scalars = net.num_params();
    let walk_allocs = A.allocations() - before;
    assert!(scalars > 0);
    assert_eq!(
        walk_allocs, 0,
        "zero_grad + num_params over every layer type allocated {walk_allocs} times"
    );

    parallel::set_threads(0);
}

fn bits(preds: &[Vec<f32>]) -> Vec<Vec<u32>> {
    preds
        .iter()
        .map(|p| p.iter().map(|v| v.to_bits()).collect())
        .collect()
}
