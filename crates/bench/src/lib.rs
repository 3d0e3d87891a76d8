#![warn(missing_docs)]

//! # o4a-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! One4All-ST paper (see `DESIGN.md` for the experiment index):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1` | Table I — main RMSE/MAPE results |
//! | `table2` | Table II — computation cost |
//! | `table3` | Table III — Direct / Union / Union & Subtraction |
//! | `table4` | Table IV — HSM / SN ablations |
//! | `fig10`  | Fig. 10 (left) — ACF vs scale |
//! | `fig14`  | Fig. 14 — merging window size |
//! | `fig15`  | Fig. 15 — query response time |
//! | `fig16`  | Fig. 16 — spatial modeling block |
//! | `fig17`  | Fig. 17 — index size per scale |
//!
//! `fig17` also times the combination search and a quad-tree lookup
//! against a linear-table scan; `kernels` times the tensor kernels.
//!
//! Every binary accepts `--quick` for a smoke-test-sized run; the default
//! configuration is the laptop-scale analogue of the paper's setup
//! (32x32 raster standing in for 128x128, hierarchical structure
//! P = {1, 2, 4, 8, 16, 32}).

use o4a_core::combination::{search_optimal_combinations_margin, CombinationIndex, SearchStrategy};
use o4a_core::frames::FrameView;
use o4a_core::one4all::truth_pyramid;
use o4a_core::server::interpret;
use o4a_data::features::{chronological_split, Split, TemporalConfig};
use o4a_data::flow::FlowSeries;
use o4a_data::metrics::MetricAccumulator;
use o4a_data::synthetic::DatasetKind;
use o4a_grid::decompose::{decompose, DecomposedGroup};
use o4a_grid::queries::{task_queries, TaskSpec};
use o4a_grid::{Hierarchy, Mask};
use o4a_models::predictor::TrainConfig;
use o4a_tensor::SeededRng;

/// Truth threshold below which MAPE pairs are skipped.
pub const MAPE_THRESHOLD: f32 = 1.0;

/// Shared experiment configuration.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Atomic raster height.
    pub h: usize,
    /// Atomic raster width.
    pub w: usize,
    /// Merging window size.
    pub window: usize,
    /// Number of hierarchy layers.
    pub layers: usize,
    /// Series length in hourly slots.
    pub steps: usize,
    /// Temporal input configuration.
    pub temporal: TemporalConfig,
    /// Deep-model training configuration.
    pub train: TrainConfig,
    /// Experiment seed.
    pub seed: u64,
    /// Cap on evaluated test slots (keeps inference time bounded).
    pub max_test_slots: usize,
}

impl ExpConfig {
    /// The standard laptop-scale configuration: a 32x32 raster with
    /// P = {1, 2, 4, 8, 16, 32} and a ~3-week hourly series.
    pub fn standard() -> Self {
        ExpConfig {
            h: 32,
            w: 32,
            window: 2,
            layers: 6,
            steps: 24 * 7 + 24 * 14, // 1 week warm-up + 2 weeks of targets
            temporal: TemporalConfig::compact(),
            train: TrainConfig {
                epochs: 20,
                batch: 8,
                lr: 1e-3,
                clip: 5.0,
                seed: 17,
            },
            seed: 2024,
            max_test_slots: 48,
        }
    }

    /// A smoke-test configuration (16x16, short series, 2 epochs).
    pub fn quick() -> Self {
        ExpConfig {
            h: 16,
            w: 16,
            window: 2,
            layers: 5,
            steps: 24 * 7 + 24 * 5,
            temporal: TemporalConfig::compact(),
            train: TrainConfig {
                epochs: 2,
                batch: 8,
                lr: 1e-3,
                clip: 5.0,
                seed: 17,
            },
            seed: 2024,
            max_test_slots: 12,
        }
    }

    /// Parses `--quick` from the process arguments.
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            Self::quick()
        } else {
            Self::standard()
        }
    }

    /// The hierarchy for this configuration.
    pub fn hierarchy(&self) -> Hierarchy {
        Hierarchy::new(self.h, self.w, self.window, self.layers)
            .expect("experiment hierarchy is valid")
    }
}

/// A prepared experiment: dataset, hierarchy, splits and task queries.
pub struct Experiment {
    /// Which dataset the synthetic flow stands in for.
    pub kind: DatasetKind,
    /// The generated flow series.
    pub flow: FlowSeries,
    /// The grid hierarchy.
    pub hier: Hierarchy,
    /// Chronological 70/10/20 split of target slots.
    pub split: Split,
    /// Evaluated test slots (capped).
    pub test_slots: Vec<usize>,
    /// Query masks per task (Tasks 1–4).
    pub tasks: Vec<Vec<Mask>>,
}

impl Experiment {
    /// Generates the experiment for a dataset kind.
    pub fn setup(kind: DatasetKind, cfg: &ExpConfig) -> Experiment {
        let flow = kind.config(cfg.h, cfg.w, cfg.steps, cfg.seed).generate();
        let hier = cfg.hierarchy();
        let split = chronological_split(&flow, &cfg.temporal);
        let mut test_slots = split.test.clone();
        if test_slots.len() > cfg.max_test_slots {
            // evenly thin the test slots instead of truncating the horizon
            let stride = test_slots.len() as f64 / cfg.max_test_slots as f64;
            test_slots = (0..cfg.max_test_slots)
                .map(|i| split.test[(i as f64 * stride) as usize])
                .collect();
        }
        let mut rng = SeededRng::new(cfg.seed ^ 0x5eed);
        let specs = TaskSpec::standard_tasks(150.0);
        let tasks = specs
            .iter()
            .map(|spec| {
                task_queries(cfg.h, cfg.w, *spec, kind.hex_task1(), &mut rng)
                    .into_iter()
                    .filter(|m| m.area() >= 2)
                    .collect()
            })
            .collect();
        Experiment {
            kind,
            flow,
            hier,
            split,
            test_slots,
            tasks,
        }
    }
}

/// Evaluates atomic-scale predictions on a task by summing each query's
/// cells (the single-scale baselines' strategy). `preds[sample]` is the
/// atomic frame of the corresponding test slot.
pub fn eval_single_scale(exp: &Experiment, preds: &[Vec<f32>], masks: &[Mask]) -> (f64, f64) {
    let w = exp.flow.w();
    let mut acc = MetricAccumulator::new();
    for mask in masks {
        let cells: Vec<(usize, usize)> = mask.iter_set().collect();
        for (s, &t) in exp.test_slots.iter().enumerate() {
            let pred: f32 = cells.iter().map(|&(r, c)| preds[s][r * w + c]).sum();
            acc.push(pred, exp.flow.region_flow(t, mask));
        }
    }
    (acc.rmse(), acc.mape(MAPE_THRESHOLD))
}

/// Evaluates pyramid predictions through an optimal-combination index on a
/// task (decomposition is computed once per mask).
pub fn eval_with_index(
    exp: &Experiment,
    index: &CombinationIndex,
    pyramid: &[Vec<Vec<f32>>],
    masks: &[Mask],
) -> (f64, f64) {
    let mut acc = MetricAccumulator::new();
    let decomposed: Vec<Vec<DecomposedGroup>> =
        masks.iter().map(|m| decompose(&exp.hier, m)).collect();
    for (mask, groups) in masks.iter().zip(&decomposed) {
        for (s, &t) in exp.test_slots.iter().enumerate() {
            let frames: Vec<Vec<f32>> = pyramid.iter().map(|layer| layer[s].clone()).collect();
            let pred = interpret(index, &[FrameView::F32(&frames)], groups);
            acc.push(pred, exp.flow.region_flow(t, mask));
        }
    }
    (acc.rmse(), acc.mape(MAPE_THRESHOLD))
}

/// The slots the offline combination search evaluates candidates on: the
/// full training + validation history (Eq. 3 of the paper minimizes the
/// combination error over historical data given the trained parameters; a
/// small window overfits the per-grid direct-vs-composed choice).
pub fn search_window(exp: &Experiment) -> Vec<usize> {
    let mut slots = exp.split.train.clone();
    slots.extend_from_slice(&exp.split.val);
    slots
}

/// Relative improvement an alternative combination must show on the
/// search window before it replaces the direct one (the one-SE-style rule
/// of `search_optimal_combinations_margin`).
pub const SEARCH_MARGIN: f64 = 0.05;

/// Builds an index from pyramid predictions over [`search_window`] slots.
pub fn build_index(
    exp: &Experiment,
    window_pyramid: &[Vec<Vec<f32>>],
    strategy: SearchStrategy,
) -> CombinationIndex {
    let truths = truth_pyramid(&exp.hier, &exp.flow, &search_window(exp));
    search_optimal_combinations_margin(&exp.hier, window_pyramid, &truths, strategy, SEARCH_MARGIN)
}

/// A per-model RNG derived from the experiment seed and the model name, so
/// every table row is reproducible independently of run order.
pub fn model_rng(seed: u64, name: &str) -> SeededRng {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for b in name.bytes() {
        h = h.wrapping_mul(0x100_0000_01b3).wrapping_add(b as u64);
    }
    SeededRng::new(h)
}

/// Formats one RMSE/MAPE pair for table rows.
pub fn fmt_metrics(rmse: f64, mape: f64) -> String {
    format!("{rmse:>8.3} {mape:>6.3}")
}

/// Prints a table header for the four tasks.
pub fn print_task_header(dataset: &str) {
    println!("\n=== {dataset} ===");
    println!(
        "{:<14} {:>15} {:>15} {:>15} {:>15}",
        "Model", "Task1 RMSE/MAPE", "Task2 RMSE/MAPE", "Task3 RMSE/MAPE", "Task4 RMSE/MAPE"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiment_setup() {
        let cfg = ExpConfig::quick();
        let exp = Experiment::setup(DatasetKind::TaxiNycLike, &cfg);
        assert_eq!(exp.tasks.len(), 4);
        assert!(exp.tasks.iter().all(|t| !t.is_empty()));
        assert!(!exp.test_slots.is_empty());
        assert!(exp.test_slots.len() <= cfg.max_test_slots);
        // test slots must come from the test split
        assert!(exp.test_slots.iter().all(|t| exp.split.test.contains(t)));
    }

    #[test]
    fn single_scale_eval_on_truth_is_exact() {
        let cfg = ExpConfig::quick();
        let exp = Experiment::setup(DatasetKind::FreightLike, &cfg);
        // "predict" with the ground truth itself
        let preds: Vec<Vec<f32>> = exp
            .test_slots
            .iter()
            .map(|&t| exp.flow.frame(t).to_vec())
            .collect();
        let (rmse, mape) = eval_single_scale(&exp, &preds, &exp.tasks[1]);
        assert!(rmse < 1e-4);
        assert!(mape < 1e-6);
    }

    #[test]
    fn model_rng_deterministic_and_name_sensitive() {
        let mut a = model_rng(1, "GWN");
        let mut b = model_rng(1, "GWN");
        let mut c = model_rng(1, "GMAN");
        let va: Vec<f32> = (0..8).map(|_| a.uniform(0.0, 1.0)).collect();
        let vb: Vec<f32> = (0..8).map(|_| b.uniform(0.0, 1.0)).collect();
        let vc: Vec<f32> = (0..8).map(|_| c.uniform(0.0, 1.0)).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn search_window_is_train_plus_val() {
        let cfg = ExpConfig::quick();
        let exp = Experiment::setup(DatasetKind::TaxiNycLike, &cfg);
        let window = search_window(&exp);
        assert_eq!(window.len(), exp.split.train.len() + exp.split.val.len());
        assert_eq!(window.first(), exp.split.train.first());
        assert_eq!(window.last(), exp.split.val.last());
    }

    #[test]
    fn index_eval_on_truth_is_exact() {
        let cfg = ExpConfig::quick();
        let exp = Experiment::setup(DatasetKind::TaxiNycLike, &cfg);
        let window_pyr = truth_pyramid(&exp.hier, &exp.flow, &search_window(&exp));
        let index = build_index(&exp, &window_pyr, SearchStrategy::UnionSubtraction);
        let test_pyr = truth_pyramid(&exp.hier, &exp.flow, &exp.test_slots);
        let (rmse, _) = eval_with_index(&exp, &index, &test_pyr, &exp.tasks[2]);
        assert!(
            rmse < 1e-3,
            "exact pyramid should give exact queries, rmse {rmse}"
        );
    }
}
