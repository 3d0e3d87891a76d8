//! The common [`Predictor`] interface and the shared deep-model trainer.
//!
//! Every baseline consumes the same temporal inputs (Eq. 6, 17 historical
//! observations by default) and predicts the next-slot atomic raster. Deep
//! models share [`DeepGridModel`], which wraps any `o4a-nn` [`Module`]
//! mapping `[n, channels, h, w]` to `[n, 1, h, w]` and handles
//! normalization, mini-batch Adam training and timing.

use o4a_data::features::{SampleSet, TemporalConfig};
use o4a_data::flow::FlowSeries;
use o4a_data::norm::Normalizer;
use o4a_nn::loss::mse_loss;
use o4a_nn::module::Module;
use o4a_nn::optim::{clip_grad_norm_module, Adam};
use o4a_tensor::{SeededRng, Tensor};
use std::time::Instant;

/// Training statistics for the computation-cost table (Table II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainStats {
    /// Number of epochs run.
    pub epochs: usize,
    /// Wall-clock seconds per epoch (mean).
    pub sec_per_epoch: f64,
    /// Training loss after the final epoch (normalized space).
    pub final_loss: f32,
    /// Number of trainable parameters.
    pub num_params: usize,
}

/// A spatio-temporal predictor over the atomic raster.
pub trait Predictor {
    /// Human-readable model name (matches the paper's tables).
    fn name(&self) -> &str;

    /// Fits the model on the training target slots of `flow`.
    fn fit(
        &mut self,
        flow: &FlowSeries,
        cfg: &TemporalConfig,
        train_targets: &[usize],
    ) -> TrainStats;

    /// Predicts the atomic raster for each target slot. Returns one
    /// `h * w` frame per target.
    fn predict(
        &mut self,
        flow: &FlowSeries,
        cfg: &TemporalConfig,
        targets: &[usize],
    ) -> Vec<Vec<f32>>;

    /// Number of trainable parameters (0 for non-parametric models).
    fn num_params(&mut self) -> usize {
        0
    }
}

/// Hyper-parameters for deep-model training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Global gradient-norm clip.
    pub clip: f32,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch: 8,
            lr: 1e-3,
            clip: 5.0,
            seed: 17,
        }
    }
}

/// A deep model over the raster: any module mapping
/// `[n, channels, h, w] -> [n, 1, h, w]`, plus normalization and training.
pub struct DeepGridModel {
    name: String,
    net: Box<dyn Module>,
    norm: Normalizer,
    train_cfg: TrainConfig,
}

impl DeepGridModel {
    /// Wraps a network.
    pub fn new(name: impl Into<String>, net: Box<dyn Module>, train_cfg: TrainConfig) -> Self {
        DeepGridModel {
            name: name.into(),
            net,
            norm: Normalizer::identity(),
            train_cfg,
        }
    }

    /// Direct access to the wrapped network (for ablation inspection).
    pub fn net_mut(&mut self) -> &mut dyn Module {
        self.net.as_mut()
    }

    /// Runs one training epoch over the (already-normalized) samples,
    /// returning the mean batch loss.
    ///
    /// Mini-batches are gathered into the caller's persistent
    /// [`EpochScratch`]; together with the layer workspaces, the module
    /// parameter walker and the `o4a-tensor` buffer pool, steady-state
    /// steps perform no heap allocation at all (see the
    /// `train_steady_state_allocates_nothing` integration test).
    fn run_epoch(
        &mut self,
        inputs: &Tensor,
        targets: &Tensor,
        order: &[usize],
        opt: &mut Adam,
        scratch: &mut EpochScratch,
    ) -> f32 {
        let n = inputs.shape()[0];
        let in_stride: usize = inputs.shape()[1..].iter().product();
        let out_stride: usize = targets.shape()[1..].iter().product();
        let batch = self.train_cfg.batch.min(n).max(1);
        let mut total = 0.0f32;
        let mut batches = 0usize;
        let mut bi = 0usize;
        while bi < n {
            let idx = &order[bi..(bi + batch).min(n)];
            let bn = idx.len();
            // gather the batch into the reusable workspaces
            scratch.in_shape.clear();
            scratch.in_shape.extend_from_slice(inputs.shape());
            scratch.in_shape[0] = bn;
            scratch.out_shape.clear();
            scratch.out_shape.extend_from_slice(targets.shape());
            scratch.out_shape[0] = bn;
            scratch.x.reset_uninit(&scratch.in_shape);
            scratch.y.reset_uninit(&scratch.out_shape);
            for (b, &s) in idx.iter().enumerate() {
                scratch.x.data_mut()[b * in_stride..(b + 1) * in_stride]
                    .copy_from_slice(&inputs.data()[s * in_stride..(s + 1) * in_stride]);
                scratch.y.data_mut()[b * out_stride..(b + 1) * out_stride]
                    .copy_from_slice(&targets.data()[s * out_stride..(s + 1) * out_stride]);
            }

            let pred = self.net.forward(&scratch.x);
            let (loss, grad) = mse_loss(&pred, &scratch.y);
            self.net.zero_grad();
            self.net.backward(&grad);
            clip_grad_norm_module(self.net.as_mut(), self.train_cfg.clip);
            opt.step_module(self.net.as_mut());
            total += loss;
            batches += 1;
            bi += batch;
        }
        total / batches.max(1) as f32
    }
}

/// Persistent mini-batch gather workspaces, created once per `fit` and
/// reused by every epoch.
struct EpochScratch {
    x: Tensor,
    y: Tensor,
    in_shape: Vec<usize>,
    out_shape: Vec<usize>,
}

impl EpochScratch {
    fn new() -> Self {
        EpochScratch {
            x: Tensor::empty(),
            y: Tensor::empty(),
            in_shape: Vec::new(),
            out_shape: Vec::new(),
        }
    }
}

impl Predictor for DeepGridModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn fit(
        &mut self,
        flow: &FlowSeries,
        cfg: &TemporalConfig,
        train_targets: &[usize],
    ) -> TrainStats {
        assert!(!train_targets.is_empty(), "no training targets");
        let set = SampleSet::extract_at(flow, cfg, train_targets);
        self.norm = Normalizer::fit(set.targets.data());
        let inputs = self.norm.normalize(&set.inputs);
        let targets = self.norm.normalize(&set.targets);

        let mut opt = Adam::new(self.train_cfg.lr);
        let mut rng = SeededRng::new(self.train_cfg.seed);
        let n = set.len();
        let mut order: Vec<usize> = (0..n).collect();
        let start = Instant::now();
        let mut final_loss = 0.0f32;
        let mut scratch = EpochScratch::new();
        for epoch in 0..self.train_cfg.epochs {
            let epoch_start = Instant::now();
            // Fisher-Yates shuffle
            for i in (1..n).rev() {
                order.swap(i, rng.index(i + 1));
            }
            final_loss = self.run_epoch(&inputs, &targets, &order, &mut opt, &mut scratch);
            o4a_obs::gauge!(
                "o4a_train_epoch_loss",
                "mean training loss of the most recent epoch"
            )
            .set(f64::from(final_loss));
            o4a_obs::histogram!(
                "o4a_train_epoch_ns",
                "wall time per training epoch in nanoseconds"
            )
            .record(epoch_start.elapsed().as_nanos() as u64);
            o4a_obs::debug!(
                "models", "epoch {}/{} done", epoch + 1, self.train_cfg.epochs;
                model = self.name,
                loss = final_loss,
                ms = epoch_start.elapsed().as_millis(),
            );
        }
        let elapsed = start.elapsed().as_secs_f64();
        TrainStats {
            epochs: self.train_cfg.epochs,
            sec_per_epoch: elapsed / self.train_cfg.epochs.max(1) as f64,
            final_loss,
            num_params: self.net.num_params(),
        }
    }

    fn predict(
        &mut self,
        flow: &FlowSeries,
        cfg: &TemporalConfig,
        targets: &[usize],
    ) -> Vec<Vec<f32>> {
        let plane = flow.h() * flow.w();
        let mut out = Vec::with_capacity(targets.len());
        // predict in small batches to bound memory
        for chunk in targets.chunks(16) {
            let set = SampleSet::extract_at(flow, cfg, chunk);
            let x = self.norm.normalize(&set.inputs);
            let pred = self.net.forward(&x);
            let denorm = self.norm.denormalize(&pred);
            for s in 0..chunk.len() {
                // flows are non-negative counts; clamp the denormalized output
                out.push(
                    denorm.data()[s * plane..(s + 1) * plane]
                        .iter()
                        .map(|&v| v.max(0.0))
                        .collect(),
                );
            }
        }
        out
    }

    fn num_params(&mut self) -> usize {
        self.net.num_params()
    }
}

/// Evaluates a predictor on target slots, returning `(rmse, mape)` over all
/// atomic cells (used by tests; the experiment harness evaluates on region
/// queries instead).
pub fn evaluate_atomic(
    model: &mut dyn Predictor,
    flow: &FlowSeries,
    cfg: &TemporalConfig,
    targets: &[usize],
) -> (f64, f64) {
    let preds = model.predict(flow, cfg, targets);
    let mut acc = o4a_data::metrics::MetricAccumulator::new();
    for (p, &t) in preds.iter().zip(targets) {
        acc.extend(p, flow.frame(t));
    }
    (acc.rmse(), acc.mape(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use o4a_nn::layers::{Conv2d, Relu};
    use o4a_nn::Sequential;

    fn tiny_flow() -> (FlowSeries, TemporalConfig) {
        let cfg = TemporalConfig {
            closeness: 2,
            period: 1,
            trend: 1,
            steps_per_day: 4,
            days_per_week: 2,
        };
        // deterministic periodic flow on a 4x4 raster
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

    #[test]
    fn training_reduces_loss() {
        let (flow, cfg) = tiny_flow();
        let targets: Vec<usize> = (cfg.min_target()..48).collect();
        let mut model = DeepGridModel::new(
            "tiny",
            tiny_net(cfg.channels()),
            TrainConfig {
                epochs: 1,
                ..TrainConfig::default()
            },
        );
        let first = model.fit(&flow, &cfg, &targets);
        let mut model2 = DeepGridModel::new(
            "tiny",
            tiny_net(cfg.channels()),
            TrainConfig {
                epochs: 30,
                ..TrainConfig::default()
            },
        );
        let long = model2.fit(&flow, &cfg, &targets);
        assert!(
            long.final_loss < first.final_loss,
            "loss should fall with training: {} vs {}",
            long.final_loss,
            first.final_loss
        );
    }

    #[test]
    fn fit_then_predict_beats_zero_baseline() {
        let (flow, cfg) = tiny_flow();
        let train: Vec<usize> = (cfg.min_target()..48).collect();
        let test: Vec<usize> = (48..60).collect();
        let mut model = DeepGridModel::new(
            "tiny",
            tiny_net(cfg.channels()),
            TrainConfig {
                epochs: 40,
                ..TrainConfig::default()
            },
        );
        model.fit(&flow, &cfg, &train);
        let (rmse, _) = evaluate_atomic(&mut model, &flow, &cfg, &test);
        // the series lives around 3..12; a trained model must be far below
        // the ~8 RMSE of predicting zero
        assert!(rmse < 3.0, "rmse {rmse} too high for a learnable series");
    }

    #[test]
    fn predictions_nonnegative_and_shaped() {
        let (flow, cfg) = tiny_flow();
        let train: Vec<usize> = (cfg.min_target()..40).collect();
        let mut model = DeepGridModel::new(
            "tiny",
            tiny_net(cfg.channels()),
            TrainConfig {
                epochs: 2,
                ..TrainConfig::default()
            },
        );
        model.fit(&flow, &cfg, &train);
        let preds = model.predict(&flow, &cfg, &[40, 41, 42]);
        assert_eq!(preds.len(), 3);
        assert!(preds.iter().all(|p| p.len() == 16));
        assert!(preds.iter().flatten().all(|&v| v >= 0.0));
    }

    #[test]
    fn stats_report_params_and_timing() {
        let (flow, cfg) = tiny_flow();
        let train: Vec<usize> = (cfg.min_target()..40).collect();
        let mut model = DeepGridModel::new(
            "tiny",
            tiny_net(cfg.channels()),
            TrainConfig {
                epochs: 2,
                ..TrainConfig::default()
            },
        );
        let stats = model.fit(&flow, &cfg, &train);
        assert!(stats.num_params > 0);
        assert!(stats.sec_per_epoch >= 0.0);
        assert_eq!(stats.epochs, 2);
        assert_eq!(model.num_params(), stats.num_params);
    }
}
