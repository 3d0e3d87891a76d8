//! The common [`Predictor`] interface and the one training loop of every
//! deep model.
//!
//! Every baseline consumes the same temporal inputs (Eq. 6, 17 historical
//! observations by default) and predicts the next-slot atomic raster.
//! Every deep model trains through [`train`]: shuffled mini-batches, a
//! weighted sum of per-output MSE losses, gradient-norm clipping and Adam,
//! over any network that implements [`TrainNet`]. The models differ only in
//! how they build and normalize their targets and in each output's loss
//! weight. [`DeepGridModel`] wraps any `o4a-nn` [`Module`] mapping
//! `[n, channels, h, w]` to `[n, 1, h, w]` (one output, weight 1);
//! MC-STGCN ([`crate::mc_stgcn`]) weighs its two scales by hand, and
//! One4All-ST (`o4a-core`) sums one output per hierarchy layer with
//! weight 1 (Eq. 12).

use o4a_data::features::{SampleSet, TemporalConfig};
use o4a_data::flow::FlowSeries;
use o4a_data::norm::Normalizer;
use o4a_nn::loss::mse_loss;
use o4a_nn::module::Module;
use o4a_nn::optim::{clip_grad_norm_walk, Adam};
use o4a_nn::param::Param;
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

/// A network [`train`] can drive.
///
/// One forward pass yields one prediction per output, the backward pass
/// takes one upstream gradient per output, and the parameter walk visits
/// every trainable parameter in one fixed order (Adam's state is
/// positional).
pub trait TrainNet {
    /// Forward pass over a batch: pushes one prediction per output onto
    /// `outs`, in output order.
    fn forward_batch(&mut self, x: &Tensor, outs: &mut Vec<Tensor>);

    /// Backward pass: accumulates parameter gradients from one upstream
    /// gradient per output, in output order.
    fn backward_batch(&mut self, grads: &[Tensor]);

    /// Calls `f` once per trainable parameter, in a fixed order, without
    /// allocating.
    fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param));

    /// Total number of trainable scalars.
    fn num_params(&mut self) -> usize {
        let mut total = 0usize;
        self.visit_params(&mut |p| total += p.len());
        total
    }
}

/// A single-output `o4a-nn` network.
impl TrainNet for Box<dyn Module> {
    fn forward_batch(&mut self, x: &Tensor, outs: &mut Vec<Tensor>) {
        outs.push(self.forward(x));
    }

    fn backward_batch(&mut self, grads: &[Tensor]) {
        self.backward(&grads[0]);
    }

    fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param)) {
        Module::visit_params(self.as_mut(), f);
    }
}

/// The per-batch step of [`train`]: forward, the weighted sum of
/// per-output MSE losses, zero-grad, backward, global gradient-norm clip
/// and an Adam step.
///
/// It owns the optimizer state and reuses its output and gradient
/// workspaces, so with a network whose layers reuse theirs a steady-state
/// step allocates nothing.
pub struct TrainStep {
    opt: Adam,
    clip: f32,
    weights: Vec<f32>,
    outs: Vec<Tensor>,
    grads: Vec<Tensor>,
}

impl TrainStep {
    /// A step with fresh Adam state at `cfg.lr`, clipping at `cfg.clip`,
    /// and loss weight `weights[i]` for output `i`.
    pub fn new(cfg: &TrainConfig, weights: &[f32]) -> Self {
        TrainStep {
            opt: Adam::new(cfg.lr),
            clip: cfg.clip,
            weights: weights.to_vec(),
            outs: Vec::with_capacity(weights.len()),
            grads: Vec::with_capacity(weights.len()),
        }
    }

    /// Trains `net` on batch `x` with one target per output and returns
    /// the batch loss, `0.0 + w_0·mse_0 + w_1·mse_1 + …`. Each output's
    /// gradient is scaled by its weight before the backward pass.
    ///
    /// # Panics
    /// Unless the network's outputs, the targets and the weights are as
    /// many, and each prediction has its target's shape.
    pub fn run<N: TrainNet + ?Sized>(&mut self, net: &mut N, x: &Tensor, ys: &[Tensor]) -> f32 {
        net.forward_batch(x, &mut self.outs);
        assert!(
            self.outs.len() == self.weights.len() && ys.len() == self.weights.len(),
            "one target and one loss weight per network output"
        );
        let mut loss = 0.0f32;
        for ((pred, y), &w) in self.outs.iter().zip(ys).zip(&self.weights) {
            let (l, mut grad) = mse_loss(pred, y);
            grad.scale_in_place(w);
            loss += w * l;
            self.grads.push(grad);
        }
        self.outs.clear();
        net.visit_params(&mut |p| p.zero_grad());
        net.backward_batch(&self.grads);
        self.grads.clear();
        clip_grad_norm_walk(|f| net.visit_params(f), self.clip);
        self.opt.step_walk(|f| net.visit_params(f));
        loss
    }
}

/// Trains `net` for `cfg.epochs` epochs and returns the run's statistics.
///
/// `inputs` holds one sample per index of its first axis; `targets` holds
/// one tensor per network output, sample-aligned with `inputs`, and output
/// `i`'s MSE enters the loss with weight `weights[i]`. Each epoch shuffles
/// the sample order (Fisher–Yates, drawn from `SeededRng::new(cfg.seed)`),
/// gathers each mini-batch of `cfg.batch` samples into reused workspaces
/// and runs one [`TrainStep`]. The epoch's loss is the mean of its batch
/// losses; it is recorded in `o4a_train_epoch_loss`, the epoch's wall time
/// in `o4a_train_epoch_ns`, and both in a debug line naming `name`.
pub fn train<N: TrainNet + ?Sized>(
    net: &mut N,
    name: &str,
    cfg: &TrainConfig,
    inputs: &Tensor,
    targets: &[Tensor],
    weights: &[f32],
) -> TrainStats {
    let mut step = TrainStep::new(cfg, weights);
    let mut rng = SeededRng::new(cfg.seed);
    let n = inputs.shape()[0];
    let batch = cfg.batch.min(n).max(1);
    let mut order: Vec<usize> = (0..n).collect();
    let mut x = Tensor::empty();
    let mut ys: Vec<Tensor> = targets.iter().map(|_| Tensor::empty()).collect();
    let mut shape = Vec::new();
    let start = Instant::now();
    let mut final_loss = 0.0f32;
    for epoch in 0..cfg.epochs {
        let epoch_start = Instant::now();
        for i in (1..n).rev() {
            order.swap(i, rng.index(i + 1));
        }
        let mut total = 0.0f32;
        let mut batches = 0usize;
        for idx in order.chunks(batch) {
            gather(inputs, idx, &mut x, &mut shape);
            for (y, t) in ys.iter_mut().zip(targets) {
                gather(t, idx, y, &mut shape);
            }
            total += step.run(net, &x, &ys);
            batches += 1;
        }
        final_loss = total / batches.max(1) as f32;
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
            "models", "epoch {}/{} done", epoch + 1, cfg.epochs;
            model = name,
            loss = final_loss,
            ms = epoch_start.elapsed().as_millis(),
        );
    }
    let elapsed = start.elapsed().as_secs_f64();
    TrainStats {
        epochs: cfg.epochs,
        sec_per_epoch: elapsed / cfg.epochs.max(1) as f64,
        final_loss,
        num_params: net.num_params(),
    }
}

/// Copies samples `idx` of `src` (indices of its first axis) into `dst`,
/// shaped `[idx.len(), ..]`; `shape` is a reused workspace.
fn gather(src: &Tensor, idx: &[usize], dst: &mut Tensor, shape: &mut Vec<usize>) {
    shape.clear();
    shape.extend_from_slice(src.shape());
    shape[0] = idx.len();
    dst.reset_uninit(shape);
    let stride: usize = src.shape()[1..].iter().product();
    for (b, &s) in idx.iter().enumerate() {
        dst.data_mut()[b * stride..(b + 1) * stride]
            .copy_from_slice(&src.data()[s * stride..(s + 1) * stride]);
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

        train(
            &mut self.net,
            &self.name,
            &self.train_cfg,
            &inputs,
            &[targets],
            &[1.0],
        )
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
