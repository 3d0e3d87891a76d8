//! Multi-scale prediction: the [`PyramidPredictor`] interface and the
//! enhanced per-layer ensembles (M-ST-ResNet, M-STRN).
//!
//! The paper's "enhanced methods" train one single-scale model per
//! hierarchy layer on the aggregated flows and feed the per-scale
//! predictions into the optimal-combination machinery. That is exactly
//! [`MultiScaleEnsemble`]; training parallelizes across layers with
//! crossbeam scoped threads (the models are independent).

use crate::predictor::{DeepGridModel, Predictor, TrainConfig, TrainStats};
use crate::st_resnet::StResNetLite;
use crate::strn::StrnLite;
use o4a_data::features::TemporalConfig;
use o4a_data::flow::FlowSeries;
use o4a_grid::Hierarchy;
use o4a_tensor::{SeededRng, Tensor};

/// Sums each `factor x factor` block of a target batch `[n, 1, H, W]`
/// into one cell of `[n, 1, H / factor, W / factor]`, adding the fine
/// cells in row-major order (`H` and `W` are multiples of `factor`). This
/// is how the multi-scale models aggregate atomic targets to a coarser
/// scale.
pub fn block_sum(targets: &Tensor, factor: usize) -> Tensor {
    let (n, h, w) = (targets.shape()[0], targets.shape()[2], targets.shape()[3]);
    let (hc, wc) = (h / factor, w / factor);
    let mut out = vec![0.0f32; n * hc * wc];
    for b in 0..n {
        for r in 0..h {
            for c in 0..w {
                out[(b * hc + r / factor) * wc + c / factor] += targets.data()[(b * h + r) * w + c];
            }
        }
    }
    Tensor::from_vec(out, &[n, 1, hc, wc]).expect("block-summed target shape")
}

/// A predictor producing one frame per hierarchy layer for each target slot.
pub trait PyramidPredictor {
    /// Model name.
    fn name(&self) -> &str;

    /// The hierarchy whose layers are predicted.
    fn hierarchy(&self) -> &Hierarchy;

    /// Fits on the atomic flow (each layer sees the aggregated series).
    fn fit(
        &mut self,
        flow: &FlowSeries,
        cfg: &TemporalConfig,
        train_targets: &[usize],
    ) -> TrainStats;

    /// Per-layer predictions: `result[layer][sample]` is the flat frame of
    /// that layer for the corresponding target slot.
    fn predict_pyramid(
        &mut self,
        flow: &FlowSeries,
        cfg: &TemporalConfig,
        targets: &[usize],
    ) -> Vec<Vec<Vec<f32>>>;

    /// Total trainable parameters across all scales.
    fn num_params(&mut self) -> usize;
}

/// One independently-trained single-scale model per hierarchy layer.
pub struct MultiScaleEnsemble {
    name: String,
    hier: Hierarchy,
    models: Vec<DeepGridModel>,
}

impl MultiScaleEnsemble {
    /// Builds an ensemble from a per-layer factory. The factory receives
    /// `(rng, channels, layer_h, layer_w)` and returns the layer's model.
    pub fn new(
        name: impl Into<String>,
        hier: Hierarchy,
        rng: &mut SeededRng,
        channels: usize,
        factory: impl Fn(&mut SeededRng, usize, usize, usize) -> DeepGridModel,
    ) -> Self {
        let models = (0..hier.num_layers())
            .map(|l| {
                let (h, w) = hier.layer_dims(l);
                let mut child = rng.fork();
                factory(&mut child, channels, h, w)
            })
            .collect();
        MultiScaleEnsemble {
            name: name.into(),
            hier,
            models,
        }
    }

    /// The paper's M-ST-ResNet: one ST-ResNet per layer.
    pub fn m_st_resnet(
        hier: Hierarchy,
        rng: &mut SeededRng,
        channels: usize,
        train_cfg: TrainConfig,
    ) -> Self {
        Self::new("M-ST-ResNet", hier, rng, channels, |r, c, _h, _w| {
            StResNetLite::standard(r, c, train_cfg)
        })
    }

    /// The paper's M-STRN: one STRN per layer (falling back to ST-ResNet on
    /// layers too small for STRN's 2x2 coarse path).
    pub fn m_strn(
        hier: Hierarchy,
        rng: &mut SeededRng,
        channels: usize,
        train_cfg: TrainConfig,
    ) -> Self {
        Self::new("M-STRN", hier, rng, channels, |r, c, h, w| {
            if h >= 2 && w >= 2 && h % 2 == 0 && w % 2 == 0 {
                StrnLite::standard(r, c, train_cfg)
            } else {
                StResNetLite::standard(r, c, train_cfg)
            }
        })
    }
}

impl PyramidPredictor for MultiScaleEnsemble {
    fn name(&self) -> &str {
        &self.name
    }

    fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    fn fit(
        &mut self,
        flow: &FlowSeries,
        cfg: &TemporalConfig,
        train_targets: &[usize],
    ) -> TrainStats {
        let pyramid = flow.pyramid(&self.hier);
        // train layers in parallel — the models are fully independent
        let stats: Vec<TrainStats> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = self
                .models
                .iter_mut()
                .zip(&pyramid)
                .map(|(model, layer_flow)| {
                    scope.spawn(move |_| model.fit(layer_flow, cfg, train_targets))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("layer training panicked"))
                .collect()
        })
        .expect("crossbeam scope");
        // the paper's Table II reports the *total* cost of the per-scale
        // models, so sum across layers
        TrainStats {
            epochs: stats.first().map_or(0, |s| s.epochs),
            sec_per_epoch: stats.iter().map(|s| s.sec_per_epoch).sum(),
            final_loss: stats.iter().map(|s| s.final_loss).sum::<f32>() / stats.len() as f32,
            num_params: stats.iter().map(|s| s.num_params).sum(),
        }
    }

    fn predict_pyramid(
        &mut self,
        flow: &FlowSeries,
        cfg: &TemporalConfig,
        targets: &[usize],
    ) -> Vec<Vec<Vec<f32>>> {
        let pyramid = flow.pyramid(&self.hier);
        self.models
            .iter_mut()
            .zip(&pyramid)
            .map(|(model, layer_flow)| model.predict(layer_flow, cfg, targets))
            .collect()
    }

    fn num_params(&mut self) -> usize {
        self.models.iter_mut().map(|m| m.num_params()).sum()
    }
}

/// Adapts any single-scale predictor into a pyramid by *aggregating its
/// atomic predictions* — the paper's "intuitive approach" whose coarse
/// performance degrades (Sec. I), used as the single-scale baselines'
/// query strategy.
pub struct AggregatingPyramid<P: Predictor> {
    inner: P,
    hier: Hierarchy,
}

impl<P: Predictor> AggregatingPyramid<P> {
    /// Wraps a single-scale predictor.
    pub fn new(inner: P, hier: Hierarchy) -> Self {
        AggregatingPyramid { inner, hier }
    }
}

impl<P: Predictor> PyramidPredictor for AggregatingPyramid<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    fn fit(
        &mut self,
        flow: &FlowSeries,
        cfg: &TemporalConfig,
        train_targets: &[usize],
    ) -> TrainStats {
        self.inner.fit(flow, cfg, train_targets)
    }

    fn predict_pyramid(
        &mut self,
        flow: &FlowSeries,
        cfg: &TemporalConfig,
        targets: &[usize],
    ) -> Vec<Vec<Vec<f32>>> {
        let atomic = self.inner.predict(flow, cfg, targets);
        let (h, w) = (self.hier.h(), self.hier.w());
        (0..self.hier.num_layers())
            .map(|l| {
                let s = self.hier.scale(l);
                let (lh, lw) = self.hier.layer_dims(l);
                atomic
                    .iter()
                    .map(|frame| {
                        let mut agg = vec![0.0f32; lh * lw];
                        for r in 0..h {
                            for c in 0..w {
                                agg[(r / s) * lw + c / s] += frame[r * w + c];
                            }
                        }
                        agg
                    })
                    .collect()
            })
            .collect()
    }

    fn num_params(&mut self) -> usize {
        self.inner.num_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hm::HistoryMean;

    fn flow_and_cfg() -> (FlowSeries, TemporalConfig) {
        let cfg = TemporalConfig {
            closeness: 2,
            period: 1,
            trend: 1,
            steps_per_day: 4,
            days_per_week: 2,
        };
        let mut flow = FlowSeries::zeros(48, 4, 4);
        for t in 0..48 {
            for r in 0..4 {
                for c in 0..4 {
                    flow.set(t, r, c, 1.0 + ((t + r) % 4) as f32);
                }
            }
        }
        (flow, cfg)
    }

    #[test]
    fn ensemble_covers_all_layers() {
        let (flow, cfg) = flow_and_cfg();
        let hier = Hierarchy::new(4, 4, 2, 3).unwrap();
        let mut rng = SeededRng::new(1);
        let mut ens = MultiScaleEnsemble::m_st_resnet(
            hier,
            &mut rng,
            cfg.channels(),
            TrainConfig {
                epochs: 2,
                ..TrainConfig::default()
            },
        );
        let train: Vec<usize> = (cfg.min_target()..40).collect();
        let stats = ens.fit(&flow, &cfg, &train);
        assert!(stats.num_params > 0);
        let pyr = ens.predict_pyramid(&flow, &cfg, &[42, 43]);
        assert_eq!(pyr.len(), 3);
        assert_eq!(pyr[0][0].len(), 16);
        assert_eq!(pyr[1][0].len(), 4);
        assert_eq!(pyr[2][0].len(), 1);
    }

    #[test]
    fn ensemble_params_sum_layers() {
        let (_, cfg) = flow_and_cfg();
        let hier = Hierarchy::new(4, 4, 2, 3).unwrap();
        let mut rng = SeededRng::new(2);
        let mut ens =
            MultiScaleEnsemble::m_st_resnet(hier, &mut rng, cfg.channels(), TrainConfig::default());
        let single = ens.models[0].num_params();
        assert_eq!(ens.num_params(), 3 * single);
    }

    #[test]
    fn m_strn_falls_back_on_tiny_layers() {
        let (_, cfg) = flow_and_cfg();
        // a hierarchy whose top layer is 1x1 (STRN impossible there)
        let hier = Hierarchy::new(4, 4, 2, 3).unwrap();
        let mut rng = SeededRng::new(3);
        let mut ens =
            MultiScaleEnsemble::m_strn(hier, &mut rng, cfg.channels(), TrainConfig::default());
        assert!(ens.num_params() > 0);
        assert_eq!(ens.name(), "M-STRN");
    }

    #[test]
    fn aggregating_pyramid_sums_exactly() {
        let (flow, cfg) = flow_and_cfg();
        let hier = Hierarchy::new(4, 4, 2, 3).unwrap();
        let mut pyr = AggregatingPyramid::new(HistoryMean::paper(), hier);
        let preds = pyr.predict_pyramid(&flow, &cfg, &[40]);
        // coarse layers must be exact block sums of the atomic prediction
        let atomic = &preds[0][0];
        let total: f32 = atomic.iter().sum();
        assert!((preds[2][0][0] - total).abs() < 1e-4);
        let block: f32 = atomic[0] + atomic[1] + atomic[4] + atomic[5];
        assert!((preds[1][0][0] - block).abs() < 1e-4);
    }
}
