//! The One4All-ST predictor: one network, every scale, plus the offline
//! index construction.
//!
//! Training builds one target tensor per hierarchy layer, normalizes each
//! with its own transformation (Eq. 11; one shared transformation in the
//! w/o-SN ablation) and runs the shared loop of `o4a-models`
//! ([`o4a_models::predictor::train`]) with weight 1 on every scale's MSE,
//! the plain sum of Eq. 12.

use crate::combination::{search_optimal_combinations, CombinationIndex, SearchStrategy};
use crate::network::{NetworkConfig, One4AllNet};
use o4a_data::features::{SampleSet, TemporalConfig};
use o4a_data::flow::FlowSeries;
use o4a_data::norm::Normalizer;
use o4a_grid::Hierarchy;
use o4a_models::multiscale::{block_sum, PyramidPredictor};
use o4a_models::predictor::{train, TrainConfig, TrainNet, TrainStats};
use o4a_tensor::{SeededRng, Tensor};

/// The One4All-ST model: a single hierarchical multi-scale network trained
/// with scale-normalized multi-task learning (Eq. 11–12).
pub struct One4AllSt {
    hier: Hierarchy,
    net: One4AllNet,
    norms: Vec<Normalizer>,
    /// Scale normalization on (`false` reproduces the w/o-SN ablation of
    /// Table IV: one shared normalization for every scale).
    pub scale_norm: bool,
    train_cfg: TrainConfig,
}

impl One4AllSt {
    /// Creates the model for a hierarchy and temporal configuration.
    pub fn new(
        rng: &mut SeededRng,
        hier: Hierarchy,
        cfg: &TemporalConfig,
        net_cfg: NetworkConfig,
        train_cfg: TrainConfig,
    ) -> Self {
        assert_eq!(
            net_cfg.view_sizes,
            [cfg.closeness, cfg.period, cfg.trend],
            "network views must match the temporal configuration"
        );
        let net = One4AllNet::new(rng, &hier, net_cfg);
        let norms = vec![Normalizer::identity(); hier.num_layers()];
        One4AllSt {
            hier,
            net,
            norms,
            scale_norm: true,
            train_cfg,
        }
    }

    /// Standard instantiation: SE blocks, hierarchical spatial modeling,
    /// scale normalization.
    pub fn standard(
        rng: &mut SeededRng,
        hier: Hierarchy,
        cfg: &TemporalConfig,
        train_cfg: TrainConfig,
    ) -> Self {
        let net_cfg = NetworkConfig::standard([cfg.closeness, cfg.period, cfg.trend]);
        Self::new(rng, hier, cfg, net_cfg, train_cfg)
    }

    /// Access to the network (ablation inspection, weight persistence).
    pub fn net_mut(&mut self) -> &mut One4AllNet {
        &mut self.net
    }

    /// The fitted per-scale normalizers (identity before `fit`).
    pub fn normalizers(&self) -> &[Normalizer] {
        &self.norms
    }

    /// Restores per-scale normalizers (used when loading a deployed model).
    ///
    /// # Panics
    /// Panics if the count does not match the hierarchy's layer count.
    pub fn set_normalizers(&mut self, norms: Vec<Normalizer>) {
        assert_eq!(
            norms.len(),
            self.hier.num_layers(),
            "one normalizer per layer"
        );
        self.norms = norms;
    }

    /// Number of hierarchy layers (for persistence validation).
    pub fn hierarchy_layers(&self) -> usize {
        self.hier.num_layers()
    }

    /// Builds the optimal-combination index from validation-window
    /// predictions (the offline search of Sec. IV-C).
    pub fn build_index(
        &mut self,
        flow: &FlowSeries,
        cfg: &TemporalConfig,
        val_targets: &[usize],
        strategy: SearchStrategy,
    ) -> CombinationIndex {
        let preds = self.predict_pyramid(flow, cfg, val_targets);
        let truths = truth_pyramid(&self.hier, flow, val_targets);
        search_optimal_combinations(&self.hier, &preds, &truths, strategy)
    }
}

/// Ground-truth per-layer frames for the given target slots: frame `t` of
/// each layer of `flow.pyramid(hier)`, aggregating only the target frames.
pub fn truth_pyramid(hier: &Hierarchy, flow: &FlowSeries, targets: &[usize]) -> Vec<Vec<Vec<f32>>> {
    (0..hier.num_layers())
        .map(|layer| {
            targets
                .iter()
                .map(|&t| {
                    if layer == 0 {
                        flow.frame(t).to_vec()
                    } else {
                        flow.aggregate_frame(hier, layer, t)
                    }
                })
                .collect()
        })
        .collect()
}

impl PyramidPredictor for One4AllSt {
    fn name(&self) -> &str {
        "One4All-ST"
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
        let set = SampleSet::extract_at(flow, cfg, train_targets);
        let n_layers = self.hier.num_layers();

        // per-layer targets + normalizers (Eq. 11)
        let raw_targets: Vec<Tensor> = (0..n_layers)
            .map(|l| block_sum(&set.targets, self.hier.scale(l)))
            .collect();
        self.norms = raw_targets
            .iter()
            .map(|t| Normalizer::fit(t.data()))
            .collect();
        if !self.scale_norm {
            // w/o SN: one shared transformation for every scale
            let shared = self.norms[0];
            self.norms = vec![shared; n_layers];
        }
        let inputs = self.norms[0].normalize(&set.inputs);
        let targets: Vec<Tensor> = raw_targets
            .iter()
            .zip(&self.norms)
            .map(|(t, n)| n.normalize(t))
            .collect();

        // multi-task loss: plain sum over scales (Eq. 12)
        train(
            &mut self.net,
            "One4All-ST",
            &self.train_cfg,
            &inputs,
            &targets,
            &vec![1.0; n_layers],
        )
    }

    fn predict_pyramid(
        &mut self,
        flow: &FlowSeries,
        cfg: &TemporalConfig,
        targets: &[usize],
    ) -> Vec<Vec<Vec<f32>>> {
        let n_layers = self.hier.num_layers();
        let mut out: Vec<Vec<Vec<f32>>> = (0..n_layers).map(|_| Vec::new()).collect();
        for chunk in targets.chunks(16) {
            let set = SampleSet::extract_at(flow, cfg, chunk);
            let x = self.norms[0].normalize(&set.inputs);
            let preds = self.net.forward_multi(&x);
            for (l, pred) in preds.iter().enumerate() {
                let denorm = self.norms[l].denormalize(pred);
                let plane: usize = denorm.shape()[2] * denorm.shape()[3];
                for s in 0..chunk.len() {
                    out[l].push(
                        denorm.data()[s * plane..(s + 1) * plane]
                            .iter()
                            .map(|&v| v.max(0.0))
                            .collect(),
                    );
                }
            }
        }
        out
    }

    fn num_params(&mut self) -> usize {
        self.net.num_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::predict_query;
    use o4a_grid::Mask;

    fn flow_and_cfg() -> (FlowSeries, TemporalConfig) {
        let cfg = TemporalConfig {
            closeness: 2,
            period: 1,
            trend: 1,
            steps_per_day: 4,
            days_per_week: 2,
        };
        let mut flow = FlowSeries::zeros(56, 8, 8);
        for t in 0..56 {
            for r in 0..8 {
                for c in 0..8 {
                    let hotspot = if r < 4 && c < 4 { 6.0 } else { 1.0 };
                    flow.set(t, r, c, hotspot + 2.0 * ((t + r) % 4) as f32);
                }
            }
        }
        (flow, cfg)
    }

    fn quick_model(flow: &FlowSeries, cfg: &TemporalConfig, epochs: usize) -> One4AllSt {
        let hier = Hierarchy::new(flow.h(), flow.w(), 2, 3).unwrap();
        let mut rng = SeededRng::new(7);
        let net_cfg = NetworkConfig {
            view_sizes: [cfg.closeness, cfg.period, cfg.trend],
            d: 8,
            block: o4a_nn::blocks::BlockKind::Se,
            hierarchical: true,
        };
        One4AllSt::new(
            &mut rng,
            hier,
            cfg,
            net_cfg,
            TrainConfig {
                epochs,
                ..TrainConfig::default()
            },
        )
    }

    #[test]
    fn truth_pyramid_is_the_pyramid_at_the_targets() {
        let hier = Hierarchy::new(8, 8, 2, 3).unwrap();
        // fractional values, so any change in summation order would show
        let data = (0..12 * 64)
            .map(|i| (i as f32 * 0.37).sin() * 100.0)
            .collect();
        let flow = FlowSeries::from_vec(12, 8, 8, data);
        let pyramid = flow.pyramid(&hier);
        // unsorted, repeated and empty target lists
        for targets in [&[7, 2, 11][..], &[3, 3, 0, 3], &[]] {
            let truths = truth_pyramid(&hier, &flow, targets);
            assert_eq!(truths.len(), hier.num_layers());
            for (layer, frames) in truths.iter().enumerate() {
                let expect: Vec<Vec<f32>> = targets
                    .iter()
                    .map(|&t| pyramid[layer].frame(t).to_vec())
                    .collect();
                assert_eq!(frames, &expect, "layer {layer}, targets {targets:?}");
            }
        }
    }

    #[test]
    fn fit_and_pyramid_shapes() {
        let (flow, cfg) = flow_and_cfg();
        let mut model = quick_model(&flow, &cfg, 3);
        let train: Vec<usize> = (cfg.min_target()..44).collect();
        let stats = model.fit(&flow, &cfg, &train);
        assert!(stats.num_params > 0);
        let pyr = model.predict_pyramid(&flow, &cfg, &[46, 47]);
        assert_eq!(pyr.len(), 3);
        assert_eq!(pyr[0][0].len(), 64);
        assert_eq!(pyr[1][0].len(), 16);
        assert_eq!(pyr[2][0].len(), 4);
        assert!(pyr.iter().flatten().flatten().all(|&v| v >= 0.0));
    }

    #[test]
    fn learns_multi_scale_prediction() {
        let (flow, cfg) = flow_and_cfg();
        let mut model = quick_model(&flow, &cfg, 30);
        let train: Vec<usize> = (cfg.min_target()..44).collect();
        model.fit(&flow, &cfg, &train);
        let pyr = model.predict_pyramid(&flow, &cfg, &[46, 47]);
        let truths = truth_pyramid(model.hierarchy(), &flow, &[46, 47]);
        // relative error at each scale should be modest on this learnable
        // series
        for l in 0..3 {
            let mut se = 0.0f64;
            let mut norm = 0.0f64;
            for s in 0..2 {
                for (p, t) in pyr[l][s].iter().zip(&truths[l][s]) {
                    se += ((p - t) as f64).powi(2);
                    norm += (*t as f64).powi(2);
                }
            }
            let rel = (se / norm).sqrt();
            assert!(rel < 0.5, "layer {l} relative error {rel}");
        }
    }

    #[test]
    fn scale_norm_fits_per_layer() {
        let (flow, cfg) = flow_and_cfg();
        let mut model = quick_model(&flow, &cfg, 1);
        let train: Vec<usize> = (cfg.min_target()..44).collect();
        model.fit(&flow, &cfg, &train);
        // coarser layers aggregate more flow => larger means
        assert!(model.norms[2].mean > model.norms[1].mean);
        assert!(model.norms[1].mean > model.norms[0].mean);
    }

    #[test]
    fn without_sn_shares_normalizer() {
        let (flow, cfg) = flow_and_cfg();
        let mut model = quick_model(&flow, &cfg, 1);
        model.scale_norm = false;
        let train: Vec<usize> = (cfg.min_target()..44).collect();
        model.fit(&flow, &cfg, &train);
        assert_eq!(model.norms[0], model.norms[1]);
        assert_eq!(model.norms[0], model.norms[2]);
    }

    #[test]
    fn end_to_end_index_and_query() {
        let (flow, cfg) = flow_and_cfg();
        let mut model = quick_model(&flow, &cfg, 20);
        let train: Vec<usize> = (cfg.min_target()..40).collect();
        let val: Vec<usize> = (40..46).collect();
        model.fit(&flow, &cfg, &train);
        let index = model.build_index(&flow, &cfg, &val, SearchStrategy::UnionSubtraction);
        // answer a query on a held-out slot
        let t = 48usize;
        let frames: Vec<Vec<f32>> = model
            .predict_pyramid(&flow, &cfg, &[t])
            .into_iter()
            .map(|mut per_t| per_t.remove(0))
            .collect();
        let mask = Mask::rect(8, 8, 1, 1, 5, 6);
        let pred = predict_query(model.hierarchy(), &index, &frames, &mask);
        let truth = flow.region_flow(t, &mask);
        assert!(pred >= 0.0);
        let rel = (pred - truth).abs() / truth.max(1.0);
        assert!(
            rel < 0.6,
            "query relative error {rel} (pred {pred}, truth {truth})"
        );
    }
}
