//! STRN-lite: fine-grained prediction enhanced by a coarse context path
//! (Liang et al., WWW 2021).
//!
//! STRN's key mechanism is letting a coarse-grained representation (their
//! "global relation module") assist the fine-grained prediction. The lite
//! version keeps exactly that shape:
//!
//! ```text
//! x -> conv -> ReLU -> h
//! fine   = SEBlock(h)
//! coarse = SEBlock(merge_2x2(h))           (global context at 1/2 res.)
//! y      = pointwise(fine + upsample(coarse))
//! ```

use crate::predictor::{DeepGridModel, TrainConfig};
use o4a_nn::blocks::SeBlock;
use o4a_nn::layers::{Conv2d, Relu, Upsample};
use o4a_nn::module::Module;
use o4a_nn::param::Param;
use o4a_tensor::{SeededRng, Tensor};

/// The STRN-lite network (see module docs for the dataflow).
pub struct StrnNet {
    conv_in: Conv2d,
    relu: Relu,
    se_fine: SeBlock,
    merge: Conv2d,
    se_coarse: SeBlock,
    up: Upsample,
    head: Conv2d,
}

impl StrnNet {
    /// Creates the network with `channels` input channels and hidden width
    /// `d`. Raster dimensions must be even (the coarse path halves them).
    pub fn new(rng: &mut SeededRng, channels: usize, d: usize) -> Self {
        StrnNet {
            conv_in: Conv2d::same3x3(rng, channels, d),
            relu: Relu::new(),
            se_fine: SeBlock::new(rng, d),
            merge: Conv2d::scale_merge(rng, d, 2),
            se_coarse: SeBlock::new(rng, d),
            up: Upsample::new(2),
            head: Conv2d::pointwise(rng, d, 1),
        }
    }
}

impl Module for StrnNet {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let h = self.relu.forward(&self.conv_in.forward(input));
        let fine = self.se_fine.forward(&h);
        let coarse = self.se_coarse.forward(&self.merge.forward(&h));
        let fused = fine
            .add(&self.up.forward(&coarse))
            .expect("fine/coarse resolutions align");
        self.head.forward(&fused)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let g_fused = self.head.backward(grad_output);
        // the add fans the gradient into both branches
        let g_coarse = self.se_coarse.backward(&self.up.backward(&g_fused));
        let mut g_h = self.merge.backward(&g_coarse);
        g_h.add_assign(&self.se_fine.backward(&g_fused))
            .expect("branch gradients align");
        self.conv_in.backward(&self.relu.backward(&g_h))
    }

    fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param)) {
        self.conv_in.visit_params(f);
        self.se_fine.visit_params(f);
        self.merge.visit_params(f);
        self.se_coarse.visit_params(f);
        self.head.visit_params(f);
    }
}

/// Builder for the STRN-lite predictor.
pub struct StrnLite;

impl StrnLite {
    /// Standard laptop-scale instantiation (hidden width 16).
    pub fn standard(rng: &mut SeededRng, channels: usize, train_cfg: TrainConfig) -> DeepGridModel {
        DeepGridModel::new("STRN", Box::new(StrnNet::new(rng, channels, 16)), train_cfg)
    }

    /// Custom hidden width.
    pub fn build(
        rng: &mut SeededRng,
        channels: usize,
        d: usize,
        train_cfg: TrainConfig,
    ) -> DeepGridModel {
        DeepGridModel::new("STRN", Box::new(StrnNet::new(rng, channels, d)), train_cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o4a_nn::gradcheck::check_module_gradients;

    #[test]
    fn shapes_roundtrip() {
        let mut rng = SeededRng::new(1);
        let mut net = StrnNet::new(&mut rng, 5, 8);
        let x = rng.uniform_tensor(&[2, 5, 8, 8], -1.0, 1.0);
        let y = net.forward(&x);
        assert_eq!(y.shape(), &[2, 1, 8, 8]);
        let g = net.backward(&Tensor::ones(y.shape()));
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    fn gradcheck_strn() {
        let mut rng = SeededRng::new(2);
        let net = StrnNet::new(&mut rng, 3, 4);
        let x = rng.uniform_tensor(&[1, 3, 4, 4], -1.0, 1.0);
        check_module_gradients(net, &x, 1e-3, 3e-2);
    }

    #[test]
    fn learns_on_periodic_flow() {
        use crate::predictor::Predictor;
        use o4a_data::features::TemporalConfig;
        use o4a_data::flow::FlowSeries;
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
                    flow.set(t, r, c, 2.0 + 3.0 * ((t + r) % 4) as f32);
                }
            }
        }
        let mut rng = SeededRng::new(3);
        let mut model = StrnLite::build(
            &mut rng,
            cfg.channels(),
            8,
            TrainConfig {
                epochs: 25,
                ..TrainConfig::default()
            },
        );
        let train: Vec<usize> = (cfg.min_target()..40).collect();
        model.fit(&flow, &cfg, &train);
        let (rmse, _) = crate::predictor::evaluate_atomic(&mut model, &flow, &cfg, &[42, 43]);
        assert!(rmse < 2.0, "STRN-lite failed to learn: rmse {rmse}");
    }
}
