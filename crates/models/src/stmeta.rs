//! STMeta-lite: multi-temporal-view fusion with heterogeneous spatial
//! modeling (Wang et al., TKDE 2023).
//!
//! STMeta's meta-design combines several temporal views (closeness, daily,
//! weekly) through separate encoders and fuses them before spatial
//! modeling. The lite version encodes each view with its own convolution,
//! sums the encodings, refines them with an SE block and a graph
//! convolution over the grid adjacency, and reads out per cell.

use crate::graph_models::{GridToNodes, NodeLinear, NodesToGrid};
use crate::predictor::{DeepGridModel, TrainConfig};
use o4a_data::features::TemporalConfig;
use o4a_nn::blocks::SeBlock;
use o4a_nn::graph::{grid_adjacency, GraphConv};
use o4a_nn::layers::{Conv2d, Relu};
use o4a_nn::module::Module;
use o4a_nn::param::Param;
use o4a_tensor::{SeededRng, Tensor};

/// The STMeta-lite network.
pub struct StMetaNet {
    view_sizes: [usize; 3],
    enc_c: Conv2d,
    enc_p: Conv2d,
    enc_t: Conv2d,
    relu: Relu,
    se: SeBlock,
    to_nodes: GridToNodes,
    gc: GraphConv,
    gc_relu: Relu,
    head: NodeLinear,
    to_grid: NodesToGrid,
}

impl StMetaNet {
    /// Creates the network. `view_sizes` are the channel counts of the
    /// closeness/period/trend views (summing to the input channels).
    pub fn new(rng: &mut SeededRng, view_sizes: [usize; 3], h: usize, w: usize, d: usize) -> Self {
        StMetaNet {
            view_sizes,
            enc_c: Conv2d::same3x3(rng, view_sizes[0], d),
            enc_p: Conv2d::same3x3(rng, view_sizes[1], d),
            enc_t: Conv2d::same3x3(rng, view_sizes[2], d),
            relu: Relu::new(),
            se: SeBlock::new(rng, d),
            to_nodes: GridToNodes::new(),
            gc: GraphConv::new(rng, grid_adjacency(h, w), d, d),
            gc_relu: Relu::new(),
            head: NodeLinear::new(rng, d, 1),
            to_grid: NodesToGrid::new(h, w),
        }
    }
}

impl Module for StMetaNet {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let views = input
            .split_channels(&self.view_sizes)
            .expect("temporal views match input channels");
        let mut fused = self.enc_c.forward(&views[0]);
        fused
            .add_assign(&self.enc_p.forward(&views[1]))
            .expect("view encodings align");
        fused
            .add_assign(&self.enc_t.forward(&views[2]))
            .expect("view encodings align");
        let fused = self.relu.forward(&fused);
        let spatial = self.se.forward(&fused);
        let nodes = self
            .gc_relu
            .forward(&self.gc.forward(&self.to_nodes.forward(&spatial)));
        self.to_grid.forward(&self.head.forward(&nodes))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let g = self.head.backward(&self.to_grid.backward(grad_output));
        let g = self
            .to_nodes
            .backward(&self.gc.backward(&self.gc_relu.backward(&g)));
        let g = self.relu.backward(&self.se.backward(&g));
        // the three encoders all received the fused gradient
        let gc = self.enc_c.backward(&g);
        let gp = self.enc_p.backward(&g);
        let gt = self.enc_t.backward(&g);
        Tensor::concat_channels(&[&gc, &gp, &gt]).expect("view grads concat")
    }

    fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param)) {
        self.enc_c.visit_params(f);
        self.enc_p.visit_params(f);
        self.enc_t.visit_params(f);
        self.se.visit_params(f);
        self.gc.visit_params(f);
        self.head.visit_params(f);
    }
}

/// Builder for the STMeta-lite predictor.
pub struct StMetaLite;

impl StMetaLite {
    /// Standard instantiation bound to a temporal configuration (the views
    /// must match the sample channel layout).
    pub fn standard(
        rng: &mut SeededRng,
        cfg: &TemporalConfig,
        h: usize,
        w: usize,
        train_cfg: TrainConfig,
    ) -> DeepGridModel {
        let net = StMetaNet::new(rng, [cfg.closeness, cfg.period, cfg.trend], h, w, 16);
        DeepGridModel::new("STMeta", Box::new(net), train_cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{evaluate_atomic, Predictor};
    use o4a_data::flow::FlowSeries;
    use o4a_nn::gradcheck::check_module_gradients;

    #[test]
    fn shapes_roundtrip() {
        let mut rng = SeededRng::new(1);
        let mut net = StMetaNet::new(&mut rng, [2, 2, 1], 4, 4, 8);
        let x = rng.uniform_tensor(&[2, 5, 4, 4], -1.0, 1.0);
        let y = net.forward(&x);
        assert_eq!(y.shape(), &[2, 1, 4, 4]);
        let g = net.backward(&Tensor::ones(y.shape()));
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    fn gradcheck_stmeta() {
        let mut rng = SeededRng::new(2);
        let net = StMetaNet::new(&mut rng, [2, 1, 1], 2, 2, 4);
        let x = rng.uniform_tensor(&[1, 4, 2, 2], -1.0, 1.0);
        check_module_gradients(net, &x, 1e-3, 3e-2);
    }

    #[test]
    fn learns_on_periodic_flow() {
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
                    flow.set(t, r, c, 1.0 + 2.0 * ((t + r * c) % 4) as f32);
                }
            }
        }
        let mut rng = SeededRng::new(3);
        let mut model = StMetaLite::standard(
            &mut rng,
            &cfg,
            4,
            4,
            TrainConfig {
                epochs: 25,
                ..TrainConfig::default()
            },
        );
        let train: Vec<usize> = (cfg.min_target()..40).collect();
        model.fit(&flow, &cfg, &train);
        let (rmse, _) = evaluate_atomic(&mut model, &flow, &cfg, &[42, 43]);
        assert!(rmse < 2.2, "STMeta-lite rmse {rmse}");
        assert_eq!(model.name(), "STMeta");
    }
}
