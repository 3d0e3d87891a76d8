//! MC-STGCN-lite: bi-scale multi-task prediction (Wang et al., TIST 2022).
//!
//! The original performs fine- and coarse-grained traffic prediction
//! simultaneously with *separate* spatial learning modules per scale and a
//! cross-scale feature-learning module, balancing the two losses with
//! manually-assigned weights — exactly the design the paper's Challenge 1
//! argues against. This lite version keeps all three properties:
//!
//! * separate graph convolutions at the atomic scale and a coarse "cluster"
//!   scale (factor x factor merged grids),
//! * a cross-scale pathway (coarse features upsampled and added to fine),
//! * a manually-weighted two-task MSE loss.
//!
//! For region queries MC-STGCN uses cluster predictions where whole
//! clusters fit inside the query and atomic predictions for the remainder
//! (implemented by [`McStgcnLite::region_from_frames`]).
//!
//! Training runs the shared loop ([`crate::predictor::train`]) over the two
//! outputs `(fine, coarse)`, weighted by [`McStgcnLite::task_weights`].

use crate::graph_models::{GridToNodes, NodeLinear, NodesToGrid};
use crate::multiscale::block_sum;
use crate::predictor::{train, Predictor, TrainConfig, TrainNet, TrainStats};
use o4a_data::features::{SampleSet, TemporalConfig};
use o4a_data::flow::FlowSeries;
use o4a_data::norm::Normalizer;
use o4a_grid::Mask;
use o4a_nn::graph::{grid_adjacency, GraphConv};
use o4a_nn::layers::{Conv2d, Relu, Upsample};
use o4a_nn::module::Module;
use o4a_nn::param::Param;
use o4a_tensor::{SeededRng, Tensor};

/// The bi-scale network. `forward2` returns `(fine, coarse)` predictions.
struct McStgcnNet {
    // fine branch
    fine_nodes: GridToNodes,
    fine_gc: GraphConv,
    fine_relu: Relu,
    // coarse branch
    merge: Conv2d,
    coarse_nodes: GridToNodes,
    coarse_gc: GraphConv,
    coarse_relu: Relu,
    // cross-scale pathway
    coarse_to_grid: NodesToGrid,
    up: Upsample,
    fused_to_nodes: GridToNodes,
    // heads
    fine_head: NodeLinear,
    fine_grid: NodesToGrid,
    coarse_head: NodeLinear,
    coarse_grid: NodesToGrid,
}

impl McStgcnNet {
    fn new(
        rng: &mut SeededRng,
        channels: usize,
        h: usize,
        w: usize,
        factor: usize,
        d: usize,
    ) -> Self {
        assert!(
            h.is_multiple_of(factor) && w.is_multiple_of(factor),
            "raster must divide by factor"
        );
        let (hc, wc) = (h / factor, w / factor);
        McStgcnNet {
            fine_nodes: GridToNodes::new(),
            fine_gc: GraphConv::new(rng, grid_adjacency(h, w), channels, d),
            fine_relu: Relu::new(),
            merge: Conv2d::new(rng, channels, channels, factor, factor, 0),
            coarse_nodes: GridToNodes::new(),
            coarse_gc: GraphConv::new(rng, grid_adjacency(hc, wc), channels, d),
            coarse_relu: Relu::new(),
            coarse_to_grid: NodesToGrid::new(hc, wc),
            up: Upsample::new(factor),
            fused_to_nodes: GridToNodes::new(),
            fine_head: NodeLinear::new(rng, d, 1),
            fine_grid: NodesToGrid::new(h, w),
            coarse_head: NodeLinear::new(rng, d, 1),
            coarse_grid: NodesToGrid::new(hc, wc),
        }
    }

    fn forward2(&mut self, input: &Tensor) -> (Tensor, Tensor) {
        // fine features
        let fine = self
            .fine_relu
            .forward(&self.fine_gc.forward(&self.fine_nodes.forward(input)));
        // coarse features
        let coarse = self.coarse_relu.forward(
            &self
                .coarse_gc
                .forward(&self.coarse_nodes.forward(&self.merge.forward(input))),
        );
        // cross-scale: coarse node features -> grid -> upsample -> nodes
        let coarse_grid_feat = self.coarse_to_grid.forward(&coarse);
        let up = self.up.forward(&coarse_grid_feat);
        let up_nodes = self.fused_to_nodes.forward(&up);
        let fused = fine.add(&up_nodes).expect("cross-scale shapes align");
        let fine_pred = self.fine_grid.forward(&self.fine_head.forward(&fused));
        let coarse_pred = self.coarse_grid.forward(&self.coarse_head.forward(&coarse));
        (fine_pred, coarse_pred)
    }

    fn backward2(&mut self, grad_fine: &Tensor, grad_coarse: &Tensor) -> Tensor {
        // heads
        let g_fused = self.fine_head.backward(&self.fine_grid.backward(grad_fine));
        let g_coarse_head = self
            .coarse_head
            .backward(&self.coarse_grid.backward(grad_coarse));
        // fused = fine + up_nodes: both branches take g_fused
        let g_up = self.fused_to_nodes.backward(&g_fused);
        let g_coarse_grid_feat = self.up.backward(&g_up);
        let g_coarse_cross = self.coarse_to_grid.backward(&g_coarse_grid_feat);
        // total coarse feature grad: head + cross-scale
        let g_coarse_total = g_coarse_head
            .add(&g_coarse_cross)
            .expect("coarse grads align");
        // coarse branch
        let g_merge_out = self.coarse_nodes.backward(
            &self
                .coarse_gc
                .backward(&self.coarse_relu.backward(&g_coarse_total)),
        );
        let g_input_coarse = self.merge.backward(&g_merge_out);
        // fine branch
        let g_input_fine = self
            .fine_nodes
            .backward(&self.fine_gc.backward(&self.fine_relu.backward(&g_fused)));
        g_input_fine
            .add(&g_input_coarse)
            .expect("input grads align")
    }
}

/// Outputs `(fine, coarse)`, in that order.
impl TrainNet for McStgcnNet {
    fn forward_batch(&mut self, x: &Tensor, outs: &mut Vec<Tensor>) {
        let (fine, coarse) = self.forward2(x);
        outs.push(fine);
        outs.push(coarse);
    }

    fn backward_batch(&mut self, grads: &[Tensor]) {
        self.backward2(&grads[0], &grads[1]);
    }

    fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param)) {
        self.fine_gc.visit_params(f);
        self.merge.visit_params(f);
        self.coarse_gc.visit_params(f);
        self.fine_head.visit_params(f);
        self.coarse_head.visit_params(f);
    }
}

/// The MC-STGCN-lite predictor.
pub struct McStgcnLite {
    net: McStgcnNet,
    factor: usize,
    /// Manual task weights `(fine, coarse)` — deliberately hand-set, as in
    /// the original (the design One4All-ST's scale normalization replaces).
    pub task_weights: (f32, f32),
    norm_fine: Normalizer,
    norm_coarse: Normalizer,
    train_cfg: TrainConfig,
}

impl McStgcnLite {
    /// Creates the model for an `h x w` raster with the given cluster
    /// factor (cluster cells are `factor x factor` atomic grids).
    pub fn new(
        rng: &mut SeededRng,
        channels: usize,
        h: usize,
        w: usize,
        factor: usize,
        train_cfg: TrainConfig,
    ) -> Self {
        McStgcnLite {
            net: McStgcnNet::new(rng, channels, h, w, factor, 16),
            factor,
            task_weights: (1.0, 0.5),
            norm_fine: Normalizer::identity(),
            norm_coarse: Normalizer::identity(),
            train_cfg,
        }
    }

    /// The cluster factor.
    pub fn factor(&self) -> usize {
        self.factor
    }

    /// Predicts cluster-scale frames (`h/f * w/f` values per target).
    pub fn predict_coarse(
        &mut self,
        flow: &FlowSeries,
        cfg: &TemporalConfig,
        targets: &[usize],
    ) -> Vec<Vec<f32>> {
        let mut out = Vec::with_capacity(targets.len());
        for chunk in targets.chunks(16) {
            let set = SampleSet::extract_at(flow, cfg, chunk);
            let x = self.norm_fine.normalize(&set.inputs);
            let (_, coarse) = self.net.forward2(&x);
            let denorm = self.norm_coarse.denormalize(&coarse);
            let plane = denorm.shape()[2] * denorm.shape()[3];
            for s in 0..chunk.len() {
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

    /// The paper's MC-STGCN region-query strategy over one slot's fine and
    /// cluster frames: cluster predictions for clusters fully inside the
    /// query, atomic predictions for the complementary cells.
    pub fn region_from_frames(
        h: usize,
        w: usize,
        factor: usize,
        fine: &[f32],
        coarse: &[f32],
        mask: &Mask,
    ) -> f32 {
        let f = factor;
        let wc = w / f;
        let mut total = 0.0f32;
        let mut used = Mask::empty(h, w);
        for cr in 0..h / f {
            for cc in 0..wc {
                if mask.covers_rect(cr * f, cc * f, (cr + 1) * f, (cc + 1) * f) {
                    total += coarse[cr * wc + cc];
                    for r in cr * f..(cr + 1) * f {
                        for c in cc * f..(cc + 1) * f {
                            used.set(r, c, true);
                        }
                    }
                }
            }
        }
        for (r, c) in mask.iter_set() {
            if !used.get(r, c) {
                total += fine[r * w + c];
            }
        }
        total
    }
}

impl Predictor for McStgcnLite {
    fn name(&self) -> &str {
        "MC-STGCN"
    }

    fn fit(
        &mut self,
        flow: &FlowSeries,
        cfg: &TemporalConfig,
        train_targets: &[usize],
    ) -> TrainStats {
        let set = SampleSet::extract_at(flow, cfg, train_targets);
        let coarse_targets = block_sum(&set.targets, self.factor);
        self.norm_fine = Normalizer::fit(set.targets.data());
        self.norm_coarse = Normalizer::fit(coarse_targets.data());
        let inputs = self.norm_fine.normalize(&set.inputs);
        let fine_t = self.norm_fine.normalize(&set.targets);
        let coarse_t = self.norm_coarse.normalize(&coarse_targets);

        let (wf, wc) = self.task_weights;
        train(
            &mut self.net,
            "MC-STGCN",
            &self.train_cfg,
            &inputs,
            &[fine_t, coarse_t],
            &[wf, wc],
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
        for chunk in targets.chunks(16) {
            let set = SampleSet::extract_at(flow, cfg, chunk);
            let x = self.norm_fine.normalize(&set.inputs);
            let (fine, _) = self.net.forward2(&x);
            let denorm = self.norm_fine.denormalize(&fine);
            for s in 0..chunk.len() {
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

#[cfg(test)]
mod tests {
    use super::*;

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
                    flow.set(t, r, c, 2.0 + ((t + r + c) % 4) as f32);
                }
            }
        }
        (flow, cfg)
    }

    #[test]
    fn forward2_shapes() {
        let mut rng = SeededRng::new(1);
        let mut net = McStgcnNet::new(&mut rng, 5, 4, 4, 2, 8);
        let x = rng.uniform_tensor(&[2, 5, 4, 4], -1.0, 1.0);
        let (f, c) = net.forward2(&x);
        assert_eq!(f.shape(), &[2, 1, 4, 4]);
        assert_eq!(c.shape(), &[2, 1, 2, 2]);
        let gi = net.backward2(&Tensor::ones(f.shape()), &Tensor::ones(c.shape()));
        assert_eq!(gi.shape(), x.shape());
    }

    #[test]
    fn bi_scale_gradients_flow() {
        let mut rng = SeededRng::new(2);
        let mut net = McStgcnNet::new(&mut rng, 3, 4, 4, 2, 4);
        let x = rng.uniform_tensor(&[1, 3, 4, 4], -1.0, 1.0);
        let (f, c) = net.forward2(&x);
        net.visit_params(&mut |p| p.zero_grad());
        net.backward2(&Tensor::ones(f.shape()), &Tensor::ones(c.shape()));
        // every parameter group should receive gradient
        let mut i = 0usize;
        net.visit_params(&mut |p| {
            assert!(p.grad.norm_sq() > 0.0, "param group {i} got no gradient");
            i += 1;
        });
        assert_eq!(
            i, 8,
            "the walk visits every parameter group of the five layers"
        );
    }

    #[test]
    fn coarse_targets_are_block_sums() {
        let mut rng = SeededRng::new(3);
        let model = McStgcnLite::new(&mut rng, 5, 4, 4, 2, TrainConfig::default());
        let t = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let agg = block_sum(&t, model.factor());
        assert_eq!(agg.shape(), &[1, 1, 2, 2]);
        assert_eq!(agg.data()[0], 0.0 + 1.0 + 4.0 + 5.0);
    }

    #[test]
    fn trains_and_predicts_both_scales() {
        let (flow, cfg) = flow_and_cfg();
        let mut rng = SeededRng::new(4);
        let mut model = McStgcnLite::new(
            &mut rng,
            cfg.channels(),
            4,
            4,
            2,
            TrainConfig {
                epochs: 15,
                ..TrainConfig::default()
            },
        );
        let train: Vec<usize> = (cfg.min_target()..40).collect();
        let stats = model.fit(&flow, &cfg, &train);
        assert!(stats.num_params > 0);
        let fine = model.predict(&flow, &cfg, &[42]);
        let coarse = model.predict_coarse(&flow, &cfg, &[42]);
        assert_eq!(fine[0].len(), 16);
        assert_eq!(coarse[0].len(), 4);
    }

    #[test]
    fn region_strategy_uses_clusters_when_covered() {
        let (flow, cfg) = flow_and_cfg();
        let mut rng = SeededRng::new(5);
        let mut model = McStgcnLite::new(
            &mut rng,
            cfg.channels(),
            4,
            4,
            2,
            TrainConfig {
                epochs: 10,
                ..TrainConfig::default()
            },
        );
        let train: Vec<usize> = (cfg.min_target()..40).collect();
        model.fit(&flow, &cfg, &train);
        let fine = model.predict(&flow, &cfg, &[42]).remove(0);
        let coarse = model.predict_coarse(&flow, &cfg, &[42]).remove(0);
        let region = |mask: &Mask| McStgcnLite::region_from_frames(4, 4, 2, &fine, &coarse, mask);
        // query covering exactly one cluster -> prediction equals the
        // cluster output
        let pred = region(&Mask::rect(4, 4, 0, 0, 2, 2));
        assert!((pred - coarse[0]).abs() < 1e-5);
        // query of one atomic cell -> equals fine output
        let pred_single = region(&Mask::rect(4, 4, 1, 1, 2, 2));
        assert!((pred_single - fine[5]).abs() < 1e-5);
    }
}
