//! The hierarchical multi-scale spatio-temporal network (Sec. IV-B, Fig. 6).
//!
//! Dataflow for a hierarchy with `n` layers:
//!
//! ```text
//! XC, XP, XT  --conv each-->  concat --1x1-->  pre            (Eq. 6-7)
//! h[0] = SM_0(pre)
//! h[i] = SM_i(Merge_i(h[i-1]))          (hierarchical, Eq. 8)
//!   or  = SM_i(Direct_i(pre))           (w/o HSM ablation)
//! H[n-1] = h[n-1]
//! H[i]   = h[i] + Upsample(H[i+1])      (cross-scale, Eq. 9)
//! y[i]   = Head_i(H[i])                 (scale-specific, Eq. 10)
//! ```
//!
//! The scale-merging layer is a `K x K` convolution with stride `K`; the
//! spatial modeling block defaults to the SE block and can be swapped
//! (Fig. 16). Training applies per-scale normalization (Eq. 11) so the
//! summed multi-task loss (Eq. 12) weighs every scale equally; the network
//! trains through the shared loop of `o4a-models` as a [`TrainNet`] with
//! one output per layer.

use o4a_grid::Hierarchy;
use o4a_models::predictor::TrainNet;
use o4a_nn::blocks::BlockKind;
use o4a_nn::layers::{Conv2d, Relu, Upsample};
use o4a_nn::module::Module;
use o4a_nn::param::Param;
use o4a_tensor::{SeededRng, Tensor};

/// Configuration of the One4All-ST network.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Channels of the closeness / period / trend views (must sum to the
    /// sample channel count).
    pub view_sizes: [usize; 3],
    /// Hidden width `D`.
    pub d: usize,
    /// Spatial modeling block (Fig. 16; SE by default).
    pub block: BlockKind,
    /// Hierarchical spatial modeling on (`false` = the w/o-HSM ablation of
    /// Table IV: every scale learns from the fused temporal features
    /// directly).
    pub hierarchical: bool,
}

impl NetworkConfig {
    /// The default configuration for a temporal setting.
    pub fn standard(view_sizes: [usize; 3]) -> Self {
        NetworkConfig {
            view_sizes,
            d: 16,
            block: BlockKind::Se,
            hierarchical: true,
        }
    }
}

/// The hierarchical multi-scale network. Produces one prediction tensor
/// per hierarchy layer.
pub struct One4AllNet {
    cfg: NetworkConfig,
    num_layers: usize,
    // temporal modeling
    conv_c: Conv2d,
    conv_p: Conv2d,
    conv_t: Conv2d,
    fuse: Conv2d,
    fuse_relu: Relu,
    // hierarchical spatial modeling
    merges: Vec<Conv2d>,          // n-1 scale-merging layers (HSM mode)
    directs: Vec<Conv2d>,         // n-1 direct downsamplers (w/o HSM mode)
    blocks: Vec<Box<dyn Module>>, // n spatial modeling blocks
    // cross-scale top-down pathway
    ups: Vec<Upsample>, // n-1 upsamplers (factor K)
    // scale-specific heads
    heads: Vec<Conv2d>,
    // shape of the fused temporal features `pre`, kept by forward_multi
    // for backward_multi's gradient buffer
    cache_pre_shape: Option<[usize; 4]>,
}

impl One4AllNet {
    /// Creates the network for a hierarchy.
    pub fn new(rng: &mut SeededRng, hier: &Hierarchy, cfg: NetworkConfig) -> Self {
        let n = hier.num_layers();
        let k = hier.k();
        let d = cfg.d;
        let dt = (d / 2).max(4); // per-view temporal channels
        let conv_c = Conv2d::same3x3(rng, cfg.view_sizes[0], dt);
        let conv_p = Conv2d::same3x3(rng, cfg.view_sizes[1], dt);
        let conv_t = Conv2d::same3x3(rng, cfg.view_sizes[2], dt);
        let fuse = Conv2d::pointwise(rng, 3 * dt, d);
        let merges = (1..n).map(|_| Conv2d::scale_merge(rng, d, k)).collect();
        let directs = (1..n)
            .map(|l| {
                let s = hier.scale(l);
                Conv2d::new(rng, d, d, s, s, 0)
            })
            .collect();
        let blocks = (0..n).map(|_| cfg.block.build(rng, d)).collect();
        let ups = (1..n).map(|_| Upsample::new(k)).collect();
        let heads = (0..n).map(|_| Conv2d::pointwise(rng, d, 1)).collect();
        One4AllNet {
            cfg,
            num_layers: n,
            conv_c,
            conv_p,
            conv_t,
            fuse,
            fuse_relu: Relu::new(),
            merges,
            directs,
            blocks,
            ups,
            heads,
            cache_pre_shape: None,
        }
    }

    /// Number of hierarchy layers predicted.
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// The configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Multi-scale forward pass: input `[n, channels, H, W]`, one output
    /// `[n, 1, h_l, w_l]` per layer (finest first).
    pub fn forward_multi(&mut self, input: &Tensor) -> Vec<Tensor> {
        // temporal modeling (Eq. 6-7)
        let views = input
            .split_channels(&self.cfg.view_sizes)
            .expect("input channels match temporal views");
        let tc = self.conv_c.forward(&views[0]);
        let tp = self.conv_p.forward(&views[1]);
        let tt = self.conv_t.forward(&views[2]);
        let cat = Tensor::concat_channels(&[&tc, &tp, &tt]).expect("temporal concat");
        let pre = self.fuse_relu.forward(&self.fuse.forward(&cat));
        self.cache_pre_shape = Some(pre.shape().try_into().expect("pre is [n, d, H, W]"));

        // hierarchical spatial modeling (Eq. 8)
        let mut h: Vec<Tensor> = Vec::with_capacity(self.num_layers);
        h.push(self.blocks[0].forward(&pre));
        for i in 1..self.num_layers {
            let merged = if self.cfg.hierarchical {
                self.merges[i - 1].forward(&h[i - 1])
            } else {
                self.directs[i - 1].forward(&pre)
            };
            h.push(self.blocks[i].forward(&merged));
        }

        // cross-scale top-down pathway (Eq. 9)
        let mut big_h: Vec<Tensor> = h;
        for i in (0..self.num_layers - 1).rev() {
            let up = self.ups[i].forward(&big_h[i + 1]);
            big_h[i] = big_h[i].add(&up).expect("lateral shapes align");
        }

        // scale-specific heads (Eq. 10)
        big_h
            .iter()
            .enumerate()
            .map(|(i, x)| self.heads[i].forward(x))
            .collect()
    }

    /// Multi-scale backward pass: one upstream gradient per layer (finest
    /// first). Accumulates parameter gradients and returns the input
    /// gradient.
    pub fn backward_multi(&mut self, grads: &[Tensor]) -> Tensor {
        assert_eq!(grads.len(), self.num_layers, "one gradient per layer");
        let n = self.num_layers;
        // heads
        let mut g_big: Vec<Tensor> = grads
            .iter()
            .enumerate()
            .map(|(i, g)| self.heads[i].backward(g))
            .collect();
        // top-down pathway: H[i] = h[i] + Up(H[i+1]); process fine→coarse
        // so each coarse level accumulates the lateral contribution.
        for i in 0..n - 1 {
            let up_grad = self.ups[i].backward(&g_big[i]);
            g_big[i + 1] = g_big[i + 1].add(&up_grad).expect("lateral grads align");
        }
        // hierarchical chain: process coarse→fine, pushing gradients down
        // through SM and Merge into the previous layer's h.
        let mut g_pre = Tensor::zeros(
            &self
                .cache_pre_shape
                .take()
                .expect("backward_multi before forward_multi"),
        );
        let mut gh: Vec<Tensor> = g_big; // gradient wrt h[i]
        for i in (1..n).rev() {
            let g_merged = self.blocks[i].backward(&gh[i]);
            if self.cfg.hierarchical {
                let g_prev = self.merges[i - 1].backward(&g_merged);
                gh[i - 1] = gh[i - 1].add(&g_prev).expect("chain grads align");
            } else {
                let g = self.directs[i - 1].backward(&g_merged);
                g_pre.add_assign(&g).expect("direct grads align");
            }
        }
        g_pre
            .add_assign(&self.blocks[0].backward(&gh[0]))
            .expect("block0 grads align");

        // temporal modeling
        let g_cat = self.fuse.backward(&self.fuse_relu.backward(&g_pre));
        let dt = g_cat.shape()[1] / 3;
        let parts = g_cat.split_channels(&[dt, dt, dt]).expect("temporal split");
        let gc = self.conv_c.backward(&parts[0]);
        let gp = self.conv_p.backward(&parts[1]);
        let gt = self.conv_t.backward(&parts[2]);
        Tensor::concat_channels(&[&gc, &gp, &gt]).expect("input grads concat")
    }

    /// All trainable parameters, collected from the network's one walk
    /// ([`TrainNet::visit_params`]). In hierarchical mode the direct
    /// downsamplers are excluded (they are unused), and vice versa, so
    /// parameter counts reflect the active architecture.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = Vec::new();
        self.visit_params(&mut |p| params.push(p));
        params
    }
}

/// One output per hierarchy layer, finest first.
impl TrainNet for One4AllNet {
    fn forward_batch(&mut self, x: &Tensor, outs: &mut Vec<Tensor>) {
        outs.extend(self.forward_multi(x));
    }

    fn backward_batch(&mut self, grads: &[Tensor]) {
        self.backward_multi(grads);
    }

    fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param)) {
        for conv in [
            &mut self.conv_c,
            &mut self.conv_p,
            &mut self.conv_t,
            &mut self.fuse,
        ] {
            conv.visit_params(f);
        }
        let downsamplers = if self.cfg.hierarchical {
            &mut self.merges
        } else {
            &mut self.directs
        };
        for m in downsamplers {
            m.visit_params(f);
        }
        for b in &mut self.blocks {
            b.visit_params(f);
        }
        for h in &mut self.heads {
            h.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier() -> Hierarchy {
        Hierarchy::new(8, 8, 2, 3).unwrap()
    }

    fn net(hierarchical: bool) -> One4AllNet {
        let mut rng = SeededRng::new(1);
        let cfg = NetworkConfig {
            view_sizes: [2, 2, 1],
            d: 8,
            block: BlockKind::Se,
            hierarchical,
        };
        One4AllNet::new(&mut rng, &hier(), cfg)
    }

    #[test]
    fn forward_produces_all_scales() {
        let mut n = net(true);
        let mut rng = SeededRng::new(2);
        let x = rng.uniform_tensor(&[2, 5, 8, 8], -1.0, 1.0);
        let outs = n.forward_multi(&x);
        assert_eq!(outs.len(), 3);
        assert_eq!(outs[0].shape(), &[2, 1, 8, 8]);
        assert_eq!(outs[1].shape(), &[2, 1, 4, 4]);
        assert_eq!(outs[2].shape(), &[2, 1, 2, 2]);
    }

    #[test]
    fn backward_returns_input_grad() {
        let mut n = net(true);
        let mut rng = SeededRng::new(3);
        let x = rng.uniform_tensor(&[1, 5, 8, 8], -1.0, 1.0);
        let outs = n.forward_multi(&x);
        let grads: Vec<Tensor> = outs.iter().map(|o| Tensor::ones(o.shape())).collect();
        let gi = n.backward_multi(&grads);
        assert_eq!(gi.shape(), x.shape());
        assert!(gi.norm_sq() > 0.0);
    }

    #[test]
    fn every_param_receives_gradient() {
        for hierarchical in [true, false] {
            let mut n = net(hierarchical);
            let mut rng = SeededRng::new(4);
            // batch of 8: with batch 1 the SE excitation's 2-unit ReLU can
            // legitimately be dead for every channel, zeroing fc1's grad
            let x = rng.uniform_tensor(&[8, 5, 8, 8], -1.0, 1.0);
            let outs = n.forward_multi(&x);
            for p in n.params_mut() {
                p.zero_grad();
            }
            let grads: Vec<Tensor> = outs.iter().map(|o| Tensor::ones(o.shape())).collect();
            n.backward_multi(&grads);
            for (i, p) in n.params_mut().into_iter().enumerate() {
                assert!(
                    p.grad.norm_sq() > 0.0,
                    "param {i} (hierarchical={hierarchical}) got no gradient"
                );
            }
        }
    }

    /// Finite-difference check of the multi-output network: the loss is the
    /// sum of all scale outputs.
    #[test]
    fn gradcheck_multi_scale() {
        let mut rng = SeededRng::new(5);
        let cfg = NetworkConfig {
            view_sizes: [2, 1, 1],
            d: 8,
            block: BlockKind::Conv,
            hierarchical: true,
        };
        let hier = Hierarchy::new(4, 4, 2, 2).unwrap();
        let mut n = One4AllNet::new(&mut rng, &hier, cfg);
        let x = rng.uniform_tensor(&[1, 4, 4, 4], -1.0, 1.0);
        let outs = n.forward_multi(&x);
        for p in n.params_mut() {
            p.zero_grad();
        }
        let grads: Vec<Tensor> = outs.iter().map(|o| Tensor::ones(o.shape())).collect();
        let gi = n.backward_multi(&grads);

        let loss = |n: &mut One4AllNet, x: &Tensor| -> f64 {
            n.forward_multi(x)
                .iter()
                .flat_map(|t| t.data().iter())
                .map(|&v| v as f64)
                .sum()
        };
        let eps = 1e-3f32;
        let mut soft = 0usize;
        let mut total = 0usize;
        for idx in (0..x.len()).step_by(4) {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fd = ((loss(&mut n, &xp) - loss(&mut n, &xm)) / (2.0 * eps as f64)) as f32;
            let an = gi.data()[idx];
            total += 1;
            if (fd - an).abs() / fd.abs().max(1.0) > 3e-2 {
                soft += 1;
            }
        }
        assert!(
            soft * 10 <= total,
            "multi-scale gradient mismatches: {soft}/{total}"
        );
    }

    #[test]
    fn hsm_uses_fewer_params_than_from_scratch() {
        // w/o HSM needs one large direct downsampler per coarse scale; the
        // hierarchical chain reuses K x K merges. At equal width the
        // hierarchical variant must be smaller.
        let mut hsm = net(true);
        let mut scratch = net(false);
        assert!(
            hsm.num_params() < scratch.num_params(),
            "HSM {} vs from-scratch {}",
            hsm.num_params(),
            scratch.num_params()
        );
    }

    #[test]
    fn block_kind_is_respected() {
        let mut rng = SeededRng::new(6);
        let mk = |block: BlockKind, rng: &mut SeededRng| {
            let cfg = NetworkConfig {
                view_sizes: [2, 2, 1],
                d: 8,
                block,
                hierarchical: true,
            };
            One4AllNet::new(rng, &hier(), cfg)
        };
        let mut conv = mk(BlockKind::Conv, &mut rng);
        let mut se = mk(BlockKind::Se, &mut rng);
        assert!(conv.num_params() < se.num_params());
    }
}
