//! Composite spatial-modeling blocks (paper Sec. IV-B2, Fig. 7).
//!
//! The paper evaluates three interchangeable spatial-modeling blocks:
//!
//! * **ConvBlock** — a plain `conv -> ReLU` stack (Zhang et al., DNN-based
//!   prediction),
//! * **ResBlock** — the pre-activation residual block of ST-ResNet, and
//! * **SEBlock** — a residual block whose branch output is recalibrated by a
//!   squeeze-and-excitation gate (the block used by STRN and by One4All-ST).
//!
//! All blocks keep the channel count and spatial size unchanged so they can
//! be stacked freely inside the hierarchical spatial-modeling pyramid.

use crate::layers::{Conv2d, GlobalAvgPool, Linear, Relu, Sigmoid};
use crate::module::Module;
use crate::param::Param;
use o4a_tensor::{SeededRng, Tensor};

/// Which spatial modeling block a network should use (Fig. 16 experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// Plain convolution + ReLU.
    Conv,
    /// Residual block (ST-ResNet style).
    Res,
    /// Squeeze-and-excitation residual block (One4All-ST default).
    Se,
}

impl BlockKind {
    /// Instantiates a block of this kind as a boxed [`Module`].
    pub fn build(self, rng: &mut SeededRng, channels: usize) -> Box<dyn Module> {
        match self {
            BlockKind::Conv => Box::new(ConvBlock::new(rng, channels)),
            BlockKind::Res => Box::new(ResBlock::new(rng, channels)),
            BlockKind::Se => Box::new(SeBlock::new(rng, channels)),
        }
    }

    /// Human-readable name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            BlockKind::Conv => "ConvBlock",
            BlockKind::Res => "ResBlock",
            BlockKind::Se => "SEBlock",
        }
    }
}

/// `conv3x3 -> ReLU`: the standard convolution block.
pub struct ConvBlock {
    conv: Conv2d,
    relu: Relu,
}

impl ConvBlock {
    /// Creates a conv block preserving the channel count.
    pub fn new(rng: &mut SeededRng, channels: usize) -> Self {
        ConvBlock {
            conv: Conv2d::same3x3(rng, channels, channels),
            relu: Relu::new(),
        }
    }
}

impl Module for ConvBlock {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let y = self.conv.forward(input);
        self.relu.forward(&y)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let g = self.relu.backward(grad_output);
        self.conv.backward(&g)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.conv.params_mut()
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv.visit_params(f);
    }
}

/// Pre-activation residual block: `y = x + conv(ReLU(conv(ReLU(x))))`.
pub struct ResBlock {
    relu1: Relu,
    conv1: Conv2d,
    relu2: Relu,
    conv2: Conv2d,
}

impl ResBlock {
    /// Creates a residual block preserving the channel count.
    pub fn new(rng: &mut SeededRng, channels: usize) -> Self {
        ResBlock {
            relu1: Relu::new(),
            conv1: Conv2d::same3x3(rng, channels, channels),
            relu2: Relu::new(),
            conv2: Conv2d::same3x3(rng, channels, channels),
        }
    }
}

impl Module for ResBlock {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut y = self.relu1.forward(input);
        y = self.conv1.forward(&y);
        y = self.relu2.forward(&y);
        y = self.conv2.forward(&y);
        y.add(input).expect("ResBlock shapes preserved")
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut g = self.conv2.backward(grad_output);
        g = self.relu2.backward(&g);
        g = self.conv1.backward(&g);
        g = self.relu1.backward(&g);
        // the skip connection adds grad_output directly
        g.add(grad_output).expect("ResBlock grad shapes")
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.conv1.params_mut();
        p.extend(self.conv2.params_mut());
        p
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_params(f);
        self.conv2.visit_params(f);
    }
}

/// Squeeze-and-excitation residual block (Fig. 7 right):
///
/// ```text
/// u = conv(ReLU(conv(ReLU(x))))            (residual branch)
/// s = sigmoid(W2 ReLU(W1 GAP(u)))          (squeeze & excite, per channel)
/// y = x + u * s                            (channel-wise recalibration)
/// ```
///
/// The excitation MLP uses a reduction ratio of 4 (minimum hidden width 2).
pub struct SeBlock {
    relu1: Relu,
    conv1: Conv2d,
    relu2: Relu,
    conv2: Conv2d,
    pool: GlobalAvgPool,
    fc1: Linear,
    fc_relu: Relu,
    fc2: Linear,
    gate: Sigmoid,
    cache: Option<SeCache>,
    // per-step workspaces for the branch gradient and the channel-scale
    // gradient (fully overwritten each backward)
    du_ws: Tensor,
    ds_ws: Tensor,
}

struct SeCache {
    branch: Tensor, // u: [n, c, h, w]
    scale: Tensor,  // s: [n, c]
}

impl SeBlock {
    /// Creates an SE block preserving the channel count.
    pub fn new(rng: &mut SeededRng, channels: usize) -> Self {
        let hidden = (channels / 4).max(2);
        let mut fc1 = Linear::new(rng, channels, hidden);
        // with a narrow excitation, a zero bias can leave every hidden ReLU
        // unit dead at init (GAP concentrates the inputs); a small positive
        // bias keeps the gate trainable
        fc1.bias_mut().value.fill(0.1);
        SeBlock {
            relu1: Relu::new(),
            conv1: Conv2d::same3x3(rng, channels, channels),
            relu2: Relu::new(),
            conv2: Conv2d::same3x3(rng, channels, channels),
            pool: GlobalAvgPool::new(),
            fc1,
            fc_relu: Relu::new(),
            fc2: Linear::new(rng, hidden, channels),
            gate: Sigmoid::new(),
            cache: None,
            du_ws: Tensor::empty(),
            ds_ws: Tensor::empty(),
        }
    }
}

impl Module for SeBlock {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut u = self.relu1.forward(input);
        u = self.conv1.forward(&u);
        u = self.relu2.forward(&u);
        u = self.conv2.forward(&u);

        let z = self.pool.forward(&u);
        let mut s = self.fc1.forward(&z);
        s = self.fc_relu.forward(&s);
        s = self.fc2.forward(&s);
        s = self.gate.forward(&s);

        // y = x + u * s  (s broadcast over the spatial plane)
        let (n, c, h, w) = (u.shape()[0], u.shape()[1], u.shape()[2], u.shape()[3]);
        let plane = h * w;
        let mut y = input.clone();
        {
            let yd = y.data_mut();
            let ud = u.data();
            let sd = s.data();
            for b in 0..n {
                for ch in 0..c {
                    let sv = sd[b * c + ch];
                    let off = (b * c + ch) * plane;
                    for i in 0..plane {
                        yd[off + i] += ud[off + i] * sv;
                    }
                }
            }
        }
        self.cache = Some(SeCache {
            branch: u,
            scale: s,
        });
        y
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let SeCache { branch, scale } = self.cache.take().expect("SeBlock backward before forward");
        let (n, c, h, w) = (
            branch.shape()[0],
            branch.shape()[1],
            branch.shape()[2],
            branch.shape()[3],
        );
        let plane = h * w;

        // du_direct = dy * s ; ds = sum_hw(dy * u)
        self.du_ws.reset_uninit(&[n, c, h, w]);
        self.ds_ws.reset_uninit(&[n, c]);
        {
            let gd = grad_output.data();
            let ud = branch.data();
            let sd = scale.data();
            let du = self.du_ws.data_mut();
            for (bc, &sv) in sd.iter().enumerate() {
                let off = bc * plane;
                let mut acc = 0.0f32;
                for i in 0..plane {
                    du[off + i] = gd[off + i] * sv;
                    acc += gd[off + i] * ud[off + i];
                }
                self.ds_ws.data_mut()[bc] = acc;
            }
        }

        // back through the excitation MLP into the pooled squeeze
        let mut gs = self.gate.backward(&self.ds_ws);
        gs = self.fc2.backward(&gs);
        gs = self.fc_relu.backward(&gs);
        gs = self.fc1.backward(&gs);
        let du_pool = self.pool.backward(&gs);

        // total branch gradient
        self.du_ws.add_assign(&du_pool).expect("du shapes");

        // back through the residual branch
        let mut g = self.conv2.backward(&self.du_ws);
        g = self.relu2.backward(&g);
        g = self.conv1.backward(&g);
        g = self.relu1.backward(&g);
        // plus the identity skip
        g.add(grad_output).expect("SeBlock grad shapes")
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.conv1.params_mut();
        p.extend(self.conv2.params_mut());
        p.extend(self.fc1.params_mut());
        p.extend(self.fc2.params_mut());
        p
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_params(f);
        self.conv2.visit_params(f);
        self.fc1.visit_params(f);
        self.fc2.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_module_gradients;

    #[test]
    fn blocks_preserve_shape() {
        let mut rng = SeededRng::new(1);
        let x = rng.uniform_tensor(&[2, 8, 6, 6], -1.0, 1.0);
        for kind in [BlockKind::Conv, BlockKind::Res, BlockKind::Se] {
            let mut block = kind.build(&mut rng, 8);
            let y = block.forward(&x);
            assert_eq!(y.shape(), x.shape(), "{} changed shape", kind.name());
            let gi = block.backward(&Tensor::ones(y.shape()));
            assert_eq!(gi.shape(), x.shape());
        }
    }

    #[test]
    fn res_block_is_identity_plus_branch() {
        let mut rng = SeededRng::new(2);
        let mut block = ResBlock::new(&mut rng, 4);
        // zero out the convs => block must be the identity
        for p in block.params_mut() {
            p.value.fill(0.0);
        }
        let x = rng.uniform_tensor(&[1, 4, 3, 3], -1.0, 1.0);
        let y = block.forward(&x);
        assert!(y.allclose(&x, 1e-6));
    }

    #[test]
    fn se_block_gate_in_unit_interval_effect() {
        // With zero convs the SE branch is zero so the output equals the input.
        let mut rng = SeededRng::new(3);
        let mut block = SeBlock::new(&mut rng, 4);
        for p in block.params_mut() {
            p.value.fill(0.0);
        }
        let x = rng.uniform_tensor(&[1, 4, 3, 3], -1.0, 1.0);
        let y = block.forward(&x);
        assert!(y.allclose(&x, 1e-6));
    }

    #[test]
    fn param_counts_ordered_conv_res_se() {
        let mut rng = SeededRng::new(4);
        let mut cb = ConvBlock::new(&mut rng, 8);
        let mut rb = ResBlock::new(&mut rng, 8);
        let mut se = SeBlock::new(&mut rng, 8);
        assert!(cb.num_params() < rb.num_params());
        assert!(rb.num_params() < se.num_params());
    }

    #[test]
    fn gradcheck_conv_block() {
        let mut rng = SeededRng::new(21);
        let block = ConvBlock::new(&mut rng, 3);
        let x = rng.uniform_tensor(&[2, 3, 4, 4], -1.0, 1.0);
        check_module_gradients(block, &x, 1e-3, 3e-2);
    }

    #[test]
    fn gradcheck_res_block() {
        let mut rng = SeededRng::new(22);
        let block = ResBlock::new(&mut rng, 3);
        let x = rng.uniform_tensor(&[2, 3, 4, 4], -1.0, 1.0);
        check_module_gradients(block, &x, 1e-3, 3e-2);
    }

    #[test]
    fn gradcheck_se_block() {
        let mut rng = SeededRng::new(23);
        let block = SeBlock::new(&mut rng, 4);
        let x = rng.uniform_tensor(&[2, 4, 3, 3], -1.0, 1.0);
        check_module_gradients(block, &x, 1e-3, 3e-2);
    }
}
