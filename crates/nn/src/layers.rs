//! Primitive layers: convolution, linear, activations, pooling, upsampling.

use crate::module::Module;
use crate::param::Param;
use o4a_tensor::{
    conv2d_bwd_into, conv2d_into, glorot_uniform, upsample_nearest, upsample_nearest_backward,
    Conv2dGrads, SeededRng, Tensor,
};

// Layers keep their backward caches and gradient outputs in persistent
// workspaces (`Tensor` fields reset in place each step) instead of cloning
// inputs and collecting fresh `Vec`s. Together with the `o4a-tensor` buffer
// pool this makes the whole forward/backward step allocation-free at steady
// state; a `primed` flag preserves the "backward before forward" panic of
// the old `Option` caches.

/// 2-D convolution layer over NCHW tensors.
///
/// With `kernel == stride` and zero padding this is exactly the paper's
/// *scale merging layer* (Sec. IV-B2): it concatenates the features of each
/// `K x K` group of neighbouring grids and applies a linear map, halving
/// (for K = 2) the spatial resolution.
pub struct Conv2d {
    weight: Param,
    bias: Param,
    stride: usize,
    pad: usize,
    // Backward re-unrolls a cached copy of the input. Retaining the packed
    // im2col panels instead is bit-identical but measured slower: the
    // panels are ~9x the input and the extra DRAM traffic outweighs the
    // skipped re-unroll on a memory-bound core.
    cache: Tensor,
    primed: bool,
    grads: Conv2dGrads,
}

impl Conv2d {
    /// Creates a convolution with Glorot-uniform weights and zero bias.
    pub fn new(
        rng: &mut SeededRng,
        c_in: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        Conv2d {
            weight: Param::new(glorot_uniform(rng, &[c_out, c_in, kernel, kernel])),
            bias: Param::new(Tensor::zeros(&[c_out])),
            stride,
            pad,
            cache: Tensor::empty(),
            primed: false,
            grads: Conv2dGrads::default(),
        }
    }

    /// A `K x K` scale-merging convolution (`kernel = stride = K`, no pad).
    pub fn scale_merge(rng: &mut SeededRng, channels: usize, k: usize) -> Self {
        Self::new(rng, channels, channels, k, k, 0)
    }

    /// A 3x3 "same" convolution (stride 1, pad 1).
    pub fn same3x3(rng: &mut SeededRng, c_in: usize, c_out: usize) -> Self {
        Self::new(rng, c_in, c_out, 3, 1, 1)
    }

    /// A 1x1 pointwise convolution (per-grid linear map — the paper's
    /// scale-specific MLP heads, Eq. 10).
    pub fn pointwise(rng: &mut SeededRng, c_in: usize, c_out: usize) -> Self {
        Self::new(rng, c_in, c_out, 1, 1, 0)
    }
}

impl Module for Conv2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut out = Tensor::empty();
        conv2d_into(
            input,
            &self.weight.value,
            &self.bias.value,
            self.stride,
            self.pad,
            &mut out,
        )
        .expect("Conv2d forward: invalid shapes");
        self.cache.copy_from(input);
        self.primed = true;
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert!(self.primed, "Conv2d backward before forward");
        self.primed = false;
        conv2d_bwd_into(
            &self.cache,
            &self.weight.value,
            &self.bias.value,
            self.stride,
            self.pad,
            grad_output,
            &mut self.grads,
        )
        .expect("Conv2d backward: invalid shapes");
        self.weight.accumulate(&self.grads.grad_weight);
        self.bias.accumulate(&self.grads.grad_bias);
        // hand the input gradient upstream without a copy; the next backward
        // resizes the emptied workspace in place (through the pool)
        std::mem::replace(&mut self.grads.grad_input, Tensor::empty())
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

/// Fully connected layer: `y = x W^T + b` with `x: [n, in]`, `W: [out, in]`.
pub struct Linear {
    weight: Param,
    bias: Param,
    cache: Tensor,
    primed: bool,
    // per-step workspaces: transposed weight, transposed grad, dW, db
    wt: Tensor,
    gyt: Tensor,
    gw: Tensor,
    gb: Tensor,
}

impl Linear {
    /// Creates a linear layer with Glorot-uniform weights and zero bias.
    pub fn new(rng: &mut SeededRng, d_in: usize, d_out: usize) -> Self {
        Linear {
            weight: Param::new(glorot_uniform(rng, &[d_out, d_in])),
            bias: Param::new(Tensor::zeros(&[d_out])),
            cache: Tensor::empty(),
            primed: false,
            wt: Tensor::empty(),
            gyt: Tensor::empty(),
            gw: Tensor::empty(),
            gb: Tensor::empty(),
        }
    }

    /// Mutable access to the bias parameter (e.g. for a positive
    /// initialisation that keeps a following ReLU alive).
    pub fn bias_mut(&mut self) -> &mut Param {
        &mut self.bias
    }
}

impl Module for Linear {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.rank(), 2, "Linear expects [n, d_in]");
        self.weight
            .value
            .transpose2_into(&mut self.wt)
            .expect("weight is rank 2");
        let mut out = input.matmul(&self.wt).expect("Linear forward shapes");
        let (n, d_out) = (out.shape()[0], out.shape()[1]);
        let b = self.bias.value.data();
        for i in 0..n {
            let row = &mut out.data_mut()[i * d_out..(i + 1) * d_out];
            for (o, &bv) in row.iter_mut().zip(b) {
                *o += bv;
            }
        }
        self.cache.copy_from(input);
        self.primed = true;
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert!(self.primed, "Linear backward before forward");
        self.primed = false;
        // dW = dY^T X ; db = sum over batch ; dX = dY W
        grad_output
            .transpose2_into(&mut self.gyt)
            .expect("grad rank 2");
        self.gyt
            .matmul_into(&self.cache, &mut self.gw)
            .expect("Linear dW shapes");
        self.weight.accumulate(&self.gw);
        grad_output
            .sum_axis0_into(&mut self.gb)
            .expect("grad rank 2");
        self.bias.accumulate(&self.gb);
        grad_output
            .matmul(&self.weight.value)
            .expect("Linear dX shapes")
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

/// Rectified linear activation.
pub struct Relu {
    mask: Vec<bool>,
    primed: bool,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Relu {
            mask: Vec::new(),
            primed: false,
        }
    }
}

impl Default for Relu {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for Relu {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.mask.clear();
        self.mask.extend(input.data().iter().map(|&v| v > 0.0));
        self.primed = true;
        input.relu()
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert!(self.primed, "Relu backward before forward");
        self.primed = false;
        let mut out = Tensor::uninit(grad_output.shape());
        for ((o, &g), &m) in out
            .data_mut()
            .iter_mut()
            .zip(grad_output.data())
            .zip(&self.mask)
        {
            *o = if m { g } else { 0.0 };
        }
        out
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }
}

/// Logistic sigmoid activation.
pub struct Sigmoid {
    out: Tensor,
    primed: bool,
}

impl Sigmoid {
    /// Creates a sigmoid activation.
    pub fn new() -> Self {
        Sigmoid {
            out: Tensor::empty(),
            primed: false,
        }
    }
}

impl Default for Sigmoid {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for Sigmoid {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = input.map(|v| 1.0 / (1.0 + (-v).exp()));
        self.out.copy_from(&out);
        self.primed = true;
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert!(self.primed, "Sigmoid backward before forward");
        self.primed = false;
        let mut g = Tensor::uninit(grad_output.shape());
        for ((o, &gv), &y) in g
            .data_mut()
            .iter_mut()
            .zip(grad_output.data())
            .zip(self.out.data())
        {
            *o = gv * y * (1.0 - y);
        }
        g
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }
}

/// Hyperbolic tangent activation.
pub struct Tanh {
    out: Tensor,
    primed: bool,
}

impl Tanh {
    /// Creates a tanh activation.
    pub fn new() -> Self {
        Tanh {
            out: Tensor::empty(),
            primed: false,
        }
    }
}

impl Default for Tanh {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for Tanh {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = input.map(f32::tanh);
        self.out.copy_from(&out);
        self.primed = true;
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert!(self.primed, "Tanh backward before forward");
        self.primed = false;
        let mut g = Tensor::uninit(grad_output.shape());
        for ((o, &gv), &y) in g
            .data_mut()
            .iter_mut()
            .zip(grad_output.data())
            .zip(self.out.data())
        {
            *o = gv * (1.0 - y * y);
        }
        g
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }
}

/// Global average pooling: `[n, c, h, w] -> [n, c]`.
///
/// The *squeeze* step of the SE block.
pub struct GlobalAvgPool {
    in_shape: Vec<usize>,
    primed: bool,
}

impl GlobalAvgPool {
    /// Creates a global average pool.
    pub fn new() -> Self {
        GlobalAvgPool {
            in_shape: Vec::new(),
            primed: false,
        }
    }
}

impl Default for GlobalAvgPool {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for GlobalAvgPool {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.rank(), 4, "GlobalAvgPool expects NCHW");
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let plane = h * w;
        let mut out = Tensor::uninit(&[n, c]);
        for bc in 0..n * c {
            let s: f32 = input.data()[bc * plane..(bc + 1) * plane].iter().sum();
            out.data_mut()[bc] = s / plane as f32;
        }
        self.in_shape.clear();
        self.in_shape.extend_from_slice(input.shape());
        self.primed = true;
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert!(self.primed, "GlobalAvgPool backward before forward");
        self.primed = false;
        let (n, c, h, w) = (
            self.in_shape[0],
            self.in_shape[1],
            self.in_shape[2],
            self.in_shape[3],
        );
        let plane = h * w;
        let mut out = Tensor::uninit(&self.in_shape);
        for bc in 0..n * c {
            let g = grad_output.data()[bc] / plane as f32;
            for v in &mut out.data_mut()[bc * plane..(bc + 1) * plane] {
                *v = g;
            }
        }
        out
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }
}

/// Nearest-neighbour upsampling by an integer factor (the cross-scale
/// `UpSample` of Eq. 9).
pub struct Upsample {
    factor: usize,
}

impl Upsample {
    /// Creates an upsampler with the given integer factor.
    pub fn new(factor: usize) -> Self {
        assert!(factor >= 1);
        Upsample { factor }
    }
}

impl Module for Upsample {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        upsample_nearest(input, self.factor).expect("Upsample forward")
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        upsample_nearest_backward(grad_output, self.factor).expect("Upsample backward")
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }
}

/// Flattens `[n, ...]` to `[n, prod(...)]` (and unflattens on backward).
pub struct Flatten {
    in_shape: Vec<usize>,
    primed: bool,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten {
            in_shape: Vec::new(),
            primed: false,
        }
    }
}

impl Default for Flatten {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for Flatten {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let n = input.shape()[0];
        let rest: usize = input.shape()[1..].iter().product();
        self.in_shape.clear();
        self.in_shape.extend_from_slice(input.shape());
        self.primed = true;
        input.reshape(&[n, rest]).expect("flatten reshape")
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert!(self.primed, "Flatten backward before forward");
        self.primed = false;
        grad_output
            .reshape(&self.in_shape)
            .expect("unflatten reshape")
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_module_gradients;

    #[test]
    fn conv2d_shapes() {
        let mut rng = SeededRng::new(1);
        let mut conv = Conv2d::same3x3(&mut rng, 2, 5);
        let x = rng.uniform_tensor(&[3, 2, 8, 8], -1.0, 1.0);
        let y = conv.forward(&x);
        assert_eq!(y.shape(), &[3, 5, 8, 8]);
        let gi = conv.backward(&Tensor::ones(y.shape()));
        assert_eq!(gi.shape(), x.shape());
    }

    #[test]
    fn scale_merge_halves_resolution() {
        let mut rng = SeededRng::new(2);
        let mut merge = Conv2d::scale_merge(&mut rng, 4, 2);
        let x = rng.uniform_tensor(&[1, 4, 8, 8], -1.0, 1.0);
        let y = merge.forward(&x);
        assert_eq!(y.shape(), &[1, 4, 4, 4]);
    }

    #[test]
    fn linear_known_values() {
        let mut rng = SeededRng::new(3);
        let mut lin = Linear::new(&mut rng, 2, 2);
        // overwrite params with known values
        lin.weight.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        lin.bias.value = Tensor::from_slice(&[0.5, -0.5]);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = lin.forward(&x);
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn relu_zeroes_negatives_and_grads() {
        let mut relu = Relu::new();
        let x = Tensor::from_slice(&[-1.0, 2.0, 0.0]);
        let y = relu.forward(&x);
        assert_eq!(y.data(), &[0.0, 2.0, 0.0]);
        let g = relu.backward(&Tensor::from_slice(&[1.0, 1.0, 1.0]));
        assert_eq!(g.data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn sigmoid_range_and_grad_peak() {
        let mut s = Sigmoid::new();
        let y = s.forward(&Tensor::from_slice(&[0.0]));
        assert!((y.data()[0] - 0.5).abs() < 1e-6);
        let g = s.backward(&Tensor::from_slice(&[1.0]));
        assert!((g.data()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn global_avg_pool_means() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 1, 2, 2]).unwrap();
        let y = pool.forward(&x);
        assert_eq!(y.shape(), &[1, 1]);
        assert_eq!(y.data(), &[4.0]);
        let g = pool.backward(&Tensor::from_vec(vec![4.0], &[1, 1]).unwrap());
        assert_eq!(g.data(), &[1.0; 4]);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4]);
        let y = f.forward(&x);
        assert_eq!(y.shape(), &[2, 12]);
        let g = f.backward(&Tensor::ones(&[2, 12]));
        assert_eq!(g.shape(), &[2, 3, 4]);
    }

    // ---- gradient checks certify every layer's backward pass ----

    #[test]
    fn gradcheck_conv2d() {
        let mut rng = SeededRng::new(11);
        let conv = Conv2d::new(&mut rng, 2, 3, 3, 1, 1);
        let x = rng.uniform_tensor(&[2, 2, 5, 5], -1.0, 1.0);
        check_module_gradients(conv, &x, 1e-3, 2e-2);
    }

    #[test]
    fn gradcheck_conv2d_strided() {
        let mut rng = SeededRng::new(12);
        let conv = Conv2d::scale_merge(&mut rng, 3, 2);
        let x = rng.uniform_tensor(&[2, 3, 4, 4], -1.0, 1.0);
        check_module_gradients(conv, &x, 1e-3, 2e-2);
    }

    #[test]
    fn gradcheck_linear() {
        let mut rng = SeededRng::new(13);
        let lin = Linear::new(&mut rng, 5, 4);
        let x = rng.uniform_tensor(&[3, 5], -1.0, 1.0);
        check_module_gradients(lin, &x, 1e-3, 2e-2);
    }

    #[test]
    fn gradcheck_sigmoid_tanh() {
        let mut rng = SeededRng::new(14);
        let x = rng.uniform_tensor(&[4, 3], -2.0, 2.0);
        check_module_gradients(Sigmoid::new(), &x, 1e-3, 2e-2);
        check_module_gradients(Tanh::new(), &x, 1e-3, 2e-2);
    }

    #[test]
    fn gradcheck_pool_upsample() {
        let mut rng = SeededRng::new(15);
        let x = rng.uniform_tensor(&[2, 2, 4, 4], -1.0, 1.0);
        check_module_gradients(GlobalAvgPool::new(), &x, 1e-3, 2e-2);
        check_module_gradients(Upsample::new(2), &x, 1e-3, 2e-2);
    }
}
