//! The [`Module`] trait and the [`Sequential`] container.

use crate::param::Param;
use o4a_tensor::Tensor;

/// A neural-network building block with an explicit backward pass.
///
/// The contract:
///
/// 1. `forward(&mut self, input)` computes the output and caches whatever
///    the backward pass needs (typically the input and/or intermediate
///    activations).
/// 2. `backward(&mut self, grad_output)` consumes the cache, **accumulates**
///    gradients into the module's [`Param`]s, and returns the gradient with
///    respect to the module input.
/// 3. `backward` must be preceded by a matching `forward`; modules panic on
///    a missing cache because that is a programming error in the caller.
/// 4. [`Module::visit_params`] is the module's one parameter walk. Training
///    ([`crate::optim`]), gradient checks ([`crate::gradcheck`]) and saved
///    weights ([`crate::persist`]) all read the parameters through it, so
///    they agree on the order by construction.
///
/// Modules are `Send` so multi-scale ensembles can train one model per
/// hierarchy layer on worker threads (crossbeam scoped threads in
/// `o4a-models`).
pub trait Module: Send {
    /// Forward pass. Caches intermediates needed by [`Module::backward`].
    fn forward(&mut self, input: &Tensor) -> Tensor;

    /// Backward pass: accumulates parameter gradients, returns the input
    /// gradient.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Calls `f` once per trainable parameter, in a fixed order, without
    /// allocating. It has no default, so a layer with parameters cannot
    /// leave them untrained by omission; a parameterless layer writes an
    /// empty body.
    fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param));

    /// Every trainable parameter in [`Module::visit_params`] order,
    /// collected for callers that index them (gradient checks,
    /// [`crate::persist`]). Implementations keep this default.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = Vec::new();
        self.visit_params(&mut |p| params.push(p));
        params
    }

    /// Clears every parameter gradient.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total number of trainable scalars.
    fn num_params(&mut self) -> usize {
        let mut total = 0usize;
        self.visit_params(&mut |p| total += p.len());
        total
    }
}

/// A chain of modules applied in order.
pub struct Sequential {
    layers: Vec<Box<dyn Module>>,
}

impl Sequential {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer, builder-style.
    pub fn push(mut self, layer: impl Module + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Module>) {
        self.layers.push(layer);
    }

    /// Number of layers in the chain.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for Sequential {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x);
        }
        x
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu};
    use o4a_tensor::SeededRng;

    #[test]
    fn sequential_composes_forward() {
        let mut rng = SeededRng::new(1);
        let mut net = Sequential::new()
            .push(Linear::new(&mut rng, 4, 8))
            .push(Relu::new())
            .push(Linear::new(&mut rng, 8, 2));
        let x = rng.uniform_tensor(&[3, 4], -1.0, 1.0);
        let y = net.forward(&x);
        assert_eq!(y.shape(), &[3, 2]);
        assert!(net.num_params() > 0);
    }

    #[test]
    fn sequential_backward_shape() {
        let mut rng = SeededRng::new(2);
        let mut net = Sequential::new()
            .push(Linear::new(&mut rng, 4, 8))
            .push(Relu::new())
            .push(Linear::new(&mut rng, 8, 2));
        let x = rng.uniform_tensor(&[3, 4], -1.0, 1.0);
        let y = net.forward(&x);
        let gi = net.backward(&Tensor::ones(y.shape()));
        assert_eq!(gi.shape(), x.shape());
    }

    #[test]
    fn zero_grad_clears_all() {
        let mut rng = SeededRng::new(3);
        let mut net = Sequential::new().push(Linear::new(&mut rng, 2, 2));
        let x = rng.uniform_tensor(&[1, 2], -1.0, 1.0);
        let y = net.forward(&x);
        net.backward(&Tensor::ones(y.shape()));
        assert!(net.params_mut().iter().any(|p| p.grad.norm_sq() > 0.0));
        net.zero_grad();
        assert!(net.params_mut().iter().all(|p| p.grad.norm_sq() == 0.0));
    }
}
