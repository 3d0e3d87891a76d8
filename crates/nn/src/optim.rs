//! The Adam optimizer and global gradient-norm clipping.
//!
//! Each has one body, driven by a parameter walk: a closure that calls its
//! argument once per trainable parameter, in a fixed order. The slice entry
//! points ([`Adam::step`], [`clip_grad_norm`]) walk a `&mut [&mut Param]`;
//! a training loop passes a network's own walk (such as
//! [`Module::visit_params`](crate::module::Module::visit_params)) to
//! [`Adam::step_walk`] and [`clip_grad_norm_walk`], so it builds no `Vec`
//! of parameters per step. Adam holds per-parameter state keyed by
//! position, so every step must walk the same parameters (same order, same
//! shapes).

use crate::param::Param;
use o4a_tensor::{adam_update_into, AdamUpdate, Tensor};

/// Adam optimizer (Kingma & Ba) with bias correction.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with standard hyper-parameters (`beta1 = 0.9`,
    /// `beta2 = 0.999`, `eps = 1e-8`).
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update step to the parameters and clears their gradients.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        self.step_walk(|f| params.iter_mut().for_each(|p| f(p)));
    }

    /// [`Adam::step`] over a parameter walk: `walk` calls its argument once
    /// per parameter. The moments are created on the first step, one per
    /// visited parameter.
    ///
    /// # Panics
    /// If a later step visits a different number of parameters, or a
    /// parameter of another shape than at the same position before.
    pub fn step_walk(&mut self, walk: impl FnOnce(&mut dyn FnMut(&mut Param))) {
        let _span = o4a_obs::span!("nn_adam_step");
        self.t += 1;
        let hp = AdamUpdate {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            bc1: 1.0 - self.beta1.powi(self.t as i32),
            bc2: 1.0 - self.beta2.powi(self.t as i32),
        };
        let fresh = self.m.is_empty();
        let (m, v) = (&mut self.m, &mut self.v);
        let mut idx = 0usize;
        walk(&mut |p| {
            if m.len() == idx {
                assert!(fresh, "optimizer applied to a different parameter list");
                m.push(Tensor::zeros(p.value.shape()));
                v.push(Tensor::zeros(p.value.shape()));
            }
            adam_update_into(&mut p.value, &p.grad, &mut m[idx], &mut v[idx], &hp)
                .expect("Adam moment shapes");
            p.zero_grad();
            idx += 1;
        });
        assert_eq!(
            idx,
            self.m.len(),
            "optimizer applied to a different parameter list"
        );
    }
}

/// Clips the global L2 norm of all gradients to at most `max_norm`.
///
/// Returns the pre-clip norm. Useful when training the deeper hierarchical
/// networks on normalized inputs.
pub fn clip_grad_norm(params: &mut [&mut Param], max_norm: f32) -> f32 {
    clip_grad_norm_walk(|f| params.iter_mut().for_each(|p| f(p)), max_norm)
}

/// [`clip_grad_norm`] over a parameter walk: `walk` calls its argument
/// once per parameter, and runs twice when the norm is clipped. The norm is
/// accumulated serially in walk order.
pub fn clip_grad_norm_walk(mut walk: impl FnMut(&mut dyn FnMut(&mut Param)), max_norm: f32) -> f32 {
    let mut total = 0.0f32;
    walk(&mut |p| total += p.grad.norm_sq());
    let norm = total.sqrt();
    o4a_obs::gauge!(
        "o4a_nn_grad_norm",
        "pre-clip global L2 gradient norm of the latest training step"
    )
    .set(f64::from(norm));
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        walk(&mut |p| p.grad.scale_in_place(scale));
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Module;

    fn quadratic_grad(p: &mut Param) {
        // loss = 0.5 * ||x||^2 => grad = x
        let g = p.value.clone();
        p.grad = g;
    }

    #[test]
    fn adam_descends_quadratic() {
        let mut p = Param::new(Tensor::from_slice(&[3.0, -7.0, 2.0]));
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            quadratic_grad(&mut p);
            opt.step(&mut [&mut p]);
        }
        assert!(p.value.norm_sq() < 1e-3, "residual {:?}", p.value);
    }

    #[test]
    fn step_clears_gradients() {
        let mut p = Param::new(Tensor::from_slice(&[1.0]));
        p.grad = Tensor::from_slice(&[1.0]);
        let mut opt = Adam::new(0.1);
        opt.step(&mut [&mut p]);
        assert_eq!(p.grad.data(), &[0.0]);
    }

    #[test]
    fn clip_reduces_large_norm() {
        let mut p = Param::new(Tensor::from_slice(&[0.0, 0.0]));
        p.grad = Tensor::from_slice(&[3.0, 4.0]);
        let pre = clip_grad_norm(&mut [&mut p], 1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((p.grad.norm_sq().sqrt() - 1.0).abs() < 1e-5);
    }

    /// A module's walk visits its parameters in `params_mut` order, so
    /// stepping through the walk and through the collected slice updates
    /// every weight alike.
    #[test]
    fn walk_matches_slice_step_bitwise() {
        use crate::layers::{Conv2d, Relu};
        use crate::module::Sequential;
        use o4a_tensor::SeededRng;

        let build = |rng: &mut SeededRng| {
            Sequential::new()
                .push(Conv2d::same3x3(rng, 2, 4))
                .push(Relu::new())
                .push(Conv2d::pointwise(rng, 4, 1))
        };
        let mut rng = SeededRng::new(77);
        let mut a = build(&mut rng);
        let mut rng = SeededRng::new(77);
        let mut b = build(&mut rng);
        let mut opt_a = Adam::new(1e-2);
        let mut opt_b = Adam::new(1e-2);
        let mut rng = SeededRng::new(99);
        for _ in 0..3 {
            let x = rng.uniform_tensor(&[2, 2, 5, 5], -1.0, 1.0);
            let ya = a.forward(&x);
            let g = Tensor::ones(ya.shape());
            a.backward(&g);
            let _yb = b.forward(&x);
            b.backward(&g);
            let na = clip_grad_norm(&mut a.params_mut(), 1.0);
            let nb = clip_grad_norm_walk(|f| b.visit_params(f), 1.0);
            assert_eq!(na.to_bits(), nb.to_bits(), "clip norm diverged");
            opt_a.step(&mut a.params_mut());
            opt_b.step_walk(|f| b.visit_params(f));
            for (pa, pb) in a.params_mut().iter().zip(b.params_mut().iter()) {
                assert_eq!(
                    pa.value
                        .data()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    pb.value
                        .data()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    "walked step diverged from the slice step"
                );
            }
        }
    }

    #[test]
    fn clip_leaves_small_norm() {
        let mut p = Param::new(Tensor::from_slice(&[0.0]));
        p.grad = Tensor::from_slice(&[0.5]);
        clip_grad_norm(&mut [&mut p], 1.0);
        assert_eq!(p.grad.data(), &[0.5]);
    }
}
