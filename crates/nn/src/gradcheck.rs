//! Finite-difference gradient checking.
//!
//! Every layer and composite block in this workspace certifies its backward
//! pass against central finite differences. The check uses the scalar loss
//! `L = sum(forward(x))`, whose upstream gradient is a tensor of ones.

use crate::module::Module;
use o4a_tensor::Tensor;

/// Sum of all elements accumulated in f64 to dodge f32 cancellation in the
/// finite-difference quotient.
fn loss_f64(t: &Tensor) -> f64 {
    t.data().iter().map(|&v| v as f64).sum()
}

/// Checks input *and* parameter gradients of `module` at the point `x`.
///
/// * `eps` — finite-difference step (1e-2 is appropriate for f32).
/// * `tol` — maximum allowed absolute difference between analytic and
///   numeric derivatives, scaled by `max(1, |fd|)`.
///
/// Networks containing ReLU are only piecewise differentiable: a finite
/// difference that straddles a kink disagrees with the (one-sided) analytic
/// gradient even when the backward pass is correct. The check therefore
/// tolerates up to 10% mildly mismatching coordinates (relative error below
/// 0.75) and panics on anything worse.
///
/// # Panics
/// Panics with a descriptive message if the mismatch budget is exceeded or
/// any coordinate mismatches grossly.
pub fn check_module_gradients<M: Module>(mut module: M, x: &Tensor, eps: f32, tol: f32) {
    let mut soft_failures = 0usize;
    let mut checked = 0usize;
    let mut check = |label: &str, idx: usize, fd: f32, an: f32| {
        checked += 1;
        let denom = fd.abs().max(1.0);
        let rel = (fd - an).abs() / denom;
        if rel >= tol {
            assert!(
                rel < 0.75,
                "{label} grad mismatch at {idx}: fd={fd} analytic={an} (rel={rel})"
            );
            soft_failures += 1;
        }
    };
    // analytic gradients
    let y = module.forward(x);
    let ones = Tensor::ones(y.shape());
    module.zero_grad();
    let gi = module.backward(&ones);
    let analytic_param_grads: Vec<Tensor> =
        module.params_mut().iter().map(|p| p.grad.clone()).collect();

    // numeric input gradient (sample up to 24 coordinates, spread evenly)
    let n = x.len();
    let step = (n / 24).max(1);
    for idx in (0..n).step_by(step) {
        let mut xp = x.clone();
        xp.data_mut()[idx] += eps;
        let mut xm = x.clone();
        xm.data_mut()[idx] -= eps;
        let fp = loss_f64(&module.forward(&xp));
        let fm = loss_f64(&module.forward(&xm));
        let fd = ((fp - fm) / (2.0 * eps as f64)) as f32;
        let an = gi.data()[idx];
        check("input", idx, fd, an);
    }

    // numeric parameter gradients
    let param_count = analytic_param_grads.len();
    for pi in 0..param_count {
        let plen = analytic_param_grads[pi].len();
        let pstep = (plen / 12).max(1);
        for idx in (0..plen).step_by(pstep) {
            let orig = {
                let mut params = module.params_mut();
                let v = params[pi].value.data()[idx];
                params[pi].value.data_mut()[idx] = v + eps;
                v
            };
            let fp = loss_f64(&module.forward(x));
            {
                let mut params = module.params_mut();
                params[pi].value.data_mut()[idx] = orig - eps;
            }
            let fm = loss_f64(&module.forward(x));
            {
                let mut params = module.params_mut();
                params[pi].value.data_mut()[idx] = orig;
            }
            let fd = ((fp - fm) / (2.0 * eps as f64)) as f32;
            let an = analytic_param_grads[pi].data()[idx];
            check("param", idx, fd, an);
        }
    }
    assert!(
        soft_failures * 10 <= checked,
        "too many gradient mismatches: {soft_failures}/{checked} sampled coordinates \
         exceeded tolerance (ReLU-kink budget is 10%)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;

    /// y = w * x elementwise; intentionally correct backward.
    struct Scale {
        w: Param,
        cache: Option<Tensor>,
    }

    impl Module for Scale {
        fn forward(&mut self, input: &Tensor) -> Tensor {
            self.cache = Some(input.clone());
            input.scale(self.w.value.data()[0])
        }
        fn backward(&mut self, grad_output: &Tensor) -> Tensor {
            let x = self.cache.take().unwrap();
            let gw: f32 = grad_output
                .data()
                .iter()
                .zip(x.data())
                .map(|(g, v)| g * v)
                .sum();
            self.w.accumulate(&Tensor::from_slice(&[gw]));
            grad_output.scale(self.w.value.data()[0])
        }
        fn visit_params<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param)) {
            f(&mut self.w);
        }
    }

    #[test]
    fn accepts_correct_gradients() {
        let m = Scale {
            w: Param::new(Tensor::from_slice(&[1.5])),
            cache: None,
        };
        let x = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        check_module_gradients(m, &x, 1e-3, 1e-2);
    }

    /// Broken backward: returns zero input gradient.
    struct Broken;
    impl Module for Broken {
        fn forward(&mut self, input: &Tensor) -> Tensor {
            input.scale(2.0)
        }
        fn backward(&mut self, grad_output: &Tensor) -> Tensor {
            Tensor::zeros(grad_output.shape())
        }
        fn visit_params<'a>(&'a mut self, _: &mut dyn FnMut(&'a mut Param)) {}
    }

    #[test]
    #[should_panic(expected = "input grad mismatch")]
    fn rejects_broken_gradients() {
        let x = Tensor::from_slice(&[1.0, 2.0]);
        check_module_gradients(Broken, &x, 1e-3, 1e-2);
    }
}
