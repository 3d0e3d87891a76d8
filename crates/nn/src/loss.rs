//! Loss functions with analytic gradients.

use o4a_tensor::Tensor;

/// Mean squared error loss and its gradient with respect to the prediction.
///
/// Returns `(loss, grad)` with `loss = mean((pred - target)^2)` and
/// `grad = 2 (pred - target) / N`.
pub fn mse_loss(pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
    pred.check_same_shape(target)
        .expect("mse_loss shape mismatch");
    let n = pred.len().max(1) as f32;
    let mut loss = 0.0f32;
    let mut grad = Tensor::uninit(pred.shape());
    for ((g, &p), &t) in grad
        .data_mut()
        .iter_mut()
        .zip(pred.data())
        .zip(target.data())
    {
        let d = p - t;
        loss += d * d;
        *g = 2.0 * d / n;
    }
    (loss / n, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_slice(v)
    }

    #[test]
    fn mse_zero_at_target() {
        let (l, g) = mse_loss(&t(&[1.0, 2.0]), &t(&[1.0, 2.0]));
        assert_eq!(l, 0.0);
        assert!(g.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn mse_known_values() {
        let (l, g) = mse_loss(&t(&[3.0, 1.0]), &t(&[1.0, 1.0]));
        assert_eq!(l, 2.0);
        assert_eq!(g.data(), &[2.0, 0.0]);
    }

    #[test]
    fn mse_grad_matches_finite_difference() {
        let pred = t(&[0.3, -0.7, 1.2]);
        let target = t(&[0.0, 0.0, 1.0]);
        let (_, g) = mse_loss(&pred, &target);
        let eps = 1e-3;
        for i in 0..3 {
            let mut p = pred.clone();
            p.data_mut()[i] += eps;
            let (lp, _) = mse_loss(&p, &target);
            p.data_mut()[i] -= 2.0 * eps;
            let (lm, _) = mse_loss(&p, &target);
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - g.data()[i]).abs() < 1e-3, "i={i} fd={fd}");
        }
    }
}
