//! Property tests on the linear-operator structure of the tensor kernels:
//! convolution is linear in its input, its backward pass is the exact
//! adjoint, and matmul respects the ring axioms we rely on.

use o4a_tensor::{conv2d, conv2d_backward, SeededRng, Tensor};
use proptest::prelude::*;

fn dot(a: &Tensor, b: &Tensor) -> f64 {
    a.data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| x as f64 * y as f64)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// <conv(x), g> == <x, conv_backward_input(g)> — the adjoint identity
    /// that guarantees gradient correctness for any loss.
    #[test]
    fn conv2d_backward_is_adjoint(seed in 0u64..10_000, stride in 1usize..3, pad in 0usize..2) {
        let mut rng = SeededRng::new(seed);
        let x = rng.uniform_tensor(&[2, 3, 6, 6], -1.0, 1.0);
        let w = rng.uniform_tensor(&[4, 3, 3, 3], -0.5, 0.5);
        let b = Tensor::zeros(&[4]);
        let y = conv2d(&x, &w, &b, stride, pad).unwrap();
        let g = rng.uniform_tensor(y.shape(), -1.0, 1.0);
        let grads = conv2d_backward(&x, &w, &b, stride, pad, &g).unwrap();
        let lhs = dot(&y, &g);
        let rhs = dot(&x, &grads.grad_input);
        let scale = lhs.abs().max(1.0);
        prop_assert!(
            ((lhs - rhs) / scale).abs() < 1e-4,
            "adjoint identity violated: {lhs} vs {rhs}"
        );
    }

    /// conv(x1 + x2) + conv(0) == conv(x1) + conv(x2) (affine in x because
    /// of the bias; adding the zero response on the left isolates
    /// linearity).
    #[test]
    fn conv2d_linear_in_input(seed in 0u64..10_000) {
        let mut rng = SeededRng::new(seed);
        let x1 = rng.uniform_tensor(&[1, 2, 5, 5], -1.0, 1.0);
        let x2 = rng.uniform_tensor(&[1, 2, 5, 5], -1.0, 1.0);
        let w = rng.uniform_tensor(&[3, 2, 3, 3], -0.5, 0.5);
        let b = rng.uniform_tensor(&[3], -0.5, 0.5);
        let zero = Tensor::zeros(&[1, 2, 5, 5]);
        let sum_in = x1.add(&x2).unwrap();
        let lhs = conv2d(&sum_in, &w, &b, 1, 1)
            .unwrap()
            .add(&conv2d(&zero, &w, &b, 1, 1).unwrap())
            .unwrap();
        let rhs = conv2d(&x1, &w, &b, 1, 1)
            .unwrap()
            .add(&conv2d(&x2, &w, &b, 1, 1).unwrap())
            .unwrap();
        prop_assert!(lhs.allclose(&rhs, 1e-4));
    }

    /// (A B) C == A (B C) for conformable random matrices.
    #[test]
    fn matmul_associative(seed in 0u64..10_000) {
        let mut rng = SeededRng::new(seed);
        let a = rng.uniform_tensor(&[3, 4], -1.0, 1.0);
        let b = rng.uniform_tensor(&[4, 5], -1.0, 1.0);
        let c = rng.uniform_tensor(&[5, 2], -1.0, 1.0);
        let lhs = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let rhs = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!(lhs.allclose(&rhs, 1e-3));
    }

    /// (A B)^T == B^T A^T.
    #[test]
    fn matmul_transpose_identity(seed in 0u64..10_000) {
        let mut rng = SeededRng::new(seed);
        let a = rng.uniform_tensor(&[3, 4], -1.0, 1.0);
        let b = rng.uniform_tensor(&[4, 5], -1.0, 1.0);
        let lhs = a.matmul(&b).unwrap().transpose2().unwrap();
        let rhs = b
            .transpose2()
            .unwrap()
            .matmul(&a.transpose2().unwrap())
            .unwrap();
        prop_assert!(lhs.allclose(&rhs, 1e-4));
    }

    /// Reshape round-trips preserve the buffer.
    #[test]
    fn reshape_preserves_data(values in prop::collection::vec(-10.0f32..10.0, 24)) {
        let t = Tensor::from_vec(values.clone(), &[2, 3, 4]).unwrap();
        let r = t.reshape(&[4, 6]).unwrap().reshape(&[24]).unwrap();
        prop_assert_eq!(r.data(), &values[..]);
    }
}
