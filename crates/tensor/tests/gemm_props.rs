//! Correctness contract of the packed, register-tiled GEMM: `matmul` must
//! reproduce the serial naive reference (`matmul_naive`, plain `ikj` loop)
//! **bit for bit** — across random shapes (including degenerate `(1,1,1)`
//! and sizes that are not multiples of the `MR x NR` tile), at every
//! thread count, through the conv2d packed-weight lowering, and on every
//! available ISA dispatch tier (scalar / AVX2 / AVX-512).

use o4a_tensor::{conv2d, conv2d_backward, isa, parallel, SeededRng, Tensor};
use proptest::prelude::*;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Asserts `matmul == matmul_naive` bit-for-bit at thread counts 1..=4
/// (with the hardware-thread override set so the pool genuinely engages
/// even on single-core CI).
fn assert_matmul_matches_naive(a: &Tensor, b: &Tensor) -> Result<(), TestCaseError> {
    let naive = bits(&a.matmul_naive(b).unwrap());
    parallel::set_hw_threads(4);
    for threads in 1usize..=4 {
        parallel::set_threads(threads);
        let packed = bits(&a.matmul(b).unwrap());
        parallel::set_threads(0);
        prop_assert_eq!(
            &naive,
            &packed,
            "matmul diverged from matmul_naive at {} threads for {:?} x {:?}",
            threads,
            a.shape(),
            b.shape()
        );
    }
    parallel::set_hw_threads(0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Small shapes sweep the tile-edge cases: every residue of the
    /// `MR = 8` row tile and `NR = 16` column tile, plus `k` around the
    /// packing strip boundaries.
    #[test]
    fn matmul_matches_naive_small_shapes(
        seed in 0u64..10_000,
        m in 1usize..34,
        k in 1usize..34,
        n in 1usize..34,
    ) {
        let mut rng = SeededRng::new(seed);
        let a = rng.uniform_tensor(&[m, k], -1.0, 1.0);
        let b = rng.uniform_tensor(&[k, n], -1.0, 1.0);
        assert_matmul_matches_naive(&a, &b)?;
    }

    /// Shapes big enough to clear the adaptive parallel cutoff and the
    /// naive-fallback threshold, so the packed kernel and the band
    /// fan-out genuinely run (and still match the serial naive loop).
    #[test]
    fn matmul_matches_naive_above_cutoff(
        seed in 0u64..10_000,
        m in 65usize..90,
        k in 120usize..150,
        n in 110usize..140,
    ) {
        let mut rng = SeededRng::new(seed);
        let a = rng.uniform_tensor(&[m, k], -2.0, 2.0);
        let b = rng.uniform_tensor(&[k, n], -2.0, 2.0);
        assert_matmul_matches_naive(&a, &b)?;
    }

    /// conv2d lowered onto the packed GEMM (shared packed weight panel)
    /// stays bit-identical across thread counts, including odd `c_out`
    /// (partial `MR` row strip) and odd `krows = c_in*kh*kw` (partial `NR`
    /// edge in the weight-gradient GEMM).
    #[test]
    fn conv2d_packed_path_is_thread_invariant(
        seed in 0u64..10_000,
        batch in 1usize..5,
        c_in in 1usize..4,
        c_out_sel in 0usize..4,
        stride in 1usize..3,
    ) {
        // odd channel counts exercise the partial packed strips
        let c_out = [1usize, 3, 5, 9][c_out_sel];
        let mut rng = SeededRng::new(seed);
        let x = rng.uniform_tensor(&[batch, c_in, 7, 7], -1.0, 1.0);
        let w = rng.uniform_tensor(&[c_out, c_in, 3, 3], -0.5, 0.5);
        let b = rng.uniform_tensor(&[c_out], -0.5, 0.5);
        let y = conv2d(&x, &w, &b, stride, 1).unwrap();
        let go = rng.uniform_tensor(y.shape(), -1.0, 1.0);

        parallel::set_hw_threads(4);
        parallel::set_threads(1);
        let serial_y = bits(&y);
        let g = conv2d_backward(&x, &w, &b, stride, 1, &go).unwrap();
        let serial_g = (bits(&g.grad_input), bits(&g.grad_weight), bits(&g.grad_bias));
        for threads in 2usize..=4 {
            parallel::set_threads(threads);
            prop_assert_eq!(&serial_y, &bits(&conv2d(&x, &w, &b, stride, 1).unwrap()));
            let g = conv2d_backward(&x, &w, &b, stride, 1, &go).unwrap();
            let par_g = (bits(&g.grad_input), bits(&g.grad_weight), bits(&g.grad_bias));
            prop_assert_eq!(&serial_g, &par_g);
        }
        parallel::set_threads(0);
        parallel::set_hw_threads(0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every dispatch tier available on this CPU must reproduce the serial
    /// naive oracle bit for bit — the cross-ISA identity contract behind
    /// `O4A_ISA`. Shapes sweep the `MR`/`NR` tile residues so the masked
    /// and zero-padded edge paths of each tier's packers run too.
    #[test]
    fn matmul_matches_naive_on_every_isa_tier(
        seed in 0u64..10_000,
        m in 1usize..26,
        k in 1usize..40,
        n in 1usize..40,
    ) {
        let mut rng = SeededRng::new(seed);
        let a = rng.uniform_tensor(&[m, k], -1.0, 1.0);
        let b = rng.uniform_tensor(&[k, n], -1.0, 1.0);
        let naive = bits(&a.matmul_naive(&b).unwrap());
        for tier in isa::available() {
            isa::force(Some(tier));
            let got = bits(&a.matmul(&b).unwrap());
            isa::force(None);
            prop_assert_eq!(
                &naive,
                &got,
                "{} tier diverged from naive for {}x{}x{}",
                tier.name(), m, k, n
            );
        }
    }
}

/// The explicit degenerate case the issue calls out.
#[test]
fn matmul_1x1x1_matches_naive() {
    let a = Tensor::from_vec(vec![-0.75], &[1, 1]).unwrap();
    let b = Tensor::from_vec(vec![3.5], &[1, 1]).unwrap();
    let packed = a.matmul(&b).unwrap();
    let naive = a.matmul_naive(&b).unwrap();
    assert_eq!(bits(&packed), bits(&naive));
    assert_eq!(packed.data(), &[-2.625]);
}

/// Signed zeros must survive the packed path: `0.0 + (-0.0) * x` is `0.0`,
/// and a kernel that zero-initialized per-block accumulators (instead of
/// loading from the output) would get this wrong along with every other
/// associativity difference.
#[test]
fn matmul_preserves_signed_zero_semantics() {
    let a = Tensor::from_vec(vec![-0.0; 16], &[4, 4]).unwrap();
    let b = Tensor::from_vec(vec![1.0; 16], &[4, 4]).unwrap();
    assert_eq!(
        bits(&a.matmul(&b).unwrap()),
        bits(&a.matmul_naive(&b).unwrap())
    );
}

/// Finite-difference gradient check of conv2d through the packed-weight
/// GEMM path, with `c_out` and `krows` chosen to exercise the zero-padded
/// edge strips of every packed operand.
#[test]
fn conv2d_packed_weight_gradcheck() {
    let mut rng = SeededRng::new(23);
    // c_out = 5 (partial MR strip), krows = 3*3*3 = 27 (partial NR strip)
    let x = rng.uniform_tensor(&[2, 3, 5, 5], -1.0, 1.0);
    let w = rng.uniform_tensor(&[5, 3, 3, 3], -0.5, 0.5);
    let b = rng.uniform_tensor(&[5], -0.5, 0.5);
    let (stride, pad) = (1, 1);

    let y = conv2d(&x, &w, &b, stride, pad).unwrap();
    let go = Tensor::ones(y.shape());
    let grads = conv2d_backward(&x, &w, &b, stride, pad, &go).unwrap();

    let eps = 1e-2f32;
    let loss = |x: &Tensor, w: &Tensor, b: &Tensor| conv2d(x, w, b, stride, pad).unwrap().sum();
    for idx in [0usize, 13, 49, 99] {
        let mut xp = x.clone();
        xp.data_mut()[idx] += eps;
        let mut xm = x.clone();
        xm.data_mut()[idx] -= eps;
        let fd = (loss(&xp, &w, &b) - loss(&xm, &w, &b)) / (2.0 * eps);
        let an = grads.grad_input.data()[idx];
        assert!(
            (fd - an).abs() < 2e-2,
            "grad_input[{idx}]: fd={fd} analytic={an}"
        );
    }
    for idx in [0usize, 26, 77, 134] {
        let mut wp = w.clone();
        wp.data_mut()[idx] += eps;
        let mut wm = w.clone();
        wm.data_mut()[idx] -= eps;
        let fd = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps);
        let an = grads.grad_weight.data()[idx];
        assert!(
            (fd - an).abs() < 5e-2,
            "grad_weight[{idx}]: fd={fd} analytic={an}"
        );
    }
    for idx in 0..5 {
        let mut bp = b.clone();
        bp.data_mut()[idx] += eps;
        let mut bm = b.clone();
        bm.data_mut()[idx] -= eps;
        let fd = (loss(&x, &w, &bp) - loss(&x, &w, &bm)) / (2.0 * eps);
        let an = grads.grad_bias.data()[idx];
        assert!(
            (fd - an).abs() < 5e-2,
            "grad_bias[{idx}]: fd={fd} analytic={an}"
        );
    }
}
