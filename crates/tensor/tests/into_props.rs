//! Bit-identity contract of the `_into` / fused kernels: every out-parameter
//! variant must reproduce its allocating form (and the plain serial
//! reference loops) **bit for bit** — into dirty, wrongly-shaped workspaces,
//! with the buffer pool on or off, and at every thread count. The pool and
//! the workspaces may only change where bytes live, never what is computed.

use o4a_tensor::ops::{adam_update_into, AdamUpdate};
use o4a_tensor::{
    conv2d, conv2d_backward, conv2d_bwd_into, conv2d_into, isa, parallel, pool, Conv2dGrads,
    SeededRng, Tensor,
};
use proptest::prelude::*;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A deliberately dirty, wrongly-shaped workspace: `_into` kernels must
/// fully overwrite it regardless of its previous life.
fn dirty() -> Tensor {
    Tensor::full(&[3, 5], f32::NAN)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The elementwise `_into` kernels against plain serial loops.
    #[test]
    fn elementwise_into_matches_reference(
        seed in 0u64..10_000,
        len in 1usize..300,
    ) {
        let mut rng = SeededRng::new(seed);
        let a = rng.uniform_tensor(&[len], -2.0, 2.0);
        let b = rng.uniform_tensor(&[len], -2.0, 2.0);

        // add_into vs serial reference
        let want: Vec<u32> = a
            .data()
            .iter()
            .zip(b.data())
            .map(|(&x, &y)| (x + y).to_bits())
            .collect();
        let mut out = dirty();
        a.add_into(&b, &mut out).unwrap();
        prop_assert_eq!(out.shape(), &[len]);
        prop_assert_eq!(&bits(&out), &want, "add_into diverged from serial loop");

        // relu_into vs serial reference
        let want: Vec<u32> = a.data().iter().map(|&x| x.max(0.0).to_bits()).collect();
        let mut out = dirty();
        a.relu_into(&mut out);
        prop_assert_eq!(&bits(&out), &want, "relu_into diverged");
    }

    /// `matmul_into` through a dirty workspace against the serial naive
    /// oracle, at thread counts 1..=4.
    #[test]
    fn matmul_into_matches_naive(
        seed in 0u64..10_000,
        m in 1usize..20,
        k in 1usize..20,
        n in 1usize..20,
    ) {
        let mut rng = SeededRng::new(seed);
        let a = rng.uniform_tensor(&[m, k], -1.0, 1.0);
        let b = rng.uniform_tensor(&[k, n], -1.0, 1.0);
        let want = bits(&a.matmul_naive(&b).unwrap());
        parallel::set_hw_threads(4);
        for threads in 1usize..=4 {
            parallel::set_threads(threads);
            let mut out = dirty();
            a.matmul_into(&b, &mut out).unwrap();
            parallel::set_threads(0);
            prop_assert_eq!(out.shape(), &[m, n]);
            prop_assert_eq!(&bits(&out), &want, "matmul_into diverged at {} threads", threads);
        }
        parallel::set_hw_threads(0);
    }

    /// Forward + backward conv through dirty reusable workspaces must match
    /// the allocating forms bit for bit — including on the second use of
    /// the same workspace, when the buffers are genuinely recycled.
    #[test]
    fn conv_into_matches_allocating_forms(
        seed in 0u64..10_000,
        n in 1usize..3,
        c_in in 1usize..4,
        c_out in 1usize..4,
        hw in 3usize..7,
    ) {
        let mut rng = SeededRng::new(seed);
        let w = rng.uniform_tensor(&[c_out, c_in, 3, 3], -0.5, 0.5);
        let b = rng.uniform_tensor(&[c_out], -0.5, 0.5);
        let mut out_ws = dirty();
        let mut grads_ws = Conv2dGrads::default();
        for round in 0..2 {
            let x = rng.uniform_tensor(&[n, c_in, hw, hw], -1.0, 1.0);
            let y = conv2d(&x, &w, &b, 1, 1).unwrap();
            conv2d_into(&x, &w, &b, 1, 1, &mut out_ws).unwrap();
            prop_assert_eq!(out_ws.shape(), y.shape());
            prop_assert_eq!(bits(&out_ws), bits(&y), "conv2d_into diverged (round {})", round);

            let go = rng.uniform_tensor(y.shape(), -1.0, 1.0);
            let grads = conv2d_backward(&x, &w, &b, 1, 1, &go).unwrap();
            conv2d_bwd_into(&x, &w, &b, 1, 1, &go, &mut grads_ws).unwrap();
            prop_assert_eq!(
                bits(&grads_ws.grad_input),
                bits(&grads.grad_input),
                "grad_input diverged (round {})",
                round
            );
            prop_assert_eq!(
                bits(&grads_ws.grad_weight),
                bits(&grads.grad_weight),
                "grad_weight diverged (round {})",
                round
            );
            prop_assert_eq!(
                bits(&grads_ws.grad_bias),
                bits(&grads.grad_bias),
                "grad_bias diverged (round {})",
                round
            );
        }
    }

    /// The fused Adam update against the plain serial expression, across
    /// several consecutive steps and thread counts.
    #[test]
    fn adam_update_matches_serial_reference(
        seed in 0u64..10_000,
        len in 1usize..500,
        steps in 1usize..4,
    ) {
        let mut rng = SeededRng::new(seed);
        let mut p = rng.uniform_tensor(&[len], -1.0, 1.0);
        let mut m = Tensor::zeros(&[len]);
        let mut v = Tensor::zeros(&[len]);
        let mut pr = p.data().to_vec();
        let mut mr = vec![0.0f32; len];
        let mut vr = vec![0.0f32; len];
        let (lr, beta1, beta2, eps) = (1e-3f32, 0.9f32, 0.999f32, 1e-8f32);
        parallel::set_hw_threads(4);
        for t in 1..=steps {
            let g = rng.uniform_tensor(&[len], -1.0, 1.0);
            let hp = AdamUpdate {
                lr,
                beta1,
                beta2,
                eps,
                bc1: 1.0 - beta1.powi(t as i32),
                bc2: 1.0 - beta2.powi(t as i32),
            };
            for i in 0..len {
                let gi = g.data()[i];
                mr[i] = beta1 * mr[i] + (1.0 - beta1) * gi;
                vr[i] = beta2 * vr[i] + (1.0 - beta2) * gi * gi;
                let mhat = mr[i] / hp.bc1;
                let vhat = vr[i] / hp.bc2;
                pr[i] -= lr * mhat / (vhat.sqrt() + eps);
            }
            parallel::set_threads((t % 4) + 1);
            adam_update_into(&mut p, &g, &mut m, &mut v, &hp).unwrap();
            parallel::set_threads(0);
            let want_p: Vec<u32> = pr.iter().map(|x| x.to_bits()).collect();
            let want_m: Vec<u32> = mr.iter().map(|x| x.to_bits()).collect();
            let want_v: Vec<u32> = vr.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(&bits(&p), &want_p, "param diverged at step {}", t);
            prop_assert_eq!(&bits(&m), &want_m, "m diverged at step {}", t);
            prop_assert_eq!(&bits(&v), &want_v, "v diverged at step {}", t);
        }
        parallel::set_hw_threads(0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The elementwise and Adam `_into` kernels against their serial
    /// references on every available ISA dispatch tier. They run one
    /// portable loop whatever the tier, so forcing a tier must not change
    /// a bit of their output (including the tails at awkward lengths); a
    /// tier that gains its own body for them is held to the same bits.
    #[test]
    fn into_kernels_match_reference_on_every_isa_tier(
        seed in 0u64..10_000,
        len in 1usize..200,
    ) {
        let mut rng = SeededRng::new(seed);
        let a = rng.uniform_tensor(&[len], -2.0, 2.0);
        let b = rng.uniform_tensor(&[len], -2.0, 2.0);
        let g = rng.uniform_tensor(&[len], -1.0, 1.0);
        let p0 = rng.uniform_tensor(&[len], -1.0, 1.0);
        let hp = AdamUpdate {
            lr: 1e-3, beta1: 0.9, beta2: 0.999, eps: 1e-8,
            bc1: 0.1, bc2: 1e-3,
        };

        // serial references, computed once
        let want_add: Vec<u32> =
            a.data().iter().zip(b.data()).map(|(&x, &y)| (x + y).to_bits()).collect();
        let want_relu: Vec<u32> = a.data().iter().map(|&v| v.max(0.0).to_bits()).collect();
        let mut pr = p0.data().to_vec();
        let mut mr = vec![0.0f32; len];
        let mut vr = vec![0.0f32; len];
        for i in 0..len {
            let gi = g.data()[i];
            mr[i] = hp.beta1 * mr[i] + (1.0 - hp.beta1) * gi;
            vr[i] = hp.beta2 * vr[i] + (1.0 - hp.beta2) * gi * gi;
            pr[i] -= hp.lr * (mr[i] / hp.bc1) / ((vr[i] / hp.bc2).sqrt() + hp.eps);
        }
        let want_p: Vec<u32> = pr.iter().map(|v| v.to_bits()).collect();

        for tier in isa::available() {
            isa::force(Some(tier));
            let mut out = dirty();
            a.add_into(&b, &mut out).unwrap();
            prop_assert_eq!(&bits(&out), &want_add, "{} add diverged", tier.name());
            a.relu_into(&mut out);
            prop_assert_eq!(&bits(&out), &want_relu, "{} relu diverged", tier.name());
            let mut p = p0.clone();
            let mut m = Tensor::zeros(&[len]);
            let mut v = Tensor::zeros(&[len]);
            adam_update_into(&mut p, &g, &mut m, &mut v, &hp).unwrap();
            prop_assert_eq!(&bits(&p), &want_p, "{} adam diverged", tier.name());
            isa::force(None);
        }
    }
}

/// Pool on vs pool off must be bit-identical end to end (not a proptest so
/// the global pool toggle is not raced by parallel cases).
#[test]
fn pool_toggle_is_bit_invisible() {
    let run = || {
        let mut rng = SeededRng::new(42);
        let x = rng.uniform_tensor(&[2, 3, 8, 8], -1.0, 1.0);
        let w = rng.uniform_tensor(&[4, 3, 3, 3], -0.5, 0.5);
        let b = rng.uniform_tensor(&[4], -0.5, 0.5);
        let y = conv2d(&x, &w, &b, 1, 1).unwrap();
        let go = rng.uniform_tensor(y.shape(), -1.0, 1.0);
        let grads = conv2d_backward(&x, &w, &b, 1, 1, &go).unwrap();
        let a = rng.uniform_tensor(&[17, 33], -1.0, 1.0);
        let c = rng.uniform_tensor(&[33, 9], -1.0, 1.0);
        let mm = a.matmul(&c).unwrap();
        let mut all = bits(&y);
        all.extend(bits(&grads.grad_input));
        all.extend(bits(&grads.grad_weight));
        all.extend(bits(&grads.grad_bias));
        all.extend(bits(&mm));
        all
    };
    pool::set_enabled(true);
    let pooled = run();
    pool::set_enabled(false);
    let unpooled = run();
    pool::set_enabled(true);
    assert_eq!(pooled, unpooled, "pool toggle changed results");
}
