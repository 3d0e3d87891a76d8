//! Cross-tier identity of the convolution kernels: `conv2d_into` and
//! `conv2d_bwd_into` under every ISA tier available on this CPU must
//! reproduce the scalar tier — the packed `im2col` + GEMM path — bit for
//! bit, at one and two threads. The output, `grad_input`, `grad_weight`
//! and `grad_bias` are all compared. Geometries cover stride-1 convs,
//! which the AVX-512 tier lowers as an implicit GEMM, with widths that
//! are multiples of its 16-lane strips and widths that are not, and
//! strided convs, which every tier lowers through `im2col`; two fixed
//! cases pin an infinite weight beside the padding and signed zeros.

use o4a_tensor::{conv2d_bwd_into, conv2d_into, isa, parallel, Conv2dGrads, SeededRng, Tensor};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// `isa::force` and the thread overrides set process-wide state and the
/// harness runs tests on parallel threads, so every forced section holds
/// this lock: otherwise one test's `force(None)` could reset another's
/// tier mid-loop, and that test would run the resolved tier instead of
/// the one it names.
static FORCE_LOCK: Mutex<()> = Mutex::new(());

fn force_lock() -> MutexGuard<'static, ()> {
    // A test that panicked while holding the lock reports its own
    // failure; the lock guards no data, and each holder forces its tier
    // afresh.
    FORCE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// The output and the three gradients of one forward + backward call.
type Run = [Vec<u32>; 4];

fn run(x: &Tensor, w: &Tensor, b: &Tensor, stride: usize, pad: usize, go: &Tensor) -> Run {
    // Dirty, wrongly shaped workspaces: the kernels must overwrite them.
    let mut y = Tensor::full(&[3, 5], f32::NAN);
    conv2d_into(x, w, b, stride, pad, &mut y).unwrap();
    let mut g = Conv2dGrads {
        grad_input: Tensor::full(&[2, 7], f32::NAN),
        grad_weight: Tensor::full(&[4], f32::NAN),
        grad_bias: Tensor::full(&[1, 3], f32::NAN),
    };
    conv2d_bwd_into(x, w, b, stride, pad, go, &mut g).unwrap();
    [
        bits(&y),
        bits(&g.grad_input),
        bits(&g.grad_weight),
        bits(&g.grad_bias),
    ]
}

/// Runs every available tier at one and two threads (with the pool
/// engaged even on a one-core host) and checks each against the scalar
/// tier at one thread. Restores the tier and thread overrides before it
/// reports a divergence.
fn assert_tiers_match(x: &Tensor, w: &Tensor, b: &Tensor, stride: usize, pad: usize, go: &Tensor) {
    let _forced = force_lock();
    parallel::set_hw_threads(2);
    parallel::set_threads(1);
    isa::force(Some(isa::Isa::Scalar));
    let want = run(x, w, b, stride, pad, go);
    let mut failure = None;
    'tiers: for tier in isa::available() {
        isa::force(Some(tier));
        for threads in 1..=2 {
            parallel::set_threads(threads);
            let got = run(x, w, b, stride, pad, go);
            for (name, (g, e)) in ["output", "grad_input", "grad_weight", "grad_bias"]
                .iter()
                .zip(got.iter().zip(&want))
            {
                if g != e {
                    failure = Some(format!(
                        "{} tier, {threads} threads: {name} diverged from the scalar tier \
                         (input {:?}, weight {:?}, stride {stride}, pad {pad})",
                        tier.name(),
                        x.shape(),
                        w.shape()
                    ));
                    break 'tiers;
                }
            }
        }
    }
    isa::force(None);
    parallel::set_threads(0);
    parallel::set_hw_threads(0);
    if let Some(msg) = failure {
        panic!("{msg}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conv_kernels_match_the_scalar_tier(
        seed in 0u64..100_000,
        batch in 1usize..4,
        c_in in 1usize..21,
        c_out in 1usize..21,
        h in 1usize..41,
        w_sel in 0usize..6,
        k in 1usize..4,
        stride in 1usize..3,
        pad_sel in 0usize..3,
    ) {
        // Half the widths are whole 16-lane strips; the rest are narrow
        // or end in a partial strip.
        let w = [16, 32, 1 + (seed as usize % 15), 17 + (seed as usize % 15), 33, 40][w_sel];
        let pad = pad_sel % k;
        // The kernel must fit the padded input; with padding, rows and
        // columns narrower than the kernel stay (the pyramid's 1x1 layer).
        let fit = k.saturating_sub(2 * pad).max(1);
        let (h, w) = (h.max(fit), w.max(fit));
        let mut rng = SeededRng::new(seed);
        let x = rng.uniform_tensor(&[batch, c_in, h, w], -1.0, 1.0);
        let wt = rng.uniform_tensor(&[c_out, c_in, k, k], -0.5, 0.5);
        let b = rng.uniform_tensor(&[c_out], -0.5, 0.5);
        let out_h = (h + 2 * pad - k) / stride + 1;
        let out_w = (w + 2 * pad - k) / stride + 1;
        let go = rng.uniform_tensor(&[batch, c_out, out_h, out_w], -1.0, 1.0);
        assert_tiers_match(&x, &wt, &b, stride, pad, &go);
    }
}

/// An infinite weight next to the zero padding: `im2col` multiplies it by
/// the padding's 0.0 (NaN in the output), while `col2im` skips every tap
/// that falls outside `grad_output`, so `grad_input` stays finite where
/// the infinite tap is skipped. The implicit kernels must do the same.
#[test]
fn infinite_weight_beside_the_padding_matches_the_scalar_tier() {
    // (k, pad, w): tap (0, 0) falls outside grad_output for the last input
    // row and column in each.
    for (k, pad, w) in [(3usize, 1usize, 20usize), (3, 1, 35), (3, 0, 16), (2, 0, 7)] {
        let mut rng = SeededRng::new(17);
        let (c_in, c_out, h) = (3, 5, 6);
        let x = rng.uniform_tensor(&[2, c_in, h, w], -1.0, 1.0);
        let mut wt = rng.uniform_tensor(&[c_out, c_in, k, k], -0.5, 0.5);
        // Tap (0, 0) from input channel 1 into output channel 2.
        wt.data_mut()[(2 * c_in + 1) * k * k] = f32::INFINITY;
        let b = rng.uniform_tensor(&[c_out], -0.5, 0.5);
        let out_h = h + 2 * pad - k + 1;
        let out_w = w + 2 * pad - k + 1;
        let go = rng.uniform_tensor(&[2, c_out, out_h, out_w], -1.0, 1.0);
        assert_tiers_match(&x, &wt, &b, 1, pad, &go);

        // The oracle itself: channel 1's last pixel, whose infinite tap
        // is skipped, has a finite input gradient, so a kernel that added
        // a sum computed from padding (NaN) diverges above.
        let _forced = force_lock();
        isa::force(Some(isa::Isa::Scalar));
        let [_, gi, _, _] = run(&x, &wt, &b, 1, pad, &go);
        isa::force(None);
        let last = (c_in + 1) * h * w - 1;
        assert!(
            f32::from_bits(gi[last]).is_finite(),
            "k {k} pad {pad}: the skipped tap reached grad_input"
        );
    }
}

/// Signed zeros survive every tier: with a -0.0 bias, a zero input and
/// negative weights, each product is -0.0 and every output stays -0.0 on
/// the packed path, so a tier that seeded its accumulators with anything
/// but the bias itself (+0.0, say) diverges.
#[test]
fn signed_zeros_match_the_scalar_tier() {
    for (k, pad, w) in [(3usize, 1usize, 20usize), (1, 0, 16), (3, 1, 1)] {
        let (c_in, c_out, h) = (3, 5, 4);
        let x = Tensor::zeros(&[2, c_in, h, w]);
        let mut rng = SeededRng::new(23);
        let wt = rng.uniform_tensor(&[c_out, c_in, k, k], -0.5, -0.1);
        let b = Tensor::full(&[c_out], -0.0);
        let go = Tensor::full(&[2, c_out, h + 2 * pad - k + 1, w + 2 * pad - k + 1], -0.0);
        assert_tiers_match(&x, &wt, &b, 1, pad, &go);

        let _forced = force_lock();
        isa::force(Some(isa::Isa::Scalar));
        let [y, _, _, _] = run(&x, &wt, &b, 1, pad, &go);
        isa::force(None);
        assert!(
            y.iter().all(|&v| v == (-0.0f32).to_bits()),
            "k {k} pad {pad}: the packed path lost a -0.0"
        );
    }
}
