//! Seeded random number generation and weight initialisation.
//!
//! Every experiment in the reproduction is deterministic given its seed, so
//! all randomness flows through [`SeededRng`].

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded RNG wrapper with tensor-producing helpers.
#[derive(Debug, Clone)]
pub struct SeededRng {
    rng: StdRng,
}

impl SeededRng {
    /// Creates a deterministic RNG from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SeededRng {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        if lo == hi {
            return lo;
        }
        self.rng.gen_range(lo..hi)
    }

    /// Standard-normal sample via Box–Muller.
    pub fn normal(&mut self) -> f32 {
        let u1: f32 = self.rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal_scaled(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.normal()
    }

    /// Uniform integer in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        self.rng.gen_range(0..n)
    }

    /// Bernoulli sample with probability `p`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p.clamp(0.0, 1.0))
    }

    /// Poisson sample with rate `lambda`, by one of two methods:
    ///
    /// * `lambda <= 30`: Knuth's product-of-uniforms method, exact, which
    ///   draws one uniform per unit of the result plus one;
    /// * `lambda > 30`: the normal approximation `N(lambda, lambda)` (one
    ///   Box–Muller draw), rounded to the nearest integer and clamped at 0.
    ///
    /// A rate of 0 or below returns 0 without drawing. The synthetic flow
    /// generator takes both branches: in its taxi preset (seed 7, 216
    /// slots) 53% of a 128×128 flow's cells exceed the threshold, 0.2% at
    /// 64×64 and none at 32×32; in its freight preset none do at 32×32 or
    /// 128×128.
    ///
    /// # Panics
    /// Panics if `lambda` is NaN, for which Knuth's loop would never end.
    pub fn poisson(&mut self, lambda: f64) -> u32 {
        assert!(
            !lambda.is_nan(),
            "poisson rate must not be NaN, got {lambda}"
        );
        if lambda <= 0.0 {
            return 0;
        }
        if lambda > 30.0 {
            // normal approximation for large rates
            let v = self.normal_scaled(lambda as f32, (lambda as f32).sqrt());
            return v.round().max(0.0) as u32;
        }
        let l = (-lambda).exp();
        let mut k = 0u32;
        let mut p = 1.0f64;
        loop {
            p *= self.rng.gen_range(0.0f64..1.0);
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Tensor of uniform samples in `[lo, hi)`.
    pub fn uniform_tensor(&mut self, shape: &[usize], lo: f32, hi: f32) -> Tensor {
        let len: usize = shape.iter().product();
        let data = (0..len).map(|_| self.uniform(lo, hi)).collect();
        Tensor::from_vec(data, shape).expect("uniform_tensor: shape/len invariant")
    }

    /// Tensor of normal samples with mean 0 and the given std.
    pub fn normal_tensor(&mut self, shape: &[usize], std: f32) -> Tensor {
        let len: usize = shape.iter().product();
        let data = (0..len).map(|_| std * self.normal()).collect();
        Tensor::from_vec(data, shape).expect("normal_tensor: shape/len invariant")
    }

    /// Forks a child RNG with an independent stream derived from this one.
    pub fn fork(&mut self) -> SeededRng {
        SeededRng::new(self.rng.gen())
    }
}

/// Glorot (Xavier) uniform initialisation for a weight tensor.
///
/// `fan_in`/`fan_out` are derived from the shape: for rank-2 `[out, in]`
/// weights these are the two dims; for rank-4 conv weights
/// `[c_out, c_in, kh, kw]` the receptive-field size multiplies in.
pub fn glorot_uniform(rng: &mut SeededRng, shape: &[usize]) -> Tensor {
    let (fan_in, fan_out) = fans(shape);
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    rng.uniform_tensor(shape, -limit, limit)
}

/// He (Kaiming) normal initialisation, suited to ReLU networks.
pub fn he_normal(rng: &mut SeededRng, shape: &[usize]) -> Tensor {
    let (fan_in, _) = fans(shape);
    let std = (2.0 / fan_in as f32).sqrt();
    rng.normal_tensor(shape, std)
}

fn fans(shape: &[usize]) -> (usize, usize) {
    match shape.len() {
        1 => (shape[0], shape[0]),
        2 => (shape[1], shape[0]),
        4 => {
            let rf = shape[2] * shape[3];
            (shape[1] * rf, shape[0] * rf)
        }
        _ => {
            let n: usize = shape.iter().product();
            (n, n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SeededRng::new(42);
        let mut b = SeededRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SeededRng::new(1);
        let mut b = SeededRng::new(2);
        let va: Vec<f32> = (0..10).map(|_| a.uniform(0.0, 1.0)).collect();
        let vb: Vec<f32> = (0..10).map(|_| b.uniform(0.0, 1.0)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn normal_moments_reasonable() {
        let mut rng = SeededRng::new(9);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }

    #[test]
    fn poisson_mean_tracks_lambda() {
        let mut rng = SeededRng::new(11);
        for &lambda in &[0.5f64, 3.0, 12.0, 50.0] {
            let n = 5_000;
            let mean: f64 = (0..n).map(|_| rng.poisson(lambda) as f64).sum::<f64>() / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.1,
                "lambda={lambda} mean={mean}"
            );
        }
    }

    #[test]
    fn poisson_zero_rate_is_zero() {
        let mut rng = SeededRng::new(1);
        assert_eq!(rng.poisson(0.0), 0);
        assert_eq!(rng.poisson(-1.0), 0);
    }

    #[test]
    #[should_panic(expected = "poisson rate must not be NaN, got NaN")]
    fn poisson_nan_rate_panics() {
        SeededRng::new(1).poisson(f64::NAN);
    }

    #[test]
    fn glorot_within_limit() {
        let mut rng = SeededRng::new(5);
        let w = glorot_uniform(&mut rng, &[16, 8]);
        let limit = (6.0f32 / 24.0).sqrt();
        assert!(w.data().iter().all(|v| v.abs() <= limit));
    }

    #[test]
    fn he_std_scales_with_fan_in() {
        let mut rng = SeededRng::new(5);
        let w = he_normal(&mut rng, &[8, 128, 3, 3]);
        // fan_in = 128*9 = 1152, expected std ~ sqrt(2/1152) ~ 0.0417
        let std = w.variance().sqrt();
        assert!((std - 0.0417).abs() < 0.01, "std={std}");
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut a = SeededRng::new(7);
        let mut child = a.fork();
        // parent continues; child stream should not simply mirror parent
        let pa: Vec<f32> = (0..5).map(|_| a.uniform(0.0, 1.0)).collect();
        let pc: Vec<f32> = (0..5).map(|_| child.uniform(0.0, 1.0)).collect();
        assert_ne!(pa, pc);
    }

    #[test]
    fn uniform_tensor_shape() {
        let mut rng = SeededRng::new(1);
        let t = rng.uniform_tensor(&[2, 3], 0.0, 1.0);
        assert_eq!(t.shape(), &[2, 3]);
        assert!(t.data().iter().all(|&v| (0.0..1.0).contains(&v)));
    }
}
