//! Scale normalization (Eq. 11).
//!
//! Flow magnitudes differ by orders of magnitude across scales (the
//! coarsest grid can carry >1000x the flow of an atomic grid), which biases
//! a naively-summed multi-task loss toward coarse scales. One4All-ST
//! normalizes the *inputs and targets of every scale independently* so each
//! scale's loss lands on a comparable magnitude — the paper's ablation
//! (Table IV) shows RMSE doubling on fine tasks without this.

use o4a_tensor::Tensor;

/// A z-score normalizer fitted on training data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normalizer {
    /// Fitted mean.
    pub mean: f32,
    /// Fitted standard deviation (floored to avoid division blow-up).
    pub std: f32,
}

impl Normalizer {
    /// Fits mean/std on a data slice. The std is floored at `1e-6`.
    pub fn fit(data: &[f32]) -> Normalizer {
        assert!(!data.is_empty(), "cannot fit a normalizer on empty data");
        let n = data.len() as f32;
        let mean = data.iter().sum::<f32>() / n;
        let var = data.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n;
        Normalizer {
            mean,
            std: var.sqrt().max(1e-6),
        }
    }

    /// The identity transform.
    pub fn identity() -> Normalizer {
        Normalizer {
            mean: 0.0,
            std: 1.0,
        }
    }

    /// Applies `(x - mean) / std` elementwise.
    pub fn normalize(&self, t: &Tensor) -> Tensor {
        let (m, s) = (self.mean, self.std);
        t.map(|v| (v - m) / s)
    }

    /// Applies the inverse transform `x * std + mean`.
    pub fn denormalize(&self, t: &Tensor) -> Tensor {
        let (m, s) = (self.mean, self.std);
        t.map(|v| v * s + m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_moments() {
        let data = [2.0f32, 4.0, 6.0, 8.0];
        let n = Normalizer::fit(&data);
        assert_eq!(n.mean, 5.0);
        assert!((n.std - 5.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn normalize_denormalize_roundtrip() {
        let data: Vec<f32> = (0..100).map(|i| i as f32 * 0.7 - 3.0).collect();
        let n = Normalizer::fit(&data);
        let t = Tensor::from_slice(&data);
        let round = n.denormalize(&n.normalize(&t));
        assert!(round.allclose(&t, 1e-3));
    }

    #[test]
    fn normalized_data_is_standard() {
        let data: Vec<f32> = (0..1000).map(|i| (i as f32).sin() * 10.0 + 5.0).collect();
        let n = Normalizer::fit(&data);
        let normed = n.normalize(&Tensor::from_slice(&data));
        assert!(normed.mean().abs() < 1e-3);
        assert!((normed.variance() - 1.0).abs() < 1e-2);
    }

    #[test]
    fn constant_data_does_not_blow_up() {
        let n = Normalizer::fit(&[5.0; 10]);
        let normed = n.normalize(&Tensor::from_slice(&[5.0, 6.0]));
        assert!(normed.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn identity_is_noop() {
        let t = Tensor::from_slice(&[1.0, 2.0]);
        assert_eq!(Normalizer::identity().normalize(&t), t);
    }

    /// Scales separated by 1000x in magnitude land on comparable loss
    /// magnitudes after per-scale normalization — the point of Eq. 11.
    #[test]
    fn per_scale_losses_balanced() {
        let fine: Vec<f32> = (0..200).map(|i| ((i % 24) as f32).sin()).collect();
        let coarse: Vec<f32> = fine.iter().map(|v| v * 1000.0).collect();
        let nf = Normalizer::fit(&fine);
        let nc = Normalizer::fit(&coarse);
        let f = nf.normalize(&Tensor::from_slice(&fine));
        let c = nc.normalize(&Tensor::from_slice(&coarse));
        assert!((f.variance() - c.variance()).abs() < 1e-4);
    }
}
