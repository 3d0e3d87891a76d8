//! Elementwise and axis operations on [`Tensor`]s.
//!
//! All binary operations require identical shapes — the network code works on
//! fixed grid sizes, so implicit broadcasting would only hide bugs.
//!
//! The ops the layers run have an `_into` twin that writes into a
//! caller-owned workspace tensor (resized through the buffer pool as
//! needed); the allocating forms delegate to the `_into` forms, so there is
//! exactly one code path and the results are bit-identical.
//! [`adam_update_into`] fuses the optimizer's moment update and parameter
//! step into one pass over memory.
//!
//! These sweeps are memory-bound and are not dispatched on the ISA tier:
//! each is one portable loop, which the compiler autovectorizes.

use crate::parallel::{self, SendPtr};
use crate::tensor::Tensor;
use crate::Result;

/// Fixed chunk size for the parallel elementwise update sweeps. Chunk
/// boundaries are independent of the thread count, and every element is
/// updated independently, so the updates are bit-identical to the serial
/// loop at any `O4A_THREADS`.
const OPT_CHUNK: usize = 4096;

impl Tensor {
    /// Elementwise addition.
    pub fn add(&self, rhs: &Tensor) -> Result<Tensor> {
        let mut out = Tensor::empty();
        self.add_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Elementwise addition into a reusable output workspace.
    pub fn add_into(&self, rhs: &Tensor, out: &mut Tensor) -> Result<()> {
        self.check_same_shape(rhs)?;
        out.reset_uninit(self.shape());
        for ((o, &x), &y) in out.data_mut().iter_mut().zip(self.data()).zip(rhs.data()) {
            *o = x + y;
        }
        Ok(())
    }

    /// Elementwise ReLU (`max(v, 0)`).
    pub fn relu(&self) -> Tensor {
        let mut out = Tensor::empty();
        self.relu_into(&mut out);
        out
    }

    /// Elementwise ReLU into a reusable output workspace.
    pub fn relu_into(&self, out: &mut Tensor) {
        out.reset_uninit(self.shape());
        for (o, &v) in out.data_mut().iter_mut().zip(self.data()) {
            *o = v.max(0.0);
        }
    }

    /// In-place elementwise addition (`self += rhs`).
    pub fn add_assign(&mut self, rhs: &Tensor) -> Result<()> {
        self.check_same_shape(rhs)?;
        for (a, b) in self.data_mut().iter_mut().zip(rhs.data()) {
            *a += b;
        }
        Ok(())
    }

    /// Multiplies every element by a scalar, producing a new tensor.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Multiplies every element by a scalar in place.
    pub fn scale_in_place(&mut self, s: f32) {
        self.map_in_place(|v| v * s);
    }

    /// Fills the tensor with a constant.
    pub fn fill(&mut self, value: f32) {
        for v in self.data_mut() {
            *v = value;
        }
    }

    /// Sum along the first axis of a rank-2 tensor into a reusable output
    /// workspace of shape `[cols]` (reduces per-sample bias gradients).
    pub fn sum_axis0_into(&self, out: &mut Tensor) -> Result<()> {
        if self.rank() != 2 {
            return Err(crate::TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        let (r, c) = (self.shape()[0], self.shape()[1]);
        out.reset_zeroed(&[c]);
        let dst = out.data_mut();
        for i in 0..r {
            let row = &self.data()[i * c..(i + 1) * c];
            for (o, &v) in dst.iter_mut().zip(row) {
                *o += v;
            }
        }
        Ok(())
    }

    /// Concatenates rank-4 `[n, c, h, w]` tensors along the channel axis.
    ///
    /// All inputs must agree on `n`, `h`, `w`; an empty slice is an
    /// [`crate::TensorError::EmptyInput`] error. This is the operation
    /// behind Eq. 7 of the paper (fusing closeness / period / trend
    /// features).
    pub fn concat_channels(parts: &[&Tensor]) -> Result<Tensor> {
        let first = *parts.first().ok_or(crate::TensorError::EmptyInput {
            op: "concat_channels",
        })?;
        if first.rank() != 4 {
            return Err(crate::TensorError::RankMismatch {
                expected: 4,
                actual: first.rank(),
            });
        }
        let (n, h, w) = (first.shape()[0], first.shape()[2], first.shape()[3]);
        let mut total_c = 0usize;
        for p in parts {
            if p.rank() != 4 || p.shape()[0] != n || p.shape()[2] != h || p.shape()[3] != w {
                return Err(crate::TensorError::ShapeMismatch {
                    lhs: first.shape().to_vec(),
                    rhs: p.shape().to_vec(),
                });
            }
            total_c += p.shape()[1];
        }
        let plane = h * w;
        let mut out = Tensor::uninit(&[n, total_c, h, w]);
        let dst = out.data_mut();
        let mut at = 0usize;
        for b in 0..n {
            for p in parts {
                let c = p.shape()[1];
                let start = b * c * plane;
                let chunk = c * plane;
                dst[at..at + chunk].copy_from_slice(&p.data()[start..start + chunk]);
                at += chunk;
            }
        }
        Ok(out)
    }

    /// Splits a rank-4 `[n, c, h, w]` tensor into channel groups with the
    /// given sizes (the inverse of [`Tensor::concat_channels`]).
    pub fn split_channels(&self, sizes: &[usize]) -> Result<Vec<Tensor>> {
        if self.rank() != 4 {
            return Err(crate::TensorError::RankMismatch {
                expected: 4,
                actual: self.rank(),
            });
        }
        let (n, c, h, w) = (
            self.shape()[0],
            self.shape()[1],
            self.shape()[2],
            self.shape()[3],
        );
        let total: usize = sizes.iter().sum();
        if total != c {
            return Err(crate::TensorError::ShapeMismatch {
                lhs: vec![c],
                rhs: vec![total],
            });
        }
        let plane = h * w;
        let mut outs: Vec<Tensor> = sizes
            .iter()
            .map(|&s| Tensor::uninit(&[n, s, h, w]))
            .collect();
        for b in 0..n {
            let mut ch_off = 0usize;
            for (out, &s) in outs.iter_mut().zip(sizes) {
                let start = (b * c + ch_off) * plane;
                let chunk = s * plane;
                out.data_mut()[b * chunk..(b + 1) * chunk]
                    .copy_from_slice(&self.data()[start..start + chunk]);
                ch_off += s;
            }
        }
        Ok(outs)
    }

    /// Squared L2 norm of the tensor.
    pub fn norm_sq(&self) -> f32 {
        self.data().iter().map(|&v| v * v).sum()
    }
}

/// Hyper-parameters for one fused Adam update ([`adam_update_into`]).
///
/// `bc1`/`bc2` are the bias-correction denominators `1 - beta^t` for the
/// current step `t` (computed once per step by the optimizer).
#[derive(Debug, Clone, Copy)]
pub struct AdamUpdate {
    /// Learning rate.
    pub lr: f32,
    /// First-moment EMA coefficient.
    pub beta1: f32,
    /// Second-moment EMA coefficient.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// First-moment bias correction `1 - beta1^t`.
    pub bc1: f32,
    /// Second-moment bias correction `1 - beta2^t`.
    pub bc2: f32,
}

/// Fused in-place Adam moment update: advances both moment EMAs and applies
/// the bias-corrected parameter step in a single pass over memory.
///
/// Per element, in this exact order (the same serial expression the
/// optimizer has always used, so results are bit-identical):
///
/// ```text
/// m = beta1 * m + (1 - beta1) * g
/// v = beta2 * v + (1 - beta2) * g * g
/// p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
/// ```
///
/// Chunk boundaries are fixed (`OPT_CHUNK`), so the sweep is bit-identical
/// at any thread count.
pub fn adam_update_into(
    param: &mut Tensor,
    grad: &Tensor,
    m: &mut Tensor,
    v: &mut Tensor,
    hp: &AdamUpdate,
) -> Result<()> {
    param.check_same_shape(grad)?;
    param.check_same_shape(m)?;
    param.check_same_shape(v)?;
    let g = grad.data();
    let len = g.len();
    let md_ptr = SendPtr(m.data_mut().as_mut_ptr());
    let vd_ptr = SendPtr(v.data_mut().as_mut_ptr());
    let pd_ptr = SendPtr(param.data_mut().as_mut_ptr());
    let AdamUpdate {
        lr,
        beta1,
        beta2,
        eps,
        bc1,
        bc2,
    } = *hp;
    // ~12 flops per element (two EMAs, bias correction, rsqrt); small
    // tensors stay inline under the runtime's adaptive cutoff.
    parallel::par_range(len, OPT_CHUNK, 12, |r| {
        // SAFETY: `par_range` chunks are disjoint; the buffers outlive the
        // blocking call.
        let md = unsafe { md_ptr.slice_mut(r.start, r.end - r.start) };
        let vd = unsafe { vd_ptr.slice_mut(r.start, r.end - r.start) };
        let pd = unsafe { pd_ptr.slice_mut(r.start, r.end - r.start) };
        for (((pi, mi), vi), &gi) in pd.iter_mut().zip(md).zip(vd).zip(&g[r]) {
            *mi = beta1 * *mi + (1.0 - beta1) * gi;
            *vi = beta2 * *vi + (1.0 - beta2) * gi * gi;
            let mhat = *mi / bc1;
            let vhat = *vi / bc2;
            *pi -= lr * mhat / (vhat.sqrt() + eps);
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32], s: &[usize]) -> Tensor {
        Tensor::from_vec(v.to_vec(), s).unwrap()
    }

    #[test]
    fn add_elementwise() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[4.0, 3.0, 2.0, 1.0], &[2, 2]);
        assert_eq!(a.add(&b).unwrap().data(), &[5.0, 5.0, 5.0, 5.0]);
    }

    #[test]
    fn into_variants_overwrite_dirty_workspace() {
        let a = t(&[1.0, -2.0], &[2]);
        let b = t(&[3.0, 1.0], &[2]);
        let mut out = Tensor::full(&[3, 3], 9.0);
        a.add_into(&b, &mut out).unwrap();
        assert_eq!(out.shape(), &[2]);
        assert_eq!(out.data(), &[4.0, -1.0]);
        a.relu_into(&mut out);
        assert_eq!(out.data(), &[1.0, 0.0]);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        assert!(a.add(&b).is_err());
        assert!(a.add_into(&b, &mut Tensor::empty()).is_err());
    }

    #[test]
    fn scalar_ops() {
        let a = t(&[1.0, 2.0], &[2]);
        assert_eq!(a.scale(3.0).data(), &[3.0, 6.0]);
    }

    #[test]
    fn sum_axis0_reduces_rows() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let mut s = Tensor::full(&[4], 9.0);
        a.sum_axis0_into(&mut s).unwrap();
        assert_eq!(s.shape(), &[3]);
        assert_eq!(s.data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn concat_and_split_channels_roundtrip() {
        // [n=2, c, h=2, w=1]
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 1, 2, 1]);
        let b = t(
            &[10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0],
            &[2, 2, 2, 1],
        );
        let cat = Tensor::concat_channels(&[&a, &b]).unwrap();
        assert_eq!(cat.shape(), &[2, 3, 2, 1]);
        // batch 0 must contain a's batch0 then b's batch0
        assert_eq!(&cat.data()[0..6], &[1.0, 2.0, 10.0, 20.0, 30.0, 40.0]);
        let parts = cat.split_channels(&[1, 2]).unwrap();
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn concat_empty_slice_is_an_error() {
        assert!(matches!(
            Tensor::concat_channels(&[]),
            Err(crate::TensorError::EmptyInput {
                op: "concat_channels"
            })
        ));
    }

    #[test]
    fn concat_rejects_mismatched_planes() {
        let a = Tensor::zeros(&[1, 1, 2, 2]);
        let b = Tensor::zeros(&[1, 1, 3, 2]);
        assert!(Tensor::concat_channels(&[&a, &b]).is_err());
    }

    #[test]
    fn split_rejects_bad_sizes() {
        let a = Tensor::zeros(&[1, 3, 2, 2]);
        assert!(a.split_channels(&[1, 1]).is_err());
    }

    #[test]
    fn adam_update_matches_serial_reference() {
        let mut p = t(&[1.0, -2.0, 0.5], &[3]);
        let g = t(&[0.3, -0.1, 0.2], &[3]);
        let mut m = Tensor::zeros(&[3]);
        let mut v = Tensor::zeros(&[3]);
        let hp = AdamUpdate {
            lr: 0.1,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            bc1: 1.0 - 0.9f32,
            bc2: 1.0 - 0.999f32,
        };
        // serial reference
        let (mut pr, mut mr, mut vr) = (p.data().to_vec(), vec![0.0f32; 3], vec![0.0f32; 3]);
        for i in 0..3 {
            let gi = g.data()[i];
            mr[i] = hp.beta1 * mr[i] + (1.0 - hp.beta1) * gi;
            vr[i] = hp.beta2 * vr[i] + (1.0 - hp.beta2) * gi * gi;
            pr[i] -= hp.lr * (mr[i] / hp.bc1) / ((vr[i] / hp.bc2).sqrt() + hp.eps);
        }
        adam_update_into(&mut p, &g, &mut m, &mut v, &hp).unwrap();
        assert_eq!(p.data(), &pr[..]);
        assert_eq!(m.data(), &mr[..]);
        assert_eq!(v.data(), &vr[..]);
    }
}
