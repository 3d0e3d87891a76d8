//! The core dense [`Tensor`] type: a row-major `f32` buffer plus a shape.

use crate::pool::Buf;
use crate::{Result, TensorError};

/// Maximum tensor rank. Nothing in the reproduction exceeds rank 4; 6 gives
/// headroom while keeping the shape inline (no heap allocation per tensor).
pub const MAX_RANK: usize = 6;

/// Inline, copyable shape: up to [`MAX_RANK`] dimensions with no heap
/// allocation. Unused trailing dims are zero so derived equality is exact.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Shape {
    dims: [usize; MAX_RANK],
    rank: u8,
}

impl Shape {
    /// # Panics
    /// Panics if `shape` is empty or longer than [`MAX_RANK`].
    fn from_slice(shape: &[usize]) -> Shape {
        Self::try_from_slice(shape).unwrap_or_else(|| {
            assert!(!shape.is_empty(), "tensor shape must not be empty");
            panic!("tensor rank {} exceeds MAX_RANK {}", shape.len(), MAX_RANK)
        })
    }

    fn try_from_slice(shape: &[usize]) -> Option<Shape> {
        if shape.is_empty() || shape.len() > MAX_RANK {
            return None;
        }
        let mut dims = [0usize; MAX_RANK];
        dims[..shape.len()].copy_from_slice(shape);
        Some(Shape {
            dims,
            rank: shape.len() as u8,
        })
    }

    #[inline]
    fn as_slice(&self) -> &[usize] {
        &self.dims[..self.rank as usize]
    }
}

impl std::fmt::Debug for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// A dense, row-major, `f32` tensor of arbitrary rank (up to [`MAX_RANK`]).
///
/// Storage comes from the thread-aware buffer pool in [`crate::pool`], so
/// dropping a tensor recycles its buffer for the next one of a similar size;
/// strides are derived on demand (tensors are always contiguous). Rank-0
/// tensors are not supported — a scalar is represented as shape `[1]`.
///
/// ```
/// use o4a_tensor::Tensor;
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Buf,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    ///
    /// # Panics
    /// Panics if `shape` is empty.
    pub fn zeros(shape: &[usize]) -> Self {
        let shape = Shape::from_slice(shape);
        let len = shape.as_slice().iter().product();
        Tensor {
            data: Buf::zeroed(len),
            shape,
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with a constant value.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let mut t = Self::uninit(shape);
        t.data.as_mut_slice().fill(value);
        t
    }

    /// Creates a tensor with **unspecified contents** (a recycled pool
    /// buffer keeps its previous values). Callers must fully overwrite
    /// every element before reading any.
    ///
    /// # Panics
    /// Panics if `shape` is empty.
    pub fn uninit(shape: &[usize]) -> Self {
        let shape = Shape::from_slice(shape);
        let len = shape.as_slice().iter().product();
        Tensor {
            data: Buf::uninit(len),
            shape,
        }
    }

    /// An empty placeholder tensor (shape `[0]`, no allocation). Used as the
    /// initial state of reusable output workspaces: the first
    /// `reset_uninit`/`_into` call gives it real storage.
    pub fn empty() -> Self {
        Tensor {
            data: Buf::empty(),
            shape: Shape::from_slice(&[0]),
        }
    }

    /// Creates a tensor from a flat buffer, checking that the element count
    /// matches the shape.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        let expected: usize = shape.iter().product();
        match Shape::try_from_slice(shape) {
            Some(s) if data.len() == expected => Ok(Tensor {
                data: Buf::from_vec(data),
                shape: s,
            }),
            _ => Err(TensorError::InvalidReshape {
                len: data.len(),
                shape: shape.to_vec(),
            }),
        }
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            data: Buf::from_slice(data),
            shape: Shape::from_slice(&[data.len()]),
        }
    }

    /// The shape of the tensor.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        self.shape.as_slice()
    }

    /// The rank (number of dimensions).
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.rank as usize
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements (only possible via a
    /// zero-length dimension).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.len() == 0
    }

    /// Read-only view of the underlying row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        self.data.as_slice()
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.data.as_mut_slice()
    }

    /// Consumes the tensor, returning the flat buffer (the allocation leaves
    /// pool custody).
    pub fn into_vec(self) -> Vec<f32> {
        self.data.into_vec()
    }

    /// Re-shapes this tensor into a workspace of the given shape with
    /// **unspecified contents**, reusing the existing buffer when it is
    /// large enough and swapping through the pool when not. Callers must
    /// fully overwrite every element before reading any.
    pub fn reset_uninit(&mut self, shape: &[usize]) {
        let s = Shape::from_slice(shape);
        let len = s.as_slice().iter().product();
        self.shape = s;
        self.data.reset(len, false);
    }

    /// Like [`Tensor::reset_uninit`] but the contents are zeroed.
    pub fn reset_zeroed(&mut self, shape: &[usize]) {
        let s = Shape::from_slice(shape);
        let len = s.as_slice().iter().product();
        self.shape = s;
        self.data.reset(len, true);
    }

    /// Makes this tensor an exact copy of `src` (shape and data), reusing
    /// the existing buffer when possible.
    pub fn copy_from(&mut self, src: &Tensor) {
        self.reset_uninit(src.shape());
        self.data.as_mut_slice().copy_from_slice(src.data());
    }

    /// Row-major strides for the current shape.
    pub fn strides(&self) -> Vec<usize> {
        let shape = self.shape();
        let mut strides = vec![1usize; shape.len()];
        for i in (0..shape.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * shape[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index into a flat offset, validating
    /// every coordinate.
    pub fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.rank() {
            return Err(TensorError::RankMismatch {
                expected: self.rank(),
                actual: index.len(),
            });
        }
        let mut off = 0usize;
        let strides = self.strides();
        for ((&i, &d), &s) in index.iter().zip(self.shape()).zip(&strides) {
            if i >= d {
                return Err(TensorError::IndexOutOfBounds {
                    index: index.to_vec(),
                    shape: self.shape().to_vec(),
                });
            }
            off += i * s;
        }
        Ok(off)
    }

    /// Reads one element by multi-dimensional index.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data()[self.offset(index)?])
    }

    /// Writes one element by multi-dimensional index.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.offset(index)?;
        self.data.as_mut_slice()[off] = value;
        Ok(())
    }

    /// Returns a tensor with the same data but a new shape.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor> {
        let expected: usize = shape.iter().product();
        match Shape::try_from_slice(shape) {
            Some(s) if expected == self.len() => Ok(Tensor {
                data: self.data.clone(),
                shape: s,
            }),
            _ => Err(TensorError::InvalidReshape {
                len: self.len(),
                shape: shape.to_vec(),
            }),
        }
    }

    /// Transpose of a rank-2 tensor.
    pub fn transpose2(&self) -> Result<Tensor> {
        let mut out = Tensor::empty();
        self.transpose2_into(&mut out)?;
        Ok(out)
    }

    /// Transpose of a rank-2 tensor into a reusable output workspace
    /// (resized as needed; previous contents discarded).
    pub fn transpose2_into(&self, out: &mut Tensor) -> Result<()> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        let (r, c) = (self.shape()[0], self.shape()[1]);
        out.reset_uninit(&[c, r]);
        let src = self.data();
        let dst = out.data_mut();
        for i in 0..r {
            let row = &src[i * c..(i + 1) * c];
            for (j, &v) in row.iter().enumerate() {
                dst[j * r + i] = v;
            }
        }
        Ok(())
    }

    /// Matrix multiplication of two rank-2 tensors: `[m,k] x [k,n] -> [m,n]`.
    ///
    /// Runs the packed, register-tiled GEMM in `crate::gemm`: both
    /// operands are packed into cache-friendly panels and an `MR x NR`
    /// register tile is driven down `k`, with output rows split into fixed
    /// disjoint bands across the pool in [`crate::parallel`]. Every output
    /// element accumulates over `k` in strictly increasing index order, so
    /// the result is bit-identical to [`Tensor::matmul_naive`] at any
    /// thread count.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        let mut out = Tensor::empty();
        self.matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// [`Tensor::matmul`] into a reusable output workspace (resized as
    /// needed; previous contents discarded). Bit-identical to `matmul`.
    pub fn matmul_into(&self, rhs: &Tensor, out: &mut Tensor) -> Result<()> {
        let (m, k, n) = self.matmul_dims(rhs)?;
        // The GEMM accumulates into its output, so seed it with zeros.
        out.reset_zeroed(&[m, n]);
        crate::gemm::matmul_into(self.data(), rhs.data(), out.data_mut(), m, k, n);
        Ok(())
    }

    /// Serial reference matrix multiplication: the plain `ikj` triple loop,
    /// no packing, no parallelism.
    ///
    /// This is the accumulation-order oracle for [`Tensor::matmul`]: the
    /// packed kernel must (and, proptest-enforced, does) reproduce it bit
    /// for bit at every thread count.
    pub fn matmul_naive(&self, rhs: &Tensor) -> Result<Tensor> {
        let (m, k, n) = self.matmul_dims(rhs)?;
        let mut out = Tensor::zeros(&[m, n]);
        crate::gemm::matmul_naive_into(self.data(), rhs.data(), out.data_mut(), m, k, n);
        Ok(out)
    }

    fn matmul_dims(&self, rhs: &Tensor) -> Result<(usize, usize, usize)> {
        if self.rank() != 2 || rhs.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: if self.rank() != 2 {
                    self.rank()
                } else {
                    rhs.rank()
                },
            });
        }
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (rhs.shape()[0], rhs.shape()[1]);
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().to_vec(),
                rhs: rhs.shape().to_vec(),
            });
        }
        Ok((m, k, n))
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements. Returns 0 for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Population variance of all elements. Returns 0 for an empty tensor.
    pub fn variance(&self) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        let mu = self.mean();
        self.data()
            .iter()
            .map(|&v| (v - mu) * (v - mu))
            .sum::<f32>()
            / self.len() as f32
    }

    /// Maximum element. Returns `f32::NEG_INFINITY` for an empty tensor.
    pub fn max(&self) -> f32 {
        self.data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element. Returns `f32::INFINITY` for an empty tensor.
    pub fn min(&self) -> f32 {
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Applies a function to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = Tensor::uninit(self.shape());
        for (o, &v) in out.data.as_mut_slice().iter_mut().zip(self.data()) {
            *o = f(v);
        }
        out
    }

    /// Applies a function to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data.as_mut_slice() {
            *v = f(*v);
        }
    }

    /// Checks that two tensors have identical shapes.
    pub fn check_same_shape(&self, rhs: &Tensor) -> Result<()> {
        if self.shape != rhs.shape {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().to_vec(),
                rhs: rhs.shape().to_vec(),
            });
        }
        Ok(())
    }

    /// Returns true if every pair of elements differs by at most `tol`.
    pub fn allclose(&self, rhs: &Tensor, tol: f32) -> bool {
        self.shape == rhs.shape
            && self
                .data()
                .iter()
                .zip(rhs.data())
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert_eq!(t.rank(), 3);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn full_and_ones() {
        assert_eq!(Tensor::ones(&[3]).sum(), 3.0);
        assert_eq!(Tensor::full(&[2, 2], 2.5).sum(), 10.0);
    }

    #[test]
    #[should_panic(expected = "shape must not be empty")]
    fn empty_shape_panics() {
        let _ = Tensor::zeros(&[]);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_RANK")]
    fn excessive_rank_panics() {
        let _ = Tensor::zeros(&[1, 1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn from_vec_validates_len() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
        assert!(Tensor::from_vec(vec![1.0], &[1, 1, 1, 1, 1, 1, 1]).is_err());
    }

    #[test]
    fn zeros_after_dirty_recycle() {
        // A dropped tensor's buffer re-enters the pool; a fresh `zeros` of
        // the same size must still be all zero.
        let mut t = Tensor::full(&[4, 4], 3.5);
        t.data_mut()[0] = -1.0;
        drop(t);
        let z = Tensor::zeros(&[4, 4]);
        assert!(z.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn reset_uninit_reuses_and_reshapes() {
        let mut w = Tensor::empty();
        w.reset_uninit(&[2, 3]);
        assert_eq!(w.shape(), &[2, 3]);
        w.data_mut().copy_from_slice(&[1.0; 6]);
        w.reset_zeroed(&[3, 1]);
        assert_eq!(w.shape(), &[3, 1]);
        assert_eq!(w.data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn copy_from_matches_source() {
        let src = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let mut dst = Tensor::empty();
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn strides_row_major() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 7.0).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 7.0);
        assert_eq!(t.data()[5], 7.0);
    }

    #[test]
    fn get_out_of_bounds() {
        let t = Tensor::zeros(&[2, 3]);
        assert!(matches!(
            t.get(&[2, 0]),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(t.get(&[0]), Err(TensorError::RankMismatch { .. })));
    }

    #[test]
    fn reshape_checks_len() {
        let t = Tensor::zeros(&[2, 3]);
        assert!(t.reshape(&[6]).is_ok());
        assert!(t.reshape(&[4]).is_err());
        assert!(t.reshape(&[3, 2]).is_ok());
    }

    #[test]
    fn transpose2_correct() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let tt = t.transpose2().unwrap();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.get(&[0, 1]).unwrap(), 4.0);
        assert_eq!(tt.get(&[2, 0]).unwrap(), 3.0);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        assert_eq!(a.matmul(&i).unwrap(), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_into_overwrites_dirty_workspace() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let mut out = Tensor::full(&[5, 7], -3.25); // wrong shape, dirty data
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out.shape(), &[2, 2]);
        assert_eq!(out.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap();
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.min(), 1.0);
        assert!((t.variance() - 1.25).abs() < 1e-6);
    }

    #[test]
    fn map_applies() {
        let t = Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap();
        let relu = t.map(|v| v.max(0.0));
        assert_eq!(relu.data(), &[1.0, 0.0]);
    }

    #[test]
    fn allclose_tolerates() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![1.0 + 1e-7, 2.0], &[2]).unwrap();
        assert!(a.allclose(&b, 1e-6));
        assert!(!a.allclose(&b, 1e-9));
    }
}
