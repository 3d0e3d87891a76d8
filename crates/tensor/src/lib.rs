#![warn(missing_docs)]

//! # o4a-tensor
//!
//! A small, dependency-light dense tensor library used by the One4All-ST
//! reproduction. Tensors are row-major `f32` buffers with an explicit shape.
//!
//! The library provides exactly what the hierarchical multi-scale ST network
//! and the baseline models need:
//!
//! * shape/stride bookkeeping and safe element access ([`Tensor`]),
//! * broadcast-free elementwise arithmetic (shapes must match; the network
//!   code is explicit about alignment, mirroring the paper's fixed grids),
//! * 2-D matrix multiplication for linear and graph-convolution layers,
//! * 2-D convolution forward *and* backward passes ([`conv`]) — `im2col`
//!   onto the packed GEMM, or an implicit GEMM for stride-1 convs on
//!   AVX-512 — the workhorse of every spatial-modeling block,
//! * nearest-neighbour upsampling used by the cross-scale top-down pathway
//!   (Eq. 9 of the paper), and
//! * seeded random initialisation ([`init`]).
//!
//! The dense kernels (matmul, conv2d forward/backward) are lowered onto a
//! packed, register-tiled GEMM micro-kernel (`gemm` module): operands are
//! packed into cache-resident panels and an `MR x NR` accumulator tile is
//! driven down `k` in one streaming pass, with conv's weight matrix packed
//! once per call and reused across every batch sample. Stride-1 convs on
//! AVX-512 instead run implicit-GEMM tiles that read the input windows in
//! place, with the same per-element chains. On top of that serial floor
//! the kernels run on the work-parallel runtime in
//! [`parallel`] — sized by the `O4A_THREADS` environment variable, with
//! adaptive cutoffs that keep small jobs inline — and results are
//! guaranteed bit-identical to the serial naive reference at any thread
//! count (fixed chunking, disjoint outputs, single ascending k-order
//! accumulation per element, index-ordered reductions; see
//! [`Tensor::matmul_naive`]).
//!
//! The GEMM and convolution kernels additionally dispatch at startup onto
//! explicit-SIMD variants ([`isa`]): the CPU is probed once, a
//! function-pointer table selects scalar / AVX2+FMA / AVX-512
//! micro-kernels, and every tier preserves the exact per-element
//! accumulation chain — so the chosen ISA (overridable with
//! `O4A_ISA=scalar|avx2|avx512`) is bit-invisible in the results. `unsafe` in the crate is confined to the lifetime/aliasing
//! bookkeeping in [`parallel`] (and the batch loops in [`conv`] that use
//! it) and the `target_feature` intrinsics in the `simd` module, each
//! behind a safety argument tied to the dispatch tables. The f16
//! conversions behind the prediction store's half-width storage live in
//! [`half`]; all compute stays f32.
//!
//! Tensor storage and kernel scratch come from a thread-aware buffer pool
//! ([`pool`]): dropping a tensor recycles its buffer, `_into` kernel
//! variants (e.g. [`Tensor::matmul_into`], [`conv::conv2d_into`]) write
//! into caller-owned workspaces, and the fused Adam update
//! ([`ops::adam_update_into`]) sweeps parameters and moments in place —
//! so a training step allocates nothing at steady state. Disabling the pool (`pool::set_enabled`, a test hook) changes no
//! result bit.

pub mod conv;
mod gemm;
pub mod half;
pub mod init;
pub mod isa;
pub mod ops;
pub mod parallel;
pub mod pool;
mod simd;
pub mod tensor;

pub use conv::{
    conv2d, conv2d_backward, conv2d_bwd_into, conv2d_into, upsample_nearest,
    upsample_nearest_backward, Conv2dGrads,
};
pub use init::{glorot_uniform, SeededRng};
pub use ops::{adam_update_into, AdamUpdate};
pub use tensor::Tensor;

/// Error type for shape mismatches and invalid tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The shapes of two operands do not match.
    ShapeMismatch {
        /// Shape of the left-hand operand.
        lhs: Vec<usize>,
        /// Shape of the right-hand operand.
        rhs: Vec<usize>,
    },
    /// The requested shape does not contain the same number of elements.
    InvalidReshape {
        /// Number of elements in the source tensor.
        len: usize,
        /// The requested target shape.
        shape: Vec<usize>,
    },
    /// An index was out of bounds for the tensor shape.
    IndexOutOfBounds {
        /// The offending index.
        index: Vec<usize>,
        /// Shape of the tensor.
        shape: Vec<usize>,
    },
    /// The operation is only defined for a specific rank.
    RankMismatch {
        /// Expected tensor rank.
        expected: usize,
        /// Actual tensor rank.
        actual: usize,
    },
    /// An operation that needs at least one operand received none.
    EmptyInput {
        /// The operation that was invoked.
        op: &'static str,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { lhs, rhs } => {
                write!(f, "shape mismatch: {lhs:?} vs {rhs:?}")
            }
            TensorError::InvalidReshape { len, shape } => {
                write!(f, "cannot reshape {len} elements into {shape:?}")
            }
            TensorError::IndexOutOfBounds { index, shape } => {
                write!(f, "index {index:?} out of bounds for shape {shape:?}")
            }
            TensorError::RankMismatch { expected, actual } => {
                write!(f, "expected rank {expected}, got rank {actual}")
            }
            TensorError::EmptyInput { op } => {
                write!(f, "{op} requires at least one input tensor")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// Convenience result alias for tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
