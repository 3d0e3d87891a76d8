//! 2-D convolution (forward + backward) and nearest-neighbour upsampling.
//!
//! Convolution is a matrix multiplication over unrolled input windows:
//! with `krows = c_in*kh*kw` and one column per output pixel, each sample's
//! output is `W [c_out x krows] x col [krows x pixels]` plus the bias. The
//! network's convs are temporal convs, scale-merging layers with
//! `kernel = stride = K`, and the spatial modeling blocks.
//!
//! Two lowerings compute that product, with the same bits:
//!
//! * **Packed** (`im2col` + the packed GEMM): the windows are unrolled
//!   straight into the GEMM's right-operand panel, and the input gradient
//!   goes through a `col_grad = W^T x grad_output` matrix and `col2im`.
//!   The scalar tier runs it for every conv, and every tier runs it for
//!   strided convs.
//! * **Implicit GEMM** (stride 1, `pad < kernel`, on the AVX-512 tier): the
//!   kernel reads each 16-pixel strip of a window straight from a
//!   zero-padded copy of the input, and the input gradient strip from a
//!   column-padded copy of `grad_output`, so neither the `[krows x
//!   pixels]` panel nor `col_grad` nor `col2im` exists. The `isa`
//!   module's `Dispatch` table documents why the two agree bit for bit.
//!
//! The weight gradient is `gw^T = col x grad_output^T` on every tier: the
//! unrolled columns go through the contiguous A-panel packer.
//!
//! Tensors use NCHW layout: `[batch, channels, height, width]`.

use crate::gemm::{self, NR};
use crate::parallel::{self, SendPtr};
use crate::tensor::Tensor;
use crate::{Result, TensorError};
use std::cell::RefCell;
use std::thread::LocalKey;

thread_local! {
    // Per-worker scratches, reused across batch samples so the parallel
    // loops allocate nothing per task: the plain column matrix (and the
    // packed path's `col_grad`), a packed GEMM panel, the packed
    // `grad_output`, and the implicit kernels' zero-padded operand.
    static COL_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static PANEL_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static GO_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static PAD_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with a thread-local scratch buffer of at least `len` elements.
/// The buffer's contents are unspecified on entry.
fn with_scratch<R>(
    key: &'static LocalKey<RefCell<Vec<f32>>>,
    len: usize,
    f: impl FnOnce(&mut [f32]) -> R,
) -> R {
    key.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
}

/// Runs `f` on `src` (`planes` planes of `rows x cols`) zero-padded by
/// `pad_r` rows above and below and `pad_c` columns left and right, copied
/// into a per-worker scratch; on `src` itself when there is no padding.
pub(crate) fn with_padded<R>(
    src: &[f32],
    planes: usize,
    (rows, cols): (usize, usize),
    (pad_r, pad_c): (usize, usize),
    f: impl FnOnce(&[f32]) -> R,
) -> R {
    if pad_r == 0 && pad_c == 0 {
        return f(src);
    }
    let (rows_p, cols_p) = (rows + 2 * pad_r, cols + 2 * pad_c);
    with_scratch(&PAD_SCRATCH, planes * rows_p * cols_p, |buf| {
        for (dst, plane) in buf
            .chunks_exact_mut(rows_p * cols_p)
            .zip(src.chunks_exact(rows * cols))
        {
            let (top, rest) = dst.split_at_mut(pad_r * cols_p);
            let (body, bottom) = rest.split_at_mut(rows * cols_p);
            top.fill(0.0);
            bottom.fill(0.0);
            for (drow, srow) in body.chunks_exact_mut(cols_p).zip(plane.chunks_exact(cols)) {
                drow[..pad_c].fill(0.0);
                drow[pad_c..pad_c + cols].copy_from_slice(srow);
                drow[pad_c + cols..].fill(0.0);
            }
        }
        f(buf)
    })
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient with respect to the input, shape `[n, c_in, h, w]`.
    pub grad_input: Tensor,
    /// Gradient with respect to the weights, shape `[c_out, c_in, kh, kw]`.
    pub grad_weight: Tensor,
    /// Gradient with respect to the bias, shape `[c_out]`.
    pub grad_bias: Tensor,
}

impl Default for Conv2dGrads {
    /// Empty placeholder gradients, ready to serve as a reusable workspace
    /// for [`conv2d_bwd_into`].
    fn default() -> Self {
        Conv2dGrads {
            grad_input: Tensor::empty(),
            grad_weight: Tensor::empty(),
            grad_bias: Tensor::empty(),
        }
    }
}

/// Output spatial size of a convolution along one axis.
#[inline]
pub fn conv_out_size(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    (input + 2 * pad).saturating_sub(kernel) / stride + 1
}

/// One sample's convolution shape: input `[c_in, h, w]`, weights
/// `[c_out, c_in, kh, kw]`, output `[c_out, out_h, out_w]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConvGeom {
    pub c_in: usize,
    pub h: usize,
    pub w: usize,
    pub c_out: usize,
    pub kh: usize,
    pub kw: usize,
    pub stride: usize,
    pub pad: usize,
    pub out_h: usize,
    pub out_w: usize,
}

impl ConvGeom {
    /// The geometry of one sample of `[c_in, h, w]` under a
    /// `[c_out, c_in, kh, kw]` kernel.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        c_in: usize,
        h: usize,
        w: usize,
        c_out: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        ConvGeom {
            c_in,
            h,
            w,
            c_out,
            kh,
            kw,
            stride,
            pad,
            out_h: conv_out_size(h, kh, stride, pad),
            out_w: conv_out_size(w, kw, stride, pad),
        }
    }

    /// Output pixels per channel: the columns of the unrolled matrix.
    pub fn cols(&self) -> usize {
        self.out_h * self.out_w
    }

    /// Rows of the unrolled matrix, one per `(c, ki, kj)`.
    pub fn krows(&self) -> usize {
        self.c_in * self.kh * self.kw
    }

    /// Whether the dispatched per-sample kernels apply: stride 1, a
    /// nonempty input the kernel fits once padded, and padding narrower
    /// than the kernel, so every output pixel's window lies inside the
    /// padded input and every input pixel's taps cover the column-padded
    /// `grad_output`. Strided convs (the scale merges) always take the
    /// packed path.
    pub fn dispatched(&self) -> bool {
        self.stride == 1
            && self.h > 0
            && self.w > 0
            && self.pad < self.kh.min(self.kw)
            && self.h + 2 * self.pad >= self.kh
            && self.w + 2 * self.pad >= self.kw
    }

    /// Whether the output size is the one the other fields give, so the
    /// implicit kernels' pointer arithmetic stays inside the buffers.
    pub fn is_consistent(&self) -> bool {
        *self
            == ConvGeom::new(
                self.c_in,
                self.h,
                self.w,
                self.c_out,
                self.kh,
                self.kw,
                self.stride,
                self.pad,
            )
    }
}

/// Checks the shapes and returns the batch size and one sample's geometry.
fn geometry(
    input_shape: &[usize],
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    pad: usize,
) -> Result<(usize, ConvGeom)> {
    if input_shape.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input_shape.len(),
        });
    }
    if weight.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: weight.rank(),
        });
    }
    assert!(stride >= 1, "stride must be >= 1");
    let (n, c_in, h, w) = (
        input_shape[0],
        input_shape[1],
        input_shape[2],
        input_shape[3],
    );
    let (c_out, wc_in, kh, kw) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    if wc_in != c_in {
        return Err(TensorError::ShapeMismatch {
            lhs: input_shape.to_vec(),
            rhs: weight.shape().to_vec(),
        });
    }
    if bias.shape() != [c_out] {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![c_out],
            rhs: bias.shape().to_vec(),
        });
    }
    Ok((n, ConvGeom::new(c_in, h, w, c_out, kh, kw, stride, pad)))
}

/// Unrolls one batch image `[c_in, h, w]` into a column matrix
/// `[c_in*kh*kw, out_h*out_w]` (zero padding applied implicitly).
///
/// The forward path uses the fused [`im2col_packed_b`] form below, which
/// writes the GEMM panel layout directly. The weight gradient unrolls
/// through this materialized form and packs it as the left operand of
/// `col x grad_output^T`, whose rows are contiguous.
fn im2col(img: &[f32], g: &ConvGeom, col: &mut [f32]) {
    let ConvGeom {
        c_in,
        h,
        w,
        kh,
        kw,
        stride,
        pad,
        out_h,
        out_w,
        ..
    } = *g;
    let cols = g.cols();
    for c in 0..c_in {
        let chan = &img[c * h * w..(c + 1) * h * w];
        for ki in 0..kh {
            for kj in 0..kw {
                let row_idx = (c * kh + ki) * kw + kj;
                let dst = &mut col[row_idx * cols..(row_idx + 1) * cols];
                for oi in 0..out_h {
                    let ii = (oi * stride + ki) as isize - pad as isize;
                    let dst_row = &mut dst[oi * out_w..(oi + 1) * out_w];
                    if ii < 0 || ii >= h as isize {
                        for v in dst_row.iter_mut() {
                            *v = 0.0;
                        }
                        continue;
                    }
                    let src_row = &chan[ii as usize * w..(ii as usize + 1) * w];
                    for (oj, v) in dst_row.iter_mut().enumerate() {
                        let jj = (oj * stride + kj) as isize - pad as isize;
                        *v = if jj < 0 || jj >= w as isize {
                            0.0
                        } else {
                            src_row[jj as usize]
                        };
                    }
                }
            }
        }
    }
}

/// Output-column range `[lo, hi)` whose source column `oj*stride + kj - pad`
/// lies inside `[0, w)`; columns outside the range read implicit zero
/// padding.
#[inline]
fn unrolled_col_bounds(
    out_w: usize,
    stride: usize,
    pad: usize,
    kj: usize,
    w: usize,
) -> (usize, usize) {
    let lo = if pad > kj {
        (pad - kj).div_ceil(stride).min(out_w)
    } else {
        0
    };
    let num = (w + pad).saturating_sub(kj);
    let hi = if num == 0 {
        lo
    } else {
        ((num - 1) / stride + 1).clamp(lo, out_w)
    };
    (lo, hi)
}

/// Fills `dst[j] = unrolled value of output column oj0 + j` for one kernel
/// tap on one in-bounds image row: leading/trailing padding zeros around a
/// contiguous (`stride == 1`) or strided copy from `src_row`.
#[inline]
#[allow(clippy::too_many_arguments)]
fn fill_unrolled_run(
    dst: &mut [f32],
    oj0: usize,
    lo: usize,
    hi: usize,
    stride: usize,
    kj: usize,
    pad: usize,
    src_row: &[f32],
) {
    let len = dst.len();
    let zl = lo.saturating_sub(oj0).min(len);
    let ch = hi.saturating_sub(oj0).min(len).max(zl);
    dst[..zl].fill(0.0);
    if ch > zl {
        let src0 = (oj0 + zl) * stride + kj - pad;
        if stride == 1 {
            dst[zl..ch].copy_from_slice(&src_row[src0..src0 + (ch - zl)]);
        } else {
            for (j, v) in dst[zl..ch].iter_mut().enumerate() {
                *v = src_row[src0 + j * stride];
            }
        }
    }
    dst[ch..].fill(0.0);
}

/// [`im2col`] fused with GEMM right-operand packing: writes the column
/// matrix `[krows, cols]` directly in `pack_b_strided` layout (`NR`-wide
/// column strips), so the forward GEMM consumes the unrolled windows
/// without a separate 2x-sweep packing pass over the materialized matrix.
/// `packed` (length `packed_b_len(krows, cols)`) is fully initialized,
/// including the zero pad columns of the tail strip.
fn im2col_packed_b(img: &[f32], g: &ConvGeom, packed: &mut [f32]) {
    let ConvGeom {
        c_in,
        h,
        w,
        kh,
        kw,
        stride,
        pad,
        out_h,
        out_w,
        ..
    } = *g;
    let cols = g.cols();
    let krows = g.krows();
    debug_assert_eq!(packed.len(), gemm::packed_b_len(krows, cols));
    let tail_v = cols - (cols.div_ceil(NR) - 1) * NR;
    if tail_v < NR {
        // Pool scratch is dirty; the dead lanes must be zero so the kernel
        // multiplies them by 0 instead of by denormal/NaN garbage.
        let tail = &mut packed[(cols.div_ceil(NR) - 1) * krows * NR..];
        for p in 0..krows {
            for slot in &mut tail[p * NR + tail_v..(p + 1) * NR] {
                *slot = 0.0;
            }
        }
    }
    for c in 0..c_in {
        let chan = &img[c * h * w..(c + 1) * h * w];
        for ki in 0..kh {
            for kj in 0..kw {
                let row_idx = (c * kh + ki) * kw + kj;
                let (lo, hi) = unrolled_col_bounds(out_w, stride, pad, kj, w);
                for oi in 0..out_h {
                    let ii = (oi * stride + ki) as isize - pad as isize;
                    let c0 = oi * out_w;
                    let in_bounds = ii >= 0 && ii < h as isize;
                    let src_row = if in_bounds {
                        &chan[ii as usize * w..(ii as usize + 1) * w]
                    } else {
                        &[][..]
                    };
                    // Consecutive output columns are contiguous within a
                    // strip; walk the row in strip-bounded runs so both
                    // sides of every copy are plain slices.
                    let mut oj = 0usize;
                    while oj < out_w {
                        let cc = c0 + oj;
                        let run = (NR - cc % NR).min(out_w - oj);
                        let start = (cc / NR) * krows * NR + row_idx * NR + cc % NR;
                        let dst = &mut packed[start..start + run];
                        if in_bounds {
                            fill_unrolled_run(dst, oj, lo, hi, stride, kj, pad, src_row);
                        } else {
                            dst.fill(0.0);
                        }
                        oj += run;
                    }
                }
            }
        }
    }
}

/// Scatters a column matrix back into an image (the adjoint of [`im2col`]).
fn col2im(col: &[f32], g: &ConvGeom, img: &mut [f32]) {
    let ConvGeom {
        c_in,
        h,
        w,
        kh,
        kw,
        stride,
        pad,
        out_h,
        out_w,
        ..
    } = *g;
    let cols = g.cols();
    for c in 0..c_in {
        let chan = &mut img[c * h * w..(c + 1) * h * w];
        for ki in 0..kh {
            for kj in 0..kw {
                let row_idx = (c * kh + ki) * kw + kj;
                let src = &col[row_idx * cols..(row_idx + 1) * cols];
                for oi in 0..out_h {
                    let ii = (oi * stride + ki) as isize - pad as isize;
                    if ii < 0 || ii >= h as isize {
                        continue;
                    }
                    let dst_row = &mut chan[ii as usize * w..(ii as usize + 1) * w];
                    let src_row = &src[oi * out_w..(oi + 1) * out_w];
                    for (oj, &v) in src_row.iter().enumerate() {
                        let jj = (oj * stride + kj) as isize - pad as isize;
                        if jj >= 0 && jj < w as isize {
                            dst_row[jj as usize] += v;
                        }
                    }
                }
            }
        }
    }
}

/// Packed forward of one sample: the unrolled windows are written straight
/// into the GEMM's right-operand panel, `out` is seeded with the bias and
/// the GEMM accumulates `W x col` into it. The scalar tier's
/// [`crate::isa::Dispatch::conv_fwd`] and every tier's strided path.
pub(crate) fn conv_fwd_packed(
    img: &[f32],
    packed_w: &[f32],
    bias: &[f32],
    out: &mut [f32],
    g: &ConvGeom,
) {
    let (cols, krows) = (g.cols(), g.krows());
    with_scratch(&PANEL_SCRATCH, gemm::packed_b_len(krows, cols), |pcol| {
        im2col_packed_b(img, g, pcol);
        for (row, &b) in out.chunks_exact_mut(cols).zip(bias) {
            row.fill(b);
        }
        gemm::gemm_packed(packed_w, pcol, out, g.c_out, krows, cols);
    });
}

/// Packed input gradient of one sample: `col_grad = W^T x grad_output`
/// (`[krows, c_out] x [c_out, cols]`, from the shared packed `W^T` panel),
/// then [`col2im`] adds it into `gi`, which must start at zero. The overwrite
/// GEMM seeds its register tile at zero, so `col_grad` needs no zero-fill
/// pass. The scalar tier's [`crate::isa::Dispatch::conv_bwd_data`] and
/// every tier's strided path.
pub(crate) fn conv_bwd_data_packed(go: &[f32], packed_wt: &[f32], gi: &mut [f32], g: &ConvGeom) {
    let (cols, krows, c_out) = (g.cols(), g.krows(), g.c_out);
    with_scratch(&COL_SCRATCH, krows * cols, |col_grad| {
        with_scratch(&GO_SCRATCH, gemm::packed_b_len(c_out, cols), |pgo| {
            gemm::pack_b_strided(go, pgo, c_out, cols, cols, 1);
            gemm::gemm_packed_overwrite(packed_wt, pgo, col_grad, krows, c_out, cols);
        });
        col2im(col_grad, g, gi);
    });
}

/// Per-channel sums of `grad_output`, read from its packed transpose
/// `pgot` (`[cols, c_out]` in `NR`-wide channel strips) so the channels'
/// chains run side by side, one lane each. Each chain adds the pixels in
/// ascending order starting from -0.0, as `Iterator::sum` does.
fn channel_sums(pgot: &[f32], cols: usize, sums: &mut [f32]) {
    for (strip, out) in pgot.chunks_exact(cols * NR).zip(sums.chunks_mut(NR)) {
        let mut acc = [-0.0f32; NR];
        for row in strip.chunks_exact(NR) {
            for (a, &v) in acc.iter_mut().zip(row) {
                *a += v;
            }
        }
        out.copy_from_slice(&acc[..out.len()]);
    }
}

/// 2-D convolution forward pass.
///
/// * `input`: `[n, c_in, h, w]`
/// * `weight`: `[c_out, c_in, kh, kw]`
/// * `bias`: `[c_out]`
///
/// Returns `[n, c_out, out_h, out_w]`.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    pad: usize,
) -> Result<Tensor> {
    let mut out = Tensor::empty();
    conv2d_into(input, weight, bias, stride, pad, &mut out)?;
    Ok(out)
}

/// [`conv2d`] into a reusable output workspace (resized as needed; previous
/// contents discarded). Bit-identical to the allocating form.
pub fn conv2d_into(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    pad: usize,
    out: &mut Tensor,
) -> Result<()> {
    let (n, g) = geometry(input.shape(), weight, bias, stride, pad)?;
    let (c_in, c_out, cols, krows) = (g.c_in, g.c_out, g.cols(), g.krows());
    let _span = o4a_obs::span!("kernel_conv2d");
    o4a_obs::counter!(
        "o4a_kernel_conv2d_flops_total",
        "floating-point operations issued by the conv2d forward kernel"
    )
    .add(2 * (n * c_out * krows * cols) as u64);

    // Every output element is bias-seeded before the products accumulate
    // into it, so an uninitialized (pool-recycled) workspace is safe.
    out.reset_uninit(&[n, c_out, g.out_h, g.out_w]);
    let bdata = bias.data();
    let idata = input.data();
    let out_ptr = SendPtr(out.data_mut().as_mut_ptr());

    // Pack the `[c_out, krows]` weight matrix into GEMM row strips once;
    // every batch sample below reuses this shared read-only panel instead
    // of re-reading the strided weight view per sample. (`pack_a_strided`
    // fully initializes the panel, so pool scratch is safe here too.)
    let mut packed_w = crate::pool::scratch(gemm::packed_a_len(c_out, krows));
    gemm::pack_a_strided(weight.data(), &mut packed_w, c_out, krows, krows, 1);
    let packed_w = &packed_w[..];
    let sample = if g.dispatched() {
        crate::isa::dispatch().conv_fwd
    } else {
        conv_fwd_packed
    };

    // Batch samples are independent: each task owns one sample's disjoint
    // output slice. Each output element is seeded with its bias and
    // accumulates its k products in ascending order — exactly the serial
    // loop — so results are bit-identical at any thread count.
    let in_len = c_in * g.h * g.w;
    parallel::run(n, 2 * c_out * krows * cols, |b| {
        let img = &idata[b * in_len..(b + 1) * in_len];
        // SAFETY: batch index `b` owns `out[b * c_out * cols ..]`
        // alone, and `out` outlives the blocking `run` call.
        let out_b = unsafe { out_ptr.slice_mut(b * c_out * cols, c_out * cols) };
        sample(img, packed_w, bdata, out_b, &g);
    });
    Ok(())
}

/// 2-D convolution backward pass.
///
/// Given the upstream gradient `grad_output` (`[n, c_out, out_h, out_w]`),
/// computes gradients for the input, weight and bias of the forward call
/// with identical arguments.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    pad: usize,
    grad_output: &Tensor,
) -> Result<Conv2dGrads> {
    let mut grads = Conv2dGrads::default();
    conv2d_bwd_into(input, weight, bias, stride, pad, grad_output, &mut grads)?;
    Ok(grads)
}

/// [`conv2d_backward`] into a reusable gradient workspace (each tensor in
/// `grads` resized as needed; previous contents discarded). Bit-identical
/// to the allocating form.
pub fn conv2d_bwd_into(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    pad: usize,
    grad_output: &Tensor,
    grads: &mut Conv2dGrads,
) -> Result<()> {
    let (n, g) = geometry(input.shape(), weight, bias, stride, pad)?;
    let (c_in, h, w, c_out, kh, kw) = (g.c_in, g.h, g.w, g.c_out, g.kh, g.kw);
    if grad_output.shape() != [n, c_out, g.out_h, g.out_w] {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![n, c_out, g.out_h, g.out_w],
            rhs: grad_output.shape().to_vec(),
        });
    }
    let (cols, krows) = (g.cols(), g.krows());
    let _span = o4a_obs::span!("kernel_conv2d_bwd");
    o4a_obs::counter!(
        "o4a_kernel_conv2d_bwd_flops_total",
        "floating-point operations issued by the conv2d backward kernel"
    )
    .add(6 * (n * c_out * krows * cols) as u64);

    // The packed input-gradient kernel adds each tap into grad_input
    // (`col2im`), so the workspace must start at zero (pool scratch is
    // dirty).
    grads.grad_input.reset_zeroed(&[n, c_in, h, w]);
    // Per-sample partials for the cross-sample reductions; folded serially
    // in batch order below, reproducing the serial accumulation order
    // exactly (gradients stay bit-identical at any thread count). Both
    // partial buffers are fully overwritten; dirty pool scratch is safe.
    // The weight partials are `gw^T`, `[krows, c_out]` per sample.
    let mut gw_partial = crate::pool::scratch(n * krows * c_out);
    let mut gb_partial = crate::pool::scratch(n * c_out);
    let idata = input.data();
    let godata = grad_output.data();
    let gi_ptr = SendPtr(grads.grad_input.data_mut().as_mut_ptr());
    let gw_ptr = SendPtr(gw_partial.as_mut_ptr());
    let gb_ptr = SendPtr(gb_partial.as_mut_ptr());

    // Pack W-transpose (`[krows, c_out]`, via strides — no materialized
    // transpose) once; every sample's input-gradient kernel reads the
    // panel (`pack_a_strided` fully initializes it).
    let mut packed_wt = crate::pool::scratch(gemm::packed_a_len(krows, c_out));
    gemm::pack_a_strided(weight.data(), &mut packed_wt, krows, c_out, 1, krows);
    let packed_wt = &packed_wt[..];
    let bwd_data = if g.dispatched() {
        crate::isa::dispatch().conv_bwd_data
    } else {
        conv_bwd_data_packed
    };

    parallel::run(n, 5 * c_out * krows * cols, |b| {
        let go = &godata[b * c_out * cols..(b + 1) * c_out * cols];
        // SAFETY: batch index `b` owns disjoint slices of grad_input and
        // the partial buffers; all outlive the blocking `run` call.
        let gi = unsafe { gi_ptr.slice_mut(b * c_in * h * w, c_in * h * w) };
        let gwt_b = unsafe { gw_ptr.slice_mut(b * krows * c_out, krows * c_out) };
        let gb_b = unsafe { gb_ptr.slice_mut(b * c_out, c_out) };

        // gw^T = col x go^T: [krows, cols] x [cols, c_out]. Each element is
        // the ascending-pixel fma chain from zero of `go x col^T`, since
        // fma(a, b, c) == fma(b, a, c). The column matrix's rows are
        // contiguous, so it packs through the fast A packer.
        let img = &idata[b * c_in * h * w..(b + 1) * c_in * h * w];
        with_scratch(&COL_SCRATCH, krows * cols, |col| {
            im2col(img, &g, col);
            with_scratch(&PANEL_SCRATCH, gemm::packed_a_len(krows, cols), |pcol| {
                gemm::pack_a_strided(col, pcol, krows, cols, cols, 1);
                with_scratch(&GO_SCRATCH, gemm::packed_b_len(cols, c_out), |pgot| {
                    gemm::pack_b_strided(go, pgot, cols, c_out, 1, cols);
                    channel_sums(pgot, cols, gb_b);
                    gemm::gemm_packed_overwrite(pcol, pgot, gwt_b, krows, cols, c_out);
                });
            });
        });
        bwd_data(go, packed_wt, gi, &g);
    });

    // Fold the per-sample partials serially, in batch index order — the
    // exact order the serial loop accumulated them.
    grads.grad_weight.reset_zeroed(&[c_out, c_in, kh, kw]);
    grads.grad_bias.reset_zeroed(&[c_out]);
    let grad_weight = grads.grad_weight.data_mut();
    let grad_bias = grads.grad_bias.data_mut();
    for b in 0..n {
        let gwt_b = &gw_partial[b * krows * c_out..(b + 1) * krows * c_out];
        for (oc, gw_row) in grad_weight.chunks_exact_mut(krows).enumerate() {
            for (gw, p) in gw_row.iter_mut().zip(gwt_b[oc..].iter().step_by(c_out)) {
                *gw += p;
            }
        }
        let gb_b = &gb_partial[b * c_out..(b + 1) * c_out];
        for (gb, &p) in grad_bias.iter_mut().zip(gb_b) {
            *gb += p;
        }
    }
    Ok(())
}

/// Nearest-neighbour upsampling by an integer factor along both spatial
/// axes: `[n, c, h, w] -> [n, c, h*factor, w*factor]`.
///
/// This is the `UpSample` operation of the cross-scale modeling module
/// (Eq. 9): each coarse-grid feature is replicated over the `factor x factor`
/// block of finer grids it covers.
pub fn upsample_nearest(input: &Tensor, factor: usize) -> Result<Tensor> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input.rank(),
        });
    }
    assert!(factor >= 1, "upsample factor must be >= 1");
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (oh, ow) = (h * factor, w * factor);
    // Fully written below, so an uninitialized pooled workspace is safe.
    let mut out_t = Tensor::uninit(&[n, c, oh, ow]);
    let out = out_t.data_mut();
    for bc in 0..n * c {
        let src = &input.data()[bc * h * w..(bc + 1) * h * w];
        let dst = &mut out[bc * oh * ow..(bc + 1) * oh * ow];
        for oi in 0..oh {
            let si = oi / factor;
            let srow = &src[si * w..(si + 1) * w];
            let drow = &mut dst[oi * ow..(oi + 1) * ow];
            for (oj, v) in drow.iter_mut().enumerate() {
                *v = srow[oj / factor];
            }
        }
    }
    Ok(out_t)
}

/// Backward pass of [`upsample_nearest`]: each coarse cell accumulates the
/// gradients of all fine cells it was replicated into.
pub fn upsample_nearest_backward(grad_output: &Tensor, factor: usize) -> Result<Tensor> {
    if grad_output.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: grad_output.rank(),
        });
    }
    let (n, c, oh, ow) = (
        grad_output.shape()[0],
        grad_output.shape()[1],
        grad_output.shape()[2],
        grad_output.shape()[3],
    );
    assert!(
        oh % factor == 0 && ow % factor == 0,
        "grad_output spatial dims must be divisible by factor"
    );
    let (h, w) = (oh / factor, ow / factor);
    // Accumulated into, so the pooled workspace must start zeroed.
    let mut out_t = Tensor::zeros(&[n, c, h, w]);
    let out = out_t.data_mut();
    for bc in 0..n * c {
        let src = &grad_output.data()[bc * oh * ow..(bc + 1) * oh * ow];
        let dst = &mut out[bc * h * w..(bc + 1) * h * w];
        for oi in 0..oh {
            let si = oi / factor;
            let srow = &src[oi * ow..(oi + 1) * ow];
            let drow = &mut dst[si * w..(si + 1) * w];
            for (oj, &g) in srow.iter().enumerate() {
                drow[oj / factor] += g;
            }
        }
    }
    Ok(out_t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32], s: &[usize]) -> Tensor {
        Tensor::from_vec(v.to_vec(), s).unwrap()
    }

    #[test]
    fn out_size_math() {
        assert_eq!(conv_out_size(4, 3, 1, 1), 4); // same padding
        assert_eq!(conv_out_size(4, 2, 2, 0), 2); // scale merging K=2
        assert_eq!(conv_out_size(6, 3, 3, 0), 2); // scale merging K=3
        assert_eq!(conv_out_size(5, 3, 1, 0), 3);
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // 1x1 kernel with weight 1, bias 0 is the identity.
        let x = t(&[1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let w = t(&[1.0], &[1, 1, 1, 1]);
        let b = t(&[0.0], &[1]);
        let y = conv2d(&x, &w, &b, 1, 0).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn bias_applied_per_channel() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let w = Tensor::zeros(&[2, 1, 1, 1]);
        let b = t(&[1.0, -3.0], &[2]);
        let y = conv2d(&x, &w, &b, 1, 0).unwrap();
        assert_eq!(y.shape(), &[1, 2, 2, 2]);
        assert_eq!(&y.data()[0..4], &[1.0; 4]);
        assert_eq!(&y.data()[4..8], &[-3.0; 4]);
    }

    #[test]
    fn known_3x3_valid_convolution() {
        // 3x3 input, 2x2 kernel of all ones => sums of 2x2 windows.
        let x = t(
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            &[1, 1, 3, 3],
        );
        let w = Tensor::ones(&[1, 1, 2, 2]);
        let b = Tensor::zeros(&[1]);
        let y = conv2d(&x, &w, &b, 1, 0).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn stride_equals_kernel_is_scale_merge() {
        // 4x4 input, K=2 kernel of ones with stride 2 sums disjoint 2x2 blocks
        // — exactly the paper's scale-merging layer semantics.
        let x = t(
            &(1..=16).map(|v| v as f32).collect::<Vec<_>>(),
            &[1, 1, 4, 4],
        );
        let w = Tensor::ones(&[1, 1, 2, 2]);
        let b = Tensor::zeros(&[1]);
        let y = conv2d(&x, &w, &b, 2, 0).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[14.0, 22.0, 46.0, 54.0]);
    }

    #[test]
    fn padding_same_keeps_size() {
        let x = Tensor::ones(&[2, 3, 5, 5]);
        let w = Tensor::ones(&[4, 3, 3, 3]);
        let b = Tensor::zeros(&[4]);
        let y = conv2d(&x, &w, &b, 1, 1).unwrap();
        assert_eq!(y.shape(), &[2, 4, 5, 5]);
        // centre value: 3 channels * 9 taps = 27
        assert_eq!(y.get(&[0, 0, 2, 2]).unwrap(), 27.0);
        // corner value: 3 channels * 4 taps = 12
        assert_eq!(y.get(&[0, 0, 0, 0]).unwrap(), 12.0);
    }

    #[test]
    fn multi_channel_mixes_inputs() {
        let x = t(&[1.0, 2.0, 10.0, 20.0], &[1, 2, 2, 1]);
        // one output channel, w = [c0 -> 1, c1 -> 0.5], 1x1 kernel
        let w = t(&[1.0, 0.5], &[1, 2, 1, 1]);
        let b = Tensor::zeros(&[1]);
        let y = conv2d(&x, &w, &b, 1, 0).unwrap();
        assert_eq!(y.data(), &[6.0, 12.0]);
    }

    /// Finite-difference check of the full conv backward pass.
    #[test]
    fn backward_matches_finite_differences() {
        use crate::init::SeededRng;
        let mut rng = SeededRng::new(7);
        let x = rng.uniform_tensor(&[2, 2, 4, 4], -1.0, 1.0);
        let w = rng.uniform_tensor(&[3, 2, 3, 3], -0.5, 0.5);
        let b = rng.uniform_tensor(&[3], -0.5, 0.5);
        let stride = 1;
        let pad = 1;

        // loss = sum(conv(x)) => grad_output = ones
        let y = conv2d(&x, &w, &b, stride, pad).unwrap();
        let go = Tensor::ones(y.shape());
        let grads = conv2d_backward(&x, &w, &b, stride, pad, &go).unwrap();

        let eps = 1e-2f32;
        let loss = |x: &Tensor, w: &Tensor, b: &Tensor| -> f32 {
            conv2d(x, w, b, stride, pad).unwrap().sum()
        };
        // check a sample of coordinates in each gradient
        for idx in [0usize, 5, 17, 31] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fd = (loss(&xp, &w, &b) - loss(&xm, &w, &b)) / (2.0 * eps);
            assert!(
                (fd - grads.grad_input.data()[idx]).abs() < 1e-2,
                "grad_input[{idx}]: fd={fd} analytic={}",
                grads.grad_input.data()[idx]
            );
        }
        for idx in [0usize, 7, 23] {
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w.clone();
            wm.data_mut()[idx] -= eps;
            let fd = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps);
            assert!(
                (fd - grads.grad_weight.data()[idx]).abs() < 5e-2,
                "grad_weight[{idx}]: fd={fd} analytic={}",
                grads.grad_weight.data()[idx]
            );
        }
        for idx in 0..3 {
            let mut bp = b.clone();
            bp.data_mut()[idx] += eps;
            let mut bm = b.clone();
            bm.data_mut()[idx] -= eps;
            let fd = (loss(&x, &w, &bp) - loss(&x, &w, &bm)) / (2.0 * eps);
            assert!(
                (fd - grads.grad_bias.data()[idx]).abs() < 5e-2,
                "grad_bias[{idx}]: fd={fd} analytic={}",
                grads.grad_bias.data()[idx]
            );
        }
    }

    /// The fused im2col-pack forms must write the exact bytes of packing
    /// the materialized column matrix, across kernel geometries that
    /// exercise padding, stride, ragged strips and the 1x1 identity case.
    #[test]
    fn fused_im2col_packs_match_reference() {
        for &(c_in, h, w, kh, kw, stride, pad) in &[
            (3usize, 5usize, 6usize, 3usize, 3usize, 1usize, 1usize),
            (2, 4, 4, 2, 2, 2, 0),
            (1, 7, 5, 3, 2, 1, 0),
            (4, 6, 6, 1, 1, 1, 0),
            (2, 9, 9, 3, 3, 2, 1),
            (17, 6, 6, 3, 3, 1, 1), // krows = 153: ragged MR strip
        ] {
            let g = ConvGeom::new(c_in, h, w, 1, kh, kw, stride, pad);
            let (cols, krows) = (g.cols(), g.krows());
            let img: Vec<f32> = (0..c_in * h * w).map(|i| (i as f32 * 0.37).sin()).collect();
            let mut col = vec![0.0f32; krows * cols];
            im2col(&img, &g, &mut col);

            let mut pb_ref = vec![0.0f32; gemm::packed_b_len(krows, cols)];
            gemm::pack_b_strided(&col, &mut pb_ref, krows, cols, cols, 1);
            // NaN prefill: any slot the fused form fails to write shows up
            // as a NaN-vs-number bit mismatch against the reference.
            let mut pb_fused = vec![f32::NAN; pb_ref.len()];
            im2col_packed_b(&img, &g, &mut pb_fused);
            let rb: Vec<u32> = pb_ref.iter().map(|v| v.to_bits()).collect();
            let fb: Vec<u32> = pb_fused.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                rb, fb,
                "packed-B mismatch for ({c_in},{h},{w},{kh},{kw},{stride},{pad})"
            );
        }
    }

    /// Finite-difference check of the backward pass through a
    /// stride-2 scale-merging conv (`kernel = stride = 2`, no padding) —
    /// the geometry the fused packing paths don't share with the
    /// stride-1 gradcheck above.
    #[test]
    fn backward_matches_finite_differences_scale_merge() {
        use crate::init::SeededRng;
        let mut rng = SeededRng::new(11);
        let x = rng.uniform_tensor(&[2, 3, 6, 6], -1.0, 1.0);
        let w = rng.uniform_tensor(&[4, 3, 2, 2], -0.5, 0.5);
        let b = rng.uniform_tensor(&[4], -0.5, 0.5);
        let (stride, pad) = (2, 0);

        let y = conv2d(&x, &w, &b, stride, pad).unwrap();
        let go = Tensor::ones(y.shape());
        let grads = conv2d_backward(&x, &w, &b, stride, pad, &go).unwrap();

        let eps = 1e-2f32;
        let loss = |x: &Tensor, w: &Tensor, b: &Tensor| -> f32 {
            conv2d(x, w, b, stride, pad).unwrap().sum()
        };
        for idx in [0usize, 13, 50, 107] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fd = (loss(&xp, &w, &b) - loss(&xm, &w, &b)) / (2.0 * eps);
            assert!(
                (fd - grads.grad_input.data()[idx]).abs() < 1e-2,
                "grad_input[{idx}]: fd={fd} analytic={}",
                grads.grad_input.data()[idx]
            );
        }
        for idx in [0usize, 11, 29, 47] {
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w.clone();
            wm.data_mut()[idx] -= eps;
            let fd = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps);
            assert!(
                (fd - grads.grad_weight.data()[idx]).abs() < 5e-2,
                "grad_weight[{idx}]: fd={fd} analytic={}",
                grads.grad_weight.data()[idx]
            );
        }
    }

    // Micro-timing of the conv pipeline pieces at the 16-channel 32x32
    // training shape, per sample: unrolling, packing, the GEMMs, col2im,
    // and the per-sample kernels of the packed path and of each ISA tier —
    // the numbers behind the path choices documented on the `isa` module's
    // `Dispatch` table. Run with: `cargo test --release -p o4a-tensor
    // --lib -- --ignored conv_piece_timings --nocapture`
    #[test]
    #[ignore]
    fn conv_piece_timings() {
        use std::time::Instant;
        for side in [32usize, 16, 8, 4, 2, 1] {
            let g = ConvGeom::new(16, side, side, 16, 3, 3, 1, 1);
            let (c_in, c_out) = (g.c_in, g.c_out);
            let (cols, krows) = (g.cols(), g.krows());
            let img: Vec<f32> = (0..c_in * side * side)
                .map(|i| (i as f32 * 0.37).sin())
                .collect();
            let go: Vec<f32> = (0..c_out * cols).map(|i| (i as f32 * 0.53).sin()).collect();
            let wgt: Vec<f32> = (0..c_out * krows)
                .map(|i| (i as f32 * 0.71).sin())
                .collect();
            let bias = vec![0.25f32; c_out];

            let mut col = vec![0.0f32; krows * cols];
            let mut pb = vec![0.0f32; gemm::packed_b_len(krows, cols)];
            let mut pcol = vec![0.0f32; gemm::packed_a_len(krows, cols)];
            let mut pgot = vec![0.0f32; gemm::packed_b_len(cols, c_out)];
            let mut pw = vec![0.0f32; gemm::packed_a_len(c_out, krows)];
            let mut pwt = vec![0.0f32; gemm::packed_a_len(krows, c_out)];
            gemm::pack_a_strided(&wgt, &mut pw, c_out, krows, krows, 1);
            gemm::pack_a_strided(&wgt, &mut pwt, krows, c_out, 1, krows);
            let mut out = vec![0.0f32; c_out * cols];
            let mut gwt = vec![0.0f32; krows * c_out];
            let mut gb = vec![0.0f32; c_out];
            let mut gi = vec![0.0f32; c_in * side * side];

            let reps = (200 * 1024 / cols).min(5000) as u32;
            let time = |label: &str, f: &mut dyn FnMut()| {
                let mut best = f64::MAX;
                for _ in 0..5 {
                    let t0 = Instant::now();
                    for _ in 0..reps {
                        f();
                    }
                    best = best.min(t0.elapsed().as_secs_f64() / reps as f64 * 1e6);
                }
                println!("{side:2}x{side:<2} {label:28} {best:9.2} us");
            };

            time("im2col plain", &mut || im2col(&img, &g, &mut col));
            time("im2col_packed_b", &mut || {
                im2col_packed_b(&img, &g, &mut pb)
            });
            time("pack_a(col) contiguous", &mut || {
                gemm::pack_a_strided(&col, &mut pcol, krows, cols, cols, 1)
            });
            time("pack_b(go^T) strided", &mut || {
                gemm::pack_b_strided(&go, &mut pgot, cols, c_out, 1, cols)
            });
            time("channel sums", &mut || channel_sums(&pgot, cols, &mut gb));
            time("gemm fwd W*col", &mut || {
                gemm::gemm_packed(&pw, &pb, &mut out, c_out, krows, cols)
            });
            time("gemm gw^T col*go^T", &mut || {
                gemm::gemm_packed_overwrite(&pcol, &pgot, &mut gwt, krows, cols, c_out)
            });
            let mut pgo = vec![0.0f32; gemm::packed_b_len(c_out, cols)];
            let mut col_grad = vec![0.0f32; krows * cols];
            time("pack_b(go)", &mut || {
                gemm::pack_b_strided(&go, &mut pgo, c_out, cols, cols, 1)
            });
            time("gemm col_grad W^T*go", &mut || {
                gemm::gemm_packed_overwrite(&pwt, &pgo, &mut col_grad, krows, c_out, cols)
            });
            time("col2im", &mut || {
                gi.fill(0.0);
                col2im(&col_grad, &g, &mut gi)
            });
            for isa in crate::isa::available() {
                crate::isa::force(Some(isa));
                let d = crate::isa::dispatch();
                time(&format!("fwd sample ({})", isa.name()), &mut || {
                    (d.conv_fwd)(&img, &pw, &bias, &mut out, &g)
                });
                time(&format!("bwd-data sample ({})", isa.name()), &mut || {
                    gi.fill(0.0);
                    (d.conv_bwd_data)(&go, &pwt, &mut gi, &g)
                });
            }
            crate::isa::force(None);
        }
    }

    #[test]
    fn upsample_replicates_blocks() {
        let x = t(&[1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let y = upsample_nearest(&x, 2).unwrap();
        assert_eq!(y.shape(), &[1, 1, 4, 4]);
        assert_eq!(
            y.data(),
            &[1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0, 3.0, 3.0, 4.0, 4.0]
        );
    }

    #[test]
    fn upsample_backward_accumulates() {
        let g = Tensor::ones(&[1, 1, 4, 4]);
        let gi = upsample_nearest_backward(&g, 2).unwrap();
        assert_eq!(gi.shape(), &[1, 1, 2, 2]);
        assert_eq!(gi.data(), &[4.0; 4]);
    }

    #[test]
    fn upsample_roundtrip_adjoint() {
        // <upsample(x), g> == <x, upsample_backward(g)> (adjoint property)
        use crate::init::SeededRng;
        let mut rng = SeededRng::new(3);
        let x = rng.uniform_tensor(&[2, 3, 2, 2], -1.0, 1.0);
        let g = rng.uniform_tensor(&[2, 3, 4, 4], -1.0, 1.0);
        let up = upsample_nearest(&x, 2).unwrap();
        let down = upsample_nearest_backward(&g, 2).unwrap();
        let lhs: f32 = up.data().iter().zip(g.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(down.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-4);
    }
}
