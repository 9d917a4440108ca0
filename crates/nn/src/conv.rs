//! Functional convolution via im2col lowering.
//!
//! The paper protects convolutions *as matrix multiplications* (§2.1):
//! the input feature map is unrolled into the `M × K` activation matrix
//! (one row per output position, one column per `(channel, ky, kx)` tap)
//! and the filters form the `K × N` weight matrix. This module performs
//! that lowering concretely so convolutional layers can be executed —
//! and fault-injected — on the functional GEMM engine, not just costed
//! analytically.

use crate::layer::conv_out;
use aiga_dtype::F16;
use aiga_gpu::engine::{Im2colView, Matrix, Workspace};

/// A batched FP16 feature map in NCHW layout.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    /// Batch size.
    pub batch: usize,
    /// Channels.
    pub channels: usize,
    /// Height.
    pub height: usize,
    /// Width.
    pub width: usize,
    /// NCHW storage.
    pub data: Vec<F16>,
}

impl Tensor {
    /// All-zeros tensor.
    pub fn zeros(batch: usize, channels: usize, height: usize, width: usize) -> Self {
        Tensor {
            batch,
            channels,
            height,
            width,
            data: vec![F16::ZERO; batch * channels * height * width],
        }
    }

    /// Element-wise construction from `f(n, c, y, x)`.
    pub fn from_fn(
        batch: usize,
        channels: usize,
        height: usize,
        width: usize,
        mut f: impl FnMut(usize, usize, usize, usize) -> F16,
    ) -> Self {
        let mut data = Vec::with_capacity(batch * channels * height * width);
        for n in 0..batch {
            for c in 0..channels {
                for y in 0..height {
                    for x in 0..width {
                        data.push(f(n, c, y, x));
                    }
                }
            }
        }
        Tensor {
            batch,
            channels,
            height,
            width,
            data,
        }
    }

    /// Deterministic pseudo-random tensor (activation-scale values).
    pub fn random(batch: usize, channels: usize, height: usize, width: usize, seed: u64) -> Self {
        let m = Matrix::random(batch * channels, height * width, seed);
        Tensor {
            batch,
            channels,
            height,
            width,
            data: m.data,
        }
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, n: usize, c: usize, y: usize, x: usize) -> F16 {
        self.data[((n * self.channels + c) * self.height + y) * self.width + x]
    }
}

/// Convolution hyperparameters (square kernels, as all zoo models use).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvParams {
    /// Output channels.
    pub c_out: usize,
    /// Kernel side length.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding on each side.
    pub padding: usize,
}

impl ConvParams {
    /// Output spatial dims for an input of `h × w`.
    pub fn out_dims(&self, h: usize, w: usize) -> (usize, usize) {
        (
            conv_out(
                h as u64,
                self.kernel as u64,
                self.stride as u64,
                self.padding as u64,
            ) as usize,
            conv_out(
                w as u64,
                self.kernel as u64,
                self.stride as u64,
                self.padding as u64,
            ) as usize,
        )
    }

    /// True for 1×1 stride-1 unpadded convolutions. Their im2col
    /// lowering is a pure relabeling of the NCHW buffer (`K = Cin`, one
    /// row per pixel), which the GEMM's zero-copy
    /// [`aiga_gpu::MatrixLayout::Im2col`] view of the activation tensor
    /// reads as one contiguous run per image and channel.
    pub fn is_pointwise(&self) -> bool {
        self.kernel == 1 && self.stride == 1 && self.padding == 0
    }

    /// The implicit-GEMM view of these parameters over a
    /// `channels × height × width` input: the geometry the engine's
    /// panel staging gathers through directly, so k>1 convolutions never
    /// materialize the [`im2col`] matrix on the fast path.
    pub fn im2col_view(&self, channels: usize, height: usize, width: usize) -> Im2colView {
        let (out_h, out_w) = self.out_dims(height, width);
        Im2colView {
            channels,
            height,
            width,
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
            out_h,
            out_w,
        }
    }
}

/// Unrolls `input` into the implicit-GEMM activation matrix: row
/// `(n, oy, ox)`, column `(c, ky, kx)` — `M = B·Ho·Wo`, `K = Cin·k²`.
///
/// Thin allocating wrapper over [`im2col_into`]; the serving hot path
/// lowers into a warm [`Workspace`] instead and never allocates.
pub fn im2col(input: &Tensor, p: ConvParams) -> Matrix {
    let mut ws = Workspace::new();
    im2col_into(input, p, &mut ws);
    ws.take_lowering()
}

/// [`im2col`] into the workspace's lowering buffer: the destination is
/// resized in place (capacity only ratchets up), so steady-state conv
/// lowering performs zero heap allocations. Read the result via
/// [`Workspace::lowering_mut`] or move it out with
/// [`Workspace::take_lowering`] for the engine call.
pub fn im2col_into(input: &Tensor, p: ConvParams, ws: &mut Workspace) {
    let (ho, wo) = p.out_dims(input.height, input.width);
    let k_dim = input.channels * p.kernel * p.kernel;
    let out = ws.lowering_mut();
    out.rows = input.batch * ho * wo;
    out.cols = k_dim;
    out.data.clear();
    out.data.resize(out.rows * k_dim, F16::ZERO);
    for n in 0..input.batch {
        for oy in 0..ho {
            for ox in 0..wo {
                let row = (n * ho + oy) * wo + ox;
                let mut col = 0usize;
                for c in 0..input.channels {
                    for ky in 0..p.kernel {
                        for kx in 0..p.kernel {
                            let iy = (oy * p.stride + ky) as isize - p.padding as isize;
                            let ix = (ox * p.stride + kx) as isize - p.padding as isize;
                            if iy >= 0
                                && ix >= 0
                                && (iy as usize) < input.height
                                && (ix as usize) < input.width
                            {
                                out.set(row, col, input.get(n, c, iy as usize, ix as usize));
                            }
                            col += 1;
                        }
                    }
                }
            }
        }
    }
}

/// Reshapes OIHW filters into the `K × N` weight matrix (column per
/// output channel, row per `(c, ky, kx)` tap — matching [`im2col`]).
pub fn filters_to_matrix(filters: &Tensor) -> Matrix {
    // Interpret the tensor as O×I×kh×kw.
    let (o, i, kh, kw) = (
        filters.batch,
        filters.channels,
        filters.height,
        filters.width,
    );
    Matrix::from_fn(i * kh * kw, o, |row, col| {
        let c = row / (kh * kw);
        let ky = (row / kw) % kh;
        let kx = row % kw;
        filters.get(col, c, ky, kx)
    })
}

/// Direct (sliding-window) convolution reference in FP64, NCHW in/out.
pub fn conv_reference_f64(input: &Tensor, filters: &Tensor, p: ConvParams) -> Vec<f64> {
    assert_eq!(filters.channels, input.channels, "channel mismatch");
    assert_eq!(filters.batch, p.c_out, "filter count mismatch");
    let (ho, wo) = p.out_dims(input.height, input.width);
    let mut out = vec![0.0f64; input.batch * p.c_out * ho * wo];
    for n in 0..input.batch {
        for co in 0..p.c_out {
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut acc = 0.0f64;
                    for c in 0..input.channels {
                        for ky in 0..p.kernel {
                            for kx in 0..p.kernel {
                                let iy = (oy * p.stride + ky) as isize - p.padding as isize;
                                let ix = (ox * p.stride + kx) as isize - p.padding as isize;
                                if iy >= 0
                                    && ix >= 0
                                    && (iy as usize) < input.height
                                    && (ix as usize) < input.width
                                {
                                    acc += input.get(n, c, iy as usize, ix as usize).to_f64()
                                        * filters.get(co, c, ky, kx).to_f64();
                                }
                            }
                        }
                    }
                    out[((n * p.c_out + co) * ho + oy) * wo + ox] = acc;
                }
            }
        }
    }
    out
}

/// Maps a GEMM output element `(row, col)` of the lowered convolution
/// back to its `(n, c_out, oy, ox)` coordinate.
pub fn gemm_to_nchw(row: usize, col: usize, ho: usize, wo: usize) -> (usize, usize, usize, usize) {
    (row / (ho * wo), col, (row / wo) % ho, row % wo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiga_gpu::engine::{gemm, gemm_reference_f64, Dtype, MatrixView, TileScheme};

    fn params(c_out: usize, kernel: usize, stride: usize, padding: usize) -> ConvParams {
        ConvParams {
            c_out,
            kernel,
            stride,
            padding,
        }
    }

    #[test]
    fn im2col_dims_match_the_layer_lowering() {
        let input = Tensor::random(2, 3, 10, 12, 1);
        let p = params(8, 3, 1, 1);
        let a = im2col(&input, p);
        assert_eq!(a.rows, 2 * 10 * 12);
        assert_eq!(a.cols, 3 * 9);
    }

    #[test]
    fn lowered_gemm_equals_direct_convolution() {
        let input = Tensor::random(2, 3, 8, 9, 2);
        let filters = Tensor::random(6, 3, 3, 3, 3); // O=6,I=3,3x3
        let p = params(6, 3, 1, 1);
        let a = im2col(&input, p);
        let b = filters_to_matrix(&filters);
        let gemm = gemm_reference_f64(&a, &b);
        let direct = conv_reference_f64(&input, &filters, p);
        let (ho, wo) = p.out_dims(8, 9);
        for row in 0..a.rows {
            for col in 0..b.cols {
                let (n, co, oy, ox) = gemm_to_nchw(row, col, ho, wo);
                let d = direct[((n * 6 + co) * ho + oy) * wo + ox];
                let g = gemm[row * b.cols + col];
                assert!((d - g).abs() < 1e-9, "({row},{col}): {g} vs {d}");
            }
        }
    }

    #[test]
    fn pointwise_lowered_view_equals_the_im2col_matrix() {
        // For a 1×1 stride-1 unpadded conv, the zero-copy NchwLowered
        // view of the activation tensor must be logically identical to
        // the materialized im2col matrix — element for element — so
        // everything downstream (checksums, engine staging, oracles)
        // sees the same FP16 bits.
        let input = Tensor::random(3, 5, 7, 4, 9);
        let p = params(6, 1, 1, 0);
        assert!(p.is_pointwise());
        assert!(!params(6, 3, 1, 1).is_pointwise());
        assert!(!params(6, 1, 2, 0).is_pointwise());
        assert!(!params(6, 1, 1, 1).is_pointwise());
        let copied = im2col(&input, p);
        let view = MatrixView::nchw_lowered(3, 5, 7 * 4, &input.data, Dtype::F16);
        assert_eq!((view.rows, view.cols), (copied.rows, copied.cols));
        for r in 0..view.rows {
            for c in 0..view.cols {
                assert_eq!(view.get(r, c), copied.get(r, c), "({r},{c})");
            }
        }
        // And the engine produces byte-identical outputs from either.
        let filters = Tensor::random(6, 5, 1, 1, 10);
        let b = filters_to_matrix(&filters);
        let from_copy = gemm(&copied, &b, TileScheme::NONE, &[]);
        let from_view = gemm(view, &b, TileScheme::NONE, &[]);
        assert_eq!(from_copy.c, from_view.c);
    }

    #[test]
    fn im2col_view_equals_the_materialized_lowering() {
        // The implicit-GEMM view must be logically identical to the
        // materialized im2col matrix — element for element, including
        // zero-padding taps — across every zoo kernel geometry, so
        // checksums, engine staging, and oracles see the same FP16 bits.
        for (kernel, stride, padding) in [(3, 1, 1), (3, 2, 1), (7, 2, 3), (5, 2, 2), (11, 4, 2)] {
            let input = Tensor::random(2, 3, 15, 13, 70 + kernel as u64);
            let p = params(4, kernel, stride, padding);
            let copied = im2col(&input, p);
            let view = MatrixView::im2col_lowered(
                input.batch,
                p.im2col_view(input.channels, input.height, input.width),
                &input.data,
                Dtype::F16,
            );
            assert_eq!((view.rows, view.cols), (copied.rows, copied.cols));
            for r in 0..view.rows {
                for c in 0..view.cols {
                    assert_eq!(
                        view.get(r, c),
                        copied.get(r, c),
                        "k{kernel}s{stride}p{padding} ({r},{c})"
                    );
                }
            }
            // And the engine produces byte-identical outputs from either.
            let filters = Tensor::random(4, 3, kernel, kernel, 80 + stride as u64);
            let b = filters_to_matrix(&filters);
            let from_copy = gemm(&copied, &b, TileScheme::NONE, &[]);
            let from_view = gemm(view, &b, TileScheme::NONE, &[]);
            assert_eq!(from_copy.c, from_view.c, "k{kernel}s{stride}p{padding}");
        }
    }

    #[test]
    fn strided_and_padded_windows_agree_with_reference() {
        for (kernel, stride, padding) in [(3, 2, 1), (5, 2, 2), (1, 1, 0), (7, 4, 3)] {
            let input = Tensor::random(1, 2, 13, 11, 40 + kernel as u64);
            let filters = Tensor::random(4, 2, kernel, kernel, 50 + stride as u64);
            let p = params(4, kernel, stride, padding);
            let a = im2col(&input, p);
            let b = filters_to_matrix(&filters);
            let gemm = gemm_reference_f64(&a, &b);
            let direct = conv_reference_f64(&input, &filters, p);
            let (ho, wo) = p.out_dims(13, 11);
            let mut max_err = 0.0f64;
            for row in 0..a.rows {
                for col in 0..4 {
                    let (n, co, oy, ox) = gemm_to_nchw(row, col, ho, wo);
                    let d = direct[((n * 4 + co) * ho + oy) * wo + ox];
                    max_err = max_err.max((d - gemm[row * 4 + col]).abs());
                }
            }
            assert!(max_err < 1e-9, "k{kernel}s{stride}p{padding}: {max_err}");
        }
    }

    #[test]
    fn functional_engine_runs_the_lowered_convolution() {
        // The whole path the paper protects: im2col -> Tensor Core GEMM.
        let input = Tensor::random(1, 3, 12, 12, 7);
        let filters = Tensor::random(16, 3, 3, 3, 8);
        let p = params(16, 3, 1, 1);
        let a = im2col(&input, p);
        let b = filters_to_matrix(&filters);
        let out = gemm(&a, &b, TileScheme::NONE, &[]);
        let direct = conv_reference_f64(&input, &filters, p);
        for (i, &d) in direct.iter().enumerate() {
            // NCHW index i maps to (row, col) with n=0: i = (co*ho+oy)*wo+ox.
            let co = i / (12 * 12);
            let spatial = i % (12 * 12);
            let got = out.get(spatial, co) as f64;
            assert!((got - d).abs() < 2e-2, "elem {i}: {got} vs {d}");
        }
    }

    #[test]
    fn im2col_into_reuses_the_buffer_without_stale_data() {
        let p = params(4, 3, 1, 1);
        let big = Tensor::random(2, 3, 9, 9, 61);
        let small = Tensor::random(1, 2, 5, 5, 62);
        let mut ws = Workspace::new();
        im2col_into(&big, p, &mut ws);
        im2col_into(&small, p, &mut ws);
        // The reused buffer must equal a fresh lowering exactly.
        assert_eq!(*ws.lowering_mut(), im2col(&small, p));
    }

    #[test]
    fn gemm_to_nchw_is_a_bijection_on_the_grid() {
        let (ho, wo) = (5, 7);
        let mut seen = std::collections::HashSet::new();
        for row in 0..2 * ho * wo {
            for col in 0..4 {
                let coord = gemm_to_nchw(row, col, ho, wo);
                assert!(seen.insert(coord), "duplicate {coord:?}");
                assert!(coord.0 < 2 && coord.2 < ho && coord.3 < wo);
            }
        }
    }
}
