//! The row-major FP16 matrix the engine (and every layer above it)
//! traffics in, the borrowed [`MatrixView`] every GEMM takes its
//! activation operand as, and the FP64 reference GEMM used by
//! correctness tests.

use aiga_dtype::{Dtype, F16};
use aiga_util::rng::Rng64;

/// Logical-to-physical element layout of a [`MatrixView`].
///
/// Every owned [`Matrix`] is [`MatrixLayout::RowMajor`]. The exception
/// is the borrowed view a convolution's GEMM takes of an NCHW activation
/// tensor: viewing the tensor's own buffer as [`MatrixLayout::Im2col`]
/// makes it *logically* identical to the im2col-lowered matrix (same
/// `(row, col) → value` mapping, so checksums, reference oracles, and
/// outputs are byte-identical) without materializing the copy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MatrixLayout {
    /// `data[r * cols + c]` — the default.
    #[default]
    RowMajor,
    /// An NCHW tensor viewed as the im2col-lowered activation matrix of
    /// a convolution — the implicit-GEMM view. Row `r` is output pixel
    /// `(n, oy, ox)`, column `c` is filter tap `(channel, ky, kx)`; taps
    /// that fall into the zero padding have no physical element and
    /// read as zero.
    Im2col(Im2colView),
}

/// Geometry of an implicit-GEMM (fused im2col) activation view: enough
/// convolution parameters to map a lowered-matrix element `(row, col)`
/// onto the underlying NCHW tensor, or onto the zero padding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Im2colView {
    /// Input channels.
    pub channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Square filter extent.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding on every border.
    pub padding: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl Im2colView {
    /// Where lowered row `r` (output pixel `(n, oy, ox)`) reads from:
    /// the index of image `n`'s first element and the input coordinate
    /// `(iy, ix)` of the row's tap `(ky, kx) = (0, 0)` — negative inside
    /// the leading zero padding.
    #[inline]
    fn origin(&self, r: usize) -> (usize, isize, isize) {
        let (n, p) = (r / (self.out_h * self.out_w), r % (self.out_h * self.out_w));
        let at = |o: usize| (o * self.stride) as isize - self.padding as isize;
        let image = n * self.channels * self.height * self.width;
        (image, at(p / self.out_w), at(p % self.out_w))
    }

    /// Physical NCHW index of lowered element `(r, c)`, or `None` when
    /// the tap lands in the zero padding.
    #[inline]
    fn tap(&self, r: usize, c: usize) -> Option<usize> {
        let (image, iy, ix) = self.origin(r);
        let (ch, ky, kx) = self.filter_tap(c);
        let (iy, ix) = (iy + ky as isize, ix + kx as isize);
        let inside =
            iy >= 0 && ix >= 0 && (iy as usize) < self.height && (ix as usize) < self.width;
        inside.then(|| image + (ch * self.height + iy as usize) * self.width + ix as usize)
    }

    /// Splits lowered rows `rows` into *segments* — maximal runs of
    /// consecutive pixels of one output row of one image — calling
    /// `f(first row, pixels, origin)` for each in row order, `origin` the
    /// first pixel's as [`Self::tap_run`] takes it. Within a segment every
    /// tap is one run of codes at the conv's stride.
    pub(crate) fn segments(
        &self,
        rows: std::ops::Range<usize>,
        mut f: impl FnMut(usize, usize, (usize, isize, isize)),
    ) {
        let mut r = rows.start;
        while r < rows.end {
            let len = (self.out_w - r % self.out_w).min(rows.end - r);
            f(r, len, self.origin(r));
            r += len;
        }
    }

    /// Column `c`'s filter tap `(channel, ky, kx)`.
    #[inline]
    pub(crate) fn filter_tap(&self, c: usize) -> (usize, usize, usize) {
        let k = self.kernel;
        (c / k / k, c / k % k, c % k)
    }

    /// Where filter tap `(ch, ky, kx)` ([`Self::filter_tap`]) of a
    /// segment of `len` pixels from `origin` reads: `(at, lo, hi)` —
    /// pixels `lo..hi` are the codes at `at`, `at + stride`, …; the
    /// pixels before `lo` and from `hi` on are padding taps (zero).
    /// `lo == hi` when the tap's input row is padding.
    #[inline]
    pub(crate) fn tap_run(
        &self,
        (image, iy, ix): (usize, isize, isize),
        len: usize,
        (ch, ky, kx): (usize, usize, usize),
    ) -> (usize, usize, usize) {
        let (iy, first) = (iy + ky as isize, ix + kx as isize);
        if iy < 0 || iy as usize >= self.height {
            return (0, 0, 0);
        }
        // Pixel `j` reads input column `first + j·stride`: the pixels
        // from `lo` on are right of the left edge, those before `hi`
        // left of the right one.
        let (before, inside) = (
            (-first).max(0) as usize,
            (self.width as isize - first).max(0) as usize,
        );
        let (lo, hi) = match self.stride {
            1 => (before, inside),
            s => (before.div_ceil(s), inside.div_ceil(s)),
        };
        let (lo, hi) = (lo.min(len), hi.min(len));
        if lo >= hi {
            return (0, 0, 0);
        }
        let row = image + (ch * self.height + iy as usize) * self.width;
        (row + (first + (lo * self.stride) as isize) as usize, lo, hi)
    }

    /// Rows of the lowered matrix for `images` images.
    pub fn rows(&self, images: usize) -> usize {
        images * self.out_h * self.out_w
    }

    /// Columns of the lowered matrix (`channels · kernel²`).
    pub fn cols(&self) -> usize {
        self.channels * self.kernel * self.kernel
    }
}

/// An owned row-major FP16 matrix.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Element storage, `rows * cols` elements, `data[r * cols + c]`.
    ///
    /// Elements are opaque 16-bit *storage codes* interpreted per
    /// `dtype`; 8-bit formats (fp8, int8) occupy the low byte. For the
    /// default [`Dtype::F16`] the codes are literal `F16` values, so the
    /// pre-dtype engine is byte-for-byte this type with `dtype = F16`.
    pub data: Vec<F16>,
    /// The storage format `data`'s codes decode through.
    pub dtype: Dtype,
}

/// A borrowed GEMM operand: some buffer of storage codes read as a
/// `rows × cols` matrix through `layout`. The engine and every bound
/// kernel take their activation operand in this form, so a conv stage
/// multiplies straight out of the NCHW value slot it reads — shared by
/// any number of concurrent branches — and an owned [`Matrix`] converts
/// for free (`From<&Matrix>`).
#[derive(Clone, Copy, Debug)]
pub struct MatrixView<'a> {
    /// Number of (logical) rows.
    pub rows: usize,
    /// Number of (logical) columns.
    pub cols: usize,
    /// The viewed storage codes, addressed per `layout`.
    pub data: &'a [F16],
    /// How `(row, col)` maps into `data`.
    pub layout: MatrixLayout,
    /// The storage format `data`'s codes decode through.
    pub dtype: Dtype,
}

impl<'a> From<&'a Matrix> for MatrixView<'a> {
    fn from(m: &'a Matrix) -> Self {
        MatrixView {
            rows: m.rows,
            cols: m.cols,
            data: &m.data,
            layout: MatrixLayout::RowMajor,
            dtype: m.dtype,
        }
    }
}

impl<'a> MatrixView<'a> {
    /// Views an NCHW tensor buffer as the activation matrix of a 1×1
    /// stride-1 unpadded convolution — `images·spatial` rows (one per
    /// output pixel), `channels` columns — without copying.
    pub fn nchw_lowered(
        images: usize,
        channels: usize,
        spatial: usize,
        data: &'a [F16],
        dtype: Dtype,
    ) -> Self {
        let view = Im2colView {
            channels,
            height: 1,
            width: spatial,
            kernel: 1,
            stride: 1,
            padding: 0,
            out_h: 1,
            out_w: spatial,
        };
        Self::im2col_lowered(images, view, data, dtype)
    }

    /// Views an NCHW tensor buffer as the im2col-lowered activation
    /// matrix of an arbitrary convolution geometry — `images·out_h·out_w`
    /// rows (one per output pixel), `channels·kernel²` columns — without
    /// copying. Taps in the zero padding read as zero (the zero code in
    /// every dtype). A 1×1 stride-1 unpadded conv is viewed as one over a
    /// `1 × height·width` image: the same mapping, each image one run.
    pub fn im2col_lowered(images: usize, view: Im2colView, data: &'a [F16], dtype: Dtype) -> Self {
        let spatial = view.height * view.width;
        assert_eq!(data.len(), images * view.channels * spatial, "NCHW extent");
        let pointwise = (view.kernel, view.stride, view.padding) == (1, 1, 0);
        let flat = Im2colView {
            height: 1,
            width: spatial,
            out_h: 1,
            out_w: spatial,
            ..view
        };
        MatrixView {
            rows: view.rows(images),
            cols: view.cols(),
            data,
            layout: MatrixLayout::Im2col(if pointwise { flat } else { view }),
            dtype,
        }
    }

    /// Element accessor (layout-aware); the raw storage *code* for
    /// non-F16 dtypes, like [`Matrix::get`]. Zero-padding taps of an
    /// im2col view have no storage and read as the zero code — exactly
    /// what a materialized lowering stores.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> F16 {
        let i = match self.layout {
            MatrixLayout::RowMajor => Some(r * self.cols + c),
            MatrixLayout::Im2col(v) => v.tap(r, c),
        };
        i.map_or(F16::ZERO, |i| self.data[i])
    }

    /// Decoded element value (layout- and dtype-aware).
    #[inline]
    pub fn get_f32(&self, r: usize, c: usize) -> f32 {
        self.dtype.decode(self.get(r, c).to_bits())
    }

    /// Decoded element value in f64 (exact widening of [`Self::get_f32`]).
    #[inline]
    pub fn get_f64(&self, r: usize, c: usize) -> f64 {
        self.get_f32(r, c) as f64
    }

    /// Row `r`'s `cols` storage codes: borrowed in place from a
    /// row-major buffer, gathered into `scratch` (at least `cols` long)
    /// tap by tap from a conv lowering, padding taps the zero code.
    /// Strip staging reads fc rows through it; a conv lowering it stages
    /// a segment at a time (`Im2colView::segments`), never a row.
    pub fn row_codes<'s>(&'s self, r: usize, scratch: &'s mut [F16]) -> &'s [F16] {
        if self.layout == MatrixLayout::RowMajor {
            return &self.data[r * self.cols..][..self.cols];
        }
        let out = &mut scratch[..self.cols];
        for (c, code) in out.iter_mut().enumerate() {
            *code = self.get(r, c);
        }
        out
    }
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![F16::ZERO; rows * cols],
            dtype: Dtype::F16,
        }
    }

    /// Re-tags the storage format (every format encodes zero as `0x0000`
    /// and existing codes are reinterpreted, so this is only meaningful
    /// on fresh/zeroed matrices or codes already produced by `dtype`).
    pub fn with_dtype(mut self, dtype: Dtype) -> Self {
        self.dtype = dtype;
        self
    }

    /// Builds a matrix element-wise from `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> F16) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix {
            rows,
            cols,
            data,
            dtype: Dtype::F16,
        }
    }

    /// Deterministic pseudo-random matrix with entries in `[-2, 2]`
    /// quantized to FP16 — the magnitude regime of normalized NN
    /// activations and weights.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        Self::random_dtype(rows, cols, seed, Dtype::F16)
    }

    /// Like [`Self::random`], but quantizing the same pseudo-random
    /// sample stream into `dtype`'s codes, so cross-dtype campaigns and
    /// golden tests compare runs over the same underlying values.
    pub fn random_dtype(rows: usize, cols: usize, seed: u64, dtype: Dtype) -> Self {
        let mut rng = Rng64::seed_from_u64(seed);
        Self::from_fn(rows, cols, |_, _| {
            F16(dtype.encode(rng.range_f32(-2.0, 2.0)))
        })
        .with_dtype(dtype)
    }

    /// This matrix as a borrowed GEMM operand.
    pub fn view(&self) -> MatrixView<'_> {
        self.into()
    }

    /// Element accessor. For non-F16 dtypes the returned value is the
    /// raw storage *code* in an `F16` wrapper — use
    /// [`Self::get_f32`]/[`Self::get_f64`] for the decoded value.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> F16 {
        self.data[r * self.cols + c]
    }

    /// Decoded element value.
    #[inline]
    pub fn get_f32(&self, r: usize, c: usize) -> f32 {
        self.dtype.decode(self.get(r, c).to_bits())
    }

    /// Decoded element value in f64 (exact widening of [`Self::get_f32`]).
    #[inline]
    pub fn get_f64(&self, r: usize, c: usize) -> f64 {
        self.get_f32(r, c) as f64
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: F16) {
        self.data[r * self.cols + c] = v;
    }

    /// Copies `rows` rows starting at `start` into a new matrix — the
    /// chunking primitive behind oversized-batch splitting.
    pub fn row_block(&self, start: usize, rows: usize) -> Matrix {
        assert!(start + rows <= self.rows, "row block out of range");
        Matrix {
            rows,
            cols: self.cols,
            data: self.data[start * self.cols..(start + rows) * self.cols].to_vec(),
            dtype: self.dtype,
        }
    }
}

/// Reference GEMM in FP64, decoding each operand through its dtype
/// (exact for 16-bit-or-narrower inputs up to K ≈ 2^40 terms).
pub fn gemm_reference_f64<'a>(a: impl Into<MatrixView<'a>>, b: &Matrix) -> Vec<f64> {
    let a = a.into();
    assert_eq!(a.cols, b.rows);
    let mut c = vec![0.0f64; a.rows * b.cols];
    for i in 0..a.rows {
        for kk in 0..a.cols {
            let av = a.get_f64(i, kk);
            if av == 0.0 {
                continue;
            }
            for j in 0..b.cols {
                c[i * b.cols + j] += av * b.get_f64(kk, j);
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Walks the in-bounds taps of an im2col view in lowered row-major
    /// order as maximal contiguous runs: for each (row, channel, ky) whose
    /// input row is in bounds, `run(row, col0, src0, len)` describes `len`
    /// consecutive lowered columns starting at `col0` backed by `len`
    /// consecutive NCHW elements starting at `src0`. The staging decode
    /// gathers through this walk, so the fused path produces panels
    /// byte-identical to a materialized lowering.
    #[inline]
    fn im2col_runs(v: &Im2colView, images: usize, mut run: impl FnMut(usize, usize, usize, usize)) {
        let kk = v.kernel * v.kernel;
        for n in 0..images {
            for oy in 0..v.out_h {
                for ox in 0..v.out_w {
                    let r = (n * v.out_h + oy) * v.out_w + ox;
                    let base_ix = (ox * v.stride) as isize - v.padding as isize;
                    let kx0 = (-base_ix).max(0) as usize;
                    let kx1 = (v.width as isize - base_ix).clamp(0, v.kernel as isize) as usize;
                    if kx0 >= kx1 {
                        continue;
                    }
                    let ix0 = (base_ix + kx0 as isize) as usize;
                    for ch in 0..v.channels {
                        for ky in 0..v.kernel {
                            let iy = (oy * v.stride + ky) as isize - v.padding as isize;
                            if iy < 0 || iy as usize >= v.height {
                                continue;
                            }
                            let src0 =
                                ((n * v.channels + ch) * v.height + iy as usize) * v.width + ix0;
                            run(r, ch * kk + ky * v.kernel + kx0, src0, kx1 - kx0);
                        }
                    }
                }
            }
        }
    }

    /// The staging decode the engine used before strips were staged in
    /// one pass, kept as the oracle the strip staging is pinned against
    /// (`engine/tests.rs`): decodes into a zero-padded row-major `f32`
    /// buffer of size `rows × cols`, gathering a conv lowering run by
    /// run.
    impl MatrixView<'_> {
        pub(crate) fn decode_padded_into(&self, rows: usize, cols: usize, out: &mut Vec<f32>) {
            assert!(rows >= self.rows && cols >= self.cols, "padding must grow");
            out.clear();
            out.resize(rows * cols, 0.0);
            let dt = self.dtype;
            let mut run = |r: usize, c0: usize, s0: usize, len: usize| {
                let dst = &mut out[r * cols + c0..r * cols + c0 + len];
                for (d, s) in dst.iter_mut().zip(&self.data[s0..s0 + len]) {
                    *d = dt.decode(s.to_bits());
                }
            };
            match self.layout {
                MatrixLayout::Im2col(v) => im2col_runs(&v, self.rows / (v.out_h * v.out_w), run),
                MatrixLayout::RowMajor => {
                    (0..self.rows).for_each(|r| run(r, 0, r * self.cols, self.cols))
                }
            }
        }
    }

    #[test]
    fn row_block_extracts_contiguous_rows() {
        let m = Matrix::random(10, 4, 6);
        let block = m.row_block(3, 4);
        assert_eq!((block.rows, block.cols), (4, 4));
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(block.get(r, c), m.get(3 + r, c));
            }
        }
    }

    #[test]
    fn decode_padded_into_is_exact_and_zero_padded() {
        let m = Matrix::random(3, 5, 7);
        let mut buf = vec![f32::NAN; 2]; // must be fully overwritten
        m.view().decode_padded_into(4, 8, &mut buf);
        assert_eq!(buf.len(), 32);
        for r in 0..4 {
            for c in 0..8 {
                let want = if r < 3 && c < 5 {
                    m.get(r, c).to_f32()
                } else {
                    0.0
                };
                assert_eq!(buf[r * 8 + c].to_bits(), want.to_bits());
            }
        }
    }

    /// Materializes an im2col view element-by-element through `get` —
    /// the oracle the run-based gathers must match bit-for-bit.
    fn materialize(view: MatrixView<'_>) -> Matrix {
        Matrix::from_fn(view.rows, view.cols, |r, c| view.get(r, c)).with_dtype(view.dtype)
    }

    fn sample_view(
        tensor: &Matrix,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> MatrixView<'_> {
        let (channels, height, width, images) = (3, 9, 9, 2);
        let out_h = (height + 2 * padding - kernel) / stride + 1;
        let out_w = (width + 2 * padding - kernel) / stride + 1;
        let v = Im2colView {
            channels,
            height,
            width,
            kernel,
            stride,
            padding,
            out_h,
            out_w,
        };
        MatrixView::im2col_lowered(images, v, &tensor.data, tensor.dtype)
    }

    #[test]
    fn im2col_view_gathers_match_elementwise_materialization() {
        let tensor = Matrix::random(1, 2 * 3 * 9 * 9, 17);
        for (kernel, stride, padding) in [(3, 1, 1), (3, 2, 1), (5, 2, 2), (1, 1, 0), (7, 2, 3)] {
            let view = sample_view(&tensor, kernel, stride, padding);
            let dense = materialize(view);
            let (pr, pc) = (view.rows + 3, view.cols + 5);

            let mut from_view = Vec::new();
            let mut from_dense = Vec::new();
            view.decode_padded_into(pr, pc, &mut from_view);
            dense.view().decode_padded_into(pr, pc, &mut from_dense);
            assert_eq!(from_view, from_dense, "decode k{kernel}s{stride}p{padding}");
        }
    }

    #[test]
    fn row_codes_match_elementwise_reads_in_every_layout() {
        let tensor = Matrix::random(1, 2 * 3 * 9 * 9, 19);
        let mut views: Vec<MatrixView<'_>> =
            [(3, 1, 1), (3, 2, 0), (5, 2, 2), (1, 1, 0), (7, 2, 3)]
                .iter()
                .map(|&(k, s, p)| sample_view(&tensor, k, s, p))
                .collect();
        views.push(MatrixView::nchw_lowered(
            2,
            3,
            81,
            &tensor.data,
            tensor.dtype,
        ));
        views.push(MatrixView {
            rows: 6,
            cols: 81,
            ..tensor.view()
        });
        for view in views {
            // Stale scratch must be fully overwritten.
            let mut scratch = vec![F16::from_bits(0x7e00); view.cols + 2];
            for r in 0..view.rows {
                let got = view.row_codes(r, &mut scratch);
                let want: Vec<F16> = (0..view.cols).map(|c| view.get(r, c)).collect();
                assert_eq!(got, &want[..], "{:?} row {r}", view.layout);
            }
        }
    }

    #[test]
    fn im2col_view_padding_taps_read_zero_in_every_dtype() {
        for dtype in Dtype::ALL {
            let tensor = Matrix::random(1, 2 * 3 * 9 * 9, 17).with_dtype(dtype);
            let view = sample_view(&tensor, 3, 1, 1);
            // Row 0 is output pixel (0,0): tap (ch=0, ky=0, kx=0) lands at
            // input (-1,-1), firmly in the padding.
            assert_eq!(view.get(0, 0), F16::ZERO);
            assert_eq!(view.get_f32(0, 0).to_bits(), 0.0f32.to_bits(), "{dtype:?}");
        }
    }
}
