//! Write-back: a run's cells in the order and format of whoever reads
//! them next.
//!
//! The engine's own output ([`super::GemmOutput::c`]) is row-major f32.
//! A graph executor's next stage wants storage codes, a convolution's in
//! NCHW, with the layer's ReLU applied. Producing them is a transpose,
//! so a run takes a [`Dest`]: with [`Dest::Codes`] every task of
//! [`super::gemm_into`] encodes its own block's live cells, from the
//! tile, right after the tile check, and the write-back is spread over
//! the members with the walk. The codes are then the cells' only copy:
//! the run writes no f32 output beside them, so a convolution's output
//! is stored once, as what its reader stages. The codes of one image
//! start [`Dest::Codes`]'s `stride` apart, so two convolutions can write
//! their channels side by side into one concatenated value. A row-major
//! destination is a straight encode with nothing to share — in the
//! tasks it measured slower — so [`Dest::Codes`] is a convolution's and
//! has no row-major form. [`Dest::encode`] is the same body over a whole
//! finished output, for the callers that need the f32 cells too and so
//! fill the codes after the walk (a check that reads C, a repair), and
//! [`encode_output`] its form for a slot of the output's own (an fc
//! stage's, row-major).
//!
//! A lowered convolution's fp16 codes on a SIMD path are transposed in
//! registers: a square of pixels × channels (8×8 on ymm, 16×16 on zmm)
//! is loaded a pixel row at a time, transposed, passed through the ReLU
//! and narrowed by F16C straight into each channel's run of codes
//! (`transpose_rect`). Every other format, and the scalar path, run the
//! scalar body, [`emit_rect`]: the rectangle transposed through a
//! staging block into per-channel runs of f32, then encoded a run at a
//! time — which is also what hands a final stage's f32 reply over
//! ([`emit_output`]). The two give the same bytes.
//!
//! The ReLU is [`relu`], never `f32::max`, whose sign at `max(−0.0,
//! +0.0)` Rust leaves open (`v.max(0.0)` keeps −0.0 in a debug build and
//! gives +0.0 in a release one).

use super::simd::{self, GemmPath};
use super::{Cells, GemmOutput, BLOCK_M, BLOCK_N};
use aiga_dtype::{Dtype, F16};

/// The order a consumer reads a GEMM output in, and the epilogue fused
/// into handing it over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EmitLayout {
    /// Output pixels per image when the GEMM is a lowered convolution:
    /// its rows are `(n, oy, ox)`-major and its columns `c_out`, and the
    /// consumer reads NCHW. `None` is row-major, as computed.
    pub conv_spatial: Option<usize>,
    /// Whether [`relu`] is applied on the way.
    pub relu: bool,
}

/// The ReLU of the write-back: `v` where `v >= 0` (so `−0.0` stays
/// `−0.0`), else `+0.0` (NaN included). Spelled out rather than
/// `v.max(0.0)`, whose sign at `±0.0` Rust leaves unspecified; the
/// vector bodies compute the same compare-and-select.
#[inline(always)]
pub fn relu(v: f32) -> f32 {
    if v >= 0.0 {
        v
    } else {
        0.0
    }
}

/// Where a run's cells go: the f32 output or the next reader's codes,
/// never both.
#[derive(Debug)]
pub enum Dest<'a> {
    /// The f32 output ([`super::GemmOutput::c`]), for a caller that reads
    /// it: a final stage, a check or a repair that reads the cells.
    None,
    /// A lowered convolution's storage codes in NCHW, every one of its
    /// cells written, instead of the f32 output.
    Codes {
        /// The destination, from the convolution's first code on.
        codes: &'a mut [F16],
        /// The format encoded into.
        dtype: Dtype,
        /// Output pixels per image ([`EmitLayout::conv_spatial`]).
        spatial: usize,
        /// Whether [`relu`] is applied on the way.
        relu: bool,
        /// Codes from one image's first to the next's: `n·spatial` when
        /// the convolution fills the codes alone, a concatenation's
        /// per-image width when it writes its channels into one (`codes`
        /// then starts at its first channel of image 0).
        stride: usize,
    },
}

/// [`Dest::Codes`] as a region's tasks share it: each writes the codes
/// of its own blocks' cells.
pub(super) struct CodeCells {
    codes: Cells<F16>,
    dtype: Dtype,
    layout: EmitLayout,
    stride: usize,
}

impl Dest<'_> {
    /// Fills the destination from a finished output's f32 cells, block
    /// by block through the body a run's tasks emit with, so the codes
    /// are the ones a run with this destination would have written: for
    /// a caller that needs the f32 output as well (a check or a repair
    /// that reads it) and so runs with [`Dest::None`]. Nothing to do for
    /// [`Dest::None`].
    pub fn encode(self, out: &GemmOutput) {
        let Some(cells) = CodeCells::new(self, out.m, out.n) else {
            return;
        };
        for row0 in (0..out.m).step_by(BLOCK_M) {
            let rows = BLOCK_M.min(out.m - row0);
            for col0 in (0..out.n).step_by(BLOCK_N) {
                let cols = BLOCK_N.min(out.n - col0);
                let src = &out.c[row0 * out.n + col0..];
                // SAFETY: the codes are borrowed mutably for the loop and
                // each block's are written once, by this call alone.
                unsafe { cells.emit(src, out.n, (row0, rows), (col0, cols)) };
            }
        }
    }
}

impl CodeCells {
    /// The shared form of `dest` for an `m × n` run (`None` for
    /// [`Dest::None`]).
    pub(super) fn new(dest: Dest<'_>, m: usize, n: usize) -> Option<Self> {
        let Dest::Codes {
            codes,
            dtype,
            spatial,
            relu,
            stride,
        } = dest
        else {
            return None;
        };
        let images = m / spatial;
        assert_eq!(images * spatial, m, "whole images");
        assert!(stride >= n * spatial, "an image's channels fit its stride");
        let last = images
            .checked_sub(1)
            .map_or(0, |i| i * stride + n * spatial);
        assert!(codes.len() >= last, "one code per output cell");
        Some(CodeCells {
            codes: Cells::new(codes),
            dtype,
            layout: EmitLayout {
                conv_spatial: Some(spatial),
                relu,
            },
            stride,
        })
    }

    /// Encodes the `rows × cols` rectangle at `(row0, col0)` of the
    /// output, read from `src` ([`encode_rect`]).
    ///
    /// # Safety
    /// No other reference to the codes of those cells may be live: the
    /// caller is the only task that owns the rectangle.
    pub(super) unsafe fn emit(
        &self,
        src: &[f32],
        stride: usize,
        rows: (usize, usize),
        cols: (usize, usize),
    ) {
        let rect = Rect {
            src,
            stride,
            rows,
            cols,
            image: self.stride,
        };
        // SAFETY: the caller's contract.
        unsafe { encode_rect(rect, self.layout, self.dtype, &self.codes) }
    }

    /// Writes the codes of an output whose every cell is zero — a run
    /// with no inner dimension — through the same body.
    pub(super) fn zeros(self, m: usize, n: usize) {
        let zeros = [0.0f32; BLOCK_M * BLOCK_N];
        for row0 in (0..m).step_by(BLOCK_M) {
            for col0 in (0..n).step_by(BLOCK_N) {
                let (rows, cols) = (BLOCK_M.min(m - row0), BLOCK_N.min(n - col0));
                // SAFETY: the run's codes, written by this loop alone.
                unsafe { self.emit(&zeros, BLOCK_N, (row0, rows), (col0, cols)) };
            }
        }
    }
}

/// A rectangle of a GEMM output as [`emit_rect`] reads it: `rows.1 ×
/// cols.1` cells at `(rows.0, cols.0)`, its row `r` starting at
/// `src[r·stride]`, laid out for a reader whose images start `image`
/// codes apart.
#[derive(Clone, Copy)]
struct Rect<'a> {
    src: &'a [f32],
    stride: usize,
    rows: (usize, usize),
    cols: (usize, usize),
    image: usize,
}

/// The rectangle's codes in `layout`'s order and `dtype`: a lowered
/// convolution's fp16 codes transposed in registers on a SIMD path
/// ([`transpose_rect`]), everything else through [`emit_rect`], a run
/// at a time. The one body of [`CodeCells::emit`] and [`encode_output`].
///
/// # Safety
/// No other reference to the codes of the rectangle's cells may be live.
unsafe fn encode_rect(rect: Rect<'_>, layout: EmitLayout, dtype: Dtype, codes: &Cells<F16>) {
    #[cfg(target_arch = "x86_64")]
    if let (Some(spatial), Dtype::F16) = (layout.conv_spatial, dtype) {
        // SAFETY: the path is one the host runs (`simd::force_path`
        // admits no other), so it has AVX2, FMA and F16C, and AVX-512 F
        // and VL on `Avx512`; the codes are the caller's.
        match simd::active_path() {
            GemmPath::Avx512 => return unsafe { transpose_avx512(rect, spatial, layout, codes) },
            GemmPath::Avx2Fma => return unsafe { transpose_avx2(rect, spatial, layout, codes) },
            GemmPath::Scalar => {}
        }
    }
    let Rect {
        src,
        stride,
        rows,
        cols,
        image,
    } = rect;
    emit_rect(src, stride, rows, cols, image, layout, |at, run| {
        // SAFETY: the codes of cells inside the caller's rectangle
        // (distinct cells have distinct codes).
        let codes = unsafe { codes.run(at, run.len()) };
        dtype.encode_slice(run, codes);
    });
}

/// Rows a transposed segment holds — a block's worth, so a task's tile
/// goes out as one segment unless an image ends inside it, and a run
/// handed to the sink is up to 128 bytes of codes. The transpose is
/// bound by its strided stores, not its arithmetic: at 32 rows (64-byte
/// runs, an 8 KiB staging block) a SqueezeNet-224 pass measured 3–5 %
/// slower than at 64 (16 KiB) in three sets of twelve interleaved
/// rounds, in-task and looped over the whole output alike (one-sided
/// 17.8 against 17.4 ms and 16.7 against 16.1; unprotected 14.5 against
/// 13.8).
const SEGMENT: usize = BLOCK_M;

/// Hands the `rows.1 × cols.1` rectangle at `(rows.0, cols.0)` of a GEMM
/// output — read from `src`, where the rectangle's row `r` starts at
/// `src[r·stride]` (a block tile, or the output itself) — to
/// `sink(offset, run)` as contiguous runs of `layout`'s order, ReLU
/// applied: a row-major rectangle a row at a time; a lowered
/// convolution's (at most [`BLOCK_N`] columns of it) transposed into
/// per-channel runs of pixels, cut where an image ends. `image` is the
/// offset from one image's first cell to the next's: the output's width
/// for row-major (an image is a row), `n·spatial` for a convolution's
/// own NCHW codes, wider when they sit inside a concatenation. The one
/// place the GEMM → NCHW transpose lives.
pub fn emit_rect(
    src: &[f32],
    stride: usize,
    (row0, rows): (usize, usize),
    (col0, cols): (usize, usize),
    image: usize,
    layout: EmitLayout,
    mut sink: impl FnMut(usize, &[f32]),
) {
    let relu = |v: f32| if layout.relu { relu(v) } else { v };
    let Some(spatial) = layout.conv_spatial else {
        let mut staged = [0.0f32; BLOCK_N];
        for r in 0..rows {
            let live = &src[r * stride..][..cols];
            for (i, live) in live.chunks(BLOCK_N).enumerate() {
                let staged = &mut staged[..live.len()];
                staged.iter_mut().zip(live).for_each(|(d, &v)| *d = relu(v));
                sink((row0 + r) * image + col0 + i * BLOCK_N, staged);
            }
        }
        return;
    };
    assert!(cols <= BLOCK_N, "a transposed rectangle is a block wide");
    let mut block = [0.0f32; SEGMENT * BLOCK_N];
    let mut r = 0;
    while r < rows {
        let (n, s) = ((row0 + r) / spatial, (row0 + r) % spatial);
        let seg = SEGMENT.min(rows - r).min(spatial - s);
        for i in 0..seg {
            let live = &src[(r + i) * stride..][..cols];
            for (co, &v) in live.iter().enumerate() {
                block[co * SEGMENT + i] = relu(v);
            }
        }
        for (co, run) in block.chunks_exact(SEGMENT).take(cols).enumerate() {
            sink(n * image + (col0 + co) * spatial + s, &run[..seg]);
        }
        r += seg;
    }
}

/// [`emit_rect`] over all of `out`, from its f32 cells — block by block
/// where there is a transpose to do — in the order a run with
/// [`Dest::Codes`] lays its codes out, for a caller that wants the f32
/// runs themselves: a final stage's reply. Codes come from
/// [`encode_output`].
pub fn emit_output(out: &GemmOutput, layout: EmitLayout, mut sink: impl FnMut(usize, &[f32])) {
    let Some(spatial) = layout.conv_spatial else {
        // Nothing to transpose: one rectangle, walked in storage order.
        return emit_rect(&out.c, out.n, (0, out.m), (0, out.n), out.n, layout, sink);
    };
    for row0 in (0..out.m).step_by(BLOCK_M) {
        let rows = BLOCK_M.min(out.m - row0);
        for col0 in (0..out.n).step_by(BLOCK_N) {
            let cols = BLOCK_N.min(out.n - col0);
            let src = &out.c[row0 * out.n + col0..];
            let image = out.n * spatial;
            emit_rect(
                src,
                out.n,
                (row0, rows),
                (col0, cols),
                image,
                layout,
                &mut sink,
            );
        }
    }
}

/// Every cell of `out` encoded into `codes` in `layout`'s order: a
/// row-major output's slot, or a lowered convolution's codes as
/// [`Dest::encode`] writes them when they fill `codes` alone.
pub fn encode_output(out: &GemmOutput, layout: EmitLayout, dtype: Dtype, codes: &mut [F16]) {
    assert_eq!(codes.len(), out.m * out.n, "one code per output cell");
    let Some(spatial) = layout.conv_spatial else {
        return emit_output(out, layout, |at, run| {
            dtype.encode_slice(run, &mut codes[at..at + run.len()])
        });
    };
    let dest = Dest::Codes {
        codes,
        dtype,
        spatial,
        relu: layout.relu,
        stride: out.n * spatial,
    };
    dest.encode(out);
}

/// What [`transpose_rect`] needs of an f32 vector, for ymm and zmm.
/// Every method is one or two instructions the host must support (each
/// caller's `# Safety`).
#[cfg(target_arch = "x86_64")]
trait Square: Copy {
    /// f32 lanes: a square is `LANES` pixels by `LANES` channels.
    const LANES: usize;
    unsafe fn zero() -> Self;
    /// The first `live` lanes from `at`, zeros beyond (nothing past
    /// them is read).
    unsafe fn load(at: *const f32, live: usize) -> Self;
    /// Transposes the square held in `rows[..LANES]`.
    unsafe fn transpose(rows: &mut [Self; 16]);
    /// [`relu`] per lane: `v >= 0 ? v : +0.0`.
    unsafe fn relu(self) -> Self;
    unsafe fn has_nan(self) -> bool;
    /// All `LANES` narrowed to fp16 codes at `at` (round to nearest
    /// even, as the scalar encoder for every non-NaN value).
    unsafe fn store_codes(self, at: *mut F16);
    unsafe fn store(self, at: *mut f32);
}

#[cfg(target_arch = "x86_64")]
impl Square for std::arch::x86_64::__m256 {
    const LANES: usize = 8;
    // SAFETY (each body): the caller's guarantees are the intrinsics'.
    #[inline(always)]
    unsafe fn zero() -> Self {
        unsafe { std::arch::x86_64::_mm256_setzero_ps() }
    }
    #[inline(always)]
    unsafe fn load(at: *const f32, live: usize) -> Self {
        use std::arch::x86_64::*;
        unsafe {
            if live == 8 {
                return _mm256_loadu_ps(at);
            }
            let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            _mm256_maskload_ps(at, _mm256_cmpgt_epi32(_mm256_set1_epi32(live as i32), lane))
        }
    }
    #[inline(always)]
    unsafe fn transpose(r: &mut [Self; 16]) {
        use std::arch::x86_64::*;
        unsafe {
            let mut t = [_mm256_setzero_ps(); 8];
            for i in 0..4 {
                t[2 * i] = _mm256_unpacklo_ps(r[2 * i], r[2 * i + 1]);
                t[2 * i + 1] = _mm256_unpackhi_ps(r[2 * i], r[2 * i + 1]);
            }
            // `u[4i + j]`, 128-bit lane `l`: column `4l + j`, rows
            // `4i..4i + 4`.
            let mut u = [_mm256_setzero_ps(); 8];
            for i in 0..2 {
                u[4 * i] = _mm256_shuffle_ps::<0x44>(t[4 * i], t[4 * i + 2]);
                u[4 * i + 1] = _mm256_shuffle_ps::<0xee>(t[4 * i], t[4 * i + 2]);
                u[4 * i + 2] = _mm256_shuffle_ps::<0x44>(t[4 * i + 1], t[4 * i + 3]);
                u[4 * i + 3] = _mm256_shuffle_ps::<0xee>(t[4 * i + 1], t[4 * i + 3]);
            }
            for j in 0..4 {
                r[j] = _mm256_permute2f128_ps::<0x20>(u[j], u[4 + j]);
                r[4 + j] = _mm256_permute2f128_ps::<0x31>(u[j], u[4 + j]);
            }
        }
    }
    #[inline(always)]
    unsafe fn relu(self) -> Self {
        use std::arch::x86_64::*;
        unsafe { _mm256_and_ps(self, _mm256_cmp_ps::<_CMP_GE_OQ>(self, _mm256_setzero_ps())) }
    }
    #[inline(always)]
    unsafe fn has_nan(self) -> bool {
        use std::arch::x86_64::*;
        unsafe { _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_UNORD_Q>(self, self)) != 0 }
    }
    #[inline(always)]
    unsafe fn store_codes(self, at: *mut F16) {
        use std::arch::x86_64::*;
        unsafe {
            let codes = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(self);
            _mm_storeu_si128(at.cast(), codes)
        }
    }
    #[inline(always)]
    unsafe fn store(self, at: *mut f32) {
        unsafe { std::arch::x86_64::_mm256_storeu_ps(at, self) }
    }
}

#[cfg(target_arch = "x86_64")]
impl Square for std::arch::x86_64::__m512 {
    const LANES: usize = 16;
    // SAFETY (each body): the caller's guarantees are the intrinsics'.
    #[inline(always)]
    unsafe fn zero() -> Self {
        unsafe { std::arch::x86_64::_mm512_setzero_ps() }
    }
    #[inline(always)]
    unsafe fn load(at: *const f32, live: usize) -> Self {
        use std::arch::x86_64::*;
        unsafe {
            if live == 16 {
                return _mm512_loadu_ps(at);
            }
            _mm512_maskz_loadu_ps(((1u32 << live) - 1) as u16, at)
        }
    }
    #[inline(always)]
    unsafe fn transpose(r: &mut [Self; 16]) {
        use std::arch::x86_64::*;
        unsafe {
            let mut t = [_mm512_setzero_ps(); 16];
            for i in 0..8 {
                t[2 * i] = _mm512_unpacklo_ps(r[2 * i], r[2 * i + 1]);
                t[2 * i + 1] = _mm512_unpackhi_ps(r[2 * i], r[2 * i + 1]);
            }
            // `u[4i + j]`, 128-bit lane `l`: column `4l + j`, rows
            // `4i..4i + 4`.
            let mut u = [_mm512_setzero_ps(); 16];
            for i in 0..4 {
                u[4 * i] = _mm512_shuffle_ps::<0x44>(t[4 * i], t[4 * i + 2]);
                u[4 * i + 1] = _mm512_shuffle_ps::<0xee>(t[4 * i], t[4 * i + 2]);
                u[4 * i + 2] = _mm512_shuffle_ps::<0x44>(t[4 * i + 1], t[4 * i + 3]);
                u[4 * i + 3] = _mm512_shuffle_ps::<0xee>(t[4 * i + 1], t[4 * i + 3]);
            }
            // Lanes of rows 0–7 (`v[j]`, `v[4 + j]`) and 8–15
            // (`v[8 + j]`, `v[12 + j]`): even lanes of the columns
            // `4l + j` in the first, odd in the second.
            let mut v = [_mm512_setzero_ps(); 16];
            for j in 0..4 {
                v[j] = _mm512_shuffle_f32x4::<0x88>(u[j], u[4 + j]);
                v[4 + j] = _mm512_shuffle_f32x4::<0xdd>(u[j], u[4 + j]);
                v[8 + j] = _mm512_shuffle_f32x4::<0x88>(u[8 + j], u[12 + j]);
                v[12 + j] = _mm512_shuffle_f32x4::<0xdd>(u[8 + j], u[12 + j]);
            }
            for j in 0..4 {
                r[j] = _mm512_shuffle_f32x4::<0x88>(v[j], v[8 + j]);
                r[8 + j] = _mm512_shuffle_f32x4::<0xdd>(v[j], v[8 + j]);
                r[4 + j] = _mm512_shuffle_f32x4::<0x88>(v[4 + j], v[12 + j]);
                r[12 + j] = _mm512_shuffle_f32x4::<0xdd>(v[4 + j], v[12 + j]);
            }
        }
    }
    #[inline(always)]
    unsafe fn relu(self) -> Self {
        use std::arch::x86_64::*;
        unsafe {
            let keep = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(self, _mm512_setzero_ps());
            _mm512_maskz_mov_ps(keep, self)
        }
    }
    #[inline(always)]
    unsafe fn has_nan(self) -> bool {
        use std::arch::x86_64::*;
        unsafe { _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(self, self) != 0 }
    }
    #[inline(always)]
    unsafe fn store_codes(self, at: *mut F16) {
        use std::arch::x86_64::*;
        unsafe {
            let codes = _mm512_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(self);
            _mm256_storeu_si256(at.cast(), codes)
        }
    }
    #[inline(always)]
    unsafe fn store(self, at: *mut f32) {
        unsafe { std::arch::x86_64::_mm512_storeu_ps(at, self) }
    }
}

/// # Safety
/// The host must support AVX2, FMA and F16C; the rest is
/// [`transpose_rect`]'s.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,f16c")]
unsafe fn transpose_avx2(rect: Rect<'_>, spatial: usize, layout: EmitLayout, codes: &Cells<F16>) {
    // SAFETY: the caller's guarantees.
    unsafe { transpose_rect::<std::arch::x86_64::__m256>(rect, spatial, layout, codes) }
}

/// # Safety
/// As [`transpose_avx2`], and the host must support AVX-512 F and VL.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,f16c,avx512f,avx512vl")]
unsafe fn transpose_avx512(rect: Rect<'_>, spatial: usize, layout: EmitLayout, codes: &Cells<F16>) {
    // SAFETY: the caller's guarantees.
    unsafe { transpose_rect::<std::arch::x86_64::__m512>(rect, spatial, layout, codes) }
}

/// A lowered convolution's rectangle (at most [`BLOCK_N`] columns) into
/// its fp16 codes in NCHW, one `V::LANES`-square at a time: the square's
/// pixel rows loaded (masked past the last live channel, zero past the
/// last pixel of the rectangle or of its image), transposed in
/// registers, ReLU'd and narrowed into each live channel's run of
/// codes. A run that is short or holds a NaN (whose payload F16C keeps
/// and the scalar encoder does not) goes through the slice encoder from
/// a stack copy, as [`emit_rect`]'s would.
///
/// # Safety
/// The host must support `V`'s instructions and F16C, and no other
/// reference to the codes of the rectangle's cells may be live.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn transpose_rect<V: Square>(
    rect: Rect<'_>,
    spatial: usize,
    layout: EmitLayout,
    codes: &Cells<F16>,
) {
    let Rect {
        src,
        stride,
        rows: (row0, rows),
        cols: (col0, cols),
        image,
    } = rect;
    assert!(cols <= BLOCK_N, "a transposed rectangle is a block wide");
    let lanes = V::LANES;
    let mut r = 0;
    while r < rows {
        let (n, s) = ((row0 + r) / spatial, (row0 + r) % spatial);
        let pixels = lanes.min(rows - r).min(spatial - s);
        for c in (0..cols).step_by(lanes) {
            let live = lanes.min(cols - c);
            // SAFETY (the block): the host's instructions are the
            // caller's guarantee; every load is inside a bounds-checked
            // slice of `src`, every store inside a checked run of codes
            // or the stack buffer.
            unsafe {
                let mut square = [V::zero(); 16];
                for (i, row) in square[..pixels].iter_mut().enumerate() {
                    *row = V::load(src[(r + i) * stride + c..][..live].as_ptr(), live);
                }
                V::transpose(&mut square);
                for (co, &channel) in square[..live].iter().enumerate() {
                    let channel = if layout.relu { channel.relu() } else { channel };
                    let run = codes.run(n * image + (col0 + c + co) * spatial + s, pixels);
                    if pixels == lanes && !channel.has_nan() {
                        channel.store_codes(run.as_mut_ptr());
                    } else {
                        let mut staged = [0.0f32; 16];
                        channel.store(staged.as_mut_ptr());
                        Dtype::F16.encode_slice(&staged[..pixels], run);
                    }
                }
            }
        }
        r += pixels;
    }
}
