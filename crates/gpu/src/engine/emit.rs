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
//! registers, by one body written over the engine's lane type (the
//! `Transpose` kernel): a square of pixels × channels (8×8 on ymm, 16×16
//! on zmm) is loaded a pixel row at a time, transposed, passed through
//! the ReLU and narrowed by F16C straight into each channel's run of
//! codes. Every other format, and the scalar path, run the
//! scalar body, [`emit_rect`]: the rectangle transposed through a
//! staging block into per-channel runs of f32, then encoded a run at a
//! time — which is also what hands a final stage's f32 reply over
//! ([`emit_output`]). The two give the same bytes.
//!
//! The ReLU is [`relu`], never `f32::max`, whose sign at `max(−0.0,
//! +0.0)` Rust leaves open (`v.max(0.0)` keeps −0.0 in a debug build and
//! gives +0.0 in a release one).

use super::lanes::{on_path, Kernel, Lanes};
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
    spatial: usize,
    relu: bool,
    stride: usize,
    /// The run's path, which every task encodes on.
    path: GemmPath,
}

impl Dest<'_> {
    /// Fills the destination from a finished output's f32 cells, block
    /// by block through the body a run's tasks emit with, so the codes
    /// are the ones a run with this destination would have written: for
    /// a caller that needs the f32 output as well (a check or a repair
    /// that reads it) and so runs with [`Dest::None`]. Nothing to do for
    /// [`Dest::None`].
    pub fn encode(self, out: &GemmOutput) {
        let Some(cells) = CodeCells::new(self, out.m, out.n, simd::active_path()) else {
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
    /// The shared form of `dest` for an `m × n` run on `path` (`None`
    /// for [`Dest::None`]).
    pub(super) fn new(dest: Dest<'_>, m: usize, n: usize, path: GemmPath) -> Option<Self> {
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
            spatial,
            relu,
            stride,
            path,
        })
    }

    /// Encodes the `rows × cols` rectangle at `(row0, col0)` of the
    /// output, read from `src` (its row `r` at `src[r·stride]`): fp16
    /// codes transposed in registers on a SIMD path ([`Transpose`]), every
    /// other format, and the scalar path, through [`emit_rect`] a run at a
    /// time. The one body of [`Dest::encode`] and a run's tasks.
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
        if self.dtype == Dtype::F16 {
            let transpose = Transpose {
                cells: self,
                src,
                stride,
                rows,
                cols,
            };
            // SAFETY: the caller's contract, and the run's path is one the
            // host runs (`simd::force_path` admits no other), so it has
            // F16C.
            if unsafe { on_path(self.path, transpose) }.is_ok() {
                return;
            }
        }
        let layout = EmitLayout {
            conv_spatial: Some(self.spatial),
            relu: self.relu,
        };
        emit_rect(src, stride, rows, cols, self.stride, layout, |at, run| {
            // SAFETY: the codes of cells inside the caller's rectangle
            // (distinct cells have distinct codes).
            let codes = unsafe { self.codes.run(at, run.len()) };
            self.dtype.encode_slice(run, codes);
        });
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

/// A lowered convolution's rectangle (at most [`BLOCK_N`] columns) as
/// [`CodeCells::emit`] hands it to the lanes: into its fp16 codes in
/// NCHW, one `L::LANES`-square at a time. The square's pixel rows are
/// loaded (masked past the last live channel, zero past the last pixel
/// of the rectangle or of its image), transposed in registers, ReLU'd and
/// narrowed into each live channel's run of codes. A run that is short
/// or holds a NaN (whose payload F16C keeps and the scalar encoder does
/// not) goes through the slice encoder from a stack copy, as
/// [`emit_rect`]'s would.
struct Transpose<'a> {
    cells: &'a CodeCells,
    src: &'a [f32],
    stride: usize,
    rows: (usize, usize),
    cols: (usize, usize),
}

impl Kernel for Transpose<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<L: Lanes>(self) {
        let Transpose {
            cells,
            src,
            stride,
            rows: (row0, rows),
            cols: (col0, cols),
        } = self;
        let (spatial, image) = (cells.spatial, cells.stride);
        assert!(cols <= BLOCK_N, "a transposed rectangle is a block wide");
        let lanes = L::LANES;
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
                    let mut square = [L::splat(0.0); 16];
                    for (i, row) in square[..pixels].iter_mut().enumerate() {
                        *row = L::load(src[(r + i) * stride + c..][..live].as_ptr(), live);
                    }
                    L::transpose(&mut square);
                    for (co, &channel) in square[..live].iter().enumerate() {
                        let channel = if cells.relu { channel.relu() } else { channel };
                        let run = cells
                            .codes
                            .run(n * image + (col0 + c + co) * spatial + s, pixels);
                        if pixels == lanes && !channel.has_nan() {
                            channel.narrow_f16(run.as_mut_ptr());
                        } else {
                            let mut staged = [0.0f32; 16];
                            channel.store(staged.as_mut_ptr(), lanes);
                            Dtype::F16.encode_slice(&staged[..pixels], run);
                        }
                    }
                }
            }
            r += pixels;
        }
    }
}
