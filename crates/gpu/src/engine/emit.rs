//! Write-back: a run's cells in the order and format of whoever reads
//! them next.
//!
//! The engine's own output ([`super::GemmOutput::c`]) is row-major f32.
//! A graph executor's next stage wants storage codes, a convolution's in
//! NCHW, with the layer's ReLU applied. Producing them is a transpose
//! bound by strided stores — a millisecond and a half of a SqueezeNet
//! pass if one thread does it after the walk while the others wait — so
//! a run takes a [`Dest`]: with [`Dest::Codes`] every task of
//! [`super::gemm_into`] emits its own block's live cells through
//! [`emit_rect`], from the tile, right after the tile check and the
//! scatter, and the write-back is spread over the members with the
//! walk. (Spread, not cheapened: a member spends as much on a block's
//! codes inside its task as a loop over the finished output does —
//! 10–30 % more on the stem's K = 27 layer, whose blocks are 2 µs of
//! arithmetic between 3 µs emissions. Two members still finish that
//! layer 150–330 µs sooner. A row-major destination is a straight
//! encode with nothing to share — in the tasks it measured slower — so
//! [`Dest::Codes`] is a convolution's and has no row-major form.) The
//! same body over a whole output ([`emit_output`]) is for the callers
//! that come after the walk: an fc stage's slot, a stage whose cells
//! were repaired, a final stage's f32 reply.

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
    /// Whether `max(v, 0)` is applied on the way.
    pub relu: bool,
}

/// Where a run's cells go besides [`super::GemmOutput::c`].
#[derive(Debug)]
pub enum Dest<'a> {
    /// Nowhere: the caller reads the f32 output.
    None,
    /// A lowered convolution's storage codes in NCHW, `m·n` of them,
    /// every one written.
    Codes {
        /// The destination.
        codes: &'a mut [F16],
        /// The format encoded into.
        dtype: Dtype,
        /// Output pixels per image ([`EmitLayout::conv_spatial`]).
        spatial: usize,
        /// Whether `max(v, 0)` is applied on the way.
        relu: bool,
    },
}

/// [`Dest::Codes`] as a region's tasks share it: each writes the codes
/// of its own blocks' cells.
pub(super) struct CodeCells {
    codes: Cells<F16>,
    dtype: Dtype,
    layout: EmitLayout,
}

impl<'a> Dest<'a> {
    /// The codes, their format and their layout (`None` for
    /// [`Dest::None`]).
    pub(super) fn codes(self) -> Option<(&'a mut [F16], Dtype, EmitLayout)> {
        let Dest::Codes {
            codes,
            dtype,
            spatial,
            relu,
        } = self
        else {
            return None;
        };
        let layout = EmitLayout {
            conv_spatial: Some(spatial),
            relu,
        };
        Some((codes, dtype, layout))
    }
}

impl CodeCells {
    /// The shared form of `dest` for an `m × n` run (`None` for
    /// [`Dest::None`]).
    pub(super) fn new(dest: Dest<'_>, m: usize, n: usize) -> Option<Self> {
        let (codes, dtype, layout) = dest.codes()?;
        assert_eq!(codes.len(), m * n, "one code per output cell");
        Some(CodeCells {
            codes: Cells::new(codes),
            dtype,
            layout,
        })
    }

    /// Encodes the `rows × cols` rectangle at `(row0, col0)` of an
    /// output `out_n` wide, read from `src` ([`emit_rect`]).
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
        out_n: usize,
    ) {
        emit_rect(src, stride, rows, cols, out_n, self.layout, |at, run| {
            // SAFETY: the codes of cells inside the caller's rectangle
            // (distinct cells have distinct codes).
            let codes = unsafe { self.codes.run(at, run.len()) };
            self.dtype.encode_slice(run, codes);
        });
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
/// output `out_n` columns wide — read from `src`, where the rectangle's
/// row `r` starts at `src[r·stride]` (a block tile, or the output
/// itself) — to `sink(offset, run)` as contiguous runs of `layout`'s
/// order, ReLU applied: a row-major rectangle a row at a time; a lowered
/// convolution's (at most [`BLOCK_N`] columns of it) transposed into
/// per-channel runs of pixels, cut where an image ends. The one place
/// the GEMM → NCHW transpose lives.
pub fn emit_rect(
    src: &[f32],
    stride: usize,
    (row0, rows): (usize, usize),
    (col0, cols): (usize, usize),
    out_n: usize,
    layout: EmitLayout,
    mut sink: impl FnMut(usize, &[f32]),
) {
    let relu = |v: f32| if layout.relu { v.max(0.0) } else { v };
    let Some(spatial) = layout.conv_spatial else {
        let mut staged = [0.0f32; BLOCK_N];
        for r in 0..rows {
            let live = &src[r * stride..][..cols];
            for (i, live) in live.chunks(BLOCK_N).enumerate() {
                let staged = &mut staged[..live.len()];
                staged.iter_mut().zip(live).for_each(|(d, &v)| *d = relu(v));
                sink((row0 + r) * out_n + col0 + i * BLOCK_N, staged);
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
            sink((n * out_n + col0 + co) * spatial + s, &run[..seg]);
        }
        r += seg;
    }
}

/// [`emit_rect`] over all of `out`, from its f32 cells — block by block
/// where there is a transpose to do — what a run with [`Dest::Codes`]
/// emitted task by task, for the callers that come after the walk: a
/// final stage's f32 reply, and the re-emission of a stage whose cells a
/// repair rewrote.
pub fn emit_output(out: &GemmOutput, layout: EmitLayout, mut sink: impl FnMut(usize, &[f32])) {
    if layout.conv_spatial.is_none() {
        // Nothing to transpose: one rectangle, walked in storage order.
        return emit_rect(&out.c, out.n, (0, out.m), (0, out.n), out.n, layout, sink);
    }
    for row0 in (0..out.m).step_by(BLOCK_M) {
        let rows = BLOCK_M.min(out.m - row0);
        for col0 in (0..out.n).step_by(BLOCK_N) {
            let cols = BLOCK_N.min(out.n - col0);
            let src = &out.c[row0 * out.n + col0..];
            emit_rect(
                src,
                out.n,
                (row0, rows),
                (col0, cols),
                out.n,
                layout,
                &mut sink,
            );
        }
    }
}

/// [`emit_output`] into storage codes: every cell of `out` encoded into
/// `codes` in `layout`'s order — a [`Dest::Codes`] filled after the walk
/// instead of during it.
pub fn encode_output(out: &GemmOutput, layout: EmitLayout, dtype: Dtype, codes: &mut [F16]) {
    emit_output(out, layout, |at, run| {
        dtype.encode_slice(run, &mut codes[at..at + run.len()])
    });
}
