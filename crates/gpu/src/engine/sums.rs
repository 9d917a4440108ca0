//! Global ABFT's partial sums, taken where a run already holds the data
//! (§2.5: the output summation is a fused epilogue, the activation
//! checksum comes from a pass that already reads A).
//!
//! Under [`Redundancy::GlobalSums`](super::Redundancy::GlobalSums) the
//! engine's tasks leave two kinds of partial in the workspace's
//! [`CheckScratch`], each in a slot no other task writes:
//!
//! - **`Σ C` per block.** After a block's write-back, the task sums the
//!   block's live cells from its tile while it is still in L1: each
//!   column over the block's rows in the split-at-`n/2` tree (a row of
//!   adds per pair of subtrees, in place), then the column sums by
//!   [`pairwise_sum_f32`].
//! - **`Σ A` and `Σ |A|` per block-row stripe**, column by column.
//!   The task that walks the stripe's first block has its staging take
//!   each [`MICRO_MR`]-row strip's column sums, as one- and two-sided
//!   ABFT's staging does, `(a₀ + a₁) + (a₂ + a₃)` (rows past the
//!   request are `+0`), and folds the stripe's strips in the
//!   split-at-`n/2` tree; a member that stages the stripe for a later
//!   block skips the sums.
//!
//! The check combines only these: the stripes' partials per column in
//! the same tree over stripes, and the blocks' partials by
//! [`pairwise_sum_f32`] in block-major order. Block and stripe
//! boundaries are host constants, so every partial — and the verdict —
//! is the same bytes at every team width and on every path.
//! [`CheckScratch::sum_serially`] is the serial reference for exactly
//! this order, from the operand and the finished output.

use super::matrix::MatrixView;
use super::{GemmOutput, BLOCK_M, BLOCK_N, MICRO_MR};
use std::ops::Range;

/// Sums a slice of FP32 values pairwise (tree order: split at `n/2`),
/// as the fused epilogue + CUB-style reduce kernel would. Runs of up to
/// eight values are summed in place — the same tree, written out — so
/// the recursion bottoms out an eighth as often.
pub fn pairwise_sum_f32(values: &[f32]) -> f32 {
    match *values {
        [] => 0.0,
        [a] => a,
        [a, b] => a + b,
        [a, b, c] => a + (b + c),
        [a, b, c, d] => (a + b) + (c + d),
        [a, b, c, d, e] => (a + b) + (c + (d + e)),
        [a, b, c, d, e, f] => (a + (b + c)) + (d + (e + f)),
        [a, b, c, d, e, f, g] => (a + (b + c)) + ((d + e) + (f + g)),
        [a, b, c, d, e, f, g, h] => ((a + b) + (c + d)) + ((e + f) + (g + h)),
        _ => {
            let (lo, hi) = values.split_at(values.len() / 2);
            pairwise_sum_f32(lo) + pairwise_sum_f32(hi)
        }
    }
}

/// [`pairwise_sum_f32`]'s tree over `f(i)` for `i` in `range`.
fn pairwise_by(range: Range<usize>, f: &impl Fn(usize) -> f32) -> f32 {
    match range.len() {
        0 => 0.0,
        1 => f(range.start),
        n => {
            let mid = range.start + n / 2;
            pairwise_by(range.start..mid, f) + pairwise_by(mid..range.end, f)
        }
    }
}

/// Global ABFT's partials for the workspace's last run, in the layout
/// the engine's tasks write them (see the module docs), plus the row
/// the check combines them into. Steady-state runs reuse the
/// buffers, so a warm workspace checks without allocating.
#[derive(Clone, Debug, Default)]
pub struct CheckScratch {
    /// Stripe `br`, column `kk`: `(Σ a, Σ |a|)` over the stripe's rows
    /// at `(br·cols + kk)·2`.
    pub(crate) stripe_sums: Vec<f32>,
    /// `Σ C` of block `(br, bc)` at `br·col_blocks + bc`.
    pub(crate) block_sums: Vec<f32>,
    /// The activations' columns (the GEMM's unpadded K).
    cols: usize,
    /// Output column blocks.
    col_blocks: usize,
    /// A's `(Σ a, Σ |a|)` row, combined from the stripes
    /// ([`Self::activation_sums`]).
    chk: Vec<f32>,
}

impl CheckScratch {
    /// Sizes the partials for a run of `stripes` block rows by
    /// `col_blocks` over `cols` activation columns. The contents are the
    /// last run's until the tasks overwrite them.
    pub(crate) fn arm(&mut self, stripes: usize, cols: usize, col_blocks: usize) {
        self.stripe_sums.resize(stripes * cols * 2, 0.0);
        self.block_sums.resize(stripes * col_blocks, 0.0);
        (self.cols, self.col_blocks) = (cols, col_blocks);
    }

    /// The partials of a run that walked nothing (no inner dimension or
    /// no output columns): every cell is the empty sum, and A is never
    /// read.
    pub(crate) fn zero(&mut self) {
        self.stripe_sums.fill(0.0);
        self.block_sums.fill(0.0);
    }

    /// The partials a run of `a` under global ABFT leaves, summed
    /// serially from `a` and the run's finished output `out` in the
    /// engine's order: the reference the in-task partials equal bit for
    /// bit. Allocates; reads every activation and every cell.
    pub fn sum_serially(a: MatrixView<'_>, out: &GemmOutput) -> Self {
        assert_eq!(a.rows, out.m, "not this output's operand");
        let mut sums = CheckScratch::default();
        let (stripes, col_blocks) = (out.m.div_ceil(BLOCK_M), out.n.div_ceil(BLOCK_N));
        sums.arm(stripes, a.cols, col_blocks);
        if out.n == 0 {
            return sums;
        }
        let strips = out.m.div_ceil(MICRO_MR);
        for br in 0..stripes {
            let stripe = br * BLOCK_M / MICRO_MR..strips.min((br + 1) * BLOCK_M / MICRO_MR);
            for kk in 0..a.cols {
                let v = |i: usize| if i < a.rows { a.get_f32(i, kk) } else { 0.0 };
                let strip = |s: usize, f: fn(f32) -> f32| {
                    let r = s * MICRO_MR;
                    (f(v(r)) + f(v(r + 1))) + (f(v(r + 2)) + f(v(r + 3)))
                };
                let at = (br * a.cols + kk) * 2;
                sums.stripe_sums[at] = pairwise_by(stripe.clone(), &|s| strip(s, |x| x));
                sums.stripe_sums[at + 1] = pairwise_by(stripe.clone(), &|s| strip(s, f32::abs));
            }
            for bc in 0..col_blocks {
                sums.block_sums[br * col_blocks + bc] = serial_block_sum(out, br, bc);
            }
        }
        sums
    }

    /// Re-sums the blocks holding output column `col` of `out` — after a
    /// repair rewrote that column's cells — on the caller, from the
    /// finished output in the tasks' order.
    pub fn resum_column(&mut self, out: &GemmOutput, col: usize) {
        if col >= out.n {
            return;
        }
        let bc = col / BLOCK_N;
        for br in 0..out.m.div_ceil(BLOCK_M) {
            self.block_sums[br * self.col_blocks + bc] = serial_block_sum(out, br, bc);
        }
    }

    /// The activations' columns the partials cover.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The per-stripe activation partials, as laid out above.
    pub fn stripe_sums(&self) -> &[f32] {
        &self.stripe_sums
    }

    /// The per-block output partials, block-major.
    pub fn block_sums(&self) -> &[f32] {
        &self.block_sums
    }

    /// A's column sums and magnitudes, `(Σ a, Σ |a|)` per column: the
    /// stripes' partials folded in the split-at-`n/2` tree, in stripe
    /// order, in reusable scratch (the partials themselves stay).
    pub fn activation_sums(&mut self) -> &[f32] {
        let row = 2 * self.cols;
        self.chk.clear();
        self.chk.extend_from_slice(&self.stripe_sums);
        // No rows: every column sum is the empty one.
        self.chk.resize(self.chk.len().max(row), 0.0);
        let stripes = self.stripe_sums.len() / row.max(1);
        fold_rows(&mut self.chk, row, row, stripes)
    }

    /// `Σ C`: the blocks' partials by [`pairwise_sum_f32`], block-major.
    pub fn output_sum(&self) -> f32 {
        pairwise_sum_f32(&self.block_sums)
    }
}

/// `Σ` over one block tile's live cells — `rows × cols` from its origin,
/// row stride [`BLOCK_N`] — in the order [`serial_block_sum`] states:
/// every column over the rows in the split-at-`n/2` tree, folded in
/// place a row of adds at a time, then the live columns by
/// [`pairwise_sum_f32`]. Consumes the tile: once written back it is
/// scratch.
pub(crate) fn block_sum(tile: &mut [f32], rows: usize, cols: usize) -> f32 {
    pairwise_sum_f32(fold_rows(tile, BLOCK_N, cols, rows))
}

/// Block `(br, bc)`'s `Σ C`, serially from the finished output: each
/// live column over the block's rows in the split-at-`n/2` tree, then
/// the column sums by [`pairwise_sum_f32`].
fn serial_block_sum(out: &GemmOutput, br: usize, bc: usize) -> f32 {
    let (row0, col0) = (br * BLOCK_M, bc * BLOCK_N);
    let (rows, cols) = (BLOCK_M.min(out.m - row0), BLOCK_N.min(out.n - col0));
    let (mut col, mut lanes) = ([0.0f32; BLOCK_M], [0.0f32; BLOCK_N]);
    for (j, lane) in lanes[..cols].iter_mut().enumerate() {
        for (r, v) in col[..rows].iter_mut().enumerate() {
            *v = out.get(row0 + r, col0 + j);
        }
        *lane = pairwise_sum_f32(&col[..rows]);
    }
    pairwise_sum_f32(&lanes[..cols])
}

/// Folds rows `0..count` of `buf` (`stride` floats a row, the first
/// `live` of each read) into row 0's slot, split at `n/2`, and returns
/// that slot. The rows are consumed — each subtree's sum is left in its
/// first row: a block tile after its write-back, a stripe's staged
/// strip sums (under global ABFT no lane reads them), or a copy of the
/// stripes' partials.
pub(crate) fn fold_rows(buf: &mut [f32], stride: usize, live: usize, count: usize) -> &[f32] {
    fn fold(buf: &mut [f32], stride: usize, live: usize, rows: Range<usize>) {
        if rows.len() < 2 {
            return;
        }
        let mid = rows.start + rows.len() / 2;
        fold(buf, stride, live, rows.start..mid);
        fold(buf, stride, live, mid..rows.end);
        let (lo, hi) = buf.split_at_mut(mid * stride);
        for (x, y) in lo[rows.start * stride..][..live]
            .iter_mut()
            .zip(&hi[..live])
        {
            *x += y;
        }
    }
    fold(buf, stride, live, 0..count);
    &buf[..live]
}
