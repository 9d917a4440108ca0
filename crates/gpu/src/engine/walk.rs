//! Block execution: the microkernel fills the live part of the
//! block tile and its checksum lanes (see [`super::simd`]), targeted
//! faults are written into the tile, and the tile epilogue compares
//! every live register tile against what it carried.
//!
//! *Live* means covering a row of the request or a column of the
//! weights: strips below the request's last row and column groups right
//! of the weights' last column are grid padding that would multiply
//! zeros, so they are neither computed, nor faulted, nor checked — a
//! batch-1 request walks one strip of its block, not eight, and that
//! strip's one live row as a one-row register tile.
//!
//! The epilogue is ordinary Rust shared by every [`GemmPath`] — only
//! correctly-rounded adds, multiplies and compares, which Rust never
//! contracts or reorders, compiled once per path for its vector width —
//! so detections (coordinates, residuals, thresholds) are byte-identical
//! across the SIMD and scalar paths whenever the lanes are, which
//! [`super::simd`] guarantees.
//!
//! # One-sided ABFT takes a column's magnitude only where it decides
//!
//! Under one-sided ABFT a column's compare is
//! `!(|Σ_rows c − chk| <= slope·mag + floor)`, with `chk` the checksum
//! chain `fma(s_k, b, chk)` and `mag` the magnitude chain
//! `fma(S_k, |b|, mag)` over the strip's sums `s_k = (a0+a1)+(a2+a3)`
//! and `S_k = (|a0|+|a1|)+(|a2|+|a3|)`. The tiles carry only `chk`,
//! because `|chk| ≤ mag` holds bit for bit:
//!
//! - `|s_k| ≤ S_k` in f32: round-to-nearest is monotone and odd, so
//!   `|fl(x+y)| = fl(|x+y|) ≤ fl(|x|+|y|)` at every add;
//! - by the same argument each step keeps `|fma(s_k, b, chk)| ≤
//!   fma(S_k, |b|, mag)` when `|chk| ≤ mag`, from `0 ≤ 0`;
//! - a NaN magnitude needs a NaN or `0·∞` product in `Σ S_k·|b|`, and
//!   the same product makes `chk` NaN — unless `S_k` overflowed to `∞`
//!   over finite values while `s_k` cancelled (bf16 activations near the
//!   top of the f32 range) and meets a zero weight. Staging flags a strip
//!   of two live rows or more with an infinite `S_k`
//!   (`Panels::infinite_sums`), and such a strip is taken as unbounded;
//!   with one live row `S_k = |a|` is infinite only where `s_k` is.
//!
//! The threshold `slope·m + floor` does not decrease as `m` grows when
//! `slope > 0`, so in a bounded strip a column whose residual passes at
//! `|chk|` passes at `mag`, and is not flagged. Only the other columns —
//! faults, non-finite values and a sliver of clean columns whose
//! checksum cancelled — are *opened*: the block's opened column groups
//! get their exact magnitudes from [`simd::group_magnitudes`], the same
//! chains run four groups at a time, and the ordinary compare decides.
//! No verdict, residual or reported threshold changes. In a strip with
//! one live row the checksum chain repeats the data chain operation for
//! operation, so a clean column's residual is exactly `0.0` and only
//! faults and non-finite values open. An unbounded strip, and every
//! strip under a scheme whose threshold does not grow with the magnitude
//! (`slope <= 0`, where `0·∞` is NaN too; tests build them to make every
//! compare report), opens every column.
//!
//! Everything here reads the stripe its team member staged and writes
//! into that member's scratch ([`StripeScratch`]) — nothing allocates,
//! which is what makes the workspace-threaded execution path
//! allocation-free after warmup, fanned out or not.

use super::fault_inject::{Detection, FaultPlan, STEP_K};
use super::lanes::{on_path, Kernel, Lanes};
use super::matrix::MatrixView;
use super::panels::{BlockScratch, PackedWeights, Panels, StripeScratch};
use super::scheme::{Redundancy, TileScheme};
use super::simd::{self, GemmPath};
use super::{BLOCK_M, BLOCK_N, MICRO_MR, MICRO_NR};

/// What every block of one engine run shares, read-only.
pub(crate) struct Run<'a> {
    pub(crate) path: GemmPath,
    /// The request's activations; each member stages the stripe it
    /// walks from here.
    pub(crate) a: MatrixView<'a>,
    /// The layer's packed weights.
    pub(crate) b: &'a PackedWeights,
    pub(crate) scheme: TileScheme,
    pub(crate) faults: &'a [FaultPlan],
    /// Output rows (the request's rows).
    pub(crate) out_m: usize,
    /// Output columns (the weights' columns).
    pub(crate) out_n: usize,
}

/// Executes block `(br, bc)` of `run` into `scr.block.tile` from the
/// stripe staged in `scr.panels` (block row `br`'s) and appends the
/// tiles the scheme flags to `scr.detections` (strip-major, then by
/// column).
pub(crate) fn run_block(run: &Run<'_>, br: usize, bc: usize, scr: &mut StripeScratch) {
    let (row0, col0) = (br * BLOCK_M, bc * BLOCK_N);
    let rows = (run.out_m - row0).min(BLOCK_M);
    let groups = (run.out_n - col0).min(BLOCK_N).div_ceil(MICRO_NR);
    let lanes = run.scheme.lanes;
    debug_assert_eq!(scr.staged, Some(br), "the block's stripe is staged");
    let StripeScratch {
        block: scratch,
        panels,
        detections,
        ..
    } = scr;
    let panels = &*panels;

    {
        let BlockScratch {
            tile,
            chk,
            mag,
            shadow,
        } = &mut *scratch;
        // The staged stripe starts at the block's first row.
        let fill = |lanes, tile: &mut [f32], chk: &mut [f32], mag: &mut [f32]| {
            simd::fill_block_tile(
                run.path, panels, run.b, lanes, 0, col0, rows, groups, BLOCK_N, tile, chk, mag,
            )
        };
        fill(lanes, tile, chk, mag);
        if lanes.is_shadow() {
            // The redundant pass: the same microkernel over the same
            // panels, into the second copy.
            fill(Redundancy::None, shadow, chk, mag);
        }
    }

    // Faults strike the data accumulators only — never the redundant
    // lanes or the shadow — and land before the tile check reads them;
    // one aimed at a padding row or column has no accumulator to strike.
    // Mid-walk faults first (each targeted accumulator is recomputed by
    // the cold walk with every corruption aimed at it applied at its
    // K-step; accumulators are independent, so this reproduces the
    // faulted value bit-exactly), then epilogue-datapath faults on top.
    let in_block = |f: &&FaultPlan| {
        (row0..(row0 + BLOCK_M).min(run.out_m)).contains(&f.row)
            && (col0..(col0 + BLOCK_N).min(run.out_n)).contains(&f.col)
    };
    let cell = |f: &FaultPlan| (f.row - row0) * BLOCK_N + (f.col - col0);
    for f in run.faults.iter().filter(in_block) {
        if f.after_step != u64::MAX {
            scratch.tile[cell(f)] = faulted_dot(
                panels.row(f.row - row0),
                run.b.col(f.col),
                (f.row, f.col),
                run.faults,
            );
        }
    }
    for f in run.faults.iter().filter(in_block) {
        if f.after_step == u64::MAX {
            scratch.tile[cell(f)] = f.kind.apply(scratch.tile[cell(f)]);
        }
    }

    let check = Check {
        run,
        panels,
        live: ((row0, col0), (rows, groups)),
        scratch,
        detections,
    };
    // SAFETY: the run's path is one the host runs.
    if let Err(c) = unsafe { on_path(run.path, check) } {
        check_block(c.run, c.panels, c.live, c.scratch, c.detections);
    }
}

/// The cold walk for a faulted accumulator: the canonical FMA chain
/// with every fault aimed at `(row, col)` applied at its simulated
/// K-step (one step consumes [`STEP_K`] = 2 elements, as in Figure 3).
fn faulted_dot(
    a_row: impl Iterator<Item = f32>,
    b_col: impl Iterator<Item = f32>,
    at: (usize, usize),
    faults: &[FaultPlan],
) -> f32 {
    let mut s = 0.0f32;
    for (kk, (a, b)) in a_row.zip(b_col).enumerate() {
        s = a.mul_add(b, s);
        let kk = kk as u64;
        if kk % STEP_K == STEP_K - 1 {
            for f in faults {
                if (f.row, f.col) == at && f.after_step == kk / STEP_K {
                    s = f.kind.apply(s);
                }
            }
        }
    }
    s
}

/// The four rows of strip `s` of a block tile.
fn strip_rows(tile: &[f32], s: usize) -> [&[f32]; MICRO_MR] {
    std::array::from_fn(|i| &tile[(s * MICRO_MR + i) * BLOCK_N..][..BLOCK_N])
}

/// Sum of `f` over one strip column, pairwise in f32.
#[inline(always)]
fn col_sum(rows: &[&[f32]; MICRO_MR], j: usize, f: impl Fn(f32) -> f32) -> f32 {
    (f(rows[0][j]) + f(rows[1][j])) + (f(rows[2][j]) + f(rows[3][j]))
}

/// Sum of `f` over one register tile's cells: column sums first, then a
/// pairwise tree across the [`MICRO_NR`] columns — a fixed order with
/// short dependency chains.
#[inline(always)]
fn tile_sum(rows: &[&[f32]; MICRO_MR], col: usize, f: impl Fn(f32) -> f32) -> f32 {
    let mut lane: [f32; MICRO_NR] = std::array::from_fn(|j| col_sum(rows, col + j, &f));
    let mut width = MICRO_NR;
    while width > 1 {
        width /= 2;
        for j in 0..width {
            lane[j] += lane[j + width];
        }
    }
    lane[0]
}

/// [`check_block`]'s operands.
struct Check<'a> {
    run: &'a Run<'a>,
    panels: &'a Panels,
    live: ((usize, usize), (usize, usize)),
    scratch: &'a mut BlockScratch,
    detections: &'a mut Vec<Detection>,
}

/// [`check_block`] compiled for the lanes' width: its loops are plain
/// Rust the compiler vectorizes.
impl Kernel for Check<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<L: Lanes>(self) {
        check_block(
            self.run,
            self.panels,
            self.live,
            self.scratch,
            self.detections,
        )
    }
}

/// The tile epilogue: compares every live register tile of the block
/// (`live` = live rows × column groups from `origin`) against its
/// redundant lanes. Each arm first reduces a strip (or the block) to
/// one flag with a branch-free loop the compiler vectorizes, and only
/// walks cells again — to take one-sided ABFT's opened magnitudes and
/// build [`Detection`]s — when something flagged or opened.
#[inline(always)]
fn check_block(
    run: &Run<'_>,
    panels: &Panels,
    (origin, live): ((usize, usize), (usize, usize)),
    scratch: &mut BlockScratch,
    detections: &mut Vec<Detection>,
) {
    let BlockScratch {
        tile,
        chk,
        mag,
        shadow,
    } = scratch;
    let (tile, chk, shadow) = (&**tile, &**chk, &**shadow);
    let scheme = run.scheme;
    let (live_rows, groups) = live;
    let strips = live_rows.div_ceil(MICRO_MR);
    let cols = groups * MICRO_NR;
    let per_row = BLOCK_N / MICRO_NR;
    let mut flag = |s: usize, col: usize, cols: usize, residual: f64, threshold: f64| {
        detections.push(Detection {
            row: origin.0 + s * MICRO_MR,
            col: origin.1 + col,
            cols,
            residual,
            threshold,
        });
    };
    match scheme.lanes {
        Redundancy::None | Redundancy::GlobalSums => {}
        Redundancy::ColumnChecksum => {
            // In a bounded strip `|chk|` bounds each column's magnitude
            // from below (see the module docs), so only a column failing
            // there is opened; the block's opened column groups then take
            // their magnitudes in one pass.
            let grows = scheme.slope > 0.0;
            let fails = |rows: [&[f32]; MICRO_MR], chk: &[f32]| {
                let [r0, r1, r2, r3] = rows;
                let cells = r0.iter().zip(r1).zip(r2).zip(r3).zip(chk);
                cells.fold(false, |any, ((((a, b), c), d), &chk)| {
                    let residual = (((a + b) + (c + d)) as f64 - chk as f64).abs();
                    any | scheme.flags(residual, chk.abs() as f64)
                })
            };
            let mut open = [(0, 0); (BLOCK_M / MICRO_MR) * (BLOCK_N / MICRO_NR)];
            let mut count = 0;
            for s in 0..strips {
                let bounded = grows && panels.infinite_sums >> s & 1 == 0;
                let rows = strip_rows(tile, s).map(|row| &row[..cols]);
                let chk = &chk[s * BLOCK_N..][..cols];
                if bounded && !fails(rows, chk) {
                    continue;
                }
                for g in 0..groups {
                    let group = g * MICRO_NR..(g + 1) * MICRO_NR;
                    if !bounded || fails(rows.map(|row| &row[group.clone()]), &chk[group]) {
                        open[count] = (s, g);
                        count += 1;
                    }
                }
            }
            let open = &open[..count];
            if open.is_empty() {
                return;
            }
            simd::group_magnitudes(run.path, panels, run.b, origin.1, BLOCK_N, open, mag);
            for &(s, g) in open {
                let rows = strip_rows(tile, s);
                for j in g * MICRO_NR..(g + 1) * MICRO_NR {
                    let residual =
                        (col_sum(&rows, j, |v| v) as f64 - chk[s * BLOCK_N + j] as f64).abs();
                    let mag = mag[s * BLOCK_N + j] as f64;
                    if scheme.flags(residual, mag) {
                        flag(s, j, 1, residual, scheme.threshold(mag));
                    }
                }
            }
        }
        Redundancy::TileChecksum => {
            for s in 0..strips {
                let rows = strip_rows(tile, s);
                for g in 0..groups {
                    let sum = tile_sum(&rows, g * MICRO_NR, |v| v);
                    let residual = (sum as f64 - chk[s * per_row + g] as f64).abs();
                    let magnitude = mag[s * per_row + g] as f64;
                    if scheme.flags(residual, magnitude) {
                        flag(
                            s,
                            g * MICRO_NR,
                            MICRO_NR,
                            residual,
                            scheme.threshold(magnitude),
                        );
                    }
                }
            }
        }
        Redundancy::ShadowExact | Redundancy::ShadowSum => {
            // Both copies ran the same instruction sequence, so a clean
            // block is bit-identical to its shadow.
            let differs = |a: f32, b: f32| a.to_bits() != b.to_bits();
            let rows = tile
                .chunks(BLOCK_N)
                .zip(shadow.chunks(BLOCK_N))
                .take(strips * MICRO_MR);
            if !rows.fold(false, |any, (t, s)| {
                t[..cols]
                    .iter()
                    .zip(&s[..cols])
                    .fold(any, |any, (&a, &b)| any | differs(a, b))
            }) {
                return;
            }
            for s in 0..strips {
                let rows = strip_rows(tile, s);
                let twin = strip_rows(shadow, s);
                if scheme.lanes == Redundancy::ShadowExact {
                    for j in 0..cols {
                        let residual = (0..MICRO_MR)
                            .filter(|&i| differs(rows[i][j], twin[i][j]))
                            .map(|i| (rows[i][j] as f64 - twin[i][j] as f64).abs())
                            .reduce(f64::max);
                        if let Some(residual) = residual {
                            flag(s, j, 1, residual, 0.0);
                        }
                    }
                } else {
                    for g in 0..groups {
                        let col = g * MICRO_NR;
                        let residual = (tile_sum(&rows, col, |v| v) as f64
                            - tile_sum(&twin, col, |v| v) as f64)
                            .abs();
                        let magnitude = tile_sum(&twin, col, f32::abs) as f64;
                        if scheme.flags(residual, magnitude) {
                            flag(s, col, MICRO_NR, residual, scheme.threshold(magnitude));
                        }
                    }
                }
            }
        }
    }
}
