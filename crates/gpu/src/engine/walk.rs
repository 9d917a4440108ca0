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
//! # One-sided ABFT takes a magnitude only where it decides
//!
//! One-sided ABFT checks a strip of two live rows or more row by row
//! against the weights: row `i`'s check against column group `g` is
//! `!(|Σ_{j∈g} c[i][j] − chk| <= slope·M + floor)`, with `chk = Σ_k
//! a[i][k]·t_g[k]` and `M = Σ_k |a[i][k]|·t_abs_g[k]` over the weights'
//! group sums `(t_g[k], t_abs_g[k]) = (Σ_{j∈g} b[k][j], Σ_{j∈g}
//! |b[k][j]|)` (`PackedWeights::b_chk`), both chains run in the same
//! order ([`simd::row_checks`]). A strip with one live row keeps a chain
//! per column, `chk = Σ_k a[k]·b[k][j]` against the stored column, with
//! `M = Σ_k |a[k]|·|b[k][j]|`. Neither `M` is carried, because `|chk| ≤
//! M` holds bit for bit:
//!
//! - `|t| ≤ t_abs` in f32: both sums add the same values in the same
//!   order, and round-to-nearest is monotone and odd, so `|fl(x+y)| =
//!   fl(|x+y|) ≤ fl(|x|+|y|)` at every add;
//! - by the same argument each step keeps `|fma(a, t, chk)| ≤
//!   fma(|a|, t_abs, M)` when `|chk| ≤ M`, from `0 ≤ 0`, and each of the
//!   final adds of the sub-chains keeps it too;
//! - a NaN `M` needs a NaN or `0·∞` product, and the same product makes
//!   `chk` NaN — unless `t_abs` overflowed to `∞` over finite weights
//!   while `t` stayed finite (sixteen bf16 weights near the top of the f32
//!   range) and meets a zero activation. That is a property of the static
//!   weights, found once when their sums are derived
//!   (`PackedWeights::b_chk_overflowed`); every row of such a layer is
//!   taken as unbounded. In the one-row chain `|a|` and `|b|` are
//!   infinite only where `a` and `b` are.
//!
//! The threshold `slope·M + floor` does not decrease as `M` grows when
//! `slope > 0`, so where the bound holds a compare that passes at
//! `|chk|` passes at `M`, and is not flagged. Only the others — faults,
//! non-finite values and a sliver of clean rows or columns whose
//! checksum cancelled — are *opened*: a wide strip with an opened row
//! takes the magnitudes of all its rows ([`simd::row_checks`] over `|a|`
//! and `t_abs`), a one-row strip those of its opened column groups
//! ([`simd::group_magnitudes`]), and the ordinary compare decides. No
//! verdict, residual or reported threshold changes. In a strip with one
//! live row the checksum chain repeats the data chain operation for
//! operation, so a clean column's residual is exactly `0.0` and only
//! faults and non-finite values open. An unbounded layer, and every
//! strip under a scheme whose threshold does not grow with the magnitude
//! (`slope <= 0`, where `0·∞` is NaN too; tests build them to make every
//! compare report), opens everything.
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
use std::marker::PhantomData;

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
/// compares the scheme flags to `scr.detections` (strip-major, then by
/// row, then by column).
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
        // SAFETY: the exact screen runs anywhere.
        unsafe { check_block::<Exact>(c.run, c.panels, c.live, c.scratch, c.detections) };
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

/// The sum of one register-tile row's [`MICRO_NR`] values, a pairwise
/// tree: lanes `j` and `j + w` added for `w` = 8, 4, 2, 1 — a fixed
/// order with short dependency chains.
#[inline(always)]
fn halve(mut lane: [f32; MICRO_NR]) -> f32 {
    let mut width = MICRO_NR;
    while width > 1 {
        width /= 2;
        for j in 0..width {
            lane[j] += lane[j + width];
        }
    }
    lane[0]
}

/// [`halve`] of the first [`MICRO_NR`] values of `row`: a row's column
/// group, as one-sided ABFT's row check sums it.
#[inline(always)]
fn group_sum(row: &[f32]) -> f32 {
    halve(std::array::from_fn(|j| row[j]))
}

/// Sum of `f` over one register tile's cells: column sums first, then
/// [`halve`] across the [`MICRO_NR`] columns.
#[inline(always)]
fn tile_sum(rows: &[&[f32]; MICRO_MR], col: usize, f: impl Fn(f32) -> f32) -> f32 {
    halve(std::array::from_fn(|j| col_sum(rows, col + j, &f)))
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
        // SAFETY: the caller's guarantees, which cover `L`.
        unsafe {
            check_block::<Screened<L>>(
                self.run,
                self.panels,
                self.live,
                self.scratch,
                self.detections,
            )
        }
    }
}

/// A block tile, its checksum lanes and the magnitudes a row screen
/// compares them at (the lanes themselves, or the opened magnitudes).
type RowLanes<'a> = (&'a [f32], &'a [f32], &'a [f32]);

/// How the epilogue finds the row checks of a wide strip that fail
/// against `magnitude` (its `|chk|`, or the opened strip's magnitudes):
/// a mask laid out as `chk`, bit `g·MR + r` for row `r < live` against
/// group `g < groups`, holding at least every compare that fails in f64.
trait RowScreen {
    /// # Safety
    /// The host supports the implementation's lanes.
    unsafe fn rows_failing(
        scheme: TileScheme,
        lanes: RowLanes<'_>,
        s: usize,
        live: usize,
        groups: usize,
    ) -> u32;
}

/// [`RowScreen`] by the compare itself, in f64: the scalar path's.
struct Exact;

/// [`RowScreen`] at the width of `L`, in f32 (see
/// [`rows_failing_screened`]): a SIMD path's. It is kept beside
/// [`Exact`] because the f64 compare, run on every row of every wide
/// strip, is most of the stem's check: one member, 150 interleaved
/// rounds, one-sided ÷ clean read 1.13 screened and 1.50 exact at
/// 12321×64×27, 1.10 and 1.17 at 256³ (AVX-512 host).
struct Screened<L>(PhantomData<L>);

impl RowScreen for Exact {
    #[inline(always)]
    unsafe fn rows_failing(
        scheme: TileScheme,
        lanes: RowLanes<'_>,
        s: usize,
        live: usize,
        groups: usize,
    ) -> u32 {
        rows_failing_exactly(scheme, lanes, s, live, groups)
    }
}

impl<L: Lanes> RowScreen for Screened<L> {
    #[inline(always)]
    unsafe fn rows_failing(
        scheme: TileScheme,
        lanes: RowLanes<'_>,
        s: usize,
        live: usize,
        groups: usize,
    ) -> u32 {
        // SAFETY: the caller's guarantee.
        unsafe { rows_failing_screened::<L>(scheme, lanes, s, live, groups) }
    }
}

/// The row checks of wide strip `s` that fail against `magnitude`, as
/// [`RowScreen`] lays them out — the compare itself, in f64.
#[inline(always)]
fn rows_failing_exactly(
    scheme: TileScheme,
    (tile, chk, magnitude): RowLanes<'_>,
    s: usize,
    live: usize,
    groups: usize,
) -> u32 {
    let mut fails = 0;
    for r in 0..live {
        let row = &tile[(s * MICRO_MR + r) * BLOCK_N..];
        for g in 0..groups {
            let at = s * BLOCK_N + g * MICRO_MR + r;
            let residual = (group_sum(&row[g * MICRO_NR..]) as f64 - chk[at] as f64).abs();
            let fail = scheme.flags(residual, magnitude[at].abs() as f64);
            fails |= u32::from(fail) << (g * MICRO_MR + r);
        }
    }
    fails
}

/// [`rows_failing_exactly`] screened at the width of `L`, in f32: each
/// vector's row sums come from [`Lanes::group_sums`] (the bits of
/// [`group_sum`]), and a lane is set where its f32 residual is over its
/// f32 threshold less `2⁻²⁰` of it and the smallest normal — at least
/// every bit the f64 compare sets; the few lanes in between are decided
/// exactly after. The caller checks the scheme's range ([`screens`]).
///
/// Why a set bit covers the f64 compare, for a finite magnitude `m`:
/// the f32 slope and floor are rounded down, so with `E = slope·m +
/// floor` the f32 threshold is at most `E·(1+2⁻²⁴)²·(1−2⁻²⁰) − 2⁻¹²⁶`
/// plus a few `2⁻¹⁵⁰`, and it cannot overflow (`slope·m ≤ f32::MAX / 2`,
/// `floor ≤ f32::MAX / 4`); a residual that passes there is, in f64,
/// at most `(1+2⁻²⁴)·(1+2⁻⁵³)` of it — below `E·(1−2⁻⁵²)`, which the f64
/// threshold is at least. An f32 residual that overflows is `∞` over a
/// finite threshold and sets its bit. An infinite `m` makes the f64
/// threshold `∞`, which only a NaN residual fails — and a NaN residual,
/// or a NaN `m`, sets the bit in f32 too.
///
/// # Safety
/// The host supports `L`.
#[inline(always)]
unsafe fn rows_failing_screened<L: Lanes>(
    scheme: TileScheme,
    (tile, chk, magnitude): RowLanes<'_>,
    s: usize,
    live: usize,
    groups: usize,
) -> u32 {
    let per = L::LANES / MICRO_MR;
    assert!(tile.len() >= (s + 1) * MICRO_MR * BLOCK_N && groups * MICRO_NR <= BLOCK_N);
    assert!(chk.len() >= (s + 1) * BLOCK_N && magnitude.len() >= (s + 1) * BLOCK_N);
    assert!(live <= MICRO_MR);
    let rows = (1u32 << live) - 1;
    let mut fails = 0;
    // SAFETY: the caller's guarantees; the asserts above keep every read
    // inside the strip's rows of the block and its lanes.
    unsafe {
        let slope = L::splat(f32_at_most(scheme.slope));
        let floor = L::splat(f32_at_most(scheme.floor));
        let (keep, less) = (L::splat(1.0 - 2f32.powi(-20)), L::splat(-f32::MIN_POSITIVE));
        for gw in (0..groups).step_by(per) {
            let at = tile.as_ptr().add(s * MICRO_MR * BLOCK_N + gw * MICRO_NR);
            let lane = s * BLOCK_N + gw * MICRO_MR;
            let chk = L::load(chk.as_ptr().add(lane), L::LANES);
            let magnitude = L::load(magnitude.as_ptr().add(lane), L::LANES).abs();
            let residual = L::sub(L::group_sums(at, BLOCK_N), chk).abs();
            let threshold = L::fma(L::fma(magnitude, slope, floor), keep, less);
            let live = (0..(groups - gw).min(per)).fold(0, |m, g| m | rows << (g * MICRO_MR));
            fails |= (L::not_le(residual, threshold) & live) << (gw * MICRO_MR);
        }
    }
    fails
}

/// Whether [`rows_failing_screened`]'s margin holds under `scheme`:
/// slope in `(0, 1/2]`, floor in `[0, f32::MAX / 4]`.
#[inline(always)]
fn screens(scheme: TileScheme) -> bool {
    scheme.slope > 0.0
        && scheme.slope <= 0.5
        && (0.0..=f32::MAX as f64 / 4.0).contains(&scheme.floor)
}

/// The largest f32 not above `v` (finite, non-negative).
#[inline(always)]
fn f32_at_most(v: f64) -> f32 {
    let r = v as f32;
    if r as f64 > v {
        r.next_down()
    } else {
        r
    }
}

/// The tile epilogue: compares every live register tile of the block
/// (`live` = live rows × column groups from `origin`) against its
/// redundant lanes. Each arm first reduces a strip (or the block) to
/// one flag with a branch-free loop the compiler vectorizes, and only
/// walks cells again — to take one-sided ABFT's opened magnitudes and
/// build [`Detection`]s — when something flagged or opened.
///
/// # Safety
/// The host supports `S`'s lanes.
#[inline(always)]
unsafe fn check_block<S: RowScreen>(
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
    // A failed compare over block rows `row..row + rows` and columns
    // `col..col + cols`.
    let mut flag = |(row, rows), (col, cols), residual: f64, threshold: f64| {
        detections.push(Detection {
            row: origin.0 + row,
            rows,
            col: origin.1 + col,
            cols,
            residual,
            threshold,
        });
    };
    match scheme.lanes {
        Redundancy::None | Redundancy::GlobalSums => {}
        Redundancy::ColumnChecksum => {
            // Where `|chk|` bounds the magnitude from below (see the module
            // docs), only a compare failing there is opened; the opened
            // strips and column groups then take their magnitudes.
            let grows = scheme.slope > 0.0;
            let one_row =
                (strips > 0 && live_rows - (strips - 1) * MICRO_MR == 1).then(|| strips - 1);
            let wide = strips - usize::from(one_row.is_some());
            // The row screen's f32 margin holds for these schemes (see
            // `rows_failing_screened`); under any other, and over weights
            // whose group sums overflowed, every row is opened.
            let screened = screens(scheme) && (wide == 0 || !run.b.b_chk_overflowed());
            let live = |s: usize| (live_rows - s * MICRO_MR).min(MICRO_MR);

            let mut opened = [0; BLOCK_M / MICRO_MR];
            let mut count = 0;
            for s in 0..wide {
                if !screened
                    || unsafe { S::rows_failing(scheme, (tile, chk, chk), s, live(s), groups) } != 0
                {
                    opened[count] = s;
                    count += 1;
                }
            }
            let fails = |rows: [&[f32]; MICRO_MR], chk: &[f32]| {
                let [r0, r1, r2, r3] = rows;
                let cells = r0.iter().zip(r1).zip(r2).zip(r3).zip(chk);
                cells.fold(false, |any, ((((a, b), c), d), &chk)| {
                    let residual = (((a + b) + (c + d)) as f64 - chk as f64).abs();
                    any | scheme.flags(residual, chk.abs() as f64)
                })
            };
            let mut open = [(0, 0); BLOCK_N / MICRO_NR];
            let mut columns = 0;
            if let Some(s) = one_row {
                let rows = strip_rows(tile, s).map(|row| &row[..cols]);
                let chk = &chk[s * BLOCK_N..][..cols];
                if !grows || fails(rows, chk) {
                    for g in 0..groups {
                        let group = g * MICRO_NR..(g + 1) * MICRO_NR;
                        if !grows || fails(rows.map(|row| &row[group.clone()]), &chk[group]) {
                            open[columns] = (s, g);
                            columns += 1;
                        }
                    }
                }
            }
            let (opened, open) = (&opened[..count], &open[..columns]);
            if !opened.is_empty() {
                let g0 = origin.1 / MICRO_NR;
                simd::row_checks(
                    run.path, panels, run.b, 0, opened, g0, groups, BLOCK_N, true, mag,
                );
            }
            if !open.is_empty() {
                simd::group_magnitudes(run.path, panels, run.b, origin.1, BLOCK_N, open, mag);
            }
            let mag = &**mag;
            for &s in opened {
                // Only the compares the screen at the magnitudes lets
                // through are taken in f64: the rest pass there.
                let candidates = match screened {
                    true => unsafe {
                        S::rows_failing(scheme, (tile, chk, mag), s, live(s), groups)
                    },
                    false => u32::MAX,
                };
                for r in 0..live(s) {
                    let row = &tile[(s * MICRO_MR + r) * BLOCK_N..];
                    for g in 0..groups {
                        let at = s * BLOCK_N + g * MICRO_MR + r;
                        if candidates >> (g * MICRO_MR + r) & 1 == 0 {
                            continue;
                        }
                        let sum = group_sum(&row[g * MICRO_NR..]);
                        let residual = (sum as f64 - chk[at] as f64).abs();
                        let mag = mag[at] as f64;
                        if scheme.flags(residual, mag) {
                            let (row, col) = (s * MICRO_MR + r, g * MICRO_NR);
                            flag((row, 1), (col, MICRO_NR), residual, scheme.threshold(mag));
                        }
                    }
                }
            }
            for &(s, g) in open {
                let rows = strip_rows(tile, s);
                for j in g * MICRO_NR..(g + 1) * MICRO_NR {
                    let residual =
                        (col_sum(&rows, j, |v| v) as f64 - chk[s * BLOCK_N + j] as f64).abs();
                    let mag = mag[s * BLOCK_N + j] as f64;
                    if scheme.flags(residual, mag) {
                        let threshold = scheme.threshold(mag);
                        flag((s * MICRO_MR, MICRO_MR), (j, 1), residual, threshold);
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
                        let threshold = scheme.threshold(magnitude);
                        let strip = (s * MICRO_MR, MICRO_MR);
                        flag(strip, (g * MICRO_NR, MICRO_NR), residual, threshold);
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
                            flag((s * MICRO_MR, MICRO_MR), (j, 1), residual, 0.0);
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
                            let threshold = scheme.threshold(magnitude);
                            let strip = (s * MICRO_MR, MICRO_MR);
                            flag(strip, (col, MICRO_NR), residual, threshold);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`rows_failing_screened`] of strip 0's four rows, on `L`.
    struct Screen<'a> {
        scheme: TileScheme,
        lanes: RowLanes<'a>,
        groups: usize,
    }

    impl Kernel for Screen<'_> {
        type Out = u32;

        unsafe fn run<L: Lanes>(self) -> u32 {
            // SAFETY: the caller's guarantees.
            unsafe { rows_failing_screened::<L>(self.scheme, self.lanes, 0, MICRO_MR, self.groups) }
        }
    }

    #[test]
    fn row_screen_sets_every_bit_the_exact_compare_does() {
        // The margin at its edges, on every SIMD path: slopes and floors
        // at the ends of the screened range and below f32's normals,
        // magnitudes and sums up to `f32::MAX` (the screen's residual
        // overflows where the f64 one does not), specials, and residuals
        // a few ulps either side of the f64 threshold.
        let groups = BLOCK_N / MICRO_NR;
        let mut rng = aiga_util::Rng64::seed_from_u64(48);
        let value = |rng: &mut aiga_util::Rng64| -> f32 {
            let sign = [1.0, -1.0][rng.range_usize(0, 2)];
            let v = match rng.range_usize(0, 10) {
                0 => [0.0, f32::MAX, f32::INFINITY, f32::NAN, 1e-45][rng.range_usize(0, 5)],
                1 => rng.range_f32(1.0, 2.0) * 2f32.powi(rng.range_usize(0, 254) as i32 - 126),
                _ => rng.range_f32(0.0, 4.0),
            };
            sign * v
        };
        // Compares the screen sets beyond the exact ones, and those that
        // pass exactly, summed over the paths.
        let (mut extra, mut passes) = (0u32, 0u32);
        for slope in [1e-50, 1e-40, 1e-7 + 1e-16, 2f64.powi(-20), 0.3, 0.5] {
            for floor in [0.0, 1e-45, 1e-39, 1.0, 3.3, f32::MAX as f64 / 4.0] {
                let scheme = TileScheme {
                    lanes: Redundancy::ColumnChecksum,
                    slope,
                    floor,
                };
                assert!(screens(scheme));
                for _ in 0..60 {
                    let mut tile = vec![0.0f32; MICRO_MR * BLOCK_N];
                    let (mut chk, mut mag) = (vec![0.0f32; BLOCK_N], vec![0.0f32; BLOCK_N]);
                    for r in 0..MICRO_MR {
                        for g in 0..groups {
                            let row = &mut tile[r * BLOCK_N + g * MICRO_NR..][..MICRO_NR];
                            for (j, v) in row.iter_mut().enumerate() {
                                *v = if j == 0 || rng.gen_bool(0.3) {
                                    value(&mut rng)
                                } else {
                                    0.0
                                };
                            }
                            let sum = group_sum(row);
                            let m = value(&mut rng).abs();
                            let at = g * MICRO_MR + r;
                            mag[at] = m;
                            chk[at] = match rng.range_usize(0, 4) {
                                0 => value(&mut rng),
                                k => {
                                    let t = scheme.threshold(m as f64);
                                    let mut c = (sum as f64 + [-t, t][k % 2]) as f32;
                                    for _ in 0..rng.range_usize(0, 4) {
                                        c = [c.next_up(), c.next_down()][rng.range_usize(0, 2)];
                                    }
                                    c
                                }
                            };
                        }
                    }
                    let lanes = (&tile[..], &chk[..], &mag[..]);
                    let exact = rows_failing_exactly(scheme, lanes, 0, MICRO_MR, groups);
                    for &path in simd::supported_paths() {
                        let screen = Screen {
                            scheme,
                            lanes,
                            groups,
                        };
                        // SAFETY: the host runs `path`.
                        let Ok(screened) = (unsafe { on_path(path, screen) }) else {
                            continue;
                        };
                        assert_eq!(exact & !screened, 0, "{path:?} {slope} {floor}");
                        extra += (screened & !exact).count_ones();
                        passes += (!exact & 0xffff).count_ones();
                    }
                }
            }
        }
        // Not every bit is set: the screen passes compares itself, even
        // among these residuals, half of them aimed within a few ulps of
        // the threshold, inside the screen's margin.
        assert!(extra < passes * 3 / 4, "{extra} of {passes}");
    }

    #[test]
    fn row_screen_leaves_schemes_it_cannot_bound_to_the_exact_compare() {
        // At slope 0.9 a magnitude near `f32::MAX` overflows the f32
        // threshold to `∞`, which an overflowed residual would pass.
        let scheme = |slope, floor| TileScheme {
            lanes: Redundancy::ColumnChecksum,
            slope,
            floor,
        };
        assert!(screens(scheme(0.5, f32::MAX as f64 / 4.0)));
        for (slope, floor) in [
            (0.9, 0.0),
            (0.0, 1.0),
            (-1.0, 1.0),
            (0.5, f32::MAX as f64),
            (0.1, -1.0),
        ] {
            assert!(!screens(scheme(slope, floor)), "{slope} {floor}");
        }
        assert!(!screens(scheme(f64::NAN, 0.0)) && !screens(scheme(0.1, f64::NAN)));
        assert_eq!(f32_at_most(0.1), 0.1f32.next_down());
        assert_eq!(f32_at_most(0.5), 0.5);
        assert_eq!(f32_at_most(1e-50), 0.0);
    }
}
