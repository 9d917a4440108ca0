//! The functional GEMM engine: `C = A · B` over FP16-class operands with
//! FP32 accumulation, executed the way a host GEMM library does it and
//! protected the way the paper's thread-level schemes are.
//!
//! The output is walked in [`BLOCK_M`]`×`[`BLOCK_N`] cache blocks (the
//! unit of work fan-out); each block is computed in
//! [`MICRO_MR`]`×`[`MICRO_NR`] register tiles by the microkernel. That
//! register tile is the host's "thread" in the sense of §5: the place
//! where operands sit in registers, so the place where redundant work
//! is free of extra memory traffic. A thread-level scheme is therefore
//! a [`TileScheme`]: extra accumulators the microkernel carries through
//! the same K loop, plus an epilogue compare over the tile it just
//! produced.
//!
//! # Module map
//!
//! - [`matrix`] — the row-major FP16 [`Matrix`], the borrowed
//!   [`MatrixView`] operand (row-major or a zero-copy conv lowering),
//!   and the FP64 reference GEMM;
//! - [`scheme`] — [`TileScheme`]/[`Redundancy`]: which lanes a scheme
//!   carries and the threshold its tile check compares against;
//! - [`fault_inject`] — the §2.3 fault model ([`FaultPlan`],
//!   [`FaultKind`]) and tile-addressed [`Detection`] provenance;
//! - [`panels`] — the operand forms: [`PackedWeights`] (B, resident as
//!   the format's codes at storage width, packed once when a layer is
//!   bound and shared by every run), the per-run A
//!   staging (decoded + strip-packed rows, checksum rows), and the
//!   reusable [`Workspace`] that owns all per-run scratch (A panels,
//!   per-worker block tile and lanes, output, checksum scratch);
//! - [`simd`] — the register-tiled microkernel (one multi-row and one
//!   one-row tile body, generic over the vector width — ymm on AVX2,
//!   zmm on AVX-512 — the format's B widening and the checksum lanes),
//!   the scalar oracle, the canonical accumulation-order contract, and
//!   the runtime dispatch between them ([`GemmPath`],
//!   `AIGA_FORCE_SCALAR`);
//! - `walk` (private) — block execution over the live extent:
//!   microkernel fill, targeted fault injection, tile epilogue;
//! - this module — [`gemm_into`] itself: the execution entry point,
//!   the host constants it blocks by, and output assembly.
//!
//! # Execution contract
//!
//! A GEMM is a function of its operands. [`gemm_into`] is the execution
//! entry: the caller supplies the weights already packed
//! ([`PackedWeights`]) and a [`Workspace`]; the engine stages the
//! request's rows, executes, and leaves the [`GemmOutput`] inside the
//! workspace — zero heap allocations once it is warm, and nothing per
//! request that scales with the layer rather than with the request.
//! Large multi-stripe problems fan out across block-row stripes onto
//! scoped worker threads, each driving private [`Workspace`] stripe
//! scratch; small problems (the serving common case, where concurrency
//! comes from many requests each holding a warm workspace) stay
//! sequential and allocation-free. [`gemm`] is the allocating
//! convenience: it packs a plain [`Matrix`] of weights and makes the
//! same call on a throwaway workspace, returning the owned output. Both
//! regimes produce byte-identical results;
//! `crates/core/tests/engine_golden.rs` pins them to the canonical
//! accumulation order's bytes on every [`GemmPath`].

pub mod fault_inject;
pub mod matrix;
pub mod panels;
pub mod scheme;
pub mod simd;
mod walk;

pub use aiga_dtype::Dtype;
pub use fault_inject::{Detection, FaultKind, FaultPlan};
pub use matrix::{gemm_reference_f64, Im2colView, Matrix, MatrixLayout, MatrixView};
pub use panels::{CheckScratch, PackedWeights, Workspace};
pub use scheme::{Redundancy, TileScheme};
pub use simd::GemmPath;

/// Register-tile rows: a block is computed in `MICRO_MR × MICRO_NR`
/// register-tile units (4 broadcast rows of A against 16 columns of B —
/// on AVX2 one tile of 8 independent ymm FMA chains, enough to hide the
/// FMA latency on two issue ports; the AVX-512 path computes up to four
/// units in one 8×32 zmm tile). The unit is what thread-level
/// redundancy schemes check and what detections name, whatever tile a
/// path computes it in.
pub const MICRO_MR: usize = 4;
/// Register-tile columns, and the width of one packed B panel: a column
/// group's K step is 16 contiguous codes (one zmm of f32 once widened,
/// or two ymm).
pub const MICRO_NR: usize = 16;

/// Cache-block rows: one block's accumulator tile (`BLOCK_M × BLOCK_N`
/// f32, 16 KiB) stays in L1 beside the operand strips that fill it, and
/// a block-row stripe is the unit the parallel regime hands a worker.
/// A host constant — measured on the benchmark's four workloads against
/// 32×32 — not a function of the shape or of any device model.
pub const BLOCK_M: usize = 64;
/// Cache-block columns.
pub const BLOCK_N: usize = 64;

// A block is a whole number of register tiles, so the walk and the
// lane layouts never handle a partial tile.
const _: () = assert!(BLOCK_M.is_multiple_of(MICRO_MR) && BLOCK_N.is_multiple_of(MICRO_NR));

/// Minimum live FLOP count (`2·m·n·k` over whole register tiles) before
/// [`gemm_into`] fans block-row stripes out across worker threads.
/// Below this, spawn overhead dwarfs the win and the sequential regime
/// keeps its zero-allocation guarantee; 2·256³ (a 256³ GEMM) sits
/// exactly at the threshold.
pub const BLOCK_PAR_MIN_FLOPS: u128 = 32 * 1024 * 1024;

/// Test seam: forces the stripe-parallel worker count (0 = off) so the
/// block-parallel arm can be exercised on single-core runners, where
/// `effective_workers` would otherwise always serialize. Only consulted
/// when a problem already qualifies for the parallel regime.
#[cfg(test)]
static FORCE_WORKERS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Host work of one engine run, in the scalar FMAs it executed.
/// `checksum_fmas / data_fmas` is the redundant share a scheme added to
/// the K loop: on full strips 0.25 for one-sided ABFT, 1/64 two-sided,
/// 1.0 replication; a strip with one live row runs a one-row register
/// tile (`MICRO_NR` data FMAs per K step, not `MICRO_MR·MICRO_NR`), so
/// there one-sided's share is 1.0 and two-sided's 1/16. Magnitude lanes
/// are not counted (see [`Redundancy::checksum_fmas_per_step`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// `MICRO_MR × MICRO_NR` register-tile units executed, whatever
    /// shape of tile the path computed them in (a zmm tile is two or
    /// four units, the one-row tile one per column group): the live
    /// ones, covering a row of the request or a column of the weights
    /// (grid padding is not walked).
    pub tiles: u64,
    /// FMAs into data accumulators: per tile and K step
    /// `MICRO_MR·MICRO_NR`, or `MICRO_NR` in a one-live-row strip.
    pub data_fmas: u64,
    /// FMAs into checksum lanes or the shadow tile.
    pub checksum_fmas: u64,
}

/// Output of one engine run.
#[derive(Clone, Debug, Default)]
pub struct GemmOutput {
    /// Row-major FP32 pre-activation output, `m × n` (unpadded).
    pub c: Vec<f32>,
    /// Output rows.
    pub m: usize,
    /// Output columns.
    pub n: usize,
    /// Register tiles (or tile columns) that flagged a fault.
    pub detections: Vec<Detection>,
    /// Execution statistics.
    pub counters: EngineCounters,
}

impl GemmOutput {
    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.c[r * self.n + c]
    }

    /// True if any tile check flagged a fault.
    pub fn fault_detected(&self) -> bool {
        !self.detections.is_empty()
    }

    /// Re-arms this output for a fresh `m × n` run, reusing its buffers.
    fn reset(&mut self, m: usize, n: usize) {
        self.m = m;
        self.n = n;
        self.c.clear();
        self.c.resize(m * n, 0.0);
        self.detections.clear();
        self.counters = EngineCounters::default();
    }
}

/// Allocating convenience over [`gemm_into`]: packs `b` (`k × n`) for
/// `scheme`, multiplies `a` (`m × k`) by it, injecting `faults`, in a
/// throwaway workspace, and returns the unpadded `m × n` output.
pub fn gemm<'a>(
    a: impl Into<MatrixView<'a>>,
    b: &Matrix,
    scheme: TileScheme,
    faults: &[FaultPlan],
) -> GemmOutput {
    let mut ws = Workspace::new();
    let b = PackedWeights::pack(b, scheme.lanes);
    gemm_into(a, &b, scheme, faults, &mut ws);
    ws.take_output()
}

/// The workspace-threaded execution entry: multiplies `a` by the
/// packed weights `b` entirely inside `ws`, leaving the result in
/// [`Workspace::output`] (also returned by reference). The inner
/// dimension walked is `b`'s padded K. After one warm-up run at a given
/// shape, subsequent runs perform **zero heap allocations** — the A
/// panels, block scratch, and the output buffer are all resized in
/// place — and per-run staging, compute and checks cover only the live
/// extent: the register tiles holding a row of `a` or a column of `b`.
///
/// Small problems execute their blocks sequentially on the calling
/// thread: the intended serving concurrency regime is many concurrent
/// requests each holding a warm workspace (the `Session` checkout
/// pool), not intra-GEMM fan-out per call, and the sequential regime is
/// the one the allocation tests pin at zero. Problems spanning several
/// block-row stripes with at least [`BLOCK_PAR_MIN_FLOPS`] of work fan
/// the stripes out across scoped worker threads, each executing from
/// private stripe scratch in `ws` (output rows are disjoint per stripe,
/// so workers share only the read-only operands); the stripe pool
/// ratchets like every other workspace buffer, though thread spawning
/// itself is not allocation-free. Results are byte-identical in either
/// regime, detections in the same block-major order. Any number of
/// simultaneous `faults` may be injected (the multi-checksum extension
/// of §2.4 needs more than one); one aimed outside the `m × n` output
/// has no accumulator to strike and is a no-op. Empty dimensions are
/// well-defined: no rows or no columns give an `m × 0` / `0 × n` output,
/// an empty inner dimension an `m × n` output of zeros, and none of
/// them a detection.
pub fn gemm_into<'w, 'a>(
    a: impl Into<MatrixView<'a>>,
    b: &PackedWeights,
    scheme: TileScheme,
    faults: &[FaultPlan],
    ws: &'w mut Workspace,
) -> &'w GemmOutput {
    let a = a.into();
    assert_eq!(a.cols, b.rows(), "inner dimensions must agree");
    assert_eq!(a.dtype, b.dtype(), "GEMM operands must share one dtype");
    assert!(
        scheme.lanes != Redundancy::TileChecksum || b.has_tile_checksums(),
        "two-sided ABFT needs weights packed with their checksum columns"
    );
    let k = b.k();
    let (out_m, out_n) = (a.rows, b.cols());
    ws.out.reset(out_m, out_n);
    if k == 0 || out_n == 0 {
        // No inner dimension: every cell is the empty sum, and no chain
        // ran that a check could compare. No columns: no cells.
        return &ws.out;
    }
    ws.stage_activations(a, scheme.lanes, k);
    // Blocks are whole strips, so only the request's last strip can be
    // ragged; one live row there runs the one-row register tile.
    let (strips, groups) = (out_m.div_ceil(MICRO_MR), out_n.div_ceil(MICRO_NR));
    let one_row_strips = usize::from(out_m % MICRO_MR == 1);
    let steps = |strips: usize, tile_rows: usize| {
        let steps = (strips * groups * k) as u64;
        (
            steps * (tile_rows * MICRO_NR) as u64,
            steps * scheme.lanes.checksum_fmas_per_step(tile_rows),
        )
    };
    let (full, one_row) = (
        steps(strips - one_row_strips, MICRO_MR),
        steps(one_row_strips, 1),
    );
    ws.out.counters = EngineCounters {
        tiles: (strips * groups) as u64,
        data_fmas: full.0 + one_row.0,
        checksum_fmas: full.1 + one_row.1,
    };

    let stripes = out_m.div_ceil(BLOCK_M);
    let flops = 2 * ws.out.counters.data_fmas as u128;
    let workers = if stripes >= 2 && flops >= BLOCK_PAR_MIN_FLOPS {
        aiga_util::effective_workers(stripes)
    } else {
        1
    };
    #[cfg(test)]
    let workers = match FORCE_WORKERS.load(std::sync::atomic::Ordering::Relaxed) {
        0 => workers,
        f if stripes >= 2 && flops >= BLOCK_PAR_MIN_FLOPS => f.min(stripes),
        _ => workers,
    };

    ws.ensure_stripe_pool(workers, scheme.lanes);
    let run = &walk::Run {
        path: simd::active_path(),
        a: &ws.panels,
        b,
        scheme,
        faults,
        out_m,
        out_n,
    };
    if workers == 1 {
        run_stripes(run, 0..stripes, &mut ws.stripe_pool[0], 0, &mut ws.out.c);
    } else {
        // Block-parallel regime: contiguous block-row stripe ranges
        // per worker. Stripe s owns output rows [s·BLOCK_M,
        // (s+1)·BLOCK_M), so each worker scatters into a disjoint
        // row slice of the output carved off with split_at_mut.
        let per = stripes.div_ceil(workers);
        std::thread::scope(|scope| {
            let mut rest: &mut [f32] = &mut ws.out.c;
            let mut row_base = 0usize;
            for (w, scr) in ws.stripe_pool[..workers].iter_mut().enumerate() {
                let s0 = w * per;
                let s1 = ((w + 1) * per).min(stripes);
                if s0 >= s1 {
                    break;
                }
                let rows = (s1 * BLOCK_M).min(out_m) - row_base;
                let (mine, rem) = std::mem::take(&mut rest).split_at_mut(rows * out_n);
                rest = rem;
                let base = row_base;
                row_base += rows;
                // Workers obey the no-nested-fan-out discipline of
                // `par_map` (a scheme or campaign above us may
                // already be parallel).
                scope.spawn(move || {
                    aiga_util::as_worker(|| run_stripes(run, s0..s1, scr, base, mine))
                });
            }
        });
    }
    // Merge in worker (= stripe) order, so detections come out in
    // the same block-major order whatever the worker count.
    for scr in &mut ws.stripe_pool[..workers] {
        ws.out.detections.append(&mut scr.detections);
    }
    &ws.out
}

/// The stripe walk, shared by both regimes: executes every block of the
/// block-row stripes `stripes` from the worker's private `scr` and
/// scatters the tiles into `c`, which holds the output rows from
/// `row_base` on (the whole output for a lone worker, one worker's
/// disjoint row slice in a block-parallel run).
fn run_stripes(
    run: &walk::Run<'_>,
    stripes: std::ops::Range<usize>,
    scr: &mut panels::StripeScratch,
    row_base: usize,
    c: &mut [f32],
) {
    for br in stripes {
        for bc in 0..run.out_n.div_ceil(BLOCK_N) {
            walk::run_block(run, br, bc, &mut scr.block, &mut scr.detections);
            scatter_tile(&scr.block.tile, run, br, bc, row_base, c);
        }
    }
}

/// Copies one block tile's live cells into `c`, which holds the output
/// rows from `row_base` on.
fn scatter_tile(
    tile: &[f32],
    run: &walk::Run<'_>,
    br: usize,
    bc: usize,
    row_base: usize,
    c: &mut [f32],
) {
    let (row0, col0) = (br * BLOCK_M, bc * BLOCK_N);
    debug_assert!(row0 >= row_base, "tile precedes the caller's row slice");
    let cols = BLOCK_N.min(run.out_n - col0);
    for (lr, gr) in (row0..run.out_m.min(row0 + BLOCK_M)).enumerate() {
        let at = (gr - row_base) * run.out_n + col0;
        c[at..at + cols].copy_from_slice(&tile[lr * BLOCK_N..][..cols]);
    }
}

#[cfg(test)]
mod tests;
