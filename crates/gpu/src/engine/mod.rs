//! The functional GEMM engine: `C = A · B` over FP16-class operands with
//! FP32 accumulation, executed the way a host GEMM library does it and
//! protected the way the paper's thread-level schemes are.
//!
//! The grid is split into threadblock tiles (the unit of work fan-out
//! and of `Detection::block`); each block tile is computed in
//! [`tiling::MICRO_MR`]`×`[`tiling::MICRO_NR`] register tiles by the
//! microkernel. That register tile is the host's "thread" in the sense
//! of §5: the place where operands sit in registers, so the place where
//! redundant work is free of extra memory traffic. A thread-level
//! scheme is therefore a [`TileScheme`]: extra accumulators the
//! microkernel carries through the same K loop, plus an epilogue
//! compare over the tile it just produced.
//!
//! [`tiling::MICRO_MR`]: crate::tiling::MICRO_MR
//! [`tiling::MICRO_NR`]: crate::tiling::MICRO_NR
//!
//! # Module map
//!
//! - [`matrix`] — the row-major FP16 [`Matrix`], the borrowed
//!   [`MatrixView`] operand (row-major or a zero-copy conv lowering),
//!   the `*_into` staging primitives and the FP64 reference GEMM;
//! - [`scheme`] — [`TileScheme`]/[`Redundancy`]: which lanes a scheme
//!   carries and the threshold its tile check compares against;
//! - [`fault_inject`] — the §2.3 fault model ([`FaultPlan`],
//!   [`FaultKind`]) and tile-addressed [`Detection`] provenance;
//! - [`panels`] — the operand forms: [`PackedWeights`] (B, packed once
//!   when a layer is bound and shared by every run), the per-run A
//!   staging (decoded + strip-packed rows, checksum rows), and the
//!   reusable [`Workspace`] that owns all per-run scratch (A panels,
//!   per-worker block tile and lanes, output, activation staging,
//!   checksum scratch);
//! - [`simd`] — the register-tiled AVX2+FMA microkernel with its
//!   checksum-lane variants, the scalar oracle, the canonical
//!   accumulation-order contract, and the runtime dispatch between them
//!   ([`GemmPath`], `AIGA_FORCE_SCALAR`);
//! - `walk` (private) — block execution over the live extent:
//!   microkernel fill, targeted fault injection, tile epilogue;
//! - this module — [`GemmEngine`] itself: the execution entry point
//!   and output assembly.
//!
//! # Execution contract
//!
//! [`GemmEngine::run_multi_into`] is the execution entry: the caller
//! supplies the weights already packed ([`PackedWeights`]) and a
//! [`Workspace`]; the engine stages the request's rows, executes, and
//! leaves the [`GemmOutput`] inside the workspace — zero heap
//! allocations once it is warm, and nothing per request that scales
//! with the layer rather than with the request. Large multi-stripe
//! problems fan out across block-row stripes onto scoped worker
//! threads, each driving private [`Workspace`] stripe scratch; small
//! problems (the serving common case, where concurrency comes from many
//! requests each holding a warm workspace) stay sequential and
//! allocation-free. [`GemmEngine::run`] is the allocating convenience:
//! it packs a plain [`Matrix`] of weights and makes the same call on a
//! throwaway workspace, returning the owned output. Both regimes
//! produce byte-identical results; `crates/core/tests/engine_golden.rs`
//! pins them to the canonical accumulation order's bytes on both
//! [`GemmPath`]s.

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

use crate::shape::GemmShape;
use crate::tiling::{TilingConfig, MICRO_MR, MICRO_NR};

/// Minimum live FLOP count (`2·m·n·k` over whole register tiles) before
/// [`GemmEngine::run_multi_into`] fans block-row stripes out across
/// worker threads. Below this, spawn overhead dwarfs the win and the
/// sequential regime keeps its zero-allocation guarantee; 2·256³ (a
/// 256³ GEMM) sits exactly at the threshold.
pub const BLOCK_PAR_MIN_FLOPS: u128 = 32 * 1024 * 1024;

/// Test seam: forces the stripe-parallel worker count (0 = off) so the
/// block-parallel arm can be exercised on single-core runners, where
/// `effective_workers` would otherwise always serialize. Only consulted
/// when a problem already qualifies for the parallel regime.
#[cfg(test)]
static FORCE_WORKERS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Host work of one engine run, in scalar FMAs. `checksum_fmas /
/// data_fmas` is the redundant share a scheme added to the K loop
/// (0.25 for one-sided ABFT, 1/64 two-sided, 1.0 replication);
/// magnitude lanes are not counted (see
/// [`Redundancy::checksum_fmas_per_step`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Register tiles executed: the live ones, covering a row of the
    /// request or a column of the weights (grid padding is not walked).
    pub tiles: u64,
    /// FMAs into data accumulators.
    pub data_fmas: u64,
    /// FMAs into checksum lanes or the shadow tile.
    pub checksum_fmas: u64,
}

/// Output of one simulated GEMM kernel.
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

/// The functional GEMM engine for one problem shape and tiling.
#[derive(Clone, Debug)]
pub struct GemmEngine {
    shape: GemmShape,
    tiling: TilingConfig,
}

impl GemmEngine {
    /// Creates an engine with an explicit tiling.
    pub fn new(shape: GemmShape, tiling: TilingConfig) -> Self {
        tiling.validate();
        GemmEngine {
            shape: shape.padded_to_mma(),
            tiling,
        }
    }

    /// Creates an engine with the default tiling for the shape on a T4.
    pub fn with_default_tiling(shape: GemmShape) -> Self {
        let tiling = TilingConfig::select(shape, &crate::device::DeviceSpec::t4());
        Self::new(shape, tiling)
    }

    /// The padded shape this engine was built for: its K is the inner
    /// dimension every run walks, and its M and N picked the tiling (a
    /// run's grid follows the operands it is handed).
    pub fn shape(&self) -> GemmShape {
        self.shape
    }

    /// The tiling in use.
    pub fn tiling(&self) -> TilingConfig {
        self.tiling
    }

    /// Allocating convenience over [`Self::run_multi_into`]: packs `b`
    /// (`k × n`) for `scheme`, multiplies `a` (`m × k`) by it, injecting
    /// `faults`, in a throwaway workspace, and returns the unpadded
    /// `m × n` output.
    pub fn run<'a>(
        &self,
        a: impl Into<MatrixView<'a>>,
        b: &Matrix,
        scheme: TileScheme,
        faults: &[FaultPlan],
    ) -> GemmOutput {
        let mut ws = Workspace::new();
        let b = PackedWeights::pack(b, scheme.lanes);
        self.run_multi_into(a, &b, scheme, faults, &mut ws);
        ws.take_output()
    }

    /// The workspace-threaded execution entry: multiplies `a` by the
    /// packed weights `b` entirely inside `ws`, leaving the result in
    /// [`Workspace::output`] (also returned by reference). After one
    /// warm-up run at a given shape, subsequent runs perform **zero
    /// heap allocations** — the A panels, block scratch, and the output
    /// buffer are all resized in place — and per-run staging, compute
    /// and checks cover only the live extent: the register tiles holding
    /// a row of `a` or a column of `b`.
    ///
    /// Small problems execute their blocks sequentially on the calling
    /// thread: the intended serving concurrency regime is many
    /// concurrent requests each holding a warm workspace (the `Session`
    /// checkout pool), not intra-GEMM fan-out per call, and the
    /// sequential regime is the one the allocation tests pin at zero.
    /// Problems spanning several block-row stripes with at least
    /// [`BLOCK_PAR_MIN_FLOPS`] of work fan the stripes out across scoped
    /// worker threads, each executing from private stripe scratch in
    /// `ws` (output rows are disjoint per stripe, so workers share only
    /// the read-only operands); the stripe pool ratchets like every
    /// other workspace buffer, though thread spawning itself is not
    /// allocation-free. Results are byte-identical in either regime,
    /// detections in the same block-major order. Any number of
    /// simultaneous `faults` may be injected (the multi-checksum
    /// extension of §2.4 needs more than one); one aimed outside the
    /// `m × n` output has no accumulator to strike and is a no-op.
    pub fn run_multi_into<'w, 'a>(
        &self,
        a: impl Into<MatrixView<'a>>,
        b: &PackedWeights,
        scheme: TileScheme,
        faults: &[FaultPlan],
        ws: &'w mut Workspace,
    ) -> &'w GemmOutput {
        let a = a.into();
        assert_eq!(a.cols, b.rows(), "inner dimensions must agree");
        assert_eq!(a.dtype, b.dtype(), "GEMM operands must share one dtype");
        let k = self.shape.k as usize;
        assert_eq!(b.k(), k, "weights packed for another K");
        assert!(
            scheme.lanes != Redundancy::TileChecksum || b.has_tile_checksums(),
            "two-sided ABFT needs weights packed with their checksum columns"
        );
        let (out_m, out_n) = (a.rows, b.cols());
        let bm = self.tiling.block_m as usize;
        let path = simd::active_path();
        ws.stage_activations(a, scheme.lanes, k);
        ws.out.reset(out_m, out_n);
        let tiles = (out_m.div_ceil(MICRO_MR) * out_n.div_ceil(MICRO_NR)) as u64;
        let steps = tiles * k as u64;
        ws.out.counters = EngineCounters {
            tiles,
            data_fmas: steps * (MICRO_MR * MICRO_NR) as u64,
            checksum_fmas: steps * scheme.lanes.checksum_fmas_per_step(),
        };

        let stripes = out_m.div_ceil(bm);
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

        ws.ensure_stripe_pool(workers, &self.tiling, scheme.lanes);
        let run = &walk::Run {
            tiling: &self.tiling,
            path,
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
            // per worker. Stripe s owns output rows [s·block_m,
            // (s+1)·block_m), so each worker scatters into a disjoint
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
                    let rows = (s1 * bm).min(out_m) - row_base;
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
    let gn = run.out_n.div_ceil(run.tiling.block_n as usize) as u64;
    for br in stripes {
        for bc in 0..gn {
            walk::run_block(run, br as u64, bc, &mut scr.block, &mut scr.detections);
            scatter_tile(&scr.block.tile, run, br as u64, bc, row_base, c);
        }
    }
}

/// Copies one block tile's live cells into `c`, which holds the output
/// rows from `row_base` on.
fn scatter_tile(
    tile: &[f32],
    run: &walk::Run<'_>,
    br: u64,
    bc: u64,
    row_base: usize,
    c: &mut [f32],
) {
    let (tiling, out_m, out_n) = (run.tiling, run.out_m, run.out_n);
    let bm = tiling.block_m as usize;
    let bn = tiling.block_n as usize;
    let row0 = br as usize * bm;
    let col0 = bc as usize * bn;
    debug_assert!(row0 >= row_base, "tile precedes the caller's row slice");
    for lr in 0..bm {
        let gr = row0 + lr;
        if gr >= out_m {
            break;
        }
        let cols = bn.min(out_n.saturating_sub(col0));
        if cols == 0 {
            break;
        }
        let lrow = (gr - row_base) * out_n;
        c[lrow + col0..lrow + col0 + cols].copy_from_slice(&tile[lr * bn..lr * bn + cols]);
    }
}

#[cfg(test)]
mod tests;
