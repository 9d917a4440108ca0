//! Operand staging and the reusable [`Workspace`].
//!
//! [`Panels`] holds the per-run operand form the engine executes from:
//! pre-decoded f32 panels (B transposed so one output column's K-walk
//! streams linearly), their microkernel pack layouts, and — only when
//! the run's scheme carries checksum lanes — the per-strip A column
//! sums and per-tile B row sums those lanes multiply.
//!
//! [`Workspace`] owns *all* per-run scratch — panels, the per-block
//! accumulator tile and its checksum lanes, the output buffer, and
//! staging space the layers above lend out (pipeline activations,
//! scheme-check scratch). Callers that hold a workspace across runs get
//! a steady state in which the whole execution path performs **zero
//! heap allocations**: every buffer is resized in place and capacities
//! only ratchet up to the high-water mark of the shapes served.

use super::fault_inject::Detection;
use super::matrix::{Matrix, MatrixView};
use super::scheme::Redundancy;
use super::{simd, GemmOutput};
use crate::tiling::{TilingConfig, MICRO_MR};

/// Operand panels staged once per engine run.
#[derive(Clone, Debug, Default)]
pub(crate) struct Panels {
    /// Padded A decoded to f32, `cov_m × k` row-major.
    pub(crate) a_f32: Vec<f32>,
    /// Padded B decoded to f32 and transposed, `cov_n × k` row-major
    /// (one output column's K-walk is contiguous).
    pub(crate) b_f32_t: Vec<f32>,
    /// A re-packed into `MICRO_MR`-row strips for the SIMD microkernel
    /// (see [`simd::pack_a`]); empty when the scalar path is active.
    pub(crate) a_pack: Vec<f32>,
    /// B re-packed into `MICRO_PANEL`-wide K-major panels
    /// (see [`simd::pack_b`]); empty when the scalar path is active.
    pub(crate) b_pack: Vec<f32>,
    /// Per-strip A checksum rows (see [`simd::stage_a_chk`]): strip `s`,
    /// step `kk` holds `(Σ_i a[i][kk], Σ_i |a[i][kk]|)` at
    /// `(s·k + kk)·2`. Staged only for the two ABFT lane kinds.
    pub(crate) a_chk: Vec<f32>,
    /// Per-tile-column-group B checksum columns (see
    /// [`simd::stage_b_chk`]): group `g` (columns `g·NR..g·NR+NR`), step
    /// `kk` holds `(Σ_j b[kk][j], Σ_j |b[kk][j]|)` at `(g·k + kk)·2`.
    /// Staged only for [`Redundancy::TileChecksum`].
    pub(crate) b_chk: Vec<f32>,
    /// Shared inner dimension (the engine's padded K).
    pub(crate) k: usize,
}

impl Panels {
    /// Stages `a`/`b` for one run, reusing this instance's buffers.
    /// Decoding to f32 is exact for every storage format, so every
    /// downstream product and accumulation is bit-identical to decoding
    /// inside the K-loop. `pack` additionally stages the microkernel
    /// pack layouts (skipped on the scalar path, which reads the decoded
    /// panels directly); `lanes` selects which checksum rows to stage.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn stage(
        &mut self,
        a: MatrixView<'_>,
        b: &Matrix,
        lanes: Redundancy,
        pack: bool,
        cov_m: usize,
        cov_n: usize,
        k: usize,
    ) {
        assert_eq!(a.dtype, b.dtype, "GEMM operands must share one dtype");
        a.decode_padded_into(cov_m, k, &mut self.a_f32);
        b.decode_padded_transposed_into(k, cov_n, &mut self.b_f32_t);
        if pack {
            simd::pack_a(&self.a_f32, cov_m, k, &mut self.a_pack);
            simd::pack_b(&self.b_f32_t, cov_n, k, &mut self.b_pack);
        }
        if matches!(lanes, Redundancy::ColumnChecksum | Redundancy::TileChecksum) {
            simd::stage_a_chk(&self.a_f32, cov_m, k, &mut self.a_chk);
        }
        if lanes == Redundancy::TileChecksum {
            simd::stage_b_chk(&self.b_f32_t, cov_n, k, &mut self.b_chk);
        }
        self.k = k;
    }
}

/// Per-block execution scratch: the accumulator tile plus whatever the
/// run's scheme carries beside it. One instance is reused by every
/// block of a run — block execution allocates nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct BlockScratch {
    /// `block_m × block_n` FP32 accumulator tile.
    pub(crate) tile: Vec<f32>,
    /// Checksum lanes as the microkernel left them: one value per
    /// (strip, column) for [`Redundancy::ColumnChecksum`] (`strip·bn +
    /// col`), one per register tile for [`Redundancy::TileChecksum`]
    /// (`strip·bn/NR + group`).
    pub(crate) chk: Vec<f32>,
    /// Magnitude lanes, laid out like `chk`.
    pub(crate) mag: Vec<f32>,
    /// The second copy of the tile for the replication schemes.
    pub(crate) shadow: Vec<f32>,
}

impl BlockScratch {
    /// Sizes every buffer for one run under `tiling` and `lanes`.
    /// Shrinks never release capacity, so repeated runs at the same
    /// tiling do not allocate.
    pub(crate) fn prepare(&mut self, tiling: &TilingConfig, lanes: Redundancy) {
        let (bm, bn) = (tiling.block_m as usize, tiling.block_n as usize);
        let resize = |v: &mut Vec<f32>, len: usize| {
            v.clear();
            v.resize(len, 0.0);
        };
        resize(&mut self.tile, bm * bn);
        let lane_len = lanes.lane_len(bm, bn);
        resize(&mut self.chk, lane_len);
        resize(&mut self.mag, lane_len);
        resize(
            &mut self.shadow,
            if lanes.is_shadow() { bm * bn } else { 0 },
        );
    }
}

/// Per-stripe scratch for the block-parallel workspace path: one worker
/// thread executes a contiguous range of block-row stripes from its own
/// instance, so workers share nothing but the read-only panels. The
/// pool these live in ([`Workspace::stripe_pool`]) ratchets like every
/// other workspace buffer.
#[derive(Clone, Debug, Default)]
pub(crate) struct StripeScratch {
    /// The worker's private block-execution scratch.
    pub(crate) block: BlockScratch,
    /// Detections flagged by this worker's stripes, in stripe order
    /// (drained into the output after the join, preserving the global
    /// block-major order).
    pub(crate) detections: Vec<Detection>,
}

/// Reusable scratch for kernel-level checksum verification (global
/// ABFT's activation checksum and friends). The engine itself never
/// touches these; they are owned here so one [`Workspace`] covers the
/// whole protected-execution path and `aiga-core`'s bound kernels can
/// verify without allocating.
#[derive(Clone, Debug, Default)]
pub struct CheckScratch {
    /// FP32 checksum accumulator (e.g. per-column activation checksums).
    pub chk: Vec<f32>,
    /// FP64 magnitude accumulator for the error bound.
    pub abs: Vec<f64>,
    /// FP32 gather buffer (e.g. one column staged for a pairwise sum).
    pub col: Vec<f32>,
}

/// All per-run scratch of the protected execution path, owned in one
/// place and reused across runs.
///
/// The execution contract is workspace-threaded at every layer:
/// [`crate::engine::GemmEngine::run_multi_into`] stages panels and
/// writes its output here; `aiga-core`'s `BoundKernel::run_into`,
/// `ProtectedPipeline::infer_into`, and `Session::serve` (via a
/// checkout pool) all reuse one workspace so the steady-state hot path
/// performs zero heap allocations. A fresh workspace warms up in one
/// run; mixed shapes ratchet each buffer to its high-water mark.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    pub(crate) panels: Panels,
    pub(crate) block: BlockScratch,
    pub(crate) out: GemmOutput,
    /// Activation staging for pipeline layers (padding + ReLU results).
    pub(crate) act: Matrix,
    /// Checksum-verification scratch lent to bound kernels.
    pub(crate) check: CheckScratch,
    /// Staging for convolution lowering (the im2col activation matrix).
    pub(crate) lowering: Matrix,
    /// Per-stage value slots lent to graph executors (compiled models
    /// park every stage's output here). The vector length and each
    /// slot's capacity only ratchet up, so steady-state graph execution
    /// allocates nothing.
    pub(crate) slots: Vec<Matrix>,
    /// Per-worker scratch for the block-parallel engine path (empty
    /// until a run actually fans out; ratchets to the worker high-water
    /// mark afterwards).
    pub(crate) stripe_pool: Vec<StripeScratch>,
    /// Child workspaces for graph execution: every GEMM stage of a
    /// pipeline runs in one of these — a lone stage in the first, the
    /// branches of a concurrent level in one each — while reading the
    /// shared value [`Self::slots`]. Empty until a graph executes;
    /// ratchets to the branch high-water mark afterwards.
    branch_pool: Vec<Workspace>,
}

impl Workspace {
    /// A fresh (cold) workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The output of the most recent engine run through this workspace.
    pub fn output(&self) -> &GemmOutput {
        &self.out
    }

    /// Mutable access to the most recent output. The correction path
    /// uses this to clear detections it has resolved by targeted
    /// recompute (the buffer keeps its capacity — no allocation).
    pub fn output_mut(&mut self) -> &mut GemmOutput {
        &mut self.out
    }

    /// Moves the most recent output out of the workspace (the buffer is
    /// replaced by an empty one, so the next run re-warms it). Used by
    /// the allocating convenience wrappers.
    pub fn take_output(&mut self) -> GemmOutput {
        std::mem::take(&mut self.out)
    }

    /// Split borrow for verification: the engine output together with
    /// the checksum scratch, so a bound kernel can verify the run it
    /// just executed without cloning either.
    pub fn output_and_check(&mut self) -> (&GemmOutput, &mut CheckScratch) {
        (&self.out, &mut self.check)
    }

    /// The activation staging matrix lent to pipeline layers. Intended
    /// use is `std::mem::take` / reassign around a pass, so the staged
    /// request can be read while the workspace is borrowed mutably.
    pub fn activations_mut(&mut self) -> &mut Matrix {
        &mut self.act
    }

    /// The convolution-lowering staging matrix (`aiga-nn`'s
    /// `im2col_into` writes here). Like [`Self::activations_mut`], the
    /// intended pattern is [`Self::take_lowering`] / [`Self::put_lowering`]
    /// around the engine call that consumes it.
    pub fn lowering_mut(&mut self) -> &mut Matrix {
        &mut self.lowering
    }

    /// Moves the lowering buffer out (so it can be the engine's input
    /// while the engine mutably borrows this workspace). Pair with
    /// [`Self::put_lowering`]; the swap moves pointers, not data.
    pub fn take_lowering(&mut self) -> Matrix {
        std::mem::take(&mut self.lowering)
    }

    /// Returns a lowering buffer taken with [`Self::take_lowering`],
    /// preserving its capacity for the next conv stage.
    pub fn put_lowering(&mut self, m: Matrix) {
        self.lowering = m;
    }

    /// Grows the slot table to at least `n` entries (a one-time
    /// allocation; subsequent calls at or below the high-water mark are
    /// free).
    pub fn ensure_slots(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize_with(n, Matrix::default);
        }
    }

    /// Reads value slot `i` (in range after [`Self::ensure_slots`]).
    pub fn slot(&self, i: usize) -> &Matrix {
        &self.slots[i]
    }

    /// Moves value slot `i` out of the workspace (growing the table if
    /// needed). Graph executors take a stage's output slot, compute
    /// into it, and [`Self::put_slot`] it back — moves, never copies.
    pub fn take_slot(&mut self, i: usize) -> Matrix {
        self.ensure_slots(i + 1);
        std::mem::take(&mut self.slots[i])
    }

    /// Returns a slot taken with [`Self::take_slot`], preserving its
    /// buffer capacity for the next request.
    pub fn put_slot(&mut self, i: usize, m: Matrix) {
        self.slots[i] = m;
    }

    /// Split borrow for graph execution: the shared value slots
    /// (read-only, so a GEMM stage — or several concurrent branches —
    /// can view a producer's slot in place as the engine operand)
    /// together with `n` mutable child workspaces, one per stage, each
    /// a private engine scratch and output. The pool only ratchets up,
    /// so steady-state execution does not allocate here.
    pub fn branch_split(&mut self, n: usize) -> (&[Matrix], &mut [Workspace]) {
        if self.branch_pool.len() < n {
            self.branch_pool.resize_with(n, Workspace::default);
        }
        (&self.slots, &mut self.branch_pool[..n])
    }

    /// Arms the block-parallel scratch pool for `n` workers under
    /// `tiling` and `lanes`: grows the pool if this is a new high-water
    /// mark, then re-prepares each worker's scratch in place.
    pub(crate) fn ensure_stripe_pool(
        &mut self,
        n: usize,
        tiling: &TilingConfig,
        lanes: Redundancy,
    ) {
        if self.stripe_pool.len() < n {
            self.stripe_pool.resize_with(n, StripeScratch::default);
        }
        for s in &mut self.stripe_pool[..n] {
            s.block.prepare(tiling, lanes);
            s.detections.clear();
        }
    }

    /// Recomputes output cell `(r, c)` from the staged operand panels
    /// of the most recent run, overwriting `out.c[r][c]` in place.
    ///
    /// The recompute replays the canonical accumulation order (one FMA
    /// per K element, in order — see [`super::simd`]) that the SIMD
    /// microkernel and the scalar oracle share, so a recomputed cell is
    /// bit-exact with a clean run. Faults are never
    /// re-applied: the panels hold only operands. Returns `false` (no
    /// write) when the cell lies outside the cropped output — padded
    /// rows/columns have no output cell to repair.
    ///
    /// Allocation-free: reads the staged panels, writes one f32.
    pub fn recompute_cell(&mut self, r: usize, c: usize) -> bool {
        if r >= self.out.m || c >= self.out.n {
            return false;
        }
        let k = self.panels.k;
        let a_row = &self.panels.a_f32[r * k..r * k + k];
        let b_col = &self.panels.b_f32_t[c * k..c * k + k];
        self.out.c[r * self.out.n + c] = simd::dot(a_row, b_col);
        true
    }

    /// Recomputes the cells a [`Detection`] names — the `MICRO_MR` rows
    /// of its strip across its flagged columns — and returns how many
    /// were rewritten (cells in the cropped-away padding are skipped).
    /// This is the targeted-recompute primitive behind thread-level
    /// fault correction.
    pub fn recompute_strip(&mut self, row: usize, col: usize, cols: usize) -> u32 {
        let mut repaired = 0;
        for r in row..row + MICRO_MR {
            for c in col..col + cols {
                repaired += self.recompute_cell(r, c) as u32;
            }
        }
        repaired
    }

    /// Recomputes every cell of output row `r` (see
    /// [`Self::recompute_cell`]). Returns `false` if the row is out of
    /// range.
    pub fn recompute_row(&mut self, r: usize) -> bool {
        if r >= self.out.m {
            return false;
        }
        for c in 0..self.out.n {
            self.recompute_cell(r, c);
        }
        true
    }

    /// Recomputes every cell of output column `c` (see
    /// [`Self::recompute_cell`]). Returns `false` if the column is out
    /// of range.
    pub fn recompute_col(&mut self, c: usize) -> bool {
        if c >= self.out.n {
            return false;
        }
        for r in 0..self.out.m {
            self.recompute_cell(r, c);
        }
        true
    }
}
