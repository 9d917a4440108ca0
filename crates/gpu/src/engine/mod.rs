//! The functional GEMM engine: `C = A · B` over FP16-class operands with
//! FP32 accumulation, executed the way a host GEMM library does it and
//! protected the way the paper's thread-level schemes are.
//!
//! The output is walked in [`BLOCK_M`]`×`[`BLOCK_N`] cache blocks (a
//! block, or a block row of them, is the unit of work fan-out); each
//! block is computed in
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
//!   bound and shared by every run), the per-stripe A staging (decoded
//!   and strip-packed rows, checksum rows), and the reusable
//!   [`Workspace`] that owns all per-run scratch (per team member: the
//!   staged stripe, block tile and lanes; output, global ABFT's
//!   partials);
//! - [`simd`] — the register-tiled microkernel (one multi-row and one
//!   one-row tile body, generic over the lanes — ymm on AVX2, zmm on
//!   AVX-512 — the format's B widening and the checksum lanes), the
//!   scalar oracle, the canonical accumulation-order contract, and the
//!   runtime choice between them ([`GemmPath`], `AIGA_FORCE_SCALAR`);
//! - `lanes` (private) — the one lane type every SIMD body is written
//!   over (`Lanes`, ymm and zmm) and the one seam that enters a body at
//!   a path's width (`Kernel`, `on_path`);
//! - `walk` (private) — block execution over the live extent:
//!   microkernel fill, targeted fault injection, tile epilogue;
//! - [`emit`] — write-back: where a run's cells go, the f32 output or
//!   the next reader's codes ([`Dest`]), and the one body that lays a
//!   rectangle of them out for that reader (NCHW transpose, fused ReLU,
//!   encode);
//! - [`sums`] — global ABFT's partials ([`CheckScratch`]): `Σ C` per
//!   block and `Σ A` per stripe, taken by the tasks from the tile and
//!   the staged strip sums, and the serial reference for their order;
//! - this module — [`gemm_into`] itself: the execution entry point, the
//!   host constants it blocks by, the split into team tasks, and output
//!   assembly.
//!
//! # Execution contract
//!
//! A GEMM is a function of its operands. [`gemm_into`] is the execution
//! entry: the caller supplies the weights already packed
//! ([`PackedWeights`]) and a [`Workspace`]; the engine executes and
//! leaves the [`GemmOutput`] inside the workspace — zero heap
//! allocations once it is warm, and nothing per request that scales
//! with the layer rather than with the request. A run is one region of
//! the process's fork-join team (`aiga_util::team`): its tasks are
//! block-row stripes — single blocks when there are few stripes — and
//! whichever member takes a task stages that stripe's rows of A into
//! its own scratch, walks it, and writes each block back once, where
//! the run's [`Dest`] says: the f32 output, or the next reader's codes. A
//! run asks for one member beyond its caller per [`BLOCK_PAR_MIN_FLOPS`]
//! of live work or per [`BLOCK_PAR_MIN_BYTES`] of weight panels it
//! streams, whichever asks for more — its one-core roofline time, the
//! slower of computing and streaming — and the team's inline rule
//! decides what it gets: a run below both floors, or one opened where
//! its owner already spread requests across cores (a multi-worker
//! server, a campaign under `par_map`), is the same tasks in order on
//! the calling thread. [`gemm`] is the allocating
//! convenience: it packs a plain [`Matrix`] of weights and makes the
//! same call on a throwaway workspace, returning the owned output.
//! Results are byte-identical at every team width;
//! `crates/core/tests/engine_golden.rs` pins them to the canonical
//! accumulation order's bytes on every [`GemmPath`].

pub mod emit;
pub mod fault_inject;
mod lanes;
pub mod matrix;
pub mod panels;
pub mod pool;
pub mod scheme;
pub mod simd;
pub mod sums;
mod walk;

pub use aiga_dtype::Dtype;
pub use emit::{emit_output, emit_rect, encode_output, relu, Dest, EmitLayout};
pub use fault_inject::{Detection, FaultKind, FaultPlan};
pub use matrix::{gemm_reference_f64, Im2colView, Matrix, MatrixLayout, MatrixView};
pub use panels::{PackedWeights, Workspace};
pub use scheme::{Redundancy, TileScheme};
pub use simd::GemmPath;
pub use sums::{pairwise_sum_f32, CheckScratch};

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
/// a block-row stripe is what a team member stages and walks at a time.
/// A host constant — measured on the benchmark's four workloads against
/// 32×32 — not a function of the shape or of any device model.
pub const BLOCK_M: usize = 64;
/// Cache-block columns.
pub const BLOCK_N: usize = 64;

// A block is a whole number of register tiles, so the walk and the
// lane layouts never handle a partial tile.
const _: () = assert!(BLOCK_M.is_multiple_of(MICRO_MR) && BLOCK_N.is_multiple_of(MICRO_NR));

/// Live FLOPs (`2·m·n·k` over whole register tiles) a run must bring
/// per team member beyond its caller, unless its weight stream asks for
/// more ([`BLOCK_PAR_MIN_BYTES`]): [`gemm_into`] offers its tasks to
/// `flops / BLOCK_PAR_MIN_FLOPS` more members, so below both floors a
/// run is the caller's alone and a small layer wakes one worker however
/// wide the host. A hot fork-join costs 1.1–1.6 µs and a parked
/// member's wake-up 55–95 (`BENCH_engine.json`
/// `team/fork_join_{hot,parked}_us`), so the floor sits where the
/// caller alone would finish inside a wake-up: 2 MFLOP is 17 µs of this
/// host's dense one-core kernel (`engine/gemm_256_clean_best`, 272 µs
/// for 33.5 MFLOP). Every SqueezeNet GEMM, every batch-256 fc1024 layer
/// and the 1×1024×1024 layer clear it, and their all-member rows beat
/// their one-member rows 1.6–1.9× on two members
/// (`engine/team_*_speedup`; 1.3–2.0 over four recordings, once 1.0 on
/// a row a neighbour's burst landed on). fc1024's last layer
/// (1×1000×1024, 2,064,384 FLOP) falls 1.6 % short of it; the byte
/// floor seats it. Tuned at width 2 only.
pub const BLOCK_PAR_MIN_FLOPS: u128 = 2 * 1024 * 1024;

/// Resident weight-panel bytes ([`PackedWeights::panel_bytes`]) a run
/// must stream per team member beyond its caller, unless its FLOPs ask
/// for more ([`BLOCK_PAR_MIN_FLOPS`]). A batch-1 layer is bound by its
/// weight stream, not its FMAs: one core streams the 2 MiB of f16
/// panels of a 1×1024×1024 layer in 80–87 µs
/// (`engine/team_1x1024x1024_clean_one_us`, the last two recordings),
/// 24–26 GB/s, so the FLOP floor's 17 µs is 410–440 KB of panels; the
/// floor is the power of two above it. fc1024's last layer (1×1000×1024,
/// 2,064,384 B of f16 panels) clears it where it missed the FLOP floor,
/// and runs in 41.8 µs on two members against 79.4 on one
/// (`engine/team_1x1000x1024_clean_{all,one}_us`). DLRM's widest panels
/// (512×256 f16, 256 KiB) stay under it, on the caller. Measured at
/// width 2 only.
pub const BLOCK_PAR_MIN_BYTES: usize = 512 * 1024;

/// A task is a whole block-row stripe once every member has this many
/// to take: each stripe is then staged once, by one member, which also
/// leaves whole 64-row runs of the output in one core's cache for the
/// reductions and the write-back that read it next — and, as a member
/// takes a contiguous range of a region's tasks (`aiga_util::team`),
/// the next layer's stripes over the same rows mostly go to the member
/// that wrote them. Below it (a 169-row layer's three stripes, a
/// batch-256 layer's four, a batch-1 layer's one) a task is one block,
/// and the members that share a stripe each stage it. The number buys
/// steadiness, not speed: a member done with its range steals single
/// tasks from the back of the fullest other range, so a region ends at
/// most one task after its members run dry, and on a shared host the
/// members do not run equally fast (a vCPU here runs at a quarter to a
/// half of its speed for hundreds of milliseconds at a time) — a slowed
/// member in the middle of the last of four 1.5 ms stripes holds the
/// region for the rest of it. At two stripes a member `fc1024_b256`
/// (256×1024×1024: four stripes, two members) was 5 % faster on a
/// quiet host, 7.0 ms a pass against 7.6 as 64 blocks (each member
/// stages every stripe), and twice as scattered: twelve interleaved
/// pairs of 6 s benchmark runs read 93–116 req/s, inter-quartile 13.0,
/// against 98–108 and 5.2; with one vCPU throttled to half speed 69
/// against 72–74 (measured while one shared counter dealt the tasks).
const STRIPES_PER_MEMBER: usize = 4;

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
    /// Row-major FP32 pre-activation output, `m × n` (unpadded) — empty
    /// after a run whose cells went to a [`Dest::Codes`] instead.
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

    /// Re-arms this output for a fresh `m × n` run, reusing its buffers:
    /// `m × n` f32 cells when the run writes them (`cells`), none when
    /// its cells go to a destination's codes instead. The cells keep
    /// what the last run left: a run scatters every live cell, so only a
    /// buffer that grows is filled (with zeros).
    fn reset(&mut self, m: usize, n: usize, cells: bool) {
        self.m = m;
        self.n = n;
        match cells {
            true => self.c.resize(m * n, 0.0),
            false => self.c.clear(),
        }
        self.detections.clear();
        self.counters = EngineCounters::default();
    }
}

/// Allocating convenience over [`gemm_into`]: packs `b` (`k × n`),
/// multiplies `a` (`m × k`) by it, injecting `faults`, in a
/// throwaway workspace, and returns the unpadded `m × n` output.
pub fn gemm<'a>(
    a: impl Into<MatrixView<'a>>,
    b: &Matrix,
    scheme: TileScheme,
    faults: &[FaultPlan],
) -> GemmOutput {
    let mut ws = Workspace::new();
    let b = PackedWeights::pack(b);
    gemm_into(a, &b, scheme, faults, Dest::None, &mut ws);
    ws.take_output()
}

/// A buffer as a region's tasks write it — the f32 output or a
/// destination's codes: each task writes the cells of its own blocks,
/// which no other task touches.
struct Cells<T> {
    cells: *mut T,
    len: usize,
}

// SAFETY: a raw view of a `&mut [T]` that outlives the region; tasks
// reach it only through `run`, whose contract keeps their cells apart,
// and `T: Send` lets another member's thread write them.
unsafe impl<T: Send> Sync for Cells<T> {}

impl<T> Cells<T> {
    fn new(buf: &mut [T]) -> Self {
        Cells {
            cells: buf.as_mut_ptr(),
            len: buf.len(),
        }
    }

    /// Cells `at..at + len`.
    ///
    /// # Safety
    /// The buffer must still be mutably borrowed for this view, and no
    /// other reference to any of those cells may be live: the caller is
    /// the only task that owns them.
    #[allow(clippy::mut_from_ref)]
    unsafe fn run(&self, at: usize, len: usize) -> &mut [T] {
        assert!(at + len <= self.len, "run outside the buffer");
        // SAFETY: in bounds (above) of the borrowed buffer; exclusive by
        // the caller's contract.
        unsafe { std::slice::from_raw_parts_mut(self.cells.add(at), len) }
    }
}

/// The workspace-threaded execution entry: multiplies `a` by the
/// packed weights `b` entirely inside `ws`, leaving the result in
/// [`Workspace::output`] (also returned by reference). The inner
/// dimension walked is `b`'s padded K. After one warm-up run at a given
/// shape, subsequent runs perform **zero heap allocations** — the
/// members' stripe panels and block scratch and the output buffer are
/// all resized in place, and a team region allocates nothing — and
/// per-run staging, compute and checks cover only the live extent: the
/// register tiles holding a row of `a` or a column of `b`.
///
/// The run is one list of tasks — block-row stripes, or single blocks
/// when the request has few stripes — executed by one body: the member
/// that takes a task stages the task's stripe of `a` into its own
/// scratch (unless its last task left it there), fills and checks the
/// task's blocks, and scatters them into the output (blocks are
/// disjoint, so members share only the read-only operands). The tasks
/// are a region of the process's fork-join team, sized by the run's
/// one-core roofline time: one member beyond the caller per
/// [`BLOCK_PAR_MIN_FLOPS`] of live FLOPs or per [`BLOCK_PAR_MIN_BYTES`]
/// of weight panels, whichever gives more, at most the team's width.
/// Whether the region gets them is the team's inline rule
/// (`aiga_util::team`), not a choice made here — under a multi-worker
/// server or a `par_map` campaign it is the calling thread alone, as it
/// is below both floors. Results are byte-identical
/// whoever ran which task, detections in the same block-major order.
/// Any number of simultaneous `faults` may be injected (the
/// multi-checksum extension of §2.4 needs more than one); one aimed
/// outside the `m × n` output has no accumulator to strike and is a
/// no-op. Empty dimensions are well-defined: no rows or no columns give
/// an `m × 0` / `0 × n` output, an empty inner dimension an `m × n`
/// output of zeros, and none of them a detection.
///
/// `dest` is where the cells go, and they go to one place.
/// [`Dest::None`] leaves them in the f32 output ([`GemmOutput::c`],
/// `m × n`): what a caller that reads them asks for — a final stage, a
/// check that reads C, a repair. With [`Dest::Codes`] each task hands
/// its blocks' live cells to the consumer's storage codes instead —
/// transposed to NCHW for a lowered convolution, at the destination's
/// image stride, with the ReLU fused, encoded from the tile as the task
/// that computed it leaves it (see [`emit`]) — and the f32 output stays
/// empty: it is neither filled nor grown, while `m`, `n`, the
/// detections and the counters are the same as a [`Dest::None`] run's.
/// The codes are those of the cells as the walk left them, injected
/// faults included; a caller that needs both runs with [`Dest::None`]
/// and fills the codes afterwards ([`Dest::encode`]), through the same
/// body. Under [`Redundancy::GlobalSums`] the tasks also
/// leave global ABFT's partials in the workspace's [`CheckScratch`]
/// ([`Workspace::output_and_check`]): each block's `Σ C`, summed from
/// its tile after the write-back, and each stripe's column sums of `a`,
/// folded from the strip sums its staging took (see [`sums`]).
pub fn gemm_into<'w, 'a>(
    a: impl Into<MatrixView<'a>>,
    b: &PackedWeights,
    scheme: TileScheme,
    faults: &[FaultPlan],
    dest: Dest<'_>,
    ws: &'w mut Workspace,
) -> &'w GemmOutput {
    let a = a.into();
    assert_eq!(a.cols, b.rows(), "inner dimensions must agree");
    assert_eq!(a.dtype, b.dtype(), "GEMM operands must share one dtype");
    let k = b.k();
    let (out_m, out_n) = (a.rows, b.cols());
    let (stripes, col_blocks) = (out_m.div_ceil(BLOCK_M), out_n.div_ceil(BLOCK_N));
    let global = scheme.lanes == Redundancy::GlobalSums;
    // Read once: every kernel of the run enters its lanes on this path.
    let path = simd::active_path();
    let dest = emit::CodeCells::new(dest, out_m, out_n, path);
    ws.out.reset(out_m, out_n, dest.is_none());
    if global {
        ws.check.arm(stripes, a.cols, col_blocks);
    }
    if k == 0 || out_n == 0 {
        // No inner dimension: every cell is the empty sum, and no chain
        // ran that a check could compare. No columns: no cells.
        ws.out.c.fill(0.0);
        if global {
            ws.check.zero();
        }
        if let Some(dest) = dest {
            dest.zeros(out_m, out_n);
        }
        return &ws.out;
    }
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

    let by_flops = (2 * ws.out.counters.data_fmas as u128 / BLOCK_PAR_MIN_FLOPS) as usize;
    let by_bytes = b.panel_bytes() / BLOCK_PAR_MIN_BYTES;
    let width = aiga_util::team::width().min(1 + by_flops.max(by_bytes));
    let by_block = stripes < STRIPES_PER_MEMBER * width;
    let tasks = stripes * if by_block { col_blocks } else { 1 };
    let members = width.min(tasks);
    ws.ensure_stripe_pool(members, scheme.lanes);
    for scr in &mut ws.stripe_pool[..members] {
        let strips = strips.min(BLOCK_M / MICRO_MR);
        scr.panels.reserve(scheme.lanes, k, a.cols, strips);
    }
    let run = &walk::Run {
        path,
        a,
        b,
        scheme,
        faults,
        out_m,
        out_n,
    };
    let c = &Cells::new(&mut ws.out.c);
    let dest = &dest;
    let partials = &global.then(|| Partials {
        stripes: Cells::new(&mut ws.check.stripe_sums),
        blocks: Cells::new(&mut ws.check.block_sums),
        col_blocks,
    });
    let pool = &mut ws.stripe_pool[..members];
    aiga_util::team::run_with(pool, tasks, &|scr, task| {
        let (br, blocks) = if by_block {
            (task / col_blocks, task % col_blocks..task % col_blocks + 1)
        } else {
            (task, 0..col_blocks)
        };
        // Global ABFT's strip sums are staged for, and folded into the
        // stripe's partial by, the task of the stripe's first block alone.
        // Staging them on every task measured 1.3 points more global
        // overhead over clean at 256×1024×1024 on two members (median
        // 1.056 vs 1.043, worse in 10 of 10 interleaved pairs).
        let first = blocks.start == 0;
        let lanes = if global && !first {
            Redundancy::None
        } else {
            scheme.lanes
        };
        scr.stage_stripe(run.a, lanes, run.path, k, br);
        if let (Some(p), true) = (partials, first) {
            // The last stripe may be short.
            let strips = (out_m - br * BLOCK_M).min(BLOCK_M).div_ceil(MICRO_MR);
            let row = 2 * run.a.cols;
            let sums = sums::fold_rows(&mut scr.panels.a_chk, 2 * k, row, strips);
            // SAFETY: stripe `br`'s partial, which this task alone writes.
            unsafe { p.stripes.run(br * row, row) }.copy_from_slice(sums);
        }
        let flagged = scr.detections.len();
        for bc in blocks {
            walk::run_block(run, br, bc, scr);
            // SAFETY: the cells of block `(br, bc)`, which this task
            // alone executes.
            unsafe { write_back(&mut scr.block.tile, run, br, bc, c, dest, partials) };
        }
        if flagged < scr.detections.len() {
            scr.flagged.push((task, flagged..scr.detections.len()));
        }
        #[cfg(test)]
        tests::pace(task, run as *const walk::Run<'_> as usize);
    });
    merge_detections(pool, &mut ws.out.detections);
    &ws.out
}

/// Moves the members' detections into `out` in task order — the
/// block-major order a lone walker flags in — whoever ran which task,
/// in whatever order (a member runs its own range ascending, then what
/// it steals descending). Each member's flagged runs are sorted latest
/// task first, in place, and the lowest task among the members' last
/// runs is taken until none is left: the pop is the cursor, and nothing
/// is allocated.
fn merge_detections(pool: &mut [panels::StripeScratch], out: &mut Vec<Detection>) {
    for scr in pool.iter_mut() {
        scr.flagged
            .sort_unstable_by_key(|&(task, _)| std::cmp::Reverse(task));
    }
    while let Some(scr) = pool
        .iter_mut()
        .filter(|scr| !scr.flagged.is_empty())
        .min_by_key(|scr| scr.flagged.last().map(|&(task, _)| task))
    {
        let (_, run) = scr.flagged.pop().expect("a member with a flagged run");
        out.extend_from_slice(&scr.detections[run]);
    }
    for scr in pool {
        scr.detections.clear();
    }
}

/// Global ABFT's partials as a region's tasks write them (see [`sums`]):
/// a stripe's slot by the task that walks its first block, a block's by
/// the task that computed it.
struct Partials {
    stripes: Cells<f32>,
    blocks: Cells<f32>,
    col_blocks: usize,
}

/// Writes one block tile's live cells where the run's destination wants
/// them — the f32 output, or the codes — and then, since it consumes
/// the tile, sums them into the block's partial.
///
/// # Safety
/// The caller is the only task writing block `(br, bc)`'s cells.
unsafe fn write_back(
    tile: &mut [f32],
    run: &walk::Run<'_>,
    br: usize,
    bc: usize,
    c: &Cells<f32>,
    dest: &Option<emit::CodeCells>,
    partials: &Option<Partials>,
) {
    let (row0, col0) = (br * BLOCK_M, bc * BLOCK_N);
    let (rows, cols) = (BLOCK_M.min(run.out_m - row0), BLOCK_N.min(run.out_n - col0));
    match dest {
        // SAFETY: the codes of the caller's block.
        Some(dest) => unsafe { dest.emit(tile, BLOCK_N, (row0, rows), (col0, cols)) },
        None => {
            for lr in 0..rows {
                // SAFETY: cells of the caller's block.
                let cells = unsafe { c.run((row0 + lr) * run.out_n + col0, cols) };
                cells.copy_from_slice(&tile[lr * BLOCK_N..][..cols]);
            }
        }
    }
    if let Some(p) = partials {
        // SAFETY: the caller's block's partial.
        let slot = unsafe { p.blocks.run(br * p.col_blocks + bc, 1) };
        slot[0] = sums::block_sum(tile, rows, cols);
    }
}

#[cfg(test)]
mod tests;
