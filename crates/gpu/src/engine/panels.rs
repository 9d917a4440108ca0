//! Operand forms the engine executes from, and the reusable
//! [`Workspace`].
//!
//! The two operands have different lifetimes, so they are staged in
//! different places:
//!
//! - **B (weights)** never changes between requests. [`PackedWeights`]
//!   is its one resident form: the format's codes — two bytes a weight
//!   for fp16 and bf16, one for int8 (see `aiga_dtype::Format` for what
//!   E4M3 is resident as) — laid out in the [`MICRO_NR`]-wide K-major
//!   panels (one per register-tile column group, the same on every
//!   [`GemmPath`]) the microkernel streams and widens to f32 in its B load,
//!   built once — `aiga-core`'s `Scheme::bind` does it — and shared
//!   read-only by every run, worker, shard and scheme bound to the
//!   layer. A pass over a layer therefore reads the layer's storage
//!   bytes, not four per weight. The first run that needs them — two-
//!   sided ABFT, or one-sided over a strip of two live rows or more —
//!   also sums the weights' column-group sums, and keeps them.
//! - **A (activations)** is the request. `Panels` holds one block-row
//!   *stripe* of it at a time — [`BLOCK_M`] rows gathered, decoded,
//!   strip-packed and checksummed in one pass (a conv lowering straight
//!   from its NCHW slot, a segment of one output row at a time; see
//!   [`simd`]) — in the scratch of the
//!   team member that walks that stripe (`StripeScratch`): at most
//!   `64·K` f32 and their strip sums, restaged when the member's next
//!   task is another stripe and otherwise resident in its L2. No buffer
//!   ever holds the whole staged operand, and a batch-1 request stages
//!   one strip.
//!
//! [`Workspace`] owns *all* per-run scratch — the per-member stripe
//! panels, accumulator tile and checksum lanes, the output buffer,
//! global ABFT's partials, and staging space the layers above lend out
//! (pipeline activations). Callers that hold a workspace across runs get
//! a steady state in which the whole execution path performs **zero
//! heap allocations**, fanned out or not: every buffer is resized in
//! place and capacities only ratchet up to the high-water mark of the
//! shapes served.

use super::fault_inject::Detection;
use super::matrix::{Matrix, MatrixView};
use super::scheme::Redundancy;
use super::simd::{self, GemmPath};
use super::sums::CheckScratch;
use super::{GemmOutput, BLOCK_M, BLOCK_N, MICRO_MR, MICRO_NR};
use aiga_dtype::{with_format, Dtype, Format, F16};
use std::sync::OnceLock;

/// A layer's weights (`B` of `C = A·B`) in the form the microkernel
/// consumes: the format's resident codes (`Format::to_resident`,
/// little-endian, `Format::RESIDENT_BYTES` each) with K zero-padded to
/// the MMA granule (8) and N to a whole register tile ([`MICRO_NR`]),
/// laid out as one K-major panel per column group: panel `g` holds
/// columns `g·NR .. g·NR+NR`, code `(kk, j)` at `(g·k + kk)·NR + j`, so
/// one K step of a panel is sixteen contiguous codes — one zmm once
/// widened, or two adjacent ymm halves. The layout is not a function of
/// the path. Widening is exact in every format, so every product is
/// bit-identical to multiplying decoded f32 weights; padding is code 0,
/// which is `+0.0` in all of them.
///
/// This is the only resident copy of a bound layer's weights, and it
/// holds no f32 image of them: the SIMD microkernel widens the panels
/// as it streams them, and the scalar oracle, targeted recompute and
/// the faulted cold walk decode one column of the same codes with
/// stride [`MICRO_NR`] ([`Self::col`]), the kernel-level schemes' weight
/// checksums one row at a time ([`Self::for_each_row`]) — one layout,
/// one set of bytes, whatever scheme is bound over it.
#[derive(Clone, Debug)]
pub struct PackedWeights {
    rows: usize,
    cols: usize,
    k: usize,
    dtype: Dtype,
    /// The resident codes, `Format::RESIDENT_BYTES` of `dtype` each.
    panels: Vec<u8>,
    /// The weights' column-group sums ([`Self::b_chk`]) and whether one
    /// of their magnitude sums overflowed. Summed from the panels on
    /// first use, so weights no checked run reads never hold them.
    b_chk: OnceLock<GroupSums>,
}

/// [`PackedWeights::b_chk`] and the flag derived with it.
#[derive(Clone, Debug)]
struct GroupSums {
    sums: Vec<f32>,
    /// Some `Σ|b|` is `+∞` beside a finite `Σ b`: sixteen finite bf16
    /// weights near the top of the f32 range, where `|t| ≤ t_abs` no
    /// longer bounds a row's magnitude (see `walk`).
    overflowed: bool,
}

/// One resident code from its little-endian bytes (one or two).
#[inline(always)]
pub(crate) fn resident_code(bytes: &[u8]) -> u16 {
    match *bytes {
        [lo] => lo as u16,
        [lo, hi] => u16::from_le_bytes([lo, hi]),
        _ => unreachable!("resident codes are one or two bytes"),
    }
}

/// Writes `b`'s resident codes into `panels` (zeroed, sized by
/// [`PackedWeights::pack`]) in one pass — every 16-column run is
/// contiguous in both the source row and its panel.
fn pack_codes<F: Format>(b: &Matrix, k: usize, panels: &mut [u8]) {
    let width = F::RESIDENT_BYTES;
    // A matrix without columns has no rows to walk (and no chunk size).
    for (kk, src) in b.data.chunks_exact(b.cols.max(1)).enumerate() {
        for (g, run) in src.chunks(MICRO_NR).enumerate() {
            let at = (g * k + kk) * MICRO_NR * width;
            for (d, &s) in panels[at..].chunks_exact_mut(width).zip(run) {
                d.copy_from_slice(&F::to_resident(s.to_bits()).to_le_bytes()[..width]);
            }
        }
    }
}

/// Source rows [`PackedWeights::for_each_row`] decodes per read: one
/// K granule, so a block never runs past the padded K, and a block of a
/// 1024-wide layer (32 KiB of f32) stays in L1 while it is summed.
const ROWS_PER_READ: usize = 8;

impl PackedWeights {
    /// Packs row-major `b` (`k × n` storage codes). Nothing is decoded to
    /// stay: the pack moves codes (fp16 NaNs canonicalised, see
    /// `Format::to_resident`), and it is the same whatever scheme runs
    /// over it. A matrix with no rows or no columns packs to empty
    /// panels.
    pub fn pack(b: &Matrix) -> Self {
        let k = b.rows.next_multiple_of(8);
        let n_pad = b.cols.next_multiple_of(MICRO_NR);
        // The format dispatch stays outside the element loops.
        let panels = with_format!(b.dtype, F => {
            let mut panels = vec![0u8; n_pad * k * F::RESIDENT_BYTES];
            pack_codes::<F>(b, k, &mut panels);
            panels
        });
        PackedWeights {
            rows: b.rows,
            cols: b.cols,
            k,
            dtype: b.dtype,
            panels,
            b_chk: OnceLock::new(),
        }
    }

    /// Rows of the source matrix (the unpadded inner dimension).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the source matrix (the unpadded output width).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The padded inner dimension every K walk over the panels covers.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The storage format of the weights.
    pub fn dtype(&self) -> Dtype {
        self.dtype
    }

    /// The resident code panels, for the microkernel.
    pub(crate) fn panels(&self) -> &[u8] {
        &self.panels
    }

    /// Bytes every run streams from the panels: the padded K by the
    /// padded N, at the format's resident width (one byte for fp8 and
    /// int8, two for f16 and bf16).
    pub fn panel_bytes(&self) -> usize {
        self.panels.len()
    }

    /// The weights' column-group sums: group `g` (columns
    /// `g·NR..g·NR+NR`), step `kk` holds `(Σ_j b[kk][j], Σ_j |b[kk][j]|)`
    /// at `(g·k + kk)·2` — one group's K walk is contiguous. Two-sided
    /// ABFT's corner chain multiplies them, one-sided ABFT's row check and
    /// its magnitude.
    /// Summed by the first caller from the panels, each group's codes
    /// decoded in column order and added in f32 from zero — the values
    /// the source matrix decodes to. Padding adds `+0.0` to a sum that
    /// cannot be `-0.0`, so the live columns alone give the same bits.
    pub(crate) fn b_chk(&self) -> &[f32] {
        &self.group_sums().sums
    }

    /// Whether some `Σ|b|` of [`Self::b_chk`] overflowed to `+∞` while
    /// its `Σ b` is finite — only bf16 weights can, sixteen finite values
    /// near the top of the f32 range. Derived with the sums, once.
    pub(crate) fn b_chk_overflowed(&self) -> bool {
        self.group_sums().overflowed
    }

    fn group_sums(&self) -> &GroupSums {
        self.b_chk.get_or_init(|| {
            let groups = self.cols.div_ceil(MICRO_NR);
            let mut sums = vec![0.0f32; self.k * groups * 2];
            // Straight from the panels: a group's K step is its sixteen
            // codes, padding columns' `+0.0` last.
            with_format!(self.dtype, F => {
                let step = MICRO_NR * F::RESIDENT_BYTES;
                // No inner dimension: no sums (and no chunk size).
                let panels = self.panels.chunks_exact((self.k * step).max(1)).take(groups * (self.k > 0) as usize);
                for (g, panel) in panels.enumerate() {
                    for (kk, codes) in panel.chunks_exact(step).take(self.rows).enumerate() {
                        let (mut t, mut abs) = (0.0f32, 0.0f32);
                        for code in codes.chunks_exact(F::RESIDENT_BYTES) {
                            let v = F::decode_resident(resident_code(code));
                            t += v;
                            abs += v.abs();
                        }
                        sums[(g * self.k + kk) * 2..][..2].copy_from_slice(&[t, abs]);
                    }
                }
            });
            let overflowed = sums
                .chunks_exact(2)
                .any(|p| p[1] == f32::INFINITY && p[0].is_finite());
            GroupSums { sums, overflowed }
        })
    }

    /// Calls `f` with each source row's `cols` decoded values, in row
    /// order and column order: the values the source matrix decodes to,
    /// bit for bit. The panels are read eight rows (one K granule) at a
    /// time, column group by column group, so each group's share is one
    /// contiguous run of codes.
    pub fn for_each_row(&self, mut f: impl FnMut(&[f32])) {
        // A row is at least one slot wide, so a matrix without columns
        // still hands out its (empty) rows.
        let stride = self.cols.next_multiple_of(MICRO_NR).max(1);
        let mut block = vec![0.0f32; ROWS_PER_READ * stride];
        with_format!(self.dtype, F => {
            let step = MICRO_NR * F::RESIDENT_BYTES;
            for kk0 in (0..self.rows).step_by(ROWS_PER_READ) {
                for (g, panel) in self.panels.chunks_exact(self.k * step).enumerate() {
                    let run = &panel[kk0 * step..][..ROWS_PER_READ * step];
                    for (r, codes) in run.chunks_exact(step).enumerate() {
                        let dst = &mut block[r * stride + g * MICRO_NR..][..MICRO_NR];
                        for (d, code) in dst.iter_mut().zip(codes.chunks_exact(F::RESIDENT_BYTES)) {
                            *d = F::decode_resident(resident_code(code));
                        }
                    }
                }
                for row in block.chunks_exact(stride).take(self.rows - kk0) {
                    f(&row[..self.cols]);
                }
            }
        });
    }

    /// Column `c`'s K walk (`k` decoded values, zero past the source's
    /// rows): one panel lane read with stride [`MICRO_NR`] and
    /// decoded code by code. `c` may be a padding column of the last
    /// register tile (all zeros).
    pub fn col(&self, c: usize) -> impl Iterator<Item = f32> + '_ {
        let (width, decode) = with_format!(self.dtype, F => {
            (F::RESIDENT_BYTES, F::decode_resident as fn(u16) -> f32)
        });
        let step = MICRO_NR * width;
        let base = (c / MICRO_NR * self.k * MICRO_NR + c % MICRO_NR) * width;
        (0..self.k).map(move |kk| decode(resident_code(&self.panels[base + kk * step..][..width])))
    }
}

/// Grows `v` to at least `len` elements. Every reader of these buffers
/// is told how much of them a run wrote, so nothing is cleared and a
/// shape smaller than the last one re-zeroes nothing.
fn grow<T: Clone>(v: &mut Vec<T>, len: usize, zero: T) {
    if v.len() < len {
        v.resize(len, zero);
    }
}

/// A run of the activation operand's [`MICRO_MR`]-row strips, staged in
/// the one form every reader takes: the microkernel streams the strips,
/// and the cold readers take one row of them ([`Self::row`]) as they
/// take a B column out of [`PackedWeights`]. The engine stages a
/// block-row stripe at a time ([`Self::stage`]); strips and rows are
/// numbered from the first staged one. The bytes are the same whichever
/// path staged them, and whether a conv's operand is viewed in place or
/// lowered first: a conv lowering's stripe is decoded column by column
/// through a stack block and lane-transposed into `a_pack`, an fc
/// operand's strips are walked row by row.
#[derive(Clone, Debug, Default)]
pub(crate) struct Panels {
    /// A decoded to f32 in [`MICRO_MR`]-row strips: staged strip `s`
    /// holds its four rows, element `(r, kk)` at `(s·k + kk)·MR + r` —
    /// one K step is one contiguous broadcast group. Rows past the
    /// request and K steps past the operand are zero.
    pub(crate) a_pack: Vec<f32>,
    /// Per-strip A checksum rows: strip `s`, step `kk` holds
    /// `(Σ_i a[i][kk], Σ_i |a[i][kk]|)` at `(s·k + kk)·2`. Staged only
    /// for two-sided ABFT's corner chain and global ABFT's partials
    /// ([`Self::sums`]), whose stripe fold consumes them.
    pub(crate) a_chk: Vec<f32>,
    /// Zero codes for the rows an fc strip has past the request
    /// ([`simd::stage_a`]); a conv lowering's stripe needs none.
    pub(crate) rows: Vec<F16>,
    /// Shared inner dimension (the engine's padded K).
    pub(crate) k: usize,
    /// Whether the last staging wrote the checksum rows.
    pub(crate) sums: bool,
}

impl Panels {
    /// Sizes the buffers for `strips` strips of an operand `cols` wide
    /// under padded K `k`, with the checksum rows if `lanes` carries
    /// them. The engine does this for every member on the calling
    /// thread before a region, so no member's first stripe allocates.
    pub(crate) fn reserve(&mut self, lanes: Redundancy, k: usize, cols: usize, strips: usize) {
        self.sums = lanes.stages_sums();
        self.k = k;
        // Staging writes every element it is about to hand out.
        grow(&mut self.a_pack, strips * MICRO_MR * k, 0.0);
        grow(&mut self.a_chk, strips * k * 2 * self.sums as usize, 0.0);
        grow(&mut self.rows, MICRO_MR * cols, F16::ZERO);
    }

    /// Stages strips `strips` of `a` ([`simd::stage_a`]), reusing this
    /// instance's buffers; `lanes` selects whether the checksum rows are
    /// staged with them.
    pub(crate) fn stage(
        &mut self,
        a: MatrixView<'_>,
        lanes: Redundancy,
        path: GemmPath,
        k: usize,
        strips: std::ops::Range<usize>,
    ) {
        self.reserve(lanes, k, a.cols, strips.len());
        // An empty inner dimension stages nothing (and has no chunk
        // size to stage by).
        if k > 0 {
            simd::stage_a(path, a, self, strips);
        }
    }

    /// Staged row `r`'s K walk (`k` values): one strip lane read with
    /// stride [`MICRO_MR`]. `r` may be a padding row of the last strip.
    pub(crate) fn row(&self, r: usize) -> impl Iterator<Item = f32> + '_ {
        let base = r / MICRO_MR * MICRO_MR * self.k + r % MICRO_MR;
        self.a_pack[base..]
            .iter()
            .step_by(MICRO_MR)
            .take(self.k)
            .copied()
    }
}

/// Per-block execution scratch: the accumulator tile plus whatever the
/// run's scheme carries beside it. One instance is reused by every
/// block of a run — block execution allocates nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct BlockScratch {
    /// [`BLOCK_M`]` × `[`BLOCK_N`] FP32 accumulator tile.
    pub(crate) tile: Vec<f32>,
    /// Checksum lanes as the fill left them. Under
    /// [`Redundancy::ColumnChecksum`] a strip with one live row holds
    /// one per column (`strip·bn + col`), a wider strip one per (column
    /// group, row) (`strip·bn + group·MR + row`); under
    /// [`Redundancy::TileChecksum`] one per register tile (`strip·bn/NR +
    /// group`).
    pub(crate) chk: Vec<f32>,
    /// Magnitudes, laid out like `chk`: two-sided ABFT's corner lanes,
    /// and the columns and rows one-sided ABFT's epilogue opened (written
    /// and read only there).
    pub(crate) mag: Vec<f32>,
    /// The second copy of the tile for the replication schemes.
    pub(crate) shadow: Vec<f32>,
}

impl BlockScratch {
    /// Sizes every buffer for one run under `lanes`; nothing is cleared.
    /// A run reads exactly the cells it wrote — the live register tiles
    /// of the block it just filled, their lanes, the `+0.0` a one-row
    /// tile stores in its dead rows — so what an earlier block or run
    /// left anywhere else is never seen (pinned by
    /// `engine::tests::stale_scratch_never_reaches_a_result`).
    pub(crate) fn prepare(&mut self, lanes: Redundancy) {
        let cells = BLOCK_M * BLOCK_N;
        let lane_len = lanes.lane_len(BLOCK_M, BLOCK_N);
        grow(&mut self.tile, cells, 0.0);
        grow(&mut self.chk, lane_len, 0.0);
        grow(&mut self.mag, lane_len, 0.0);
        grow(&mut self.shadow, cells * lanes.is_shadow() as usize, 0.0);
    }
}

/// One team member's scratch for an engine run: the member — the
/// calling thread alone, or each member of a fanned-out run — stages
/// the stripe its task belongs to into `panels` and executes the task's
/// blocks from `block`, so members share nothing but the read-only
/// operands. The pool these live in (`Workspace::stripe_pool`, one per
/// member) ratchets like every other workspace buffer.
#[derive(Clone, Debug, Default)]
pub(crate) struct StripeScratch {
    /// The member's private block-execution scratch.
    pub(crate) block: BlockScratch,
    /// The stripe the member is walking, staged by it.
    pub(crate) panels: Panels,
    /// Which stripe of the current run `panels` holds.
    pub(crate) staged: Option<usize>,
    /// Detections flagged by this member's tasks, in the order it ran
    /// them.
    pub(crate) detections: Vec<Detection>,
    /// `(task, its run of detections)` for each task that flagged, in
    /// the order the member ran them: the output takes the members' runs
    /// back in task order, which is the block-major order of a lone
    /// walker.
    pub(crate) flagged: Vec<(usize, std::ops::Range<usize>)>,
}

impl StripeScratch {
    /// Stages block-row stripe `stripe` of `a` unless the last task
    /// left it here with every row `lanes` reads.
    pub(crate) fn stage_stripe(
        &mut self,
        a: MatrixView<'_>,
        lanes: Redundancy,
        path: GemmPath,
        k: usize,
        stripe: usize,
    ) {
        if self.staged != Some(stripe) || (lanes.stages_sums() && !self.panels.sums) {
            let strips = BLOCK_M / MICRO_MR;
            let last = a.rows.div_ceil(MICRO_MR);
            self.panels.stage(
                a,
                lanes,
                path,
                k,
                stripe * strips..last.min((stripe + 1) * strips),
            );
            self.staged = Some(stripe);
        }
    }
}

/// All per-run scratch of the protected execution path, owned in one
/// place and reused across runs.
///
/// The execution contract is workspace-threaded at every layer:
/// [`crate::engine::gemm_into`] stages the activation
/// stripes and writes its output here (the weights arrive packed — see
/// [`PackedWeights`] — so a cold workspace's first run allocates for
/// a stripe of the request's rows, not for the layer); `aiga-core`'s `BoundGemm::run_into`,
/// `ProtectedPipeline::infer_into`, and `Session::serve` (via a
/// checkout pool) all reuse one workspace so the steady-state hot path
/// performs zero heap allocations. A fresh workspace warms up in one
/// run; mixed shapes ratchet each buffer to its high-water mark.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    pub(crate) out: GemmOutput,
    /// Global ABFT's partials, left by the last run's tasks.
    pub(crate) check: CheckScratch,
    /// Staging for convolution lowering (the im2col activation matrix).
    pub(crate) lowering: Matrix,
    /// Per-stage value slots lent to graph executors (compiled models
    /// park every stage's output here): each holds its last writer's
    /// `rows × cols` value in the first `rows · cols` codes of `data`,
    /// which only grows — it keeps the longest value the slot has held,
    /// so a stage writing a slot a shorter one wrote last refills
    /// nothing. The vector length and each slot's length only ratchet
    /// up, so steady-state graph execution allocates nothing.
    pub(crate) slots: Vec<Matrix>,
    /// Per-member scratch of the engine's stripe walk: entry 0 serves
    /// the calling thread (and the cold readers below), the rest the
    /// other team members of a fanned-out run (ratchets to the member
    /// high-water mark).
    pub(crate) stripe_pool: Vec<StripeScratch>,
    /// Per-member f32 scratch lent to graph executors for the stages
    /// between GEMMs (a decoded plane, a row of pooled outputs, two
    /// addends): entry 0 serves the calling thread, the rest the other
    /// team members of a stage that fans out. Lengths ratchet.
    pub(crate) glue: Vec<Vec<f32>>,
    /// The child workspace for graph execution: every GEMM stage of a
    /// pipeline runs in it while reading its operand in place from
    /// [`Self::slots`]. Created when a graph first executes.
    child: Option<Box<Workspace>>,
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
    /// global ABFT's partials of the run that produced it, so a bound
    /// kernel can check — and after a repair re-sum — without cloning
    /// either.
    pub fn output_and_check(&mut self) -> (&GemmOutput, &mut CheckScratch) {
        (&self.out, &mut self.check)
    }

    /// The convolution-lowering staging matrix (`aiga-nn`'s
    /// `im2col_into` writes here). The intended pattern is
    /// [`Self::take_lowering`] / [`Self::put_lowering`] around the
    /// engine call that consumes it.
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

    /// Stages block-row stripe `stripe` of `a` into the calling
    /// member's scratch, as a stripe task of [`super::gemm_into`] does
    /// before it walks the stripe — callable alone so benches can time
    /// it apart from the microkernel. `k` is the padded K.
    pub fn stage_stripe(&mut self, a: MatrixView<'_>, lanes: Redundancy, k: usize, stripe: usize) {
        self.ensure_stripe_pool(1, lanes);
        self.stripe_pool[0].stage_stripe(a, lanes, simd::active_path(), k, stripe);
    }

    /// Grows the slot table to at least `n` entries (a one-time
    /// allocation; subsequent calls at or below the high-water mark are
    /// free).
    pub fn ensure_slots(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize_with(n, Matrix::default);
        }
    }

    /// Reads value slot `i` (in range after [`Self::ensure_slots`]): its
    /// last writer's `rows × cols` value, row-major.
    pub fn slot(&self, i: usize) -> MatrixView<'_> {
        held(&self.slots[i])
    }

    /// Moves value slot `i` out of the workspace (growing the table if
    /// needed). Graph executors take a stage's output slot, compute
    /// into it, and [`Self::put_slot`] it back — moves, never copies.
    /// Its `data` may run past `rows · cols`: the slot's high-water
    /// length, which a writer keeps (see [`Self::slot`]).
    pub fn take_slot(&mut self, i: usize) -> Matrix {
        self.ensure_slots(i + 1);
        std::mem::take(&mut self.slots[i])
    }

    /// Returns a slot taken with [`Self::take_slot`], preserving its
    /// buffer capacity for the next request.
    pub fn put_slot(&mut self, i: usize, m: Matrix) {
        self.slots[i] = m;
    }

    /// Moves the between-GEMM scratch out, so a stage can hand its
    /// entries to team members while it reads the slots. Pair with
    /// [`Self::put_glue`]; the swap moves pointers, not data.
    pub fn take_glue(&mut self) -> Vec<Vec<f32>> {
        std::mem::take(&mut self.glue)
    }

    /// Returns the scratch taken with [`Self::take_glue`].
    pub fn put_glue(&mut self, glue: Vec<Vec<f32>>) {
        self.glue = glue;
    }

    /// Split borrow for graph execution: value slot `i`, if any, read
    /// as [`Self::slot`] reads it, so a GEMM stage can view a producer's
    /// slot in place as the engine operand, together with the child
    /// workspace the stage runs in (engine scratch and output). The
    /// child is allocated once, so steady-state execution does not
    /// allocate here.
    pub fn slot_and_child(&mut self, i: Option<usize>) -> (Option<MatrixView<'_>>, &mut Workspace) {
        let child = self.child.get_or_insert_with(Box::default);
        (i.map(|i| held(&self.slots[i])), child)
    }

    /// Arms the stripe scratch pool for `n` members under `lanes`: grows
    /// the pool if this is a new high-water mark, then re-arms each
    /// member's scratch in place.
    pub(crate) fn ensure_stripe_pool(&mut self, n: usize, lanes: Redundancy) {
        if self.stripe_pool.len() < n {
            self.stripe_pool.resize_with(n, StripeScratch::default);
        }
        for s in &mut self.stripe_pool[..n] {
            s.block.prepare(lanes);
            s.staged = None;
            s.detections.clear();
            s.flagged.clear();
        }
    }

    /// Recomputes the cells of the most recent run's output in `rows` ×
    /// `cols` (clipped to the output — padded rows and columns have no
    /// cell to repair) from that run's operands — the activations `a`
    /// and the weights `b` — a strip at a time: the strip's rows are
    /// staged again (the run kept no staged copy of `a`; whatever stripe
    /// a member staged last is not trusted to be this one) and each cell
    /// replays the canonical accumulation order (one FMA per K element,
    /// in order — see [`super::simd`]) that the SIMD microkernel and the
    /// scalar oracle share, so a recomputed cell is bit-exact with a
    /// clean run. Faults are never re-applied: the operands are all this
    /// reads. Returns the cells rewritten.
    ///
    /// The one targeted-recompute primitive behind fault correction: a
    /// tile detection's strip rows × flagged columns, a column, a row.
    /// Allocation-free once the workspace has run: stages into the
    /// calling member's stripe scratch.
    pub fn recompute(
        &mut self,
        a: MatrixView<'_>,
        b: &PackedWeights,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
    ) -> u32 {
        assert_eq!(
            (a.rows, a.cols),
            (self.out.m, b.rows()),
            "not this run's operands"
        );
        assert_eq!(
            self.out.c.len(),
            self.out.m * self.out.n,
            "a repair rewrites f32 cells: the run must keep them (Dest::None)"
        );
        let (rows, cols) = (
            rows.start..rows.end.min(self.out.m),
            cols.start..cols.end.min(self.out.n),
        );
        if rows.is_empty() || cols.is_empty() {
            return 0;
        }
        self.ensure_stripe_pool(1, Redundancy::None);
        let (scr, path) = (&mut self.stripe_pool[0], simd::active_path());
        for strip in rows.start / MICRO_MR..rows.end.div_ceil(MICRO_MR) {
            scr.panels
                .stage(a, Redundancy::None, path, b.k(), strip..strip + 1);
            for r in rows.start.max(strip * MICRO_MR)..rows.end.min((strip + 1) * MICRO_MR) {
                for c in cols.clone() {
                    self.out.c[r * self.out.n + c] =
                        simd::dot(scr.panels.row(r % MICRO_MR), b.col(c));
                }
            }
        }
        (rows.len() * cols.len()) as u32
    }
}

/// The value a slot holds: the first `rows · cols` codes of its buffer,
/// which may run longer (see [`Workspace::slots`]).
fn held(slot: &Matrix) -> MatrixView<'_> {
    MatrixView {
        data: &slot.data[..slot.rows * slot.cols],
        ..slot.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{gemm_into, Dest, TileScheme};

    #[test]
    fn only_a_two_sided_run_sums_the_checksum_columns() {
        // A batch-1 request: one-sided ABFT checks its one live row by
        // column chains in the walk, and never needs the group sums.
        let a = Matrix::random(1, 24, 1);
        let b = PackedWeights::pack(&Matrix::random(24, 40, 2));
        let mut ws = Workspace::new();
        let mut run = |a: &Matrix, lanes| {
            let scheme = TileScheme {
                lanes,
                slope: 1e-4,
                floor: 1e-6,
            };
            gemm_into(a, &b, scheme, &[], Dest::None, &mut ws);
        };
        for lanes in [
            Redundancy::None,
            Redundancy::GlobalSums,
            Redundancy::ColumnChecksum,
            Redundancy::ShadowExact,
        ] {
            run(&a, lanes);
        }
        assert!(b.b_chk.get().is_none());
        run(&a, Redundancy::TileChecksum);
        // Three column groups of K = 24 steps, a pair each.
        assert_eq!(b.b_chk.get().map(|s| s.sums.len()), Some(3 * 24 * 2));
    }

    #[test]
    fn a_one_sided_run_over_two_live_rows_sums_the_checksum_columns() {
        let b = PackedWeights::pack(&Matrix::random(24, 40, 2));
        let mut ws = Workspace::new();
        let scheme = TileScheme {
            lanes: Redundancy::ColumnChecksum,
            slope: 1e-4,
            floor: 1e-6,
        };
        gemm_into(
            &Matrix::random(5, 24, 1),
            &b,
            scheme,
            &[],
            Dest::None,
            &mut ws,
        );
        // Five rows: a full strip, then one live row.
        assert!(b.b_chk.get().is_some());
        assert!(!b.b_chk_overflowed());
    }

    #[test]
    fn a_strip_under_one_sided_stages_no_sums() {
        let a = Matrix::random(13, 24, 3);
        let mut p = Panels::default();
        for &path in simd::supported_paths() {
            p.stage(a.view(), Redundancy::GlobalSums, path, 24, 0..4);
            assert!(p.sums);
            p.a_chk.fill(f32::NAN);
            p.stage(a.view(), Redundancy::ColumnChecksum, path, 24, 0..4);
            assert!(!p.sums, "{path:?}");
            assert!(p.a_chk.iter().all(|v| v.is_nan()), "{path:?}: sums written");
        }
    }
}
