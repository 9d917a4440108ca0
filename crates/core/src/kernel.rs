//! A scheme binds itself: [`Scheme::apply_cost`] and [`Scheme::bind`],
//! the two faces of every redundancy scheme, and the [`BoundGemm`] a
//! bind returns.
//!
//! Every scheme the paper evaluates has two faces:
//!
//! 1. an **analytical cost profile** — how Table 1's per-thread work
//!    (redundant MMAs, checksum ops, registers) or §2.5's fused epilogue
//!    and reduce-and-compare kernel land on a [`KernelProfile`] for the
//!    timing model, and
//! 2. a **functional protected execution** — how the scheme actually runs
//!    a GEMM on the host engine and reaches a fault [`Verdict`].
//!
//! [`Scheme`] is a closed enum, so both are closed matches over the
//! families that exist: the schemes whose whole check is the engine's
//! tile epilogue (the four thread-level ones — and the unprotected
//! baseline, which carries no lanes), global ABFT, and its multi-checksum
//! extension at any round count. [`Scheme::bind`] does the offline step
//! once per layer — the weights are packed into the microkernel's panel
//! layout ([`PackedWeights`], the same for every scheme), and the
//! kernel-level schemes' weight checksums are summed from the panels —
//! and returns a [`BoundGemm`]: one concrete value whatever the scheme,
//! whose [`BoundGemm::run_into`] and [`BoundGemm::correct_into`] match
//! on the family's check. [`BoundGemm::rebind`] binds another scheme
//! over the same panels without packing again. The packed panels are
//! the layer's *only* copy of the weights (no storage-format clone
//! beside them): every request, worker, shard and scheme streams the
//! same `Arc`, and a request stages nothing but its own rows. Every id
//! that parses binds and runs; a new scheme is a new [`Scheme`] variant
//! and an arm in these matches.

use crate::schemes::{GlobalAbft, MultiChecksumAbft, Scheme};
use aiga_gpu::engine::{
    self, Dest, FaultPlan, GemmOutput, Matrix, MatrixView, PackedWeights, TileScheme, Workspace,
};
use aiga_gpu::timing::{AuxKernel, Calibration, KernelProfile};
use std::sync::Arc;

/// Tensor-Core FLOPs represented by one per-thread MMA participation.
pub const FLOPS_PER_MMA_PARTICIPATION: u64 = 8;
/// ALU FLOP-equivalents charged per checksum (HADD2-class) operation.
/// One packed HADD2 is a single issue slot and partially dual-issues into
/// the gaps of the Tensor-Core pipeline, so it is charged one
/// flop-equivalent of the packed-math peak rather than two (calibrated —
/// see EXPERIMENTS.md §Fig. 12).
pub const FLOPS_PER_CHECKSUM_OP: u64 = 1;

/// Where a localizing scheme pinned a detected fault.
///
/// Each checksum scheme localizes at the granularity its redundancy
/// affords: a thread-level detection names the cells its failed compare
/// covered (a register tile, one column of a strip, or one row's column
/// group); global ABFT's per-column
/// residual comparison names one output column; the multi-checksum
/// round-residual ratio names one output row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultSite {
    /// A tile check flagged; the cells it compared are suspect (see
    /// `aiga_gpu::engine::Detection`).
    Tile {
        /// First flagged global row.
        row: usize,
        /// First flagged global column.
        col: usize,
    },
    /// One output column implicated by the kernel-level checksum.
    Column {
        /// Global output column index.
        col: usize,
    },
    /// One output row implicated by the weighted-checksum ratio.
    Row {
        /// Global output row index.
        row: usize,
    },
}

/// Outcome of a protected GEMM.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    /// No fault flagged.
    Clean,
    /// A fault was flagged with the given residual and threshold.
    Detected {
        /// Check residual.
        residual: f64,
        /// Threshold it exceeded.
        threshold: f64,
    },
    /// A fault was flagged, localized, and repaired in place — the
    /// output in the workspace is byte-equal to a clean run.
    Corrected {
        /// Residual of the original detection.
        residual: f64,
        /// Threshold it exceeded.
        threshold: f64,
        /// Where the fault was localized.
        site: FaultSite,
        /// True when the repair came from a replication majority vote
        /// rather than a checksum-guided recompute.
        vote: bool,
    },
}

impl Verdict {
    /// True if no fault was flagged.
    pub fn is_clean(self) -> bool {
        matches!(self, Verdict::Clean)
    }

    /// True if a fault was flagged and **not** repaired.
    pub fn is_detected(self) -> bool {
        matches!(self, Verdict::Detected { .. })
    }

    /// True if a fault was flagged and repaired in place.
    pub fn is_corrected(self) -> bool {
        matches!(self, Verdict::Corrected { .. })
    }

    /// True if a fault was flagged at all (detected or corrected).
    pub fn fault_flagged(self) -> bool {
        !self.is_clean()
    }
}

/// Report of one protected GEMM run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The detection verdict.
    pub verdict: Verdict,
    /// The (possibly corrupted) FP32 output. Thread-level schemes also
    /// leave their per-tile detections in `output.detections`.
    pub output: GemmOutput,
}

impl Scheme {
    /// Adds the scheme's costs to a baseline kernel profile (Table 1
    /// scaled by the tiling, or §2.5's epilogue + auxiliary kernel).
    pub fn apply_cost(self, profile: &mut KernelProfile, calib: &Calibration) {
        match self {
            Scheme::Unprotected => {}
            Scheme::GlobalAbft => apply_global_cost(1, profile),
            Scheme::MultiChecksum(rounds) => apply_global_cost(rounds as u64, profile),
            Scheme::ThreadLevelOneSided
            | Scheme::ThreadLevelTwoSided
            | Scheme::ReplicationSingleAcc
            | Scheme::ReplicationTraditional => apply_thread_level_cost(self, profile, calib),
        }
    }

    /// Performs the scheme's offline preparation against a layer's
    /// weights (`B` of `C = A·B`) — packing them into the engine's panel
    /// form, plus the kernel-level schemes' weight checksums — and
    /// returns the layer bound to them. Panics on `MultiChecksum(0)`: a
    /// check needs at least one round.
    pub fn bind(self, weights: &Matrix) -> BoundGemm {
        self.bind_packed(Arc::new(PackedWeights::pack(weights)))
    }

    /// [`Self::bind`] over weights already packed.
    fn bind_packed(self, weights: Arc<PackedWeights>) -> BoundGemm {
        // The threshold depends on the K the lanes accumulate over —
        // the packed (padded) K the engine walks.
        let tile = self.tile_scheme(weights.k());
        let check = match self {
            Scheme::GlobalAbft => Check::Global(GlobalAbft::prepare(&weights)),
            Scheme::MultiChecksum(rounds) => {
                Check::MultiChecksum(MultiChecksumAbft::prepare(&weights, rounds as usize))
            }
            Scheme::Unprotected
            | Scheme::ThreadLevelOneSided
            | Scheme::ThreadLevelTwoSided
            | Scheme::ReplicationSingleAcc
            | Scheme::ReplicationTraditional => Check::Tile,
        };
        BoundGemm {
            scheme: self,
            tile,
            weights,
            check,
        }
    }
}

/// A scheme bound to one layer's weights, ready to serve requests: the
/// scheme, the lanes the engine carries for it, the packed weights and
/// the check that runs after the engine. One concrete value whatever
/// the scheme — the family is an arm of [`Self::run_into`] and
/// [`Self::correct_into`], not a type.
///
/// The execution contract is workspace-threaded: the caller supplies a
/// [`Workspace`], the run executes into it (output readable via
/// [`Workspace::output`]) and returns only the verdict, allocating
/// nothing once the workspace is warm. The conveniences over it — an
/// allocating run, a run followed by its repair — are
/// [`crate::ProtectedGemm`]'s, which owns its activations.
#[derive(Clone)]
pub struct BoundGemm {
    scheme: Scheme,
    tile: TileScheme,
    weights: Arc<PackedWeights>,
    check: Check,
}

/// The check a bound scheme runs after the engine.
#[derive(Clone)]
enum Check {
    /// None: the engine's tile epilogue is the whole check — the
    /// engine carries the scheme's lanes in every register tile
    /// ([`Scheme::tile_scheme`]) and the verdict comes from the tiles'
    /// own compares. The unprotected baseline is the no-lanes case:
    /// nothing to compare, so always clean.
    Tile,
    /// Kernel-level ABFT per Hari et al. (§2.5).
    Global(GlobalAbft),
    /// The §2.4 multi-checksum extension: independent
    /// Vandermonde-weighted checksum rounds, detecting up to that many
    /// faults in distinct rows.
    MultiChecksum(MultiChecksumAbft),
}

impl BoundGemm {
    /// The scheme id.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// This layer's weights under `scheme`: the same panels — shared,
    /// never packed again — with `scheme`'s lanes and check. Rebinding
    /// to the bound scheme is a clone.
    pub fn rebind(&self, scheme: Scheme) -> BoundGemm {
        if scheme == self.scheme {
            return self.clone();
        }
        scheme.bind_packed(Arc::clone(&self.weights))
    }

    /// Runs `activations · weights` under this scheme, injecting
    /// `faults`, entirely inside `ws`. The (possibly corrupted) output —
    /// including per-tile detections for thread-level schemes — is left
    /// in `ws` for the caller to read; the returned [`Verdict`] is the
    /// scheme's overall judgement. `dest` is where the cells go (see
    /// [`engine::gemm_into`]): [`Dest::None`] keeps the f32 output, which
    /// [`Self::correct_into`] repairs, so a caller that may repair runs
    /// with it; with [`Dest::Codes`] the engine's tasks write the codes
    /// instead and the f32 output stays empty — but for multi-checksum,
    /// whose rounds read the output back: it runs with [`Dest::None`]
    /// and fills the codes after its check ([`Dest::encode`]), the same
    /// codes.
    pub fn run_into(
        &self,
        activations: MatrixView<'_>,
        faults: &[FaultPlan],
        dest: Dest<'_>,
        ws: &mut Workspace,
    ) -> Verdict {
        let (dest, after) = match self.check {
            Check::MultiChecksum(_) => (Dest::None, dest),
            _ => (dest, Dest::None),
        };
        let output = engine::gemm_into(activations, &self.weights, self.tile, faults, dest, ws);
        let verdict = match &self.check {
            Check::Tile => match output.detections.first() {
                Some(d) => Verdict::Detected {
                    residual: d.residual,
                    threshold: d.threshold,
                },
                None => Verdict::Clean,
            },
            Check::Global(abft) => {
                // The deferred reduce-and-compare (§2.5 step 5) combines
                // the partials the run's tasks left — it reads neither
                // the activations nor the output again.
                let (output, sums) = ws.output_and_check();
                verdict_from_global(abft.check(sums, output.m, output.n))
            }
            // Walk the rounds directly (no collected MultiVerdict) so the
            // hot path honors the zero-allocation contract.
            Check::MultiChecksum(abft) => (0..abft.rounds())
                .map(|r| abft.verify_round(activations, output, r))
                .find(|v| v.fault_detected)
                .map_or(Verdict::Clean, |v| Verdict::Detected {
                    residual: v.residual,
                    threshold: v.threshold,
                }),
        };
        after.encode(ws.output());
        verdict
    }

    /// Attempts to localize and repair the fault behind a `Detected`
    /// verdict, recomputing only the implicated cells of the output
    /// still sitting in `ws` (from `activations`, whose implicated
    /// strips are staged again, and this layer's own weights). On
    /// success returns [`Verdict::Corrected`] and the workspace output
    /// is byte-equal to a clean run; schemes that cannot localize — and
    /// repairs that fail re-verification — return the verdict
    /// unchanged, as does any verdict but `Detected`. Allocation-free
    /// once the workspace is warm.
    ///
    /// Must be called directly after [`Self::run_into`] on the same
    /// workspace, with the same `activations`.
    pub fn correct_into(
        &self,
        activations: MatrixView<'_>,
        ws: &mut Workspace,
        verdict: Verdict,
    ) -> Verdict {
        let Verdict::Detected {
            residual,
            threshold,
        } = verdict
        else {
            return verdict;
        };
        let site = match &self.check {
            // Tile localization: every detection names the rows and
            // columns its failed compare covered, so repair
            // recomputes exactly those cells from the activations (their
            // strip staged again) and the packed weights. For the
            // replication schemes this is the majority-vote resolution —
            // the disagreeing accumulator is simply overwritten with the
            // recomputed (clean) value instead of merely flagged.
            Check::Tile => {
                let Some(first) = ws.output().detections.first() else {
                    return verdict;
                };
                let site = FaultSite::Tile {
                    row: first.row,
                    col: first.col,
                };
                // Detections live inside the output we are about to
                // repair: copy each one's coordinates out before mutating
                // cells.
                for i in 0..ws.output().detections.len() {
                    let d = &ws.output().detections[i];
                    let (rows, cols) = (d.row..d.row + d.rows, d.col..d.col + d.cols);
                    ws.recompute(activations, &self.weights, rows, cols);
                }
                ws.output_mut().detections.clear();
                site
            }
            // Column localization: the weight checksum gives the
            // *expected* column sum `Σ_k chk(A)[k]·B[k][j]` for every
            // output column (`chk(A)` combined from the run's stripe
            // partials — A is not read again); the column whose observed
            // sum deviates most is the faulted one (a single corrupted
            // cell perturbs exactly one column sum by δ). Recompute that
            // column, re-sum the blocks holding it in the engine's order
            // and re-check the whole layer — a mislocalized repair
            // rewrites identical bits and fails the re-check, so the
            // original verdict survives.
            Check::Global(abft) => {
                let col = {
                    let (output, sums) = ws.output_and_check();
                    let a_sums = sums.activation_sums();
                    let mut best = 0usize;
                    let mut best_diff = f64::NEG_INFINITY;
                    for j in 0..output.n {
                        let mut expected = 0.0f64;
                        for (s, w) in a_sums.chunks_exact(2).zip(self.weights.col(j)) {
                            expected += s[0] as f64 * w as f64;
                        }
                        let mut observed = 0.0f64;
                        for i in 0..output.m {
                            observed += output.get(i, j) as f64;
                        }
                        let diff = (expected - observed).abs();
                        if diff.is_nan() {
                            // A cell struck to NaN or ±Inf: no larger
                            // deviation exists.
                            best = j;
                            break;
                        }
                        if diff > best_diff {
                            best_diff = diff;
                            best = j;
                        }
                    }
                    best
                };
                ws.recompute(
                    activations,
                    &self.weights,
                    0..activations.rows,
                    col..col + 1,
                );
                let (output, sums) = ws.output_and_check();
                sums.resum_column(output, col);
                if abft.check(sums, output.m, output.n).fault_detected {
                    return verdict;
                }
                FaultSite::Column { col }
            }
            // Row localization via the Vandermonde weights: a single
            // fault `δ` in row `ρ` leaves signed residual `w_r(ρ)·δ =
            // ((ρ+1)/u)^r·δ` in every round (`u` the power-of-two row
            // unit), so round 1 over round 0, times `u`, recovers `ρ+1`
            // exactly. Needs two rounds; a non-integral ratio
            // (several faulted rows, or a round-0 cancellation) leaves
            // the verdict unrepaired. Repaired rows re-verify through
            // every round before the verdict upgrades.
            Check::MultiChecksum(abft) => {
                if abft.rounds() < 2 {
                    return verdict;
                }
                let row = {
                    let output = ws.output();
                    let res0 = abft.round_residual_signed(activations, output, 0);
                    let res1 = abft.round_residual_signed(activations, output, 1);
                    let ratio = res1 / res0 * MultiChecksumAbft::row_unit(output.m);
                    if !ratio.is_finite() || !(0.5..output.m as f64 + 0.5).contains(&ratio) {
                        return verdict;
                    }
                    let row = ratio.round();
                    if (ratio - row).abs() > 0.25 {
                        return verdict;
                    }
                    row as usize - 1
                };
                let cols = 0..self.weights.cols();
                ws.recompute(activations, &self.weights, row..row + 1, cols);
                let output = ws.output();
                for r in 0..abft.rounds() {
                    if abft.verify_round(activations, output, r).fault_detected {
                        return verdict;
                    }
                }
                FaultSite::Row { row }
            }
        };
        Verdict::Corrected {
            residual,
            threshold,
            site,
            vote: matches!(
                self.scheme,
                Scheme::ReplicationSingleAcc | Scheme::ReplicationTraditional
            ),
        }
    }
}

fn verdict_from_global(v: crate::schemes::GlobalVerdict) -> Verdict {
    if v.fault_detected {
        Verdict::Detected {
            residual: v.residual,
            threshold: v.threshold,
        }
    } else {
        Verdict::Clean
    }
}

/// Table-1 cost application shared by every thread-level scheme.
fn apply_thread_level_cost(scheme: Scheme, p: &mut KernelProfile, calib: &Calibration) {
    let tiling = p.tiling;
    let steps = p.total_thread_steps();
    p.tc_flops +=
        steps * (scheme.extra_mmas_per_step(&tiling) * FLOPS_PER_MMA_PARTICIPATION) as f64;
    p.alu_ops += steps * (scheme.checksum_ops_per_step(&tiling) * FLOPS_PER_CHECKSUM_OP) as f64;
    p.extra_regs_per_thread = scheme.extra_regs(&tiling);
    // The thread-local final comparison lengthens the kernel tail.
    p.tail_s = calib.thread_check_tail_s;
}

/// §2.5 epilogue + reduce-and-compare cost shared by global ABFT and its
/// multi-checksum extension (`rounds` independent checksum rounds; plain
/// global ABFT is `rounds = 1`).
fn apply_global_cost(rounds: u64, p: &mut KernelProfile) {
    let (m, n, k) = (p.shape.m as f64, p.shape.n as f64, p.shape.k as f64);
    let blocks = p.tiling.total_blocks(p.shape) as f64;
    let r = rounds as f64;
    // Fused epilogues (§2.5 steps 2 and 4): the output summation (one add
    // per output element, M·N) and the activation checksum over this
    // layer's lowered input (M·K adds — for convolutions the im2col
    // multiplicity makes this the larger term; in the NN flow it is
    // produced by the previous layer's epilogue, which is
    // aggregate-equivalent per layer). Each extra checksum round repeats
    // both with different row weights.
    p.alu_ops += r * (m * n + m * k);
    // Stores of the per-block partial sums and the checksum row(s).
    p.dram_bytes += r * 4.0 * (n + blocks);
    // The separate reduce-and-compare kernel (step 5): dot the K-length
    // checksums and reduce the per-block partials, once per round (the
    // rounds share one launch, as a production kernel would batch them).
    p.aux_kernels.push(AuxKernel {
        name: if rounds == 1 {
            "global-abft reduce+compare"
        } else {
            "multi-checksum reduce+compare"
        },
        alu_flops: r * (2.0 * k + blocks),
        dram_bytes: r * 4.0 * (2.0 * k + blocks),
    });
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use aiga_gpu::engine::FaultKind;
    use aiga_gpu::GemmShape;

    /// The packed weights `bound` runs on.
    pub(crate) fn weights(bound: &BoundGemm) -> &Arc<PackedWeights> {
        &bound.weights
    }

    /// The baseline, the paper's five schemes and two extension round
    /// counts — one of them (4) beyond anything a table ever listed.
    fn schemes() -> impl Iterator<Item = Scheme> {
        [Scheme::Unprotected]
            .into_iter()
            .chain(Scheme::all_protected())
            .chain([Scheme::MultiChecksum(2), Scheme::MultiChecksum(4)])
    }

    fn run_scheme(scheme: Scheme, fault: Option<FaultPlan>) -> Verdict {
        let a = Matrix::random(48, 56, 11);
        let b = Matrix::random(56, 40, 12);
        let ws = &mut Workspace::new();
        scheme
            .bind(&b)
            .run_into(a.view(), fault.as_slice(), Dest::None, ws)
    }

    #[test]
    fn every_builtin_kernel_reports_its_scheme() {
        for scheme in schemes() {
            assert_eq!(scheme.bind(&Matrix::random(16, 16, 1)).scheme(), scheme);
        }
    }

    #[test]
    fn builtin_kernels_are_clean_without_faults_and_detect_large_ones() {
        let fault = FaultPlan {
            row: 3,
            col: 5,
            after_step: u64::MAX,
            kind: FaultKind::AddValue(1e3),
        };
        for scheme in schemes() {
            assert!(run_scheme(scheme, None).is_clean(), "{scheme}");
            let dirty = run_scheme(scheme, Some(fault));
            if scheme == Scheme::Unprotected {
                assert!(dirty.is_clean());
            } else {
                assert!(dirty.is_detected(), "{scheme}");
            }
        }
    }

    #[test]
    fn a_rebound_layer_shares_its_panels_and_runs_like_a_fresh_bind() {
        let fault = FaultPlan {
            row: 3,
            col: 5,
            after_step: 2,
            kind: FaultKind::AddValue(1e3),
        };
        let a = Matrix::random(48, 56, 11);
        let b = Matrix::random(56, 40, 12);
        let base = Scheme::Unprotected.bind(&b);
        let ws = &mut Workspace::new();
        for scheme in schemes() {
            let rebound = base.rebind(scheme);
            assert!(Arc::ptr_eq(weights(&rebound), weights(&base)), "{scheme}");
            let mut run = |bound: &BoundGemm| {
                let verdict = bound.run_into(a.view(), &[fault], Dest::None, ws);
                (format!("{verdict:?}"), ws.output().c.clone())
            };
            assert_eq!(run(&rebound), run(&scheme.bind(&b)), "{scheme}");
        }
    }

    #[test]
    fn multi_checksum_kernel_detects_cancelling_pairs() {
        let a = Matrix::random(48, 64, 21);
        let b = Matrix::random(64, 40, 22);
        let bound = Scheme::MultiChecksum(2).bind(&b);
        let pair = [
            FaultPlan {
                row: 3,
                col: 5,
                after_step: u64::MAX,
                kind: FaultKind::AddValue(250.0),
            },
            FaultPlan {
                row: 20,
                col: 9,
                after_step: u64::MAX,
                kind: FaultKind::AddValue(-250.0),
            },
        ];
        let ws = &mut Workspace::new();
        assert!(bound
            .run_into(a.view(), &pair, Dest::None, ws)
            .is_detected());
        // Plain global ABFT is blind to the same pair.
        let global = Scheme::GlobalAbft.bind(&b);
        assert!(global.run_into(a.view(), &pair, Dest::None, ws).is_clean());
    }

    #[test]
    fn multi_checksum_cost_scales_with_rounds() {
        let calib = Calibration::default();
        let dev = aiga_gpu::DeviceSpec::t4();
        let base = KernelProfile::baseline(GemmShape::square(256), &dev, &calib);
        let cost_of = |scheme: Scheme| {
            let mut p = base.clone();
            scheme.apply_cost(&mut p, &calib);
            aiga_gpu::timing::estimate(&p, &dev, &calib).total_s
        };
        let one = cost_of(Scheme::GlobalAbft);
        let three = cost_of(Scheme::MultiChecksum(3));
        assert!(three > one, "more rounds must cost more: {three} vs {one}");
    }

    #[test]
    #[should_panic(expected = "at least one checksum round")]
    fn zero_round_kernel_is_rejected() {
        Scheme::MultiChecksum(0).bind(&Matrix::zeros(4, 4));
    }
}
