//! One-sided thread-level ABFT (§5.2.2) — the scheme intensity-guided
//! ABFT deploys on bandwidth-bound layers.
//!
//! On the GPU a thread checksums its `Bt` chunk per K-step and
//! multiplies its whole `At` chunk by that checksum on Tensor Cores
//! (`Mt/2` extra MMAs, `O(Nt)` checksum ops — Table 1), reusing loads it
//! already made. The host's "thread" is the `MICRO_MR × MICRO_NR`
//! register tile, whose cheap side is the other one: the A strip is
//! broadcast a scalar at a time, so the strip's column sum
//! `s[k] = Σ_i a[i][k]` (summed once at staging) rides as a fifth
//! broadcast row against the two B vectors the tile already loaded.
//! Per K element that is [`MICRO_NR`] checksum FMAs beside
//! `MICRO_MR·MICRO_NR` data FMAs (¼ more), and no memory traffic the
//! data walk does not already make (the §3.5 design principle). The
//! epilogue compares each column sum of the stored tile against its
//! checksum lane, so a detection names one strip column: `MICRO_MR`
//! cells. The threshold's magnitude `Σ_k s_abs[k]·|b[k][j]|` with
//! `s_abs[k] = Σ_i |a[i][k]|` is not carried: `|checksum|` bounds it
//! from below bit for bit, so the engine takes it only for a column
//! whose compare fails at `|checksum|`.
//!
//! [`MICRO_NR`]: aiga_gpu::engine::MICRO_NR

use super::{analytical, gamma_rounds};
use aiga_gpu::engine::{Redundancy, TileScheme, MICRO_MR};

/// The engine-side scheme for a GEMM whose padded inner dimension is
/// `k`.
///
/// Threshold derivation, all in f32 (`u = 2⁻²⁴`), against the magnitude
/// `M = Σ_k s_abs[k]·|b[k][j]|`, which bounds every partial sum below:
///
/// - each of the `MICRO_MR` data accumulators is a `k`-step FMA chain:
///   together at most `γ_k·M`;
/// - the checksum lane is a `k`-step FMA chain over `s[k]`, itself a
///   pairwise sum of `MICRO_MR` values (2 roundings): `γ_{k+2}·M`;
/// - the epilogue's pairwise column sum of the tile: `γ_2·M`;
/// - the magnitude chain is one of non-negative terms, so it
///   under-reads `M` by at most `γ_{k+2}`.
///
/// `n = 2k + 4·MICRO_MR` roundings cover the first three with slack, and
/// `n/(1 − n·u)` (Higham's `γ_n`) absorbs the fourth and every
/// second-order term — a worst-case forward bound, so a clean run can
/// never flag, with every rounding charged at `2⁻²⁴` where the modelled
/// fp16 HADD2 chain charged `2⁻¹¹`.
pub fn tile_scheme(k: usize) -> TileScheme {
    analytical(
        Redundancy::ColumnChecksum,
        gamma_rounds(2 * k + 4 * MICRO_MR),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::Scheme;
    use aiga_gpu::engine::{gemm, FaultKind, FaultPlan, Matrix};
    use aiga_gpu::TilingConfig;

    #[test]
    fn clean_run_raises_no_detection() {
        let a = Matrix::random(32, 64, 21);
        let b = Matrix::random(64, 32, 22);
        let out = gemm(&a, &b, tile_scheme(64), &[]);
        assert!(!out.fault_detected(), "{:?}", out.detections.first());
    }

    #[test]
    fn detects_an_injected_additive_fault() {
        let a = Matrix::random(32, 64, 23);
        let b = Matrix::random(64, 32, 24);
        let fault = FaultPlan {
            row: 10,
            col: 3,
            after_step: 7,
            kind: FaultKind::AddValue(64.0),
        };
        let out = gemm(&a, &b, tile_scheme(64), &[fault]);
        assert!(out.fault_detected());
        // Exactly one strip column owns the element, so exactly one
        // detection.
        assert_eq!(out.detections.len(), 1);
        assert!(out.detections[0].residual > out.detections[0].threshold);
    }

    #[test]
    fn detects_exponent_bit_flips() {
        let a = Matrix::random(32, 64, 25);
        let b = Matrix::random(64, 32, 26);
        for bit in [23u8, 25, 28, 30] {
            let fault = FaultPlan {
                row: 1,
                col: 1,
                after_step: u64::MAX,
                kind: FaultKind::BitFlip(bit),
            };
            let out = gemm(&a, &b, tile_scheme(64), &[fault]);
            assert!(out.fault_detected(), "bit {bit} escaped detection");
        }
    }

    #[test]
    fn counters_match_table_1() {
        // Table 1's per-thread counts are the analytic model's; the
        // engine reports what the host ran instead — a quarter more
        // FMAs than the data walk.
        let t = TilingConfig::candidates()[2];
        let one = Scheme::ThreadLevelOneSided;
        assert_eq!(one.extra_mmas_per_step(&t), t.thread_mt() / 2);
        assert_eq!(one.checksum_ops_per_step(&t), t.thread_nt() / 2);
        let a = Matrix::random(32, 64, 27);
        let b = Matrix::random(64, 32, 28);
        let c = gemm(&a, &b, tile_scheme(64), &[]).counters;
        assert_eq!(c.data_fmas, 32 * 32 * 64);
        assert_eq!(c.checksum_fmas * 4, c.data_fmas);
    }

    #[test]
    fn detection_localizes_to_the_owning_thread_rows() {
        // One-sided ABFT checks per strip column: a fault at (r, c) is
        // flagged by the register tile owning it, at exactly column c.
        let a = Matrix::random(32, 64, 29);
        let b = Matrix::random(64, 32, 30);
        let fault = FaultPlan {
            row: 9,
            col: 20,
            after_step: 0,
            kind: FaultKind::SetValue(1000.0),
        };
        let out = gemm(&a, &b, tile_scheme(64), &[fault]);
        assert_eq!(out.detections.len(), 1);
        let d = &out.detections[0];
        assert_eq!((d.row, d.col, d.cols), (8, 20, 1));
    }
}
