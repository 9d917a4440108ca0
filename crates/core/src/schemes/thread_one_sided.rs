//! One-sided thread-level ABFT (§5.2.2) — the scheme intensity-guided
//! ABFT deploys on bandwidth-bound layers.
//!
//! On the GPU a thread checksums its `Bt` chunk per K-step and
//! multiplies its whole `At` chunk by that checksum on Tensor Cores
//! (`Mt/2` extra MMAs, `O(Nt)` checksum ops — Table 1), reusing loads it
//! already made. The host keeps that form. The weights are static, so
//! the B checksum — each 16-column group's `t_g[k] = Σ_{j∈g} b[k][j]`,
//! beside `Σ_{j∈g} |b[k][j]|` for the error bound — is summed once per
//! layer, at the first run that needs it, and kept with the packed
//! weights. A strip of two or more live rows walks clean; after the walk
//! a small pass over the strips its team member just staged takes each
//! row's check `Σ_k a[i][k]·t_g[k]`, one FMA a K step for a strip's
//! four rows against a vector's groups — a sixteenth of the data FMAs —
//! and the epilogue compares it with `Σ_{j∈g} c[i][j]` of the stored
//! tile, so a detection names one row × one column group. A strip with
//! one live row (a batch-1 request, the ragged last strip of an
//! `m ≡ 1 (mod 4)` layer) checks the other way round, as a chain per
//! column on the B vectors its one-row tile already loads: at batch 1
//! the weight-side check would stream the sums through a layer whose
//! time is its weight stream, while these FMAs cost no byte. Neither
//! check carries its magnitude: `|checksum|` bounds it from below bit
//! for bit, so the engine takes it only where a compare fails at
//! `|checksum|` (see `aiga_gpu::engine`'s `walk` module).

use super::{analytical, gamma_rounds};
use aiga_gpu::engine::{Redundancy, TileScheme, MICRO_NR};

/// The engine-side scheme for a GEMM whose padded inner dimension is
/// `k`.
///
/// Threshold derivation, all in f32 (`u = 2⁻²⁴`), for a row check
/// against the magnitude `M = Σ_k |a[i][k]|·t_abs[k]`, where the computed
/// `t_abs[k]` bounds the exact `Σ_j |b[k][j]|` from below by at most
/// `γ_15` and `M` every partial sum of the check below:
///
/// - each of a row group's [`MICRO_NR`] data accumulators is a `k`-step
///   FMA chain: together at most `γ_k·M`;
/// - the epilogue's pairwise sum of those [`MICRO_NR`] cells: `γ_4·M`;
/// - each `t[k]` is a serial sum of [`MICRO_NR`] weights from zero
///   (15 roundings): `γ_15·M` through the check;
/// - the check chain's `k` FMAs, in four sub-chains joined by two adds:
///   `γ_k·M`;
/// - the magnitude is taken by non-negative chains in the same order
///   over the computed `t_abs`, so it under-reads the exact magnitude by
///   at most `γ_{k+15}`.
///
/// `n = 2k + 2·MICRO_NR` roundings cover the first four (`2k + 19`)
/// with slack, and `n/(1 − n·u)` (Higham's `γ_n`) absorbs the fifth and
/// every second-order term — a worst-case forward bound, so a clean run
/// can never flag, with every rounding charged at `2⁻²⁴` where the
/// modelled fp16 HADD2 chain charged `2⁻¹¹`. A strip with one live row
/// compares a column's chain with a stored cell that ran the same chain,
/// a tighter case under the same threshold.
pub fn tile_scheme(k: usize) -> TileScheme {
    analytical(
        Redundancy::ColumnChecksum,
        gamma_rounds(2 * k + 2 * MICRO_NR),
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
        // Exactly one row group owns the element, so exactly one
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
        // engine reports what the host ran instead — one row check FMA
        // per row and K step, a sixteenth of the data walk.
        let t = TilingConfig::candidates()[2];
        let one = Scheme::ThreadLevelOneSided;
        assert_eq!(one.extra_mmas_per_step(&t), t.thread_mt() / 2);
        assert_eq!(one.checksum_ops_per_step(&t), t.thread_nt() / 2);
        let a = Matrix::random(32, 64, 27);
        let b = Matrix::random(64, 32, 28);
        let c = gemm(&a, &b, tile_scheme(64), &[]).counters;
        assert_eq!(c.data_fmas, 32 * 32 * 64);
        assert_eq!(c.checksum_fmas * 16, c.data_fmas);
    }

    #[test]
    fn detection_localizes_to_the_owning_thread_rows() {
        // One-sided ABFT checks a wide strip per row and column group: a
        // fault at (r, c) is flagged at exactly row r, in c's group.
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
        assert_eq!((d.row, d.rows, d.col, d.cols), (9, 1, 16, 16));
    }
}
