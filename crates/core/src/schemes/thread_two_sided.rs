//! Two-sided thread-level ABFT (§5.2.2).
//!
//! On the GPU a thread checksums *both* its `At` chunk (column sums)
//! and its `Bt` chunk (row sums) per K-step and performs a single MMA
//! across the checksums — the minimum redundant Tensor-Core work, but
//! `O(Mt + Nt)` checksum operations on the traditional ALUs, which is
//! what makes it lose to one-sided ABFT there (§6.5).
//!
//! On the host both checksums are summed once at staging — the strip
//! column sum `s[k]` one-sided ABFT also uses, and a B row sum
//! `t[k] = Σ_j b[k][j]` per register-tile column group — so the K loop
//! carries just one scalar chain per tile, `Σ_k s[k]·t[k]`, and its
//! magnitude `Σ_k s_abs[k]·t_abs[k]` (one xmm FMA per K element beside
//! the tile's eight ymm FMAs). The price is paid at staging (one more
//! pass over B per run) and in resolution: the epilogue makes one
//! comparison per tile, against the sum of all its
//! `MICRO_MR·MICRO_NR` cells, so the detectability floor is
//! `MICRO_NR`× one-sided's and a detection names the whole tile.

use super::{analytical, gamma_rounds};
use aiga_gpu::engine::{Redundancy, TileScheme, MICRO_NR};

/// The engine-side scheme for a GEMM whose padded inner dimension is
/// `k`.
///
/// Same derivation as [`super::thread_one_sided::tile_scheme`] against
/// `M = Σ_k s_abs[k]·t_abs[k]`: `γ_k·M` for the data chains, `γ_{k+17}·M`
/// for the corner chain (`s[k]` is a 2-rounding pairwise sum, `t[k]` a
/// 15-rounding running sum), `γ_6·M` for the epilogue's tile sum (column
/// sums, then a 4-level tree) — `n = 2k + 2·MICRO_NR` with slack, taken
/// as `γ_n`.
pub fn tile_scheme(k: usize) -> TileScheme {
    analytical(Redundancy::TileChecksum, gamma_rounds(2 * k + 2 * MICRO_NR))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::Scheme;
    use aiga_gpu::engine::{gemm, FaultKind, FaultPlan, Matrix};
    use aiga_gpu::TilingConfig;

    #[test]
    fn clean_run_raises_no_detection() {
        let a = Matrix::random(32, 64, 31);
        let b = Matrix::random(64, 32, 32);
        let out = gemm(&a, &b, tile_scheme(64), &[]);
        assert!(!out.fault_detected(), "{:?}", out.detections.first());
    }

    #[test]
    fn detects_an_injected_fault() {
        let a = Matrix::random(32, 64, 33);
        let b = Matrix::random(64, 32, 34);
        let fault = FaultPlan {
            row: 4,
            col: 4,
            after_step: 2,
            kind: FaultKind::AddValue(128.0),
        };
        let out = gemm(&a, &b, tile_scheme(64), &[fault]);
        assert!(out.fault_detected());
        assert_eq!(out.detections.len(), 1);
        let d = &out.detections[0];
        assert_eq!((d.row, d.col, d.cols), (4, 0, MICRO_NR));
    }

    #[test]
    fn single_mma_per_step_in_counters() {
        // Table 1: one redundant MMA and O(Mt + Nt) checksum ops per
        // thread-step in the analytic model; on the host, one redundant
        // FMA per register tile per K element.
        let t = TilingConfig::candidates()[2];
        let two = Scheme::ThreadLevelTwoSided;
        assert_eq!(two.extra_mmas_per_step(&t), 1);
        assert_eq!(two.checksum_ops_per_step(&t), t.thread_mt() + t.thread_nt());
        let a = Matrix::random(32, 64, 35);
        let b = Matrix::random(64, 32, 36);
        let c = gemm(&a, &b, tile_scheme(64), &[]).counters;
        assert_eq!(c.checksum_fmas, c.tiles * 64);
    }

    #[test]
    fn coarse_scalar_check_still_detects_significant_corruption() {
        // Two-sided ABFT makes ONE comparison per tile over the sum of
        // all its accumulators, so its detectability floor is higher
        // than one-sided's per-column checks — but significant
        // corruption (e.g. a high-exponent flip driving the value to
        // 1e4) is caught.
        let a = Matrix::random(32, 64, 37);
        let b = Matrix::random(64, 32, 38);
        let fault = FaultPlan {
            row: 0,
            col: 0,
            after_step: u64::MAX,
            kind: FaultKind::SetValue(1e4),
        };
        let out = gemm(&a, &b, tile_scheme(64), &[fault]);
        assert!(out.fault_detected());
    }
}
