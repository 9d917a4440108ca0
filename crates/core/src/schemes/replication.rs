//! Thread-level replication (§4): the two variants the paper explored
//! before settling on ABFT.
//!
//! *Traditional* replication duplicates every MMA **and** every
//! accumulator register, comparing element-wise at the end. Both copies
//! compute bit-identical sequences, so the comparison is exact — but the
//! doubled register footprint cuts occupancy (or spills), which is why
//! the paper discards it.
//!
//! *Single-accumulation* replication re-issues every MMA but folds all
//! redundant results into four shared registers; the invariant is that
//! the sum of those four equals the sum of the thread's `Mt·Nt` original
//! accumulators. Register pressure stays flat at the cost of a coarser,
//! tolerance-based check.
//!
//! On the host both are a second microkernel pass over the same packed
//! panels into a shadow tile — the register file has no room for a
//! second 4×16 accumulator set, which is the same cliff in miniature —
//! and differ only in the epilogue: traditional compares the two tiles
//! bit for bit (a detection names one strip column), single-accumulation
//! compares only the two register-tile *sums* (a detection names the
//! tile), so a fault small enough to vanish in the sum's rounding
//! escapes it.

use super::analytical;
use aiga_gpu::engine::{Redundancy, TileScheme};

/// Traditional replication's engine-side scheme: bitwise compare, no
/// threshold.
pub fn traditional_tile_scheme() -> TileScheme {
    TileScheme {
        lanes: Redundancy::ShadowExact,
        slope: 0.0,
        floor: 0.0,
    }
}

/// Single-accumulation replication's engine-side scheme. The two tile
/// sums run the same operations on (when clean) the same bits, so any
/// threshold is free of false alarms; this one charges the 6 roundings
/// of each sum against `Σ |shadow cell|` — the resolution a fold into
/// shared registers keeps.
pub fn single_acc_tile_scheme() -> TileScheme {
    analytical(Redundancy::ShadowSum, 12.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::Scheme;
    use aiga_gpu::engine::{gemm, FaultKind, FaultPlan, Matrix};
    use aiga_gpu::TilingConfig;

    #[test]
    fn traditional_is_exactly_clean_without_faults() {
        let a = Matrix::random(32, 32, 41);
        let b = Matrix::random(32, 32, 42);
        let out = gemm(&a, &b, traditional_tile_scheme(), &[]);
        assert!(!out.fault_detected());
    }

    #[test]
    fn traditional_detects_even_one_ulp_faults() {
        // Exact comparison catches the smallest possible corruption —
        // the advantage replication buys with its doubled work.
        let a = Matrix::random(32, 32, 43);
        let b = Matrix::random(32, 32, 44);
        let fault = FaultPlan {
            row: 2,
            col: 2,
            after_step: u64::MAX,
            kind: FaultKind::BitFlip(0), // LSB of the mantissa
        };
        let out = gemm(&a, &b, traditional_tile_scheme(), &[fault]);
        assert!(out.fault_detected());
    }

    #[test]
    fn single_acc_is_clean_without_faults() {
        let a = Matrix::random(32, 32, 45);
        let b = Matrix::random(32, 32, 46);
        let out = gemm(&a, &b, single_acc_tile_scheme(), &[]);
        assert!(!out.fault_detected(), "{:?}", out.detections.first());
    }

    #[test]
    fn single_acc_detects_large_faults_only() {
        let a = Matrix::random(32, 32, 47);
        let b = Matrix::random(32, 32, 48);
        let at = |kind| FaultPlan {
            row: 1,
            col: 1,
            after_step: 4,
            kind,
        };
        let big = at(FaultKind::AddValue(500.0));
        let out = gemm(&a, &b, single_acc_tile_scheme(), &[big]);
        assert!(out.fault_detected());
        // A one-ulp flip is absorbed by the tile sum's rounding budget.
        let ulp = FaultPlan {
            after_step: u64::MAX,
            ..at(FaultKind::BitFlip(0))
        };
        let out = gemm(&a, &b, single_acc_tile_scheme(), &[ulp]);
        assert!(!out.fault_detected());
    }

    #[test]
    fn both_variants_double_the_mma_count() {
        let t = TilingConfig::candidates()[2];
        let a = Matrix::random(32, 32, 49);
        let b = Matrix::random(32, 32, 50);
        for (scheme, tile) in [
            (Scheme::ReplicationTraditional, traditional_tile_scheme()),
            (Scheme::ReplicationSingleAcc, single_acc_tile_scheme()),
        ] {
            assert_eq!(scheme.extra_mmas_per_step(&t), t.mmas_per_thread_step());
            let c = gemm(&a, &b, tile, &[]).counters;
            assert_eq!(c.checksum_fmas, c.data_fmas, "{scheme}");
        }
    }
}
