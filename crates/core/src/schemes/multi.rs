//! Multi-checksum global ABFT — the §2.4 extension for higher fault
//! rates.
//!
//! Single-checksum ABFT guarantees detection of **one** faulty output
//! value: two faults whose errors cancel in the plain summation are
//! invisible to it. §2.4: *"To do so, ABFT generates multiple checksum
//! columns and rows based on independent linear combinations of
//! columns/rows."* This module implements that scheme with the classical
//! Vandermonde-style weights `w_r(i) = ((i+1)/u)^r` for rounds `r =
//! 0..R`, where `u` is the output's row count rounded up to a power of
//! two:
//!
//! - round 0 is ordinary global ABFT (all-ones combination);
//! - round `r` compares `Σ_ij w_r(i) · C[i][j]` against
//!   `(Σ_i w_r(i) · A[i,:]) · (B · 1)`.
//!
//! Any `e ≤ R` faults confined to `e` distinct rows produce a nonzero
//! residual in at least one round, because the errors would otherwise
//! have to be a nonzero kernel vector of an `R × e` Vandermonde system.
//! The `1/u` keeps every weight at most 1: unscaled, `(i+1)^r` overflows
//! f64 once `r·log₂ m` passes 1024 (64 rows at 255 rounds), and the
//! check flags clean data. A power of two scales exactly, so round `r`'s
//! residual and magnitude are the unscaled ones times `u^-r` wherever
//! nothing underflows (a row whose weight does drops out of that round;
//! round 0, all ones, sees every row).
//! Checksums are carried in FP64 here (the weighted sums grow with `M`,
//! so a production kernel would use wider accumulation for the weighted
//! rounds too); the comparison still uses the analytical tolerance
//! because `C` itself is FP32.

use crate::schemes::GlobalVerdict;
use crate::tolerance::{self, exceeds};
use aiga_gpu::engine::{GemmOutput, Matrix, MatrixView, PackedWeights};

/// Multi-round weighted global ABFT state for one layer.
#[derive(Clone, Debug)]
pub struct MultiChecksumAbft {
    /// Offline weight checksum `B · 1` in FP64.
    weight_checksum: Vec<f64>,
    /// `Σ_j |B[k][j]|` per `k`.
    weight_abs: Vec<f64>,
    /// Number of independent checksum rounds.
    rounds: usize,
}

/// Verdict of a multi-round check.
#[derive(Clone, Debug)]
pub struct MultiVerdict {
    /// Per-round verdicts, round 0 first.
    pub rounds: Vec<GlobalVerdict>,
}

impl MultiVerdict {
    /// True if any round flagged a fault.
    pub fn fault_detected(&self) -> bool {
        self.rounds.iter().any(|r| r.fault_detected)
    }

    /// Index of the first round that flagged, if any.
    pub fn first_failing_round(&self) -> Option<usize> {
        self.rounds.iter().position(|r| r.fault_detected)
    }
}

impl MultiChecksumAbft {
    /// Prepares `rounds ≥ 1` independent checksums from the packed
    /// weights, read back row by row.
    pub fn prepare(b: &PackedWeights, rounds: usize) -> Self {
        assert!(rounds >= 1, "at least one checksum round required");
        let mut weight_checksum = Vec::with_capacity(b.rows());
        let mut weight_abs = Vec::with_capacity(b.rows());
        b.for_each_row(|row| {
            let (mut sum, mut abs) = (0.0f64, 0.0f64);
            for &v in row {
                sum += v as f64;
                abs += (v as f64).abs();
            }
            weight_checksum.push(sum);
            weight_abs.push(abs);
        });
        MultiChecksumAbft {
            weight_checksum,
            weight_abs,
            rounds,
        }
    }

    /// Number of independent rounds (detects up to this many faults in
    /// distinct rows).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// `m` rounded up to a power of two: what an `m`-row output's row
    /// numbers are divided by. A single fault in row `ρ` leaves round 1
    /// ÷ round 0 = `(ρ+1) / row_unit(m)`.
    pub(crate) fn row_unit(m: usize) -> f64 {
        m.next_power_of_two() as f64
    }

    /// Weight of row `i` in round `r`, `scale` being `1 / row_unit(m)`
    /// of the output's `m` rows: `((i+1)·scale)^r`, with `r = 0` the
    /// plain all-ones checksum.
    fn weight(i: usize, scale: f64, r: usize) -> f64 {
        ((i as f64 + 1.0) * scale).powi(r as i32)
    }

    /// Runs all checksum rounds for one layer.
    pub fn verify(&self, a: &Matrix, out: &GemmOutput) -> MultiVerdict {
        let rounds = (0..self.rounds)
            .map(|r| self.verify_round(a.view(), out, r))
            .collect();
        MultiVerdict { rounds }
    }

    /// The one `M·K + M·N` f64 walk of round `r`: the checksum dot
    /// product `(Σ_i w_r(i)·A[i,:])·(B·1)`, the magnitude `Σ|·|` that
    /// bounds its error, and the weighted output summation
    /// `Σ_ij w_r(i)·C[i][j]`.
    fn round_sums(&self, a: MatrixView<'_>, out: &GemmOutput, r: usize) -> (f64, f64, f64) {
        assert_eq!(a.cols, self.weight_checksum.len(), "K mismatch");
        assert!(r < self.rounds, "round out of range");
        // Weighted activation checksum: u_k = Σ_i w_r(i)·A[i][k].
        let scale = 1.0 / Self::row_unit(a.rows);
        let mut dot = 0.0f64;
        let mut magnitude = 0.0f64;
        for k in 0..a.cols {
            let mut u = 0.0f64;
            let mut u_abs = 0.0f64;
            for i in 0..a.rows {
                let w = Self::weight(i, scale, r);
                let v = a.get_f64(i, k);
                u += w * v;
                u_abs += w * v.abs();
            }
            dot += u * self.weight_checksum[k];
            magnitude += u_abs * self.weight_abs[k];
        }
        let mut c_sum = 0.0f64;
        for i in 0..out.m {
            let w = Self::weight(i, scale, r);
            for j in 0..out.n {
                c_sum += w * out.get(i, j) as f64;
            }
        }
        (dot, magnitude, c_sum)
    }

    /// Runs checksum round `r` alone. Allocation-free — the serving hot
    /// path walks rounds with this directly instead of collecting a
    /// [`MultiVerdict`].
    pub fn verify_round(&self, a: MatrixView<'_>, out: &GemmOutput, r: usize) -> GlobalVerdict {
        let (dot, magnitude, c_sum) = self.round_sums(a, out, r);
        let residual = (dot - c_sum).abs();
        // C is FP32: each element carries FP32 accumulation error
        // scaled by its weight; the FP64 checksum arithmetic adds
        // nothing material. An empty inner dimension adds no level
        // (`log₂ 0` would make the threshold NaN, and flag).
        let rounds32 = (a.cols.max(1) as f64).log2().ceil() + 24.0;
        let threshold = tolerance::threshold(rounds32, magnitude);
        GlobalVerdict {
            fault_detected: exceeds(residual, threshold),
            residual,
            threshold,
        }
    }

    /// The **signed** residual of round `r`: `Σ_ij w_r(i)·C[i][j] −
    /// (Σ_i w_r(i)·A[i,:])·(B·1)` (observed minus expected).
    ///
    /// For a single fault `δ` confined to row `ρ` every round sees
    /// exactly `w_r(ρ)·δ`, so the ratio of round 1's signed residual to
    /// round 0's recovers the faulted row of an `m`-row output:
    /// `res₁/res₀ = (ρ+1)/u`, `u` being `m` rounded up to a power of
    /// two. This is the localization primitive behind the correction
    /// path — the signs must survive, which is why
    /// [`Self::verify_round`]'s absolute residual cannot serve.
    pub fn round_residual_signed(&self, a: MatrixView<'_>, out: &GemmOutput, r: usize) -> f64 {
        let (dot, _, c_sum) = self.round_sums(a, out, r);
        c_sum - dot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiga_gpu::engine::{gemm, Dtype, FaultKind, FaultPlan, TileScheme};

    fn setup(seed: u64) -> (Matrix, Matrix) {
        let a = Matrix::random(48, 64, seed);
        let b = Matrix::random(64, 40, seed + 1);
        (a, b)
    }

    fn fault(row: usize, col: usize, delta: f32) -> FaultPlan {
        FaultPlan {
            row,
            col,
            after_step: u64::MAX,
            kind: FaultKind::AddValue(delta),
        }
    }

    #[test]
    fn clean_runs_pass_every_round() {
        for seed in [100, 200, 300] {
            let (a, b) = setup(seed);
            let abft = MultiChecksumAbft::prepare(&PackedWeights::pack(&b), 3);
            let out = gemm(&a, &b, TileScheme::NONE, &[]);
            let v = abft.verify(&a, &out);
            assert!(!v.fault_detected(), "seed {seed}: {:?}", v.rounds);
        }
    }

    #[test]
    fn cancelling_fault_pair_defeats_single_checksum() {
        // Two faults of +δ and −δ in different rows cancel in the plain
        // summation: round 0 alone is blind to them.
        let (a, b) = setup(400);
        let out = gemm(
            &a,
            &b,
            TileScheme::NONE,
            &[fault(3, 5, 250.0), fault(20, 9, -250.0)],
        );
        let single = MultiChecksumAbft::prepare(&PackedWeights::pack(&b), 1);
        let v1 = single.verify(&a, &out);
        assert!(
            !v1.fault_detected(),
            "cancelling pair should evade the plain checksum: {:?}",
            v1.rounds
        );
    }

    #[test]
    fn second_round_catches_the_cancelling_pair() {
        let (a, b) = setup(500);
        let out = gemm(
            &a,
            &b,
            TileScheme::NONE,
            &[fault(3, 5, 250.0), fault(20, 9, -250.0)],
        );
        let dual = MultiChecksumAbft::prepare(&PackedWeights::pack(&b), 2);
        let v2 = dual.verify(&a, &out);
        assert!(v2.fault_detected());
        // Round 0 stays silent; round 1's row weighting breaks the
        // cancellation: residual ≈ |w(3) − w(20)|·250 = 17·250 / 64, the
        // 48 rows' unit.
        assert_eq!(v2.first_failing_round(), Some(1));
        assert!((v2.rounds[1].residual - 17.0 * 250.0 / 64.0).abs() < 10.0 / 64.0);
    }

    #[test]
    fn single_faults_are_still_caught_by_round_zero() {
        let (a, b) = setup(600);
        let out = gemm(&a, &b, TileScheme::NONE, &[fault(7, 7, 99.0)]);
        let dual = MultiChecksumAbft::prepare(&PackedWeights::pack(&b), 2);
        let v = dual.verify(&a, &out);
        assert_eq!(v.first_failing_round(), Some(0));
    }

    #[test]
    fn three_rounds_catch_two_faults_in_any_distinct_rows() {
        let (a, b) = setup(700);
        let triple = MultiChecksumAbft::prepare(&PackedWeights::pack(&b), 3);
        for (r1, r2) in [(0usize, 47usize), (1, 2), (10, 40)] {
            let out = gemm(
                &a,
                &b,
                TileScheme::NONE,
                &[fault(r1, 0, 300.0), fault(r2, 39, -300.0)],
            );
            assert!(
                triple.verify(&a, &out).fault_detected(),
                "rows ({r1},{r2}) escaped"
            );
        }
    }

    #[test]
    fn weight_checksums_read_from_the_panels_equal_the_matrix_ones() {
        for dtype in Dtype::ALL {
            let b = Matrix::random_dtype(13, 27, 84, dtype);
            let abft = MultiChecksumAbft::prepare(&PackedWeights::pack(&b), 2);
            for k in 0..b.rows {
                let (mut sum, mut abs) = (0.0f64, 0.0f64);
                for j in 0..b.cols {
                    sum += b.get_f64(k, j);
                    abs += b.get_f64(k, j).abs();
                }
                assert_eq!(abft.weight_checksum[k].to_bits(), sum.to_bits(), "{dtype}");
                assert_eq!(abft.weight_abs[k].to_bits(), abs.to_bits(), "{dtype}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one checksum round")]
    fn zero_rounds_is_rejected() {
        let b = Matrix::zeros(4, 4);
        MultiChecksumAbft::prepare(&PackedWeights::pack(&b), 0);
    }
}
