//! Global (kernel-level) ABFT, after Hari et al. (§2.5) — the
//! state-of-the-art baseline intensity-guided ABFT selects for
//! compute-bound layers.
//!
//! Workflow per protected layer:
//!
//! 1. the GEMM runs unmodified;
//! 2. a fused epilogue produces the **output summation** `Σ C`;
//! 3. the activation function is applied;
//! 4. a fused epilogue produces the **next layer's activation checksum**
//!    (column sums of the next layer's `A` — here, of this layer's
//!    input, produced by the *previous* layer);
//! 5. a separate kernel computes the checksum dot product
//!    `(colsum A) · (rowsum B)` and compares it with `Σ C`.
//!
//! The **weight checksum** (`rowsum B`) is computed once offline because
//! weights never change between inference requests.
//!
//! # Summation order
//!
//! Every f32 reduction is a fixed tree — split the `n` values at `n/2`,
//! sum each half the same way, add the halves — over boundaries that
//! are host constants, so verdicts, residuals and thresholds are a pure
//! function of the operands, the same bytes at every team width. The
//! engine's tasks take the per-request sums where they already hold
//! the data (`aiga_gpu::engine::sums`), and [`GlobalAbft::check`]
//! combines only their partials:
//!
//! - **`A`'s column sums** (and their magnitudes `Σ|a|`, in f32 too):
//!   each 4-row strip `(a₀ + a₁) + (a₂ + a₃)`, taken by the A staging;
//!   a stripe's 16 strips in the tree; the stripes in the tree. Rows
//!   past the request add `+0`, which rounds nothing, so no column sum
//!   goes through more than `⌈log₂ m⌉` rounded adds — the depth of the
//!   single tree over the rows it replaced.
//! - **`Σ C`**: each 64×64 block's columns over its rows in the tree,
//!   its columns in the tree, then the blocks in block-major order in
//!   the tree. No cell goes through more than `⌈log₂ min(m, 64)⌉ +
//!   ⌈log₂ min(n, 64)⌉ + ⌈log₂ blocks⌉ ≤ ⌈log₂ m⌉ + ⌈log₂ n⌉` rounded
//!   adds — one more than a single tree's `⌈log₂ m·n⌉` for some shapes,
//!   and equal to it at `fc1024_b256`'s 256 × 1024 and 256 × 1000.
//! - **The weight checksum** `Σ_j b[k][j]`: one tree per row of `B`,
//!   offline.
//!
//! The threshold charges one `u32` per level of each: `⌈log₂ m⌉` (A),
//! `⌈log₂ n⌉` (B), `⌈log₂ K⌉` for the K-length dot — which runs in K
//! order, so this term is the allowance the check has always carried,
//! not a worst-case bound — and `⌈log₂ m⌉ + ⌈log₂ n⌉` (`Σ C`), plus
//! eight, all with a 1.5× slack, against the f64 magnitude
//! `Σ_k (Σ|a|)_k·(Σ|b|)_k`. An empty dimension contributes no level.
//! [`GlobalAbft::verify_with`] is the serial reference: the same
//! partials summed from `a` and the finished output in the same order.

use crate::tolerance::{self, exceeds};
use aiga_gpu::engine::{
    pairwise_sum_f32, CheckScratch, GemmOutput, Matrix, MatrixView, PackedWeights,
};

/// Result of the global ABFT reduce-and-compare kernel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GlobalVerdict {
    /// Whether the layer is flagged faulty.
    pub fault_detected: bool,
    /// `|checksum dot product − output summation|`.
    pub residual: f64,
    /// Threshold the residual was compared against.
    pub threshold: f64,
}

/// Global ABFT state for one linear layer.
#[derive(Clone, Debug)]
pub struct GlobalAbft {
    /// Offline weight checksum: `rowsum(B)[k] = Σ_j B[k][j]`, FP32.
    weight_checksum: Vec<f32>,
    /// `Σ_j |B[k][j]|` per `k`, for the error bound.
    weight_abs: Vec<f64>,
}

impl GlobalAbft {
    /// Offline preparation from the layer's packed weights (§2.5:
    /// computed once, reused for every inference request), read back row
    /// by row.
    pub fn prepare(b: &PackedWeights) -> Self {
        let mut weight_checksum = Vec::with_capacity(b.rows());
        let mut weight_abs = Vec::with_capacity(b.rows());
        b.for_each_row(|row| {
            weight_checksum.push(pairwise_sum_f32(row));
            weight_abs.push(row.iter().fold(0.0f64, |acc, &v| acc + (v as f64).abs()));
        });
        GlobalAbft {
            weight_checksum,
            weight_abs,
        }
    }

    /// The reduce-and-compare kernel (§2.5 step 5) over the partials a
    /// run left in `sums`: dot the activation checksum — the stripes'
    /// column sums, combined — with the offline weight checksum and
    /// compare it against the output summation — the blocks' sums,
    /// combined. `out_m × out_n` is the run's output.
    pub fn check(&self, sums: &mut CheckScratch, out_m: usize, out_n: usize) -> GlobalVerdict {
        let k = self.weight_checksum.len();
        assert_eq!(sums.cols(), k, "checksum length mismatch");
        let output_sum = sums.output_sum();
        let mut dot = 0.0f32;
        let mut magnitude = 0.0f64;
        let columns = sums.activation_sums().chunks_exact(2);
        for ((s, &w), &w_abs) in columns.zip(&self.weight_checksum).zip(&self.weight_abs) {
            dot += s[0] * w;
            magnitude += s[1] as f64 * w_abs;
        }
        let residual = (dot as f64 - output_sum as f64).abs();
        // One round per tree level of each reduction (module docs).
        let levels = |n: usize| (n.max(1) as f64).log2().ceil();
        let logs = 2.0 * (levels(out_m) + levels(out_n)) + levels(k);
        let threshold = tolerance::threshold(1.5 * (logs + 8.0), magnitude);
        GlobalVerdict {
            fault_detected: exceeds(residual, threshold),
            residual,
            threshold,
        }
    }

    /// The serial reference for one layer: the partials a run over `a`
    /// leaves, summed from `a` and the finished output `out` in the
    /// engine's order, then [`Self::check`]. Allocates; the serving path
    /// checks the run's own partials instead.
    pub fn verify(&self, a: &Matrix, out: &GemmOutput) -> GlobalVerdict {
        self.verify_with(a.view(), out)
    }

    /// [`Self::verify`] over a borrowed operand (a conv lowering too).
    pub fn verify_with(&self, a: MatrixView<'_>, out: &GemmOutput) -> GlobalVerdict {
        self.check(&mut CheckScratch::sum_serially(a, out), out.m, out.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiga_gpu::engine::{gemm, Dtype, FaultKind, FaultPlan, TileScheme};

    #[test]
    fn clean_layer_passes_the_check() {
        let b = Matrix::random(64, 48, 61);
        let abft = GlobalAbft::prepare(&PackedWeights::pack(&b));
        let a = Matrix::random(56, 64, 60);
        let out = gemm(&a, &b, TileScheme::NONE, &[]);
        let v = abft.verify(&a, &out);
        assert!(!v.fault_detected, "{v:?}");
    }

    #[test]
    fn detects_a_single_corrupted_output() {
        let b = Matrix::random(64, 48, 63);
        let abft = GlobalAbft::prepare(&PackedWeights::pack(&b));
        let a = Matrix::random(56, 64, 62);
        let fault = FaultPlan {
            row: 13,
            col: 21,
            after_step: u64::MAX,
            kind: FaultKind::AddValue(50.0),
        };
        let out = gemm(&a, &b, TileScheme::NONE, &[fault]);
        let v = abft.verify(&a, &out);
        assert!(v.fault_detected, "{v:?}");
        assert!((v.residual - 50.0).abs() < 1.0);
    }

    #[test]
    fn detects_exponent_bit_flips_anywhere() {
        for (r, c) in [(0usize, 0usize), (31, 17), (55, 47)] {
            let b = Matrix::random(64, 48, 65);
            let abft = GlobalAbft::prepare(&PackedWeights::pack(&b));
            let a = Matrix::random(56, 64, 64);
            let fault = FaultPlan {
                row: r,
                col: c,
                after_step: u64::MAX,
                kind: FaultKind::BitFlip(29),
            };
            let out = gemm(&a, &b, TileScheme::NONE, &[fault]);
            assert!(abft.verify(&a, &out).fault_detected, "({r},{c})");
        }
    }

    #[test]
    fn weight_checksum_is_reusable_across_requests() {
        let b = Matrix::random(32, 32, 67);
        let abft = GlobalAbft::prepare(&PackedWeights::pack(&b));
        for seed in 70..74 {
            let (a, out) = {
                let a = Matrix::random(24, 32, seed);
                let out = gemm(&a, &b, TileScheme::NONE, &[]);
                (a, out)
            };
            assert!(!abft.verify(&a, &out).fault_detected, "seed {seed}");
        }
    }

    #[test]
    fn weight_checksums_read_from_the_panels_equal_the_matrix_ones() {
        // The checksums as they were summed straight off the matrix:
        // each row in column order, the sum in the tree, the magnitude
        // in f64 from zero.
        for dtype in Dtype::ALL {
            for (k, n) in [(1, 1), (13, 27), (64, 48), (100, 1000)] {
                let b = Matrix::random_dtype(k, n, 83, dtype);
                let abft = GlobalAbft::prepare(&PackedWeights::pack(&b));
                assert_eq!(abft.weight_checksum.len(), k);
                for r in 0..k {
                    let row: Vec<f32> = (0..n).map(|j| b.get_f32(r, j)).collect();
                    let abs = row.iter().fold(0.0f64, |acc, &v| acc + (v as f64).abs());
                    let sum = pairwise_sum_f32(&row);
                    assert_eq!(abft.weight_checksum[r].to_bits(), sum.to_bits(), "{dtype}");
                    assert_eq!(abft.weight_abs[r].to_bits(), abs.to_bits(), "{dtype}");
                }
            }
        }
    }

    #[test]
    fn pairwise_sum_matches_exact_on_integers() {
        let vals: Vec<f32> = (1..=1000).map(|v| v as f32).collect();
        assert_eq!(pairwise_sum_f32(&vals), 500500.0);
        assert_eq!(pairwise_sum_f32(&[]), 0.0);
    }

    #[test]
    fn checksum_lengths_are_validated() {
        let a = Matrix::random(16, 32, 80);
        let out = gemm(&a, &Matrix::random(32, 16, 81), TileScheme::NONE, &[]);
        let mut sums = CheckScratch::sum_serially(a.view(), &out);
        let abft = GlobalAbft::prepare(&PackedWeights::pack(&Matrix::random(16, 16, 82))); // wrong K
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            abft.check(&mut sums, out.m, out.n)
        }));
        assert!(result.is_err());
    }
}
