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
//! Every f32 reduction here is the same fixed tree — split the `n`
//! values at `n/2`, sum each half the same way, add the halves — and
//! every f64 magnitude sum runs in index order, so verdicts, residuals
//! and thresholds are a pure function of the operands. The per-request
//! reductions keep that order per *column* but run it over whole
//! *rows*: the activation checksum decodes one activation row at a time
//! and combines row buffers up the tree (a ⌈log₂ rows⌉-deep stack in
//! [`CheckScratch`]), so each activation is read once, in storage
//! order, instead of once per column through a strided gather.

use crate::tolerance::{self, exceeds};
use aiga_dtype::F16;
use aiga_gpu::engine::{CheckScratch, GemmOutput, Matrix, MatrixView};

/// Sums a slice of FP32 values pairwise (tree order: split at `n/2`),
/// as the fused epilogue + CUB-style reduce kernel would. Runs of up to
/// eight values are summed in place — the same tree, written out — so
/// the recursion bottoms out an eighth as often.
pub fn pairwise_sum_f32(values: &[f32]) -> f32 {
    match *values {
        [] => 0.0,
        [a] => a,
        [a, b] => a + b,
        [a, b, c] => a + (b + c),
        [a, b, c, d] => (a + b) + (c + d),
        [a, b, c, d, e] => (a + b) + (c + (d + e)),
        [a, b, c, d, e, f] => (a + (b + c)) + (d + (e + f)),
        [a, b, c, d, e, f, g] => (a + (b + c)) + ((d + e) + (f + g)),
        [a, b, c, d, e, f, g, h] => ((a + b) + (c + d)) + ((e + f) + (g + h)),
        _ => {
            let (lo, hi) = values.split_at(values.len() / 2);
            pairwise_sum_f32(lo) + pairwise_sum_f32(hi)
        }
    }
}

/// Column sums of rows `r0..r1` of `a` into `out`, every column summed
/// in [`pairwise_sum_f32`]'s tree order over its rows, with `abs`
/// accumulating each column's magnitudes in row order. `stack` holds
/// one row buffer per level of the tree below this one, `codes` the
/// row a conv lowering is gathered into ([`MatrixView::row_codes`])
/// before it is decoded as one slice.
fn column_sums(
    a: MatrixView<'_>,
    (r0, r1): (usize, usize),
    out: &mut [f32],
    stack: &mut [f32],
    codes: &mut [F16],
    abs: &mut [f64],
) {
    if r1 - r0 == 1 {
        a.dtype.decode_slice(a.row_codes(r0, codes), out);
        for (m, v) in abs.iter_mut().zip(out.iter()) {
            *m += (*v as f64).abs();
        }
        return;
    }
    let mid = r0 + (r1 - r0) / 2;
    let (hi, deeper) = stack.split_at_mut(a.cols);
    column_sums(a, (r0, mid), out, deeper, codes, abs);
    column_sums(a, (mid, r1), hi, deeper, codes, abs);
    for (lo, hi) in out.iter_mut().zip(hi.iter()) {
        *lo += *hi;
    }
}

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
    /// Offline preparation from the layer's weights (§2.5: computed once,
    /// reused for every inference request).
    pub fn prepare(b: &Matrix) -> Self {
        let mut weight_checksum = vec![0.0f32; b.rows];
        let mut weight_abs = vec![0.0f64; b.rows];
        let mut row = vec![0.0f32; b.cols];
        for k in 0..b.rows {
            #[allow(clippy::needless_range_loop)] // row/abs are indexed in lockstep
            for j in 0..b.cols {
                let v = b.get_f32(k, j);
                row[j] = v;
                weight_abs[k] += (v as f64).abs();
            }
            weight_checksum[k] = pairwise_sum_f32(&row);
        }
        GlobalAbft {
            weight_checksum,
            weight_abs,
        }
    }

    /// The activation checksum of `a` (column sums, `1 × K`) together
    /// with the per-column absolute sums. In the §2.5 flow this is fused
    /// into the epilogue of the layer that *produced* `a`.
    pub fn activation_checksum(a: &Matrix) -> (Vec<f32>, Vec<f64>) {
        let mut scratch = CheckScratch::default();
        Self::activation_checksum_into(a.view(), &mut scratch);
        (scratch.chk, scratch.abs)
    }

    /// [`Self::activation_checksum`] writing into reusable scratch
    /// (`scratch.chk` = checksums, `scratch.abs` = absolute sums,
    /// `scratch.col` = the row-buffer stack of the reduction tree,
    /// `scratch.codes` = the gathered row of a conv lowering).
    /// Steady-state verification through a warm [`CheckScratch`]
    /// allocates nothing.
    pub fn activation_checksum_into(a: MatrixView<'_>, scratch: &mut CheckScratch) {
        scratch.chk.clear();
        scratch.chk.resize(a.cols, 0.0);
        scratch.abs.clear();
        scratch.abs.resize(a.cols, 0.0);
        if a.rows == 0 {
            return;
        }
        let depth = a.rows.next_power_of_two().trailing_zeros() as usize;
        scratch.col.clear();
        scratch.col.resize(depth * a.cols, 0.0);
        scratch.codes.resize(a.cols, F16::ZERO);
        column_sums(
            a,
            (0, a.rows),
            &mut scratch.chk,
            &mut scratch.col,
            &mut scratch.codes,
            &mut scratch.abs,
        );
    }

    /// The fused output summation `Σ C` over the kernel's FP32
    /// accumulators (§2.5 step 2).
    pub fn output_summation(out: &GemmOutput) -> f32 {
        pairwise_sum_f32(&out.c)
    }

    /// The reduce-and-compare kernel (§2.5 step 5): dot the activation
    /// checksum with the offline weight checksum and compare against the
    /// output summation.
    pub fn check(
        &self,
        activation_checksum: &[f32],
        activation_abs: &[f64],
        output_summation: f32,
        out_m: usize,
        out_n: usize,
    ) -> GlobalVerdict {
        assert_eq!(
            activation_checksum.len(),
            self.weight_checksum.len(),
            "checksum length mismatch"
        );
        let mut dot = 0.0f32;
        let mut magnitude = 0.0f64;
        for k in 0..self.weight_checksum.len() {
            dot += activation_checksum[k] * self.weight_checksum[k];
            magnitude += activation_abs[k] * self.weight_abs[k];
        }
        let residual = (dot as f64 - output_summation as f64).abs();
        // Tree reductions round O(log) times per stage; charge each of
        // the four reductions (A-colsum, B-rowsum, dot, ΣC) a log term,
        // with a 1.5x slack factor over the first-order bound.
        let logs = (out_m as f64).log2().ceil()
            + (out_n as f64).log2().ceil()
            + (self.weight_checksum.len() as f64).log2().ceil()
            + ((out_m * out_n) as f64).log2().ceil();
        let threshold = tolerance::threshold(1.5 * (logs + 8.0), magnitude);
        GlobalVerdict {
            fault_detected: exceeds(residual, threshold),
            residual,
            threshold,
        }
    }

    /// Convenience wrapper running the whole §2.5 flow for one layer:
    /// activation checksum over `a`, output summation over `out`, then
    /// the comparison.
    pub fn verify(&self, a: &Matrix, out: &GemmOutput) -> GlobalVerdict {
        self.verify_with(a.view(), out, &mut CheckScratch::default())
    }

    /// [`Self::verify`] through caller-owned scratch — the serving hot
    /// path, fed by the request's `Workspace` so repeated verification
    /// never allocates.
    pub fn verify_with(
        &self,
        a: MatrixView<'_>,
        out: &GemmOutput,
        scratch: &mut CheckScratch,
    ) -> GlobalVerdict {
        Self::activation_checksum_into(a, scratch);
        let sum = Self::output_summation(out);
        self.check(&scratch.chk, &scratch.abs, sum, out.m, out.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiga_gpu::engine::{gemm, FaultKind, FaultPlan, TileScheme};

    fn run(
        m: usize,
        n: usize,
        k: usize,
        seed: u64,
        fault: Option<FaultPlan>,
    ) -> (Matrix, GemmOutput) {
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 1);
        let out = gemm(&a, &b, TileScheme::NONE, fault.as_slice());
        (a, out)
    }

    #[test]
    fn clean_layer_passes_the_check() {
        let b = Matrix::random(64, 48, 61);
        let abft = GlobalAbft::prepare(&b);
        let a = Matrix::random(56, 64, 60);
        let out = gemm(&a, &b, TileScheme::NONE, &[]);
        let v = abft.verify(&a, &out);
        assert!(!v.fault_detected, "{v:?}");
    }

    #[test]
    fn detects_a_single_corrupted_output() {
        let b = Matrix::random(64, 48, 63);
        let abft = GlobalAbft::prepare(&b);
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
            let abft = GlobalAbft::prepare(&b);
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
        let abft = GlobalAbft::prepare(&b);
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
    fn pairwise_sum_matches_exact_on_integers() {
        let vals: Vec<f32> = (1..=1000).map(|v| v as f32).collect();
        assert_eq!(pairwise_sum_f32(&vals), 500500.0);
        assert_eq!(pairwise_sum_f32(&[]), 0.0);
    }

    #[test]
    fn checksum_lengths_are_validated() {
        let (a, out) = run(16, 16, 32, 80, None);
        let b2 = Matrix::random(16, 16, 81); // wrong K
        let abft = GlobalAbft::prepare(&b2);
        let (chk, abs) = GlobalAbft::activation_checksum(&a);
        let sum = GlobalAbft::output_summation(&out);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            abft.check(&chk, &abs, sum, out.m, out.n)
        }));
        assert!(result.is_err());
    }
}
