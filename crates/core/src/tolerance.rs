//! Floating-point-aware checksum comparison.
//!
//! ABFT checks compare two differently-rounded computations of the same
//! exact quantity (a checksum dot product versus an output summation).
//! In FP16/FP32 they will almost never be bit-equal, so every check needs
//! a threshold. Too tight → false positives on rounding noise; too loose
//! → small faults slip through (silent data corruption).
//!
//! We provide a running *analytical* bound: schemes accumulate the sum of
//! absolute products `Σ |a|·|b|` alongside their checksums, and the
//! threshold is a first-order forward-error bound scaled by that
//! magnitude. Faults below the bound are undetectable *by construction*
//! for any threshold-based checker — the fault-coverage experiment
//! reports them separately.

/// Unit roundoff of binary16 (half of machine epsilon `2^-10`).
pub const U16: f64 = 4.8828125e-4; // 2^-11
/// Unit roundoff of binary32.
pub const U32: f64 = 5.960464477539063e-8; // 2^-24

/// Absolute noise floor added to every threshold, covering subnormal
/// flushes and the engine's pairwise-step accumulation.
pub const ABS_FLOOR: f64 = 1e-6;

/// How a checksum comparison decides "faulty".
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum Tolerance {
    /// First-order analytical bound: `threshold = (n16·u16 + n32·u32) ·
    /// magnitude + floor`, where `n16`/`n32` count FP16/FP32 rounding
    /// steps and `magnitude` is the running `Σ|a|·|b|`.
    #[default]
    Analytical,
    /// Fixed relative threshold against the magnitude (what a production
    /// kernel without magnitude tracking would use; Hari et al. use an
    /// empirically-chosen constant).
    Relative(f64),
    /// Exact comparison (only sound when both sides compute bit-identical
    /// sequences, e.g. traditional replication).
    Exact,
}

impl Tolerance {
    /// Threshold for a comparison whose two sides involve `rounds16`
    /// FP16-rounded operations and `rounds32` FP32-rounded operations
    /// over data of total absolute magnitude `magnitude`.
    pub fn threshold(self, rounds16: f64, rounds32: f64, magnitude: f64) -> f64 {
        self.threshold_lp(rounds16, U16, rounds32, magnitude)
    }

    /// Generalized threshold: `rounds_lp` low-precision rounding steps at
    /// unit roundoff `u_lp` (the checksum chain's format) plus
    /// `rounds32` FP32 steps over magnitude `magnitude`. [`Self::threshold`] is the `u_lp = `[`U16`]
    /// case; an exact chain passes `u_lp = 0`.
    pub fn threshold_lp(self, rounds_lp: f64, u_lp: f64, rounds32: f64, magnitude: f64) -> f64 {
        let (slope, floor) = self.linear_lp(rounds_lp, u_lp, rounds32);
        slope * magnitude + floor
    }

    /// [`Self::threshold_lp`] as the `(slope, floor)` of a linear
    /// function of the magnitude — the form the engine's tile check
    /// evaluates per compare (`aiga_gpu::engine::TileScheme`), since the
    /// round counts are fixed per run and only the magnitude varies.
    pub fn linear_lp(self, rounds_lp: f64, u_lp: f64, rounds32: f64) -> (f64, f64) {
        match self {
            Tolerance::Analytical => (rounds_lp * u_lp + rounds32 * U32, ABS_FLOOR),
            Tolerance::Relative(rel) => (rel, ABS_FLOOR),
            Tolerance::Exact => (0.0, 0.0),
        }
    }

    /// Compares a residual against the bound; `true` means "fault".
    pub fn flags(self, residual: f64, rounds16: f64, rounds32: f64, magnitude: f64) -> bool {
        exceeds(residual, self.threshold(rounds16, rounds32, magnitude))
    }

    /// [`Self::flags`] at an explicit low-precision unit roundoff.
    pub fn flags_lp(
        self,
        residual: f64,
        rounds_lp: f64,
        u_lp: f64,
        rounds32: f64,
        magnitude: f64,
    ) -> bool {
        exceeds(
            residual,
            self.threshold_lp(rounds_lp, u_lp, rounds32, magnitude),
        )
    }
}

/// The one comparison every check makes: `true` means "fault". Written
/// as `!(residual <= threshold)` rather than `residual > threshold` so
/// a non-finite residual or threshold — an accumulator struck to NaN or
/// Inf poisons both — flags instead of comparing false and passing.
#[inline]
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn exceeds(residual: f64, threshold: f64) -> bool {
    !(residual <= threshold)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytical_threshold_scales_with_magnitude_and_rounds() {
        let t = Tolerance::Analytical;
        let a = t.threshold(4.0, 64.0, 100.0);
        assert!(t.threshold(8.0, 64.0, 100.0) > a);
        assert!(t.threshold(4.0, 64.0, 200.0) > a);
        assert!(a > ABS_FLOOR);
    }

    #[test]
    fn exact_tolerance_flags_any_difference() {
        assert!(Tolerance::Exact.flags(f64::MIN_POSITIVE, 0.0, 0.0, 1e9));
        assert!(!Tolerance::Exact.flags(0.0, 0.0, 0.0, 1e9));
    }

    #[test]
    fn relative_tolerance_ignores_round_counts() {
        let t = Tolerance::Relative(1e-3);
        assert_eq!(t.threshold(1.0, 1.0, 50.0), t.threshold(999.0, 999.0, 50.0));
        assert!((t.threshold(0.0, 0.0, 50.0) - (0.05 + ABS_FLOOR)).abs() < 1e-15);
    }

    #[test]
    fn non_finite_residuals_and_thresholds_flag() {
        for t in [
            Tolerance::Analytical,
            Tolerance::Relative(1e-3),
            Tolerance::Exact,
        ] {
            assert!(t.flags(f64::NAN, 4.0, 64.0, 100.0), "{t:?}");
            assert!(t.flags(f64::INFINITY, 4.0, 64.0, 100.0), "{t:?}");
            assert!(t.flags_lp(f64::NAN, 4.0, U16, 64.0, 100.0), "{t:?}");
        }
        // A magnitude struck to NaN poisons the threshold, not the residual.
        assert!(Tolerance::Analytical.flags(0.0, 4.0, 64.0, f64::NAN));
        assert!(!Tolerance::Analytical.flags(0.0, 4.0, 64.0, 100.0));
    }

    #[test]
    fn linear_form_reproduces_the_threshold() {
        for t in [
            Tolerance::Analytical,
            Tolerance::Relative(1e-3),
            Tolerance::Exact,
        ] {
            let (slope, floor) = t.linear_lp(3.0, U16, 70.0);
            assert_eq!(
                (slope * 123.5 + floor).to_bits(),
                t.threshold_lp(3.0, U16, 70.0, 123.5).to_bits()
            );
        }
    }

    #[test]
    fn unit_roundoffs_are_the_ieee_values() {
        assert_eq!(U16, 2.0_f64.powi(-11));
        assert_eq!(U32, 2.0_f64.powi(-24));
    }
}
