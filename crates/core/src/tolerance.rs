//! Floating-point-aware checksum comparison.
//!
//! ABFT checks compare two differently-rounded computations of the same
//! exact quantity (a checksum dot product versus an output summation).
//! In FP16/FP32 they will almost never be bit-equal, so every check needs
//! a threshold. Too tight → false positives on rounding noise; too loose
//! → small faults slip through (silent data corruption).
//!
//! The bound is a running *analytical* one: schemes accumulate the sum of
//! absolute products `Σ |a|·|b|` alongside their checksums, and the
//! threshold is a first-order forward-error bound scaled by that
//! magnitude. Faults below the bound are undetectable *by construction*
//! for any threshold-based checker — the fault-coverage experiment
//! reports them separately.

/// Unit roundoff of binary32.
pub const U32: f64 = 5.960464477539063e-8; // 2^-24

/// Absolute noise floor added to every threshold, covering subnormal
/// flushes and the engine's pairwise-step accumulation.
pub const ABS_FLOOR: f64 = 1e-6;

/// The first-order analytical bound for a comparison whose two sides
/// involve `rounds32` FP32-rounded operations, as the `(slope, floor)`
/// of a linear function of the running magnitude `Σ|a|·|b|` — the form
/// the engine's tile check evaluates per compare
/// (`aiga_gpu::engine::TileScheme`), since the round count is fixed per
/// run and only the magnitude varies.
pub fn linear(rounds32: f64) -> (f64, f64) {
    (rounds32 * U32, ABS_FLOOR)
}

/// [`linear`] evaluated at `magnitude`:
/// `threshold = rounds32·u32 · magnitude + floor`.
pub fn threshold(rounds32: f64, magnitude: f64) -> f64 {
    let (slope, floor) = linear(rounds32);
    slope * magnitude + floor
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
        let a = threshold(64.0, 100.0);
        assert!(threshold(128.0, 100.0) > a);
        assert!(threshold(64.0, 200.0) > a);
        assert!(a > ABS_FLOOR);
    }

    #[test]
    fn non_finite_residuals_and_thresholds_flag() {
        let t = threshold(64.0, 100.0);
        assert!(exceeds(f64::NAN, t));
        assert!(exceeds(f64::INFINITY, t));
        // A magnitude struck to NaN poisons the threshold, not the residual.
        assert!(exceeds(0.0, threshold(64.0, f64::NAN)));
        assert!(!exceeds(0.0, t));
    }

    #[test]
    fn linear_form_reproduces_the_threshold() {
        let (slope, floor) = linear(70.0);
        assert_eq!(
            (slope * 123.5 + floor).to_bits(),
            threshold(70.0, 123.5).to_bits()
        );
    }

    #[test]
    fn thresholds_keep_the_bits_of_the_three_policy_formula() {
        // The bound this module was reduced from, as every caller
        // invoked it — `Tolerance::Analytical` with no low-precision
        // rounds: `(0·u16 + n32·u32)·M + floor`. `0·u + x` is exact, so
        // dropping the term moves no bit. Round counts: the four
        // schemes' and `GlobalAbft::check`'s — `2·⌈log₂ m⌉ + 2·⌈log₂ n⌉
        // + ⌈log₂ K⌉` levels, here at m = n = K — over a spread of K.
        const U16: f64 = 4.8828125e-4; // 2^-11
        let before = |n32: f64, m: f64| (0.0 * U16 + n32 * U32) * m + ABS_FLOOR;
        let gamma = |n: f64| n / (1.0 - n * U32);
        for k in [8.0f64, 27.0, 64.0, 1000.0, 1024.0, 4608.0] {
            for n32 in [
                gamma(2.0 * k + 16.0),               // one-sided
                gamma(2.0 * k + 32.0),               // two-sided
                12.0,                                // single-accumulation
                k.log2().ceil() + 24.0,              // multi-checksum
                1.5 * (5.0 * k.log2().ceil() + 8.0), // global
            ] {
                for m in [0.0, 1e-9, 3.7, 123.5, 6.5e4, 1e12, f64::INFINITY] {
                    assert_eq!(threshold(n32, m).to_bits(), before(n32, m).to_bits());
                }
            }
        }
    }

    #[test]
    fn unit_roundoffs_are_the_ieee_values() {
        assert_eq!(U32, 2.0_f64.powi(-24));
    }
}
