//! IEEE 754 binary16 ("half precision", FP16) as a value type.
//!
//! The paper's kernels multiply FP16 operands into FP32 accumulators
//! (§2.1); [`F16`] is the operand half of that: the raw 16-bit pattern —
//! 1 sign bit, 5 exponent bits (bias 15), 10 significand bits — with the
//! crate's `Minifloat` codec behind its conversions. Narrowing is
//! round-to-nearest-even exactly, including subnormals, signed zeros,
//! infinities and NaN (canonicalized to a quiet NaN); widening is a
//! single indexed load from a 65,536-entry table the same codec
//! generates at compile time.

use crate::minifloat::Minifloat;
use std::fmt;

/// An IEEE 754 binary16 value stored as its raw bit pattern.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct F16(pub u16);

/// binary16 as an instance of the generic codec.
type Codec = Minifloat<5, 10, false>;

const EXP_MASK: u16 = 0x7c00;
const FRAC_MASK: u16 = 0x03ff;
const SIGN_MASK: u16 = 0x8000;

/// The full `F16 → f32` decode table (256 KiB of rodata): every finite
/// binary16 value is a binary32 value, so widening is lossless.
static F16_TO_F32: [f32; 1 << 16] = Codec::decode_table();

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// Negative zero.
    pub const NEG_ZERO: F16 = F16(0x8000);
    /// One.
    pub const ONE: F16 = F16(0x3c00);
    /// Negative one.
    pub const NEG_ONE: F16 = F16(0xbc00);
    /// Largest finite value, `65504.0`.
    pub const MAX: F16 = F16(0x7bff);
    /// Smallest positive normal value, `2^-14`.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Smallest positive subnormal value, `2^-24`.
    pub const MIN_SUBNORMAL: F16 = F16(0x0001);
    /// Machine epsilon, `2^-10`.
    pub const EPSILON: F16 = F16(0x1400);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7c00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xfc00);
    /// Canonical quiet NaN.
    pub const NAN: F16 = F16(0x7e00);

    /// Builds a value from its raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts from `f32` with round-to-nearest-even.
    #[inline]
    pub fn from_f32(x: f32) -> Self {
        F16(Codec::from_f32(x))
    }

    /// Converts from `f64` with round-to-nearest-even.
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        F16(Codec::from_f64(x))
    }

    /// Widens to `f32` (exact): a single load from the decode table.
    #[inline]
    pub fn to_f32(self) -> f32 {
        F16_TO_F32[self.0 as usize]
    }

    /// Widens to `f64` (exact): the table's `f32`, widened again.
    #[inline]
    pub fn to_f64(self) -> f64 {
        F16_TO_F32[self.0 as usize] as f64
    }

    /// True for either NaN bit pattern class.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & EXP_MASK) == EXP_MASK && (self.0 & FRAC_MASK) != 0
    }

    /// True for ±∞.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & !SIGN_MASK) == EXP_MASK
    }

    /// True for anything that is neither NaN nor ±∞.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & EXP_MASK) != EXP_MASK
    }

    /// True for subnormal values (nonzero with a zero exponent field).
    #[inline]
    pub fn is_subnormal(self) -> bool {
        (self.0 & EXP_MASK) == 0 && (self.0 & FRAC_MASK) != 0
    }

    /// True for ±0.
    #[inline]
    pub fn is_zero(self) -> bool {
        (self.0 & !SIGN_MASK) == 0
    }

    /// True if the sign bit is set (including -0.0 and negative NaN).
    #[inline]
    pub fn is_sign_negative(self) -> bool {
        self.0 & SIGN_MASK != 0
    }
}

impl From<f32> for F16 {
    fn from(x: f32) -> Self {
        F16::from_f32(x)
    }
}

impl From<f64> for F16 {
    fn from(x: f64) -> Self {
        F16::from_f64(x)
    }
}

impl From<F16> for f32 {
    fn from(x: F16) -> Self {
        x.to_f32()
    }
}

impl From<F16> for f64 {
    fn from(x: F16) -> Self {
        x.to_f64()
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F16({} = {:#06x})", self.to_f64(), self.0)
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

impl std::ops::Mul for F16 {
    type Output = F16;
    fn mul(self, rhs: F16) -> F16 {
        // The exact product fits in 22 significand bits, so the f64
        // intermediate is exact and only one rounding happens.
        F16::from_f64(self.to_f64() * rhs.to_f64())
    }
}

impl std::ops::Neg for F16 {
    type Output = F16;
    /// Flips the sign bit, as IEEE negate does — including NaN.
    fn neg(self) -> F16 {
        F16(self.0 ^ SIGN_MASK)
    }
}

/// The arithmetic formulation of binary16 the codec is checked against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{EXP_MASK, FRAC_MASK, SIGN_MASK};
    use crate::minifloat::oracle::Reference;

    /// `F16 → f64` widening by sign/exponent/fraction arithmetic in
    /// `f64`.
    pub fn to_f64(bits: u16) -> f64 {
        let sign = if bits & SIGN_MASK != 0 { -1.0 } else { 1.0 };
        let exp = ((bits & EXP_MASK) >> 10) as i32;
        let frac = (bits & FRAC_MASK) as f64;
        match exp {
            0 => sign * frac * 2.0_f64.powi(-24),
            31 => {
                if frac == 0.0 {
                    sign * f64::INFINITY
                } else {
                    f64::NAN
                }
            }
            _ => sign * (1024.0 + frac) * 2.0_f64.powi(exp - 25),
        }
    }

    /// binary16 for the table-walk encode oracle: the finite values,
    /// then `2^16` on the ∞ code; NaNs keep their sign.
    pub fn reference() -> Reference {
        Reference {
            values: (0..EXP_MASK).map(to_f64).chain([65536.0]).collect(),
            sign: SIGN_MASK,
            nan: |negative| if negative { 0xfe00 } else { 0x7e00 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minifloat::oracle::by_magnitude;

    #[test]
    fn decode_table_matches_oracle_for_all_65536_patterns() {
        for bits in 0..=u16::MAX {
            let fast = F16::from_bits(bits).to_f32();
            let slow = oracle::to_f64(bits) as f32;
            if slow.is_nan() {
                assert!(fast.is_nan(), "bits {bits:#06x}: {fast} vs NaN");
            } else {
                assert_eq!(
                    fast.to_bits(),
                    slow.to_bits(),
                    "bits {bits:#06x}: {fast} vs {slow}"
                );
            }
            // The f64 widening must also agree exactly.
            let fast64 = F16::from_bits(bits).to_f64();
            if slow.is_nan() {
                assert!(fast64.is_nan());
            } else {
                assert_eq!(fast64.to_bits(), oracle::to_f64(bits).to_bits());
            }
        }
    }

    #[test]
    fn encode_matches_oracle_on_dense_sweep() {
        // Every 2^16-th f32 bit pattern (both signs, all exponent
        // regimes, every NaN prefix) plus the patterns adjacent to each
        // stride point, against the table walk.
        let mut sweep = Vec::with_capacity(5 * 65536);
        for hi in 0..=u16::MAX {
            for lo in [0u32, 1, 0x7fff, 0x8000, 0xffff] {
                sweep.push(f32::from_bits(((hi as u32) << 16) | lo));
            }
        }
        oracle::reference().check(by_magnitude(sweep), |x| F16::from_f32(x).to_bits());
    }

    #[test]
    fn encode_matches_oracle_on_edge_cases() {
        // Exact ties, boundary magnitudes, signed zeros, subnormal range,
        // infinities, and NaN payload canonicalization.
        let mut cases = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            1.0 + 2.0_f32.powi(-11), // tie at 1.0's quantum
            1.0 + 3.0 * 2.0_f32.powi(-11),
            65504.0,  // F16::MAX
            65519.96, // just below the overflow boundary
            65520.0,  // exact tie -> infinity
            -65520.0,
            65536.0,
            f32::MAX,
            f32::MIN_POSITIVE,       // flushes to zero
            f32::MIN_POSITIVE / 4.0, // f32 subnormal
            -f32::MIN_POSITIVE,
            2.0_f32.powi(-24), // F16::MIN_SUBNORMAL
            2.0_f32.powi(-25), // exact half of it: ties to even (zero)
            2.0_f32.powi(-25) * 1.00001,
            2.0_f32.powi(-14),                     // F16::MIN_POSITIVE
            2.0_f32.powi(-14) - 2.0_f32.powi(-25), // largest subnormal tie region
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f800001), // signaling-ish NaN payload
            f32::from_bits(0xffc12345), // negative NaN with payload
        ];
        // The entire f16-relevant exponent window: all f32 values whose
        // exponent field lies in [96, 144) with a dense mantissa sweep
        // (steps of 257 cover every mantissa byte pair).
        for e in 96u32..144 {
            for m in (0..0x0080_0000u32).step_by(257) {
                for sign in [0u32, 0x8000_0000] {
                    cases.push(f32::from_bits(sign | (e << 23) | m));
                }
            }
        }
        oracle::reference().check(by_magnitude(cases), |x| F16::from_f32(x).to_bits());
    }

    #[test]
    fn from_f64_matches_oracle_across_the_f16_exponent_window() {
        // Every binary16 value, the midpoint to its successor (2^16
        // after MAX) and the f64 neighbours of both, in both signs —
        // each rounding boundary the format has, approached from either
        // side at full f64 resolution — plus a mantissa sweep of every
        // binade from below half the smallest subnormal to past 2^16.
        let reference = oracle::reference();
        let mut cases = vec![f64::NAN, -f64::NAN, f64::INFINITY, 1e300, 5e-324];
        for pair in reference.values.windows(2) {
            for x in [pair[0], (pair[0] + pair[1]) / 2.0] {
                cases.extend([x.next_down(), x, x.next_up()]);
            }
        }
        for e in (1023 - 27)..(1023 + 18u64) {
            for m in (0..1u64 << 52).step_by((1 << 39) + 12345) {
                cases.push(f64::from_bits((e << 52) | m));
            }
        }
        cases.extend(cases.clone().iter().map(|x| -x));
        reference.check(by_magnitude(cases), |x| F16::from_f64(x).to_bits());
    }

    #[test]
    fn constants_decode_to_expected_values() {
        assert_eq!(F16::ZERO.to_f64(), 0.0);
        assert_eq!(F16::ONE.to_f64(), 1.0);
        assert_eq!(F16::NEG_ONE.to_f64(), -1.0);
        assert_eq!(F16::MAX.to_f64(), 65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f64(), 2.0_f64.powi(-14));
        assert_eq!(F16::MIN_SUBNORMAL.to_f64(), 2.0_f64.powi(-24));
        assert_eq!(F16::EPSILON.to_f64(), 2.0_f64.powi(-10));
        assert!(F16::INFINITY.is_infinite());
        assert!(F16::NAN.is_nan());
    }

    #[test]
    fn roundtrip_all_finite_bit_patterns() {
        // Every finite f16 must survive f16 -> f64 -> f16 unchanged.
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            if h.is_nan() {
                assert!(F16::from_f64(h.to_f64()).is_nan());
            } else {
                assert_eq!(F16::from_f64(h.to_f64()).0, bits, "bits {bits:#06x}");
            }
        }
    }

    #[test]
    fn rounding_ties_to_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1 + 2^-10; even
        // mantissa (1.0) wins.
        assert_eq!(F16::from_f64(1.0 + 2.0_f64.powi(-11)), F16::ONE);
        // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; ties to the
        // even mantissa 1+2^-9.
        assert_eq!(
            F16::from_f64(1.0 + 3.0 * 2.0_f64.powi(-11)).to_f64(),
            1.0 + 2.0 * 2.0_f64.powi(-10)
        );
        // Just above the tie rounds up.
        assert_eq!(
            F16::from_f64(1.0 + 2.0_f64.powi(-11) + 2.0_f64.powi(-30)).to_f64(),
            1.0 + 2.0_f64.powi(-10)
        );
    }

    #[test]
    fn overflow_boundary_matches_ieee() {
        // 65520 is the midpoint between MAX (65504) and 2^16; ties-to-even
        // sends it to infinity (the "even" successor).
        assert_eq!(F16::from_f64(65519.999), F16::MAX);
        assert_eq!(F16::from_f64(65520.0), F16::INFINITY);
        assert_eq!(F16::from_f64(-65520.0), F16::NEG_INFINITY);
        assert_eq!(F16::from_f64(1e300), F16::INFINITY);
    }

    #[test]
    fn underflow_boundary_matches_ieee() {
        let tiny = 2.0_f64.powi(-24);
        assert_eq!(F16::from_f64(tiny), F16::MIN_SUBNORMAL);
        // Exactly half the smallest subnormal ties to even => zero.
        assert_eq!(F16::from_f64(tiny / 2.0), F16::ZERO);
        assert_eq!(F16::from_f64(tiny / 2.0 * 1.0001), F16::MIN_SUBNORMAL);
        assert_eq!(F16::from_f64(-tiny / 2.0), F16::NEG_ZERO);
        // f64 subnormals flush to zero.
        assert_eq!(F16::from_f64(f64::MIN_POSITIVE / 4.0), F16::ZERO);
    }

    #[test]
    fn signed_zero_semantics() {
        assert!(F16::NEG_ZERO.is_zero());
        assert!(F16::NEG_ZERO.is_sign_negative());
        assert_eq!(F16::from_f64(-0.0).0, 0x8000);
        assert_eq!(F16::NEG_ZERO * F16::ONE, F16::NEG_ZERO);
        assert_eq!(F16::NEG_ZERO * F16::NEG_ONE, F16::ZERO);
    }

    #[test]
    fn nan_and_inf_propagate() {
        assert!((F16::NAN * F16::ONE).is_nan());
        assert_eq!(F16::INFINITY * F16::NEG_ONE, F16::NEG_INFINITY);
        assert!((F16::ZERO * F16::INFINITY).is_nan());
    }

    #[test]
    fn basic_arithmetic_is_exact_for_small_integers() {
        let three = F16::from_f32(3.0);
        let four = F16::from_f32(4.0);
        assert_eq!((three * four).to_f32(), 12.0);
        assert_eq!((-three * four).to_f32(), -12.0);
        assert_eq!(-(-three), three);
    }
}
