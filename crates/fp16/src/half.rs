//! IEEE 754 binary16 ("half precision", FP16) implemented in software.
//!
//! The representation is the raw 16-bit pattern: 1 sign bit, 5 exponent
//! bits (bias 15), 10 significand bits. Conversions implement
//! round-to-nearest-even exactly, including subnormals, signed zeros,
//! infinities, and NaN (canonicalized to a quiet NaN on conversion).
//!
//! Arithmetic is performed by widening to `f64`, computing, and rounding
//! back. A single `f64` operation on two exactly-representable `F16`
//! inputs is exact or correctly rounded to 53 bits, and rounding a
//! 53-bit-rounded value again to 11 bits equals rounding the exact value
//! directly whenever the intermediate precision is at least `2p + 2 = 24`
//! bits (the classical innocuous-double-rounding bound), so `+ - * /`
//! here are correctly rounded binary16 operations.
//!
//! Conversions are the simulator's hottest operations, so both directions
//! take branch-free fast paths: widening goes through a 65,536-entry
//! const decode table ([`F16::to_f32`] is a single indexed load) and
//! narrowing manipulates bits directly ([`f32_to_f16_bits`]). The
//! original arithmetic formulations survive as the `oracle` module under
//! `#[cfg(test)]`, and the test suite proves bit-exact equivalence —
//! exhaustively for decoding (all 2^16 patterns) and with dense plus
//! edge-case sweeps for encoding.

use std::cmp::Ordering;
use std::fmt;

/// An IEEE 754 binary16 value stored as its raw bit pattern.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct F16(pub u16);

const EXP_MASK: u16 = 0x7c00;
const FRAC_MASK: u16 = 0x03ff;
const SIGN_MASK: u16 = 0x8000;

/// Decodes one binary16 bit pattern to the binary32 bit pattern of the
/// same value, in pure integer arithmetic (usable in const context).
///
/// Every finite binary16 value is exactly representable in binary32, so
/// this is a lossless re-encoding: normals shift exponent bias and
/// mantissa position, subnormals are normalized (the smallest f16
/// subnormal, 2^-24, is far above f32's underflow threshold), and NaNs
/// canonicalize to the quiet NaN `0x7fc0_0000` — matching what the
/// original `f64`-widening path produced when cast to `f32`.
const fn f16_bits_to_f32_bits(bits: u16) -> u32 {
    let sign = ((bits & SIGN_MASK) as u32) << 16;
    let exp = ((bits & EXP_MASK) >> 10) as u32;
    let frac = (bits & FRAC_MASK) as u32;
    if exp == 31 {
        // Infinity keeps its sign; NaN canonicalizes (payload and sign
        // dropped, exactly as `f64::NAN as f32` did in the old path).
        return if frac == 0 {
            sign | 0x7f80_0000
        } else {
            0x7fc0_0000
        };
    }
    if exp == 0 {
        if frac == 0 {
            return sign; // signed zero
        }
        // Subnormal: value = frac · 2^-24 with frac in [1, 2^10).
        // Normalize: with l the index of frac's leading 1 (0..=9), the
        // value is 2^(l-24) · (frac / 2^l), giving biased f32 exponent
        // (l - 24) + 127 = l + 103.
        let l = 31 - frac.leading_zeros();
        return sign | ((l + 103) << 23) | ((frac ^ (1 << l)) << (23 - l));
    }
    // Normal: re-bias the exponent (exp - 15 + 127) and widen the
    // mantissa from 10 to 23 bits.
    sign | ((exp + 112) << 23) | (frac << 13)
}

/// The full `F16 → f32` decode table: one `f32` per 16-bit pattern, so
/// widening is a single indexed load on the hot path. Built at compile
/// time (256 KiB of rodata).
static F16_TO_F32: [f32; 1 << 16] = {
    let mut table = [0.0f32; 1 << 16];
    let mut bits = 0usize;
    while bits < (1 << 16) {
        table[bits] = f32::from_bits(f16_bits_to_f32_bits(bits as u16));
        bits += 1;
    }
    table
};

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

    /// Converts from `f32` with round-to-nearest-even (direct bit
    /// manipulation; bit-equivalent to rounding through `f64`, which is
    /// exact on the widening step).
    #[inline]
    pub fn from_f32(x: f32) -> Self {
        F16(f32_to_f16_bits(x))
    }

    /// Converts from `f64` with round-to-nearest-even.
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        F16(f64_to_f16_bits(x))
    }

    /// Widens to `f32` (exact): a single load from the decode table.
    #[inline]
    pub fn to_f32(self) -> f32 {
        F16_TO_F32[self.0 as usize]
    }

    /// Widens to `f64` (exact): the table's `f32` widened again, both
    /// steps lossless.
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

    /// Absolute value (clears the sign bit).
    #[inline]
    pub fn abs(self) -> Self {
        F16(self.0 & !SIGN_MASK)
    }

    /// Negation (flips the sign bit, as IEEE negate does — including NaN).
    #[inline]
    #[allow(clippy::should_implement_trait)] // also exposed via std::ops::Neg below
    pub fn neg(self) -> Self {
        F16(self.0 ^ SIGN_MASK)
    }
}

/// Rounds `sig >> shift` to nearest, ties to even. `sig` holds an exact
/// nonnegative significand; `shift` may exceed the bit width (the result
/// is then 0, since `sig < 2^53 <= 2^(shift-1)` for `shift >= 54`).
#[inline]
fn rne_shift(sig: u64, shift: u32) -> u64 {
    if shift == 0 {
        return sig;
    }
    let shift = shift.min(63);
    let floor = sig >> shift;
    let rem = sig & ((1u64 << shift) - 1);
    let half = 1u64 << (shift - 1);
    if rem > half || (rem == half && floor & 1 == 1) {
        floor + 1
    } else {
        floor
    }
}

/// Converts an `f32` to binary16 bits with round-to-nearest-even,
/// operating directly on the binary32 fields (no `f64` round trip).
///
/// A single rounding step from 24 to 11 significand bits: bit-equivalent
/// to the old `f64`-widening path because `f32 → f64` is exact.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let b = x.to_bits();
    let sign = ((b >> 16) as u16) & SIGN_MASK;
    let e = ((b >> 23) & 0xff) as i32;
    let m = b & 0x007f_ffff;

    if e == 0xff {
        // Infinity or NaN; NaN payloads are canonicalized.
        return if m == 0 {
            sign | EXP_MASK
        } else {
            sign | 0x7e00
        };
    }
    if e == 0 && m == 0 {
        return sign; // signed zero
    }

    // Express |x| = sig * 2^exp with sig in [2^23, 2^24) for normals.
    // f32 subnormals are below 2^-126, far under the f16 underflow
    // threshold 2^-25, so they flush to (signed) zero via the same path.
    let (sig, exp) = if e == 0 {
        (m, -126 - 23)
    } else {
        (m | (1u32 << 23), e - 127 - 23)
    };
    // Unbiased magnitude exponent: |x| in [2^emag, 2^(emag+1)).
    let emag = exp + 23;

    if emag >= 16 {
        // |x| >= 2^16 = 65536 > 65519.99..., the rounding boundary to MAX.
        return sign | EXP_MASK;
    }
    if emag >= -14 {
        // Normal f16 candidate: sig's leading bit sits at position 23, so
        // we drop 13 bits; mantissa overflow carries into the exponent
        // field, and an exponent of 31 means overflow to infinity.
        let q = rne_shift(sig as u64, 13); // q in [2^10, 2^11]
        let bits = (((emag + 14) as u32) << 10) + q as u32;
        if bits >= 0x7c00 {
            return sign | EXP_MASK;
        }
        return sign | bits as u16;
    }
    // Subnormal or underflow-to-zero: quantum is 2^-24.
    // shift = (quantum exponent) - exp = -24 - exp.
    let shift = (-24 - exp) as u32;
    let q = rne_shift(sig as u64, shift); // q in [0, 2^10]; 2^10 is MIN_POSITIVE
    sign | q as u16
}

/// Converts an `f64` to binary16 bits with round-to-nearest-even.
pub fn f64_to_f16_bits(x: f64) -> u16 {
    let b = x.to_bits();
    let sign = ((b >> 48) as u16) & SIGN_MASK;
    let e = ((b >> 52) & 0x7ff) as i32;
    let m = b & 0x000f_ffff_ffff_ffff;

    if e == 0x7ff {
        // Infinity or NaN; NaN payloads are canonicalized.
        return if m == 0 {
            sign | EXP_MASK
        } else {
            sign | 0x7e00
        };
    }
    if e == 0 && m == 0 {
        return sign; // signed zero
    }

    // Express |x| = sig * 2^exp with sig in [2^52, 2^53) for normals.
    // f64 subnormals are below 2^-1022, vastly below the f16 underflow
    // threshold 2^-25, so they flush to (signed) zero via the same path.
    let (sig, exp) = if e == 0 {
        (m, -1022 - 52)
    } else {
        (m | (1u64 << 52), e - 1023 - 52)
    };
    // Unbiased magnitude exponent: |x| in [2^emag, 2^(emag+1)).
    let emag = exp + 52;

    if emag >= 16 {
        // |x| >= 2^16 = 65536 > 65519.99..., the rounding boundary to MAX.
        return sign | EXP_MASK;
    }
    if emag >= -14 {
        // Normal f16 candidate: quantum 2^(emag-10); sig's leading bit sits
        // at position 52, so we drop 42 bits.
        let q = rne_shift(sig, 42); // q in [2^10, 2^11]
                                    // Encode with the implicit bit folded into the exponent field;
                                    // q == 2^11 (mantissa overflow) carries into the exponent
                                    // automatically, and an exponent of 31 means overflow to infinity.
        let bits = (((emag + 14) as u32) << 10) + q as u32;
        if bits >= 0x7c00 {
            return sign | EXP_MASK;
        }
        return sign | bits as u16;
    }
    // Subnormal or underflow-to-zero: quantum is 2^-24.
    // shift = (quantum exponent) - exp = -24 - exp.
    let shift = (-24 - exp) as u32;
    let q = rne_shift(sig, shift); // q in [0, 2^10]; 2^10 is MIN_POSITIVE
    sign | q as u16
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

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f64().partial_cmp(&other.to_f64())
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

impl std::ops::Add for F16 {
    type Output = F16;
    fn add(self, rhs: F16) -> F16 {
        F16::from_f64(self.to_f64() + rhs.to_f64())
    }
}

impl std::ops::Sub for F16 {
    type Output = F16;
    fn sub(self, rhs: F16) -> F16 {
        F16::from_f64(self.to_f64() - rhs.to_f64())
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

impl std::ops::Div for F16 {
    type Output = F16;
    fn div(self, rhs: F16) -> F16 {
        F16::from_f64(self.to_f64() / rhs.to_f64())
    }
}

impl std::ops::Neg for F16 {
    type Output = F16;
    fn neg(self) -> F16 {
        F16::neg(self)
    }
}

impl std::iter::Sum for F16 {
    /// Sequential left-to-right FP16 summation (each partial sum rounded),
    /// matching what a chain of HADD instructions computes.
    fn sum<I: Iterator<Item = F16>>(iter: I) -> F16 {
        iter.fold(F16::ZERO, |acc, x| acc + x)
    }
}

/// The original arithmetic-formulation conversions, kept as the oracle
/// the fast paths are proven bit-equivalent against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{EXP_MASK, FRAC_MASK, SIGN_MASK};

    /// The pre-table `F16 → f64` widening (sign/exponent/fraction
    /// arithmetic in `f64`).
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

    /// The pre-fast-path `f32 → F16` encode: widen exactly to `f64`,
    /// round once.
    pub fn from_f32(x: f32) -> u16 {
        super::f64_to_f16_bits(x as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // regimes, ~65k values) plus the patterns adjacent to each stride
        // point, against the f64-round-trip oracle.
        let mut checked = 0u64;
        for hi in 0..=u16::MAX {
            for lo in [0u32, 1, 0x7fff, 0x8000, 0xffff] {
                let x = f32::from_bits(((hi as u32) << 16) | lo);
                let fast = F16::from_f32(x).to_bits();
                let slow = oracle::from_f32(x);
                assert_eq!(fast, slow, "input {x:e} ({:#010x})", x.to_bits());
                checked += 1;
            }
        }
        assert_eq!(checked, 5 * 65536);
    }

    #[test]
    fn encode_matches_oracle_on_edge_cases() {
        // Exact ties, boundary magnitudes, signed zeros, subnormal range,
        // infinities, and NaN payload canonicalization.
        let cases: &[f32] = &[
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
        for &x in cases {
            let fast = F16::from_f32(x).to_bits();
            let slow = oracle::from_f32(x);
            assert_eq!(fast, slow, "input {x:e} ({:#010x})", x.to_bits());
        }
        // Exhaustive over the entire f16-relevant exponent window: all
        // f32 values whose exponent field lies in [96, 144) with a dense
        // mantissa sweep (steps of 257 cover every mantissa byte pair).
        for e in 96u32..144 {
            for m in (0..0x0080_0000u32).step_by(257) {
                for sign in [0u32, 0x8000_0000] {
                    let x = f32::from_bits(sign | (e << 23) | m);
                    assert_eq!(
                        F16::from_f32(x).to_bits(),
                        oracle::from_f32(x),
                        "input {x:e}"
                    );
                }
            }
        }
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
    fn subnormal_arithmetic() {
        let a = F16::MIN_SUBNORMAL;
        assert_eq!((a + a).to_f64(), 2.0_f64.powi(-23));
        // 1024 subnormal quanta is the smallest normal.
        let sum: F16 = std::iter::repeat_n(a, 1024).sum();
        assert_eq!(sum, F16::MIN_POSITIVE);
    }

    #[test]
    fn signed_zero_semantics() {
        assert_eq!((F16::NEG_ZERO + F16::ZERO), F16::ZERO);
        assert!(F16::NEG_ZERO.is_zero());
        assert!(F16::NEG_ZERO.is_sign_negative());
        assert_eq!(F16::from_f64(-0.0).0, 0x8000);
    }

    #[test]
    fn nan_and_inf_propagate() {
        assert!((F16::NAN + F16::ONE).is_nan());
        assert!((F16::INFINITY - F16::INFINITY).is_nan());
        assert_eq!(F16::INFINITY + F16::ONE, F16::INFINITY);
        assert!((F16::ZERO * F16::INFINITY).is_nan());
    }

    #[test]
    fn basic_arithmetic_is_exact_for_small_integers() {
        let three = F16::from_f32(3.0);
        let four = F16::from_f32(4.0);
        assert_eq!((three + four).to_f32(), 7.0);
        assert_eq!((three * four).to_f32(), 12.0);
        assert_eq!((four - three).to_f32(), 1.0);
        assert_eq!((four / F16::from_f32(2.0)).to_f32(), 2.0);
    }

    #[test]
    fn addition_rounds_large_plus_small() {
        // 2048 has quantum 2; adding 0.5 must round back to 2048 and 1.0
        // must tie to even (2048).
        let big = F16::from_f32(2048.0);
        assert_eq!(big + F16::from_f32(0.5), big);
        assert_eq!(big + F16::ONE, big);
        assert_eq!((big + F16::from_f32(1.5)).to_f32(), 2050.0);
    }

    #[test]
    fn sum_is_sequential_and_order_sensitive() {
        // 1 + 2^-11 repeated: each add individually rounds away, so the
        // sequential sum stays at 1.0 no matter how many tiny terms.
        let tiny = F16::from_f64(2.0_f64.powi(-11) * 0.99);
        let mut acc = F16::ONE;
        for _ in 0..100 {
            acc = acc + tiny;
        }
        assert_eq!(acc, F16::ONE);
    }
}
