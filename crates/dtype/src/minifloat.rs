//! One sign–exponent–mantissa codec for every float format narrower
//! than binary32 (the shape of SNIPPETS.md §2's
//! `Float<EXPONENT, SIGNIFICANT>`): binary16 is `Minifloat<5, 10, false>`,
//! FP8 E4M3FN is `Minifloat<4, 3, true>`.

/// A float format of 1 sign, `E` exponent (bias `2^(E-1) - 1`) and `M`
/// mantissa bits with gradual underflow, under one of two policies for
/// the all-ones exponent:
///
/// - IEEE (`FINITE_ONLY = false`): it holds ±∞ (zero mantissa) and NaNs;
///   encode overflows to ±∞ and writes the quiet NaN `S.1…1.10…0`.
/// - finite-only (`FINITE_ONLY = true`, the OCP "FN" formats): it is an
///   ordinary binade except that `S.1…1.1…1` is the one NaN; encode
///   saturates at the largest finite code.
///
/// Encoded NaNs keep the sign of their source. Codes are the low
/// `1 + E + M` bits of a `u32`.
pub(crate) struct Minifloat<const E: u32, const M: u32, const FINITE_ONLY: bool>;

impl<const E: u32, const M: u32, const FINITE_ONLY: bool> Minifloat<E, M, FINITE_ONLY> {
    const BIAS: i32 = (1 << (E - 1)) - 1;
    const SIGN: u32 = 1 << (E + M);
    /// Every magnitude bit set: the finite-only NaN.
    const MAG: u32 = Self::SIGN - 1;
    /// The all-ones exponent with a zero mantissa: IEEE infinity.
    const INF: u32 = Self::MAG ^ ((1 << M) - 1);
    /// The smallest magnitude code that is not a finite value.
    const LIMIT: u32 = if FINITE_ONLY { Self::MAG } else { Self::INF };
    /// Where overflow lands: ∞ itself, or the code below the one NaN.
    const OVERFLOW: u32 = Self::LIMIT - FINITE_ONLY as u32;
    /// The quiet bit on ∞; the finite-only NaN already has it set.
    const NAN: u32 = Self::LIMIT | 1 << (M - 1);

    /// The binary32 bit pattern of `code`'s value — exact, every value
    /// of a format with `E < 8` being a binary32 normal: subnormals are
    /// normalised, and every NaN decodes to the quiet `0x7fc0_0000`
    /// (sign and payload dropped).
    pub(crate) const fn decode_bits(code: u32) -> u32 {
        assert!(E < 8 && M < 23);
        let sign = (code & Self::SIGN) << (31 - E - M);
        let mag = code & Self::MAG;
        let (e, m) = (mag >> M, mag & ((1 << M) - 1));
        if mag == Self::INF && !FINITE_ONLY {
            return sign | 0x7f80_0000;
        }
        if mag >= Self::LIMIT {
            return 0x7fc0_0000;
        }
        // Biased binary32 exponent of a normal with exponent field 0
        // (one below the least the format has).
        let rebias = (127 - Self::BIAS) as u32;
        if e == 0 {
            if m == 0 {
                return sign; // signed zero
            }
            // Subnormal `m · 2^(1 - BIAS - M)`: with `l` the index of
            // `m`'s leading one, `2^(l + 1 - BIAS - M) · (m / 2^l)`.
            let l = 31 - m.leading_zeros();
            return sign | ((l + 1 + rebias - M) << 23) | ((m ^ (1 << l)) << (23 - l));
        }
        sign | ((e + rebias) << 23) | (m << (23 - M))
    }

    /// The full decode table, one `f32` per code (`N` is `2^(1+E+M)`).
    pub(crate) const fn decode_table<const N: usize>() -> [f32; N] {
        assert!(N == 1 << (1 + E + M));
        let mut table = [0.0f32; N];
        let mut code = 0;
        while code < N {
            table[code] = f32::from_bits(Self::decode_bits(code as u32));
            code += 1;
        }
        table
    }

    /// Rounds the magnitude `sig · 2^exp` to the nearest code, ties to
    /// even. `top` is the bit of `sig` that holds a source normal's
    /// implicit one (a source subnormal's `sig` lies below it).
    #[inline]
    fn encode(sign: u32, sig: u64, exp: i32, top: u32) -> u32 {
        // `sig · 2^exp` is below `2^(emag + 1)`, and at least `2^emag`
        // unless the source was subnormal.
        let emag = exp + top as i32;
        let e_min = 1 - Self::BIAS;
        let mag = if emag >= e_min {
            // A normal keeps `M` bits below its leading one. The rounded
            // significand keeps that one: added to the exponent field
            // *below* `emag`'s it carries into the field, as does a
            // mantissa that rounds up into the next binade or `LIMIT`.
            (((emag - e_min) as u64) << M) + rne_shift(sig, top - M)
        } else {
            // Subnormals count quanta of `2^(e_min - M)`; one that
            // rounds up to `2^M` is the least normal binade's first code.
            rne_shift(sig, (e_min - M as i32 - exp) as u32)
        };
        sign | mag.min(Self::OVERFLOW as u64) as u32
    }

    /// Encodes an `f32`, round-to-nearest-even.
    #[inline]
    pub(crate) fn from_f32(x: f32) -> u16 {
        Self::from_ieee::<8, 23>(x.to_bits() as u64)
    }

    /// Encodes an `f64`, round-to-nearest-even (one rounding, from the
    /// full 53-bit significand).
    #[inline]
    pub(crate) fn from_f64(x: f64) -> u16 {
        Self::from_ieee::<11, 52>(x.to_bits())
    }

    /// Splits an IEEE interchange pattern of `SE` exponent and `SM`
    /// mantissa bits into the operands of [`Self::encode`]. ±∞ takes the
    /// overflow path of any magnitude too large for the format.
    #[inline]
    fn from_ieee<const SE: u32, const SM: u32>(bits: u64) -> u16 {
        let sign = ((bits >> (SE + SM)) as u32) << (E + M);
        let e = (bits >> SM) as i32 & ((1 << SE) - 1);
        let m = bits & ((1 << SM) - 1);
        if e == (1 << SE) - 1 && m != 0 {
            return (sign | Self::NAN) as u16;
        }
        // A subnormal has no implicit one, and the least normal exponent.
        let (sig, e) = if e == 0 { (m, 1) } else { (m | 1 << SM, e) };
        let bias = (1 << (SE - 1)) - 1;
        Self::encode(sign, sig, e - bias - SM as i32, SM) as u16
    }
}

/// Rounds `sig >> shift` to nearest, ties to even, for `shift >= 1`
/// (past the bit width the result is 0) and an exact significand `sig`
/// below `2^62`: adding just under half a quantum — a whole half where
/// the kept part is odd — carries exactly when rounding goes up.
#[inline]
fn rne_shift(sig: u64, shift: u32) -> u64 {
    let shift = shift.min(63);
    (sig + ((1 << (shift - 1)) - 1) + ((sig >> shift) & 1)) >> shift
}

/// The test suite's one *encode* reference: a walk along a format's
/// sorted value table, which shares no bit manipulation with the codec.
#[cfg(test)]
pub(crate) mod oracle {
    /// One format as the oracle sees it.
    pub(crate) struct Reference {
        /// `values[c]` is the value of magnitude code `c`, ascending
        /// from zero, taken from the format's arithmetic decode
        /// reference. Inputs past the last entry land on it: that is the
        /// largest finite value of a saturating format, and for an
        /// overflowing one the power of two its ∞ code would hold as
        /// one more binade, which puts the boundary where IEEE does.
        pub values: Vec<f64>,
        /// The sign bit of a code.
        pub sign: u16,
        /// The code a NaN of the given sign encodes to.
        pub nan: fn(negative: bool) -> u16,
    }

    impl Reference {
        /// Asserts `encode` on `inputs`, which must come in order of
        /// non-decreasing magnitude (NaNs anywhere): the correct code
        /// only ever steps up — when the input passes the midpoint to
        /// the next value, or sits on it while the current code is odd.
        pub(crate) fn check<T: Copy + Into<f64>>(
            &self,
            inputs: impl IntoIterator<Item = T>,
            encode: impl Fn(T) -> u16,
        ) {
            let (mut at, mut last) = (0usize, 0.0f64);
            for input in inputs {
                let x: f64 = input.into();
                let want = if x.is_nan() {
                    (self.nan)(x.is_sign_negative())
                } else {
                    assert!(x.abs() >= last, "inputs out of order at {x:e}");
                    last = x.abs();
                    while let Some(next) = self.values.get(at + 1) {
                        let mid = (self.values[at] + next) / 2.0;
                        if last > mid || (last == mid && at % 2 == 1) {
                            at += 1;
                        } else {
                            break;
                        }
                    }
                    at as u16 | if x.is_sign_negative() { self.sign } else { 0 }
                };
                let got = encode(input);
                assert_eq!(got, want, "input {x:e} ({:#x})", x.to_bits());
            }
        }

        /// [`Self::check`] over every `f32` bit pattern, both signs of
        /// each magnitude, NaN payloads included.
        pub(crate) fn check_every_f32(&self, encode: impl Fn(f32) -> u16) {
            let both = |m: u32| [m, m | 1 << 31].map(f32::from_bits);
            self.check((0..1u32 << 31).flat_map(both), encode);
        }
    }

    /// `v` in the order [`Reference::check`] takes it.
    pub(crate) fn by_magnitude<T: Copy + Into<f64>>(mut v: Vec<T>) -> Vec<T> {
        v.sort_by(|a, b| (*a).into().abs().total_cmp(&(*b).into().abs()));
        v
    }
}
