//! Storage-precision substrate: the formats a model's operands live in.
//!
//! The engine computes every GEMM in one currency — decoded `f32`
//! panels, one FP32 accumulator per output element — but production
//! models are *stored* and *served* in more than one precision: fp16,
//! bf16, fp8 (E4M3), int8. This crate defines that storage axis as a
//! sealed [`StorageDtype`] trait with one implementation per format and
//! a runtime [`Dtype`] tag the rest of the stack dispatches on. Because
//! decode-to-f32 is **exact** for every float format here (each
//! representable value is also a binary32 value) and the int8 path uses
//! a power-of-two scale, all downstream f32 arithmetic — the AVX2
//! microkernel, checksum epilogues, recovery recompute — is shared
//! byte-for-byte across formats by construction.
//!
//! Per-format decode strategy (the hot direction):
//! - 16-bit formats ([`F16`], [`Bf16`]): a 65,536-entry const `f32`
//!   table — one indexed load per element. `F16` delegates to the
//!   existing `aiga-fp16` table so its hot path and golden hashes are
//!   untouched.
//! - [`Fp8E4M3`]: a 256-entry const table.
//! - [`Int8`]: affine scale (no table) — the engine's storage path
//!   fixes `scale = 2^-6`, `zero_point = 0`, so decoded values are
//!   exact multiples of 2^-6 and their f32 sums are exact.
//!
//! Encoding (quantization points: seeded weights, activation
//! write-back) is round-to-nearest-even via direct bit manipulation,
//! mirroring `aiga_fp16::f32_to_f16_bits`. Codes travel as `u16`
//! (8-bit formats use the low byte) so `Matrix` storage stays one flat
//! 16-bit lane regardless of format.

use aiga_fp16::half::f32_to_f16_bits;
use aiga_fp16::F16 as Half;
use std::sync::OnceLock;

/// The engine's int8 dequantization scale, `2^-6`. A power of two keeps
/// every decoded value an exact multiple of the quantum, so f32 sums of
/// decoded int8 values are exact (the checksum chain has zero rounding
/// error). Range: ±127/64 ≈ ±1.984.
pub const INT8_SCALE: f32 = 1.0 / 64.0;

/// The bf16 decode table: one `f32` per 16-bit pattern (256 KiB of
/// rodata). bf16 is the top half of binary32, so each entry is just the
/// pattern shifted left 16 — the table exists so 16-bit formats share
/// one decode strategy.
static BF16_TO_F32: [f32; 1 << 16] = {
    let mut table = [0.0f32; 1 << 16];
    let mut bits = 0usize;
    while bits < (1 << 16) {
        table[bits] = f32::from_bits((bits as u32) << 16);
        bits += 1;
    }
    table
};

/// Decodes one FP8 E4M3FN code to the binary32 bit pattern of the same
/// value, in pure integer arithmetic (usable in const context).
///
/// E4M3FN (OCP spec): 1 sign, 4 exponent (bias 7), 3 mantissa bits; no
/// infinities; `S.1111.111` is NaN (canonicalized to `0x7fc0_0000` like
/// the fp16 decode path); max finite is `S.1111.110` = ±448; subnormal
/// value is `m · 2^-9`.
const fn fp8_e4m3_bits_to_f32_bits(code: u8) -> u32 {
    let sign = ((code & 0x80) as u32) << 24;
    let e = ((code >> 3) & 0x0f) as u32;
    let m = (code & 0x07) as u32;
    if e == 15 && m == 7 {
        return 0x7fc0_0000;
    }
    if e == 0 {
        if m == 0 {
            return sign; // signed zero
        }
        // Subnormal: value = m · 2^-9 with m in [1, 7]. Normalize: with
        // l the index of m's leading 1 (0..=2), biased f32 exponent is
        // (l - 9) + 127 = l + 118.
        let l = 31 - m.leading_zeros();
        return sign | ((l + 118) << 23) | ((m ^ (1 << l)) << (23 - l));
    }
    // Normal: (1 + m/8) · 2^(e-7); biased f32 exponent e - 7 + 127.
    sign | ((e + 120) << 23) | (m << 20)
}

/// The full FP8 E4M3 → f32 decode table (1 KiB of rodata).
static FP8_E4M3_TO_F32: [f32; 1 << 8] = {
    let mut table = [0.0f32; 1 << 8];
    let mut code = 0usize;
    while code < (1 << 8) {
        table[code] = f32::from_bits(fp8_e4m3_bits_to_f32_bits(code as u8));
        code += 1;
    }
    table
};

/// Rounds `sig >> shift` to nearest, ties to even (same contract as the
/// private helper in `aiga_fp16::half`).
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

/// Converts an `f32` to bfloat16 bits with round-to-nearest-even.
///
/// bf16 is binary32 truncated to its top half, so RNE is one addition:
/// `bits + 0x7fff + (lsb of the kept half)`; mantissa overflow carries
/// into the exponent and on to infinity exactly as IEEE rounding
/// requires. NaNs canonicalize to the quiet `0x7fc0` (payload and sign
/// dropped, matching the fp16 path's canonicalization).
pub fn f32_to_bf16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    if (bits & 0x7fff_ffff) > 0x7f80_0000 {
        return 0x7fc0;
    }
    let rounded = bits + 0x7fff + ((bits >> 16) & 1);
    (rounded >> 16) as u16
}

/// Converts an `f32` to FP8 E4M3FN bits with round-to-nearest-even and
/// saturation: the format has no infinities, so overflow (and ±∞)
/// clamps to ±448 (`0x7e`/`0xfe`); NaN maps to the signed NaN code.
pub fn f32_to_fp8_e4m3_bits(x: f32) -> u8 {
    let b = x.to_bits();
    let sign = ((b >> 24) & 0x80) as u8;
    let abs = b & 0x7fff_ffff;
    if abs > 0x7f80_0000 {
        return sign | 0x7f; // NaN
    }
    let e = ((abs >> 23) & 0xff) as i32;
    let m = abs & 0x007f_ffff;
    if e == 0 && m == 0 {
        return sign; // signed zero
    }
    // Express |x| = sig · 2^exp with sig in [2^23, 2^24) for normals
    // (f32 subnormals are far below fp8's underflow threshold 2^-10 and
    // flush to signed zero through the subnormal path).
    let (sig, exp) = if e == 0 {
        (m, -126 - 23)
    } else {
        (m | (1u32 << 23), e - 127 - 23)
    };
    let emag = exp + 23;
    if emag >= 9 {
        // |x| >= 512 > 464, the rounding boundary above MAX = 448.
        return sign | 0x7e;
    }
    if emag >= -6 {
        // Normal candidate: sig's leading bit sits at position 23, so we
        // drop 20 bits; q in [2^3, 2^4] folds the implicit bit into the
        // exponent field. The NaN slot (0x7f) and beyond saturate.
        let q = rne_shift(sig as u64, 20);
        let bits = (((emag + 6) as u32) << 3) + q as u32;
        if bits >= 0x7f {
            return sign | 0x7e;
        }
        return sign | bits as u8;
    }
    // Subnormal or underflow-to-zero: quantum is 2^-9, so we keep
    // sig · 2^(exp+9) integral bits; q = 8 is MIN_POSITIVE normal and
    // encodes correctly as e=1, m=0.
    let shift = (-9 - exp) as u32;
    let q = rne_shift(sig as u64, shift);
    sign | q as u8
}

/// Affine int8 quantization with arbitrary `(scale, zero_point)`:
/// `q = clamp(round_ties_even(x / scale) + zero_point, -127, 127)`.
///
/// This is the general calibration-time mapping; the engine's *storage*
/// path fixes `scale = `[`INT8_SCALE`]` = 2^-6`, `zero_point = 0` (see
/// [`Int8`]) so that decoded sums stay exact in f32. Non-finite inputs
/// saturate (NaN quantizes to `zero_point`).
pub fn int8_affine_encode(x: f32, scale: f32, zero_point: i8) -> i8 {
    let q = (x / scale).round_ties_even() + zero_point as f32;
    if q.is_nan() {
        return zero_point;
    }
    q.clamp(-127.0, 127.0) as i8
}

/// Affine int8 dequantization: `x = (q - zero_point) · scale`.
pub fn int8_affine_decode(q: i8, scale: f32, zero_point: i8) -> f32 {
    (q as i32 - zero_point as i32) as f32 * scale
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::F16 {}
    impl Sealed for super::Bf16 {}
    impl Sealed for super::Fp8E4M3 {}
    impl Sealed for super::Int8 {}
}

/// One storage format: how a model's operand bytes map to the engine's
/// f32 currency. Sealed — the set of formats is closed over this crate
/// so the engine can dispatch on [`Dtype`] exhaustively.
///
/// Codes travel as `u16` regardless of width; 8-bit formats use the low
/// byte. `decode` is exact for every float format (all values are
/// binary32-representable) and for int8's power-of-two scale; `encode`
/// is round-to-nearest-even with each format's overflow semantics
/// (fp16/bf16 → ±∞, fp8 → saturate at ±448, int8 → clamp at ±127).
pub trait StorageDtype: sealed::Sealed + Copy + Send + Sync + 'static {
    /// The runtime tag for this format.
    const DTYPE: Dtype;
    /// Storage width in bits.
    const BITS: u32;
    /// Decodes one stored code to f32.
    fn decode(code: u16) -> f32;
    /// Encodes an f32 to the nearest representable code.
    fn encode(x: f32) -> u16;
}

/// IEEE 754 binary16 — the engine's native format, delegating to
/// `aiga-fp16`'s decode table and bit-level encoder so the fp16 hot
/// path (and its golden hashes) is byte-for-byte the pre-dtype code.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct F16;

impl StorageDtype for F16 {
    const DTYPE: Dtype = Dtype::F16;
    const BITS: u32 = 16;
    #[inline]
    fn decode(code: u16) -> f32 {
        Half::from_bits(code).to_f32()
    }
    #[inline]
    fn encode(x: f32) -> u16 {
        f32_to_f16_bits(x)
    }
}

/// bfloat16: 1 sign, 8 exponent (bias 127), 7 mantissa bits — binary32
/// truncated to its top half, so decode is exact by construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Bf16;

impl StorageDtype for Bf16 {
    const DTYPE: Dtype = Dtype::Bf16;
    const BITS: u32 = 16;
    #[inline]
    fn decode(code: u16) -> f32 {
        BF16_TO_F32[code as usize]
    }
    #[inline]
    fn encode(x: f32) -> u16 {
        f32_to_bf16_bits(x)
    }
}

/// FP8 E4M3FN (OCP): 1 sign, 4 exponent (bias 7), 3 mantissa bits; no
/// infinities, one NaN per sign, max finite ±448.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fp8E4M3;

impl StorageDtype for Fp8E4M3 {
    const DTYPE: Dtype = Dtype::Fp8E4M3;
    const BITS: u32 = 8;
    #[inline]
    fn decode(code: u16) -> f32 {
        FP8_E4M3_TO_F32[(code & 0xff) as usize]
    }
    #[inline]
    fn encode(x: f32) -> u16 {
        f32_to_fp8_e4m3_bits(x) as u16
    }
}

/// Symmetric int8 storage: `value = code · 2^-6`, zero-point 0, codes
/// clamped to ±127 (the −128 slot is unused, keeping the range
/// symmetric as TensorRT-style symmetric quantization does).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Int8;

impl StorageDtype for Int8 {
    const DTYPE: Dtype = Dtype::Int8;
    const BITS: u32 = 8;
    #[inline]
    fn decode(code: u16) -> f32 {
        (code as u8 as i8) as f32 * INT8_SCALE
    }
    #[inline]
    fn encode(x: f32) -> u16 {
        int8_affine_encode(x, INT8_SCALE, 0) as u8 as u16
    }
}

/// Runtime storage-format tag. `Matrix`, panels, networks, the planner
/// and the fault campaign all carry one of these; the engine dispatches
/// decode/encode through it once per loop, not per element.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Dtype {
    /// IEEE binary16 (the default — the pre-dtype engine's format).
    #[default]
    F16,
    /// bfloat16.
    Bf16,
    /// FP8 E4M3FN.
    Fp8E4M3,
    /// Symmetric int8, scale `2^-6`.
    Int8,
}

impl Dtype {
    /// Every supported format, in display order.
    pub const ALL: [Dtype; 4] = [Dtype::F16, Dtype::Bf16, Dtype::Fp8E4M3, Dtype::Int8];

    /// Storage width in bits.
    pub const fn bits(self) -> u32 {
        match self {
            Dtype::F16 | Dtype::Bf16 => 16,
            Dtype::Fp8E4M3 | Dtype::Int8 => 8,
        }
    }

    /// Storage bytes per element — what DRAM-traffic and arithmetic-
    /// intensity models price.
    pub const fn bytes(self) -> u64 {
        (self.bits() / 8) as u64
    }

    /// Decodes one stored code (low byte for 8-bit formats) to f32.
    #[inline]
    pub fn decode(self, code: u16) -> f32 {
        match self {
            Dtype::F16 => F16::decode(code),
            Dtype::Bf16 => Bf16::decode(code),
            Dtype::Fp8E4M3 => Fp8E4M3::decode(code),
            Dtype::Int8 => Int8::decode(code),
        }
    }

    /// Encodes an f32 to the nearest representable code (RNE).
    #[inline]
    pub fn encode(self, x: f32) -> u16 {
        match self {
            Dtype::F16 => F16::encode(x),
            Dtype::Bf16 => Bf16::encode(x),
            Dtype::Fp8E4M3 => Fp8E4M3::encode(x),
            Dtype::Int8 => Int8::encode(x),
        }
    }

    /// Decodes `src` into `dst` (equal lengths), bit for bit what
    /// [`Self::decode`] gives per element, with the format dispatch
    /// outside the loop: fp16 widens eight codes per `vcvtph2ps` on F16C
    /// hosts, the other formats run their scalar codec monomorphised.
    pub fn decode_slice(self, src: &[Half], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "codec slices must match");
        match self {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: f16c_active verified AVX and F16C on this host.
            Dtype::F16 if f16c_active() => unsafe { f16c::decode(src, dst) },
            Dtype::F16 => decode_with::<F16>(src, dst),
            Dtype::Bf16 => decode_with::<Bf16>(src, dst),
            Dtype::Fp8E4M3 => decode_with::<Fp8E4M3>(src, dst),
            Dtype::Int8 => decode_with::<Int8>(src, dst),
        }
    }

    /// Encodes `src` into `dst` (equal lengths), bit for bit what
    /// [`Self::encode`] gives per element. fp16 narrows eight values per
    /// `vcvtps2ph` on F16C hosts; bf16's shift-and-round body is
    /// branch-free, so the compiler vectorises its loop.
    pub fn encode_slice(self, src: &[f32], dst: &mut [Half]) {
        assert_eq!(src.len(), dst.len(), "codec slices must match");
        match self {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: f16c_active verified AVX and F16C on this host.
            Dtype::F16 if f16c_active() => unsafe { f16c::encode(src, dst) },
            Dtype::F16 => encode_with::<F16>(src, dst),
            Dtype::Bf16 => encode_with::<Bf16>(src, dst),
            Dtype::Fp8E4M3 => encode_with::<Fp8E4M3>(src, dst),
            Dtype::Int8 => encode_with::<Int8>(src, dst),
        }
    }

    /// Kebab-case name (the `FromStr`/CLI/CI spelling).
    pub const fn name(self) -> &'static str {
        match self {
            Dtype::F16 => "f16",
            Dtype::Bf16 => "bf16",
            Dtype::Fp8E4M3 => "fp8e4m3",
            Dtype::Int8 => "int8",
        }
    }
}

/// True when `AIGA_FORCE_SCALAR` is set (non-empty, not `"0"`): every
/// runtime-dispatched vector body yields to its scalar oracle. Read once.
pub fn scalar_forced() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var_os("AIGA_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0")
    })
}

/// Whether fp16 conversion takes its F16C bodies, here and in the
/// engine's strip staging: an AVX+F16C host, not forced scalar.
pub fn f16c_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    return !scalar_forced() && is_x86_feature_detected!("avx") && is_x86_feature_detected!("f16c");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

fn decode_with<D: StorageDtype>(src: &[Half], dst: &mut [f32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = D::decode(s.to_bits());
    }
}

fn encode_with<D: StorageDtype>(src: &[f32], dst: &mut [Half]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = Half::from_bits(D::encode(*s));
    }
}

/// The F16C bodies of the fp16 slice codecs. The hardware rounds and
/// widens as the scalar codec does except that it keeps NaN payloads,
/// so a vector holding a NaN goes through the scalar codec instead.
#[cfg(target_arch = "x86_64")]
mod f16c {
    use super::{decode_with, encode_with, Half, F16};
    use std::arch::x86_64::*;

    /// # Safety
    /// The host must support AVX and F16C.
    #[target_feature(enable = "avx,f16c")]
    pub(super) unsafe fn decode(src: &[Half], dst: &mut [f32]) {
        let (mut s, mut d) = (src.chunks_exact(8), dst.chunks_exact_mut(8));
        for (s, d) in (&mut s).zip(&mut d) {
            // SAFETY: both chunks are exactly eight elements long.
            let v = _mm256_cvtph_ps(_mm_loadu_si128(s.as_ptr().cast()));
            if _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_UNORD_Q>(v, v)) == 0 {
                _mm256_storeu_ps(d.as_mut_ptr(), v);
            } else {
                decode_with::<F16>(s, d);
            }
        }
        decode_with::<F16>(s.remainder(), d.into_remainder());
    }

    /// # Safety
    /// The host must support AVX and F16C.
    #[target_feature(enable = "avx,f16c")]
    pub(super) unsafe fn encode(src: &[f32], dst: &mut [Half]) {
        let (mut s, mut d) = (src.chunks_exact(8), dst.chunks_exact_mut(8));
        for (s, d) in (&mut s).zip(&mut d) {
            // SAFETY: both chunks are exactly eight elements long.
            let v = _mm256_loadu_ps(s.as_ptr());
            if _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_UNORD_Q>(v, v)) == 0 {
                _mm_storeu_si128(
                    d.as_mut_ptr().cast(),
                    _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v),
                );
            } else {
                encode_with::<F16>(s, d);
            }
        }
        encode_with::<F16>(s.remainder(), d.into_remainder());
    }
}

impl std::fmt::Display for Dtype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Dtype {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "f16" | "fp16" => Ok(Dtype::F16),
            "bf16" => Ok(Dtype::Bf16),
            "fp8e4m3" | "fp8" => Ok(Dtype::Fp8E4M3),
            "int8" => Ok(Dtype::Int8),
            _ => Err(format!(
                "unknown dtype {s:?} (expected f16|bf16|fp8e4m3|int8)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Independent bf16 reference: the top half of binary32, verbatim.
    fn bf16_ref_decode(bits: u16) -> f32 {
        f32::from_bits((bits as u32) << 16)
    }

    /// Independent fp8 E4M3FN reference in f64 field arithmetic.
    fn fp8_ref_decode(code: u8) -> f64 {
        let sign = if code & 0x80 != 0 { -1.0 } else { 1.0 };
        let e = (code >> 3) & 0x0f;
        let m = (code & 0x07) as f64;
        if e == 15 && (code & 0x07) == 7 {
            return f64::NAN;
        }
        if e == 0 {
            return sign * m * (2.0f64).powi(-9);
        }
        sign * (1.0 + m / 8.0) * (2.0f64).powi(e as i32 - 7)
    }

    #[test]
    fn bf16_decode_matches_reference_for_all_2e16_patterns() {
        for bits in 0..=u16::MAX {
            let got = Dtype::Bf16.decode(bits);
            let want = bf16_ref_decode(bits);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "bf16 decode drift at {bits:#06x}"
            );
        }
    }

    #[test]
    fn bf16_encode_round_trips_all_2e16_patterns() {
        for bits in 0..=u16::MAX {
            let v = bf16_ref_decode(bits);
            let back = Dtype::Bf16.encode(v);
            if v.is_nan() {
                assert_eq!(back, 0x7fc0, "NaN canonicalization at {bits:#06x}");
            } else {
                assert_eq!(back, bits, "bf16 round trip at {bits:#06x}");
            }
        }
    }

    #[test]
    fn f16_decode_and_encode_round_trip_all_2e16_patterns() {
        // The dtype layer must be a transparent delegate: every pattern
        // decodes through aiga-fp16's table and encodes back to itself
        // (NaN payloads canonicalize to the quiet 0x7e00, like the F16
        // type itself).
        for bits in 0..=u16::MAX {
            let got = Dtype::F16.decode(bits);
            let want = Half::from_bits(bits).to_f32();
            assert_eq!(got.to_bits(), want.to_bits(), "f16 decode at {bits:#06x}");
            let back = Dtype::F16.encode(got);
            if want.is_nan() {
                assert_eq!(back, 0x7e00, "NaN canonicalization at {bits:#06x}");
            } else {
                assert_eq!(back, bits, "f16 round trip at {bits:#06x}");
            }
        }
    }

    #[test]
    fn fp8_decode_matches_reference_for_all_256_codes() {
        for code in 0..=u8::MAX {
            let got = Dtype::Fp8E4M3.decode(code as u16) as f64;
            let want = fp8_ref_decode(code);
            if want.is_nan() {
                assert!(got.is_nan(), "fp8 NaN at {code:#04x}");
                continue;
            }
            assert_eq!(got, want, "fp8 decode drift at {code:#04x}");
            // Exact sign preservation (−0.0 included).
            assert_eq!(
                got.is_sign_negative(),
                want.is_sign_negative(),
                "fp8 sign at {code:#04x}"
            );
        }
    }

    #[test]
    fn fp8_encode_round_trips_all_256_codes() {
        for code in 0..=u8::MAX {
            let v = Dtype::Fp8E4M3.decode(code as u16);
            let back = Dtype::Fp8E4M3.encode(v) as u8;
            if v.is_nan() {
                // Decode canonicalizes NaN sign away, so both NaN codes
                // come back as the positive NaN code.
                assert_eq!(back, 0x7f, "fp8 NaN at {code:#04x}");
            } else {
                assert_eq!(back, code, "fp8 round trip at {code:#04x}");
            }
        }
    }

    #[test]
    fn fp8_encode_rounds_to_nearest_even_at_midpoints() {
        // Between consecutive positive finite codes the midpoint must
        // round to the code with the even mantissa bit.
        for code in 0..0x7eu8 {
            let lo = Dtype::Fp8E4M3.decode(code as u16) as f64;
            let hi = Dtype::Fp8E4M3.decode((code + 1) as u16) as f64;
            let mid = (lo + hi) / 2.0;
            let got = Dtype::Fp8E4M3.encode(mid as f32) as u8;
            let want = if code & 1 == 0 { code } else { code + 1 };
            assert_eq!(got, want, "midpoint of {code:#04x} and next");
        }
    }

    #[test]
    fn fp8_saturates_instead_of_overflowing() {
        // No infinities in E4M3FN: overflow and ±∞ clamp to ±448.
        assert_eq!(Dtype::Fp8E4M3.encode(448.0), 0x7e);
        assert_eq!(Dtype::Fp8E4M3.encode(463.9), 0x7e); // below boundary 464
        assert_eq!(Dtype::Fp8E4M3.encode(464.0), 0x7e); // tie → even → MAX
        assert_eq!(Dtype::Fp8E4M3.encode(1e9), 0x7e);
        assert_eq!(Dtype::Fp8E4M3.encode(f32::INFINITY), 0x7e);
        assert_eq!(Dtype::Fp8E4M3.encode(-1e9), 0xfe);
        assert_eq!(Dtype::Fp8E4M3.encode(f32::NEG_INFINITY), 0xfe);
        assert_eq!(Dtype::Fp8E4M3.encode(f32::NAN) as u8 & 0x7f, 0x7f);
        // Underflow: below half the smallest subnormal (2^-10) → zero.
        assert_eq!(Dtype::Fp8E4M3.encode(0.0004), 0x00);
        assert_eq!(Dtype::Fp8E4M3.encode(-0.0004), 0x80);
        // Just above it rounds up to the smallest subnormal 2^-9.
        assert_eq!(
            Dtype::Fp8E4M3.decode(Dtype::Fp8E4M3.encode(0.0011)),
            1.0 / 512.0
        );
    }

    #[test]
    fn int8_engine_codes_round_trip_and_sum_exactly() {
        // Every storage code decodes to i·2^-6 and encodes back; the
        // running f32 sum of all decoded values is exact.
        let mut sum = 0.0f32;
        let mut exact = 0i64;
        for i in -127i32..=127 {
            let code = (i as i8 as u8) as u16;
            let v = Dtype::Int8.decode(code);
            assert_eq!(v, i as f32 / 64.0, "int8 decode at {i}");
            assert_eq!(Dtype::Int8.encode(v), code, "int8 round trip at {i}");
            sum += v;
            exact += i as i64;
        }
        assert_eq!(sum as f64 * 64.0, exact as f64);
    }

    #[test]
    fn int8_affine_edge_cases() {
        // Saturation at both rails, engine params.
        assert_eq!(int8_affine_encode(10.0, INT8_SCALE, 0), 127);
        assert_eq!(int8_affine_encode(-10.0, INT8_SCALE, 0), -127);
        assert_eq!(int8_affine_encode(f32::INFINITY, INT8_SCALE, 0), 127);
        assert_eq!(int8_affine_encode(f32::NEG_INFINITY, INT8_SCALE, 0), -127);
        assert_eq!(int8_affine_encode(f32::NAN, INT8_SCALE, 0), 0);
        // Ties to even on the integer grid: 0.5 quanta rounds to even.
        assert_eq!(int8_affine_encode(1.5, 1.0, 0), 2);
        assert_eq!(int8_affine_encode(2.5, 1.0, 0), 2);
        assert_eq!(int8_affine_encode(-1.5, 1.0, 0), -2);
        // Nonzero zero-point shifts the representable window.
        let (scale, zp) = (0.05f32, 10i8);
        assert_eq!(int8_affine_encode(0.0, scale, zp), 10);
        assert_eq!(int8_affine_decode(10, scale, zp), 0.0);
        let q = int8_affine_encode(1.0, scale, zp); // 1/0.05 + 10 = 30
        assert_eq!(q, 30);
        assert!((int8_affine_decode(q, scale, zp) - 1.0).abs() < 1e-6);
        // Asymmetric saturation with a shifted zero-point.
        assert_eq!(int8_affine_encode(100.0, scale, zp), 127);
        assert_eq!(int8_affine_encode(-100.0, scale, zp), -127);
        // Full sweep with arbitrary affine params: decode→encode is the
        // identity on the valid code range.
        for q in -127i8..=127 {
            let v = int8_affine_decode(q, scale, zp);
            assert_eq!(int8_affine_encode(v, scale, zp), q, "affine sweep at {q}");
        }
    }

    /// The f32 patterns the slice encoders are swept over: the dense
    /// stride of `aiga-fp16`'s encode oracle (every 2^16-th pattern and
    /// its neighbours — all exponents, both signs, f32 subnormals, every
    /// NaN prefix with quiet and signalling payloads) plus the exact
    /// ties, overflow boundaries and subnormal edges of each format.
    fn encode_sweep() -> Vec<f32> {
        let mut v = Vec::with_capacity(5 * 65536 + 64);
        for hi in 0..=u16::MAX {
            for lo in [0u32, 1, 0x7fff, 0x8000, 0xffff] {
                v.push(f32::from_bits(((hi as u32) << 16) | lo));
            }
        }
        let p = |e: i32| 2.0f32.powi(e);
        v.extend([
            0.0,
            -0.0,
            1.0 + p(-11),       // fp16 tie at 1.0's quantum
            1.0 + 3.0 * p(-11), // … and the odd neighbour's
            1.0 + p(-8),        // bf16 tie
            65504.0,
            65519.96,
            65520.0, // fp16 tie → ∞
            -65520.0,
            65536.0,
            f32::MAX,
            448.0,
            464.0, // fp8 tie at MAX
            1.984375,
            1.9921875, // int8 tie at the rail
            f32::MIN_POSITIVE,
            f32::MIN_POSITIVE / 4.0,
            p(-24),
            p(-25), // half the smallest fp16 subnormal: ties to zero
            p(-25) * 1.00001,
            p(-14) - p(-25),
            p(-10), // half the smallest fp8 subnormal
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001), // signalling, minimal payload
            f32::from_bits(0xffc1_2345), // negative quiet with payload
            f32::from_bits(0x7fa5_5555), // signalling with payload
        ]);
        v
    }

    #[test]
    fn slice_codecs_match_the_scalar_codec_bit_for_bit() {
        // Runs natively and, in the scalar-oracle CI job, once more under
        // AIGA_FORCE_SCALAR=1 (where both sides are the scalar codec and
        // the sweep pins the generic slice bodies alone).
        let values = encode_sweep();
        let codes: Vec<Half> = (0..=u16::MAX).map(Half::from_bits).collect();
        for dt in Dtype::ALL {
            let mut enc = vec![Half::ZERO; values.len()];
            dt.encode_slice(&values, &mut enc);
            for (x, got) in values.iter().zip(&enc) {
                assert_eq!(
                    got.to_bits(),
                    dt.encode(*x),
                    "{dt} encode {:#010x}",
                    x.to_bits()
                );
            }
            let mut dec = vec![0.0f32; codes.len()];
            dt.decode_slice(&codes, &mut dec);
            for (c, got) in codes.iter().zip(&dec) {
                let want = dt.decode(c.to_bits());
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{dt} decode {:#06x}",
                    c.to_bits()
                );
            }
        }
    }

    #[test]
    fn slice_codecs_hold_at_every_length_and_offset() {
        // Lengths 0..=33 cross the eight-wide vector body and its tail
        // in every phase; offsets 0..3 start on odd elements; one NaN
        // rides in each position of a vector so the per-vector scalar
        // fallback and its neighbours are both exercised.
        let base: Vec<f32> = (0..40).map(|i| (i as f32 - 17.5) * 0.37).collect();
        for dt in Dtype::ALL {
            for len in 0..=33usize {
                for off in 0..3usize {
                    for nan_at in [None, Some(len / 2), Some(len.saturating_sub(1))] {
                        let mut src = base[off..off + len].to_vec();
                        if let (Some(i), true) = (nan_at, len > 0) {
                            src[i] = f32::from_bits(0xffc1_2345);
                        }
                        let mut enc = vec![Half::from_bits(0xdead); off + len + 1];
                        dt.encode_slice(&src, &mut enc[off..off + len]);
                        for (x, got) in src.iter().zip(&enc[off..]) {
                            assert_eq!(got.to_bits(), dt.encode(*x), "{dt} len {len} off {off}");
                        }
                        // Neighbours of the destination window are untouched.
                        assert_eq!(enc[off + len].to_bits(), 0xdead);
                        assert!(enc[..off].iter().all(|c| c.to_bits() == 0xdead));
                        let mut dec = vec![f32::from_bits(0xdead_beef); off + len + 1];
                        dt.decode_slice(&enc[off..off + len], &mut dec[off..off + len]);
                        for (c, got) in enc[off..].iter().zip(&dec[off..off + len]) {
                            let want = dt.decode(c.to_bits());
                            assert_eq!(got.to_bits(), want.to_bits(), "{dt} len {len} off {off}");
                        }
                        assert_eq!(dec[off + len].to_bits(), 0xdead_beef);
                    }
                }
            }
        }
    }

    #[test]
    fn dtype_metadata_and_parsing() {
        assert_eq!(Dtype::default(), Dtype::F16);
        for d in Dtype::ALL {
            assert_eq!(d.name().parse::<Dtype>().unwrap(), d);
            assert_eq!(d.bytes() * 8, d.bits() as u64);
        }
        assert_eq!("fp16".parse::<Dtype>().unwrap(), Dtype::F16);
        assert_eq!("fp8".parse::<Dtype>().unwrap(), Dtype::Fp8E4M3);
        assert!("fp64".parse::<Dtype>().is_err());
        assert_eq!(format!("{}", Dtype::Bf16), "bf16");
    }
}
