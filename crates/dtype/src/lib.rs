//! Number formats: the operand value type and the storage codecs.
//!
//! The engine computes every GEMM in one currency — `f32` operands,
//! one FP32 accumulator per output element (the paper's FP16 operands
//! into FP32 accumulators, §2.1) — but models are *stored*, *served*
//! and kept resident in more than one precision. This crate is all the stack
//! knows about those precisions:
//!
//! - [`F16`], IEEE binary16 as a value type: the lane type of `Matrix`
//!   storage and `Network` weights. Codes of every format travel in
//!   `F16`-typed 16-bit lanes (8-bit formats in the low byte), told
//!   apart by the runtime [`Dtype`] tag beside them.
//! - The sealed [`Format`] trait, implemented by [`Binary16`], [`Bf16`],
//!   [`Fp8E4M3`] and [`Int8`]. `decode` is **exact** (every value is a
//!   binary32 value; int8's scale is a power of two), so all downstream
//!   f32 arithmetic — microkernel, checksum epilogues, recovery
//!   recompute — is shared byte for byte across formats; `encode` is
//!   round-to-nearest-even.
//! - One generic codec, `Minifloat<E, M, FINITE_ONLY>`, behind binary16
//!   (`<5, 10, false>`) and E4M3FN (`<4, 3, true>`): its `const fn`
//!   decoder generates their decode tables (one indexed load per
//!   element) and its one RNE encoder takes `f32` and `f64` sources.
//!   The policy is what the all-ones exponent means: IEEE — ±∞ and
//!   NaNs, overflow rounds to ±∞; finite-only — an ordinary binade
//!   whose last code is the one NaN, overflow saturates (±448).
//! - Two formats stated directly, because that is all they are. bf16 is
//!   the top half of binary32: decode is a shift (NaN payloads pass
//!   through), encode one add-and-shift with NaNs canonicalised to
//!   `0x7fc0` — several times faster than any generic body, and held to
//!   `Minifloat<8, 7, false>` by the tests. int8 is the fixed symmetric
//!   code `value = code · 2^-6`, clamped to ±127.
//! - [`with_format!`], the one place a runtime [`Dtype`] becomes a
//!   [`Format`] type. Every per-format loop in the stack — the slice
//!   codecs here, the engine's strip staging, weight packing and
//!   microkernel — is written once over `F: Format` and entered
//!   through it, so the dispatch sits outside the loop.
//! - The resident form: each [`Format`] says how wide its weights stay
//!   in memory and how eight of their codes become eight f32 lanes
//!   ([`Format::widen`]; sixteen, [`Format::widen16`]), so the engine
//!   streams a layer at its storage width and widens in the load —
//!   exactly, like `decode`.
//! - F16C: on AVX+F16C hosts ([`f16c_active`]) the fp16 slice codecs
//!   convert eight lanes per instruction. That is a host capability,
//!   not a format fork: the bytes are the scalar codec's (a vector
//!   holding a NaN takes the scalar body), and `AIGA_FORCE_SCALAR=1`
//!   turns the vector bodies off.

pub mod half;
mod minifloat;

pub use half::F16;
use minifloat::Minifloat;
use std::sync::OnceLock;

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Binary16 {}
    impl Sealed for super::Bf16 {}
    impl Sealed for super::Fp8E4M3 {}
    impl Sealed for super::Int8 {}
}

/// One storage format: how a model's operand bytes map to the engine's
/// f32 currency. Sealed — [`with_format!`] turns a [`Dtype`] into one of
/// the four. Codes travel as `u16` regardless of width (8-bit formats in
/// the low byte); `encode` has each format's overflow semantics
/// (fp16/bf16 → ±∞, fp8 → saturate at ±448, int8 → clamp at ±127).
///
/// A format also says how its *weights stay resident* for streaming:
/// the engine keeps a layer's weights as [`Self::RESIDENT_BYTES`]-wide
/// little-endian codes ([`Self::to_resident`]) and turns eight of them
/// into eight f32 lanes inside its B load ([`Self::widen`]; sixteen on
/// the AVX-512 path, [`Self::widen16`]), so a weight costs its resident
/// bytes per pass, not four. For binary16, bf16 and
/// int8 the resident code is the storage code. E4M3 is resident as its
/// bf16 image (every E4M3 value is a bf16 value): no exact 8 → 32-bit
/// widening of E4M3 fits the B load's instruction budget on AVX2 (the
/// `× 2¹²⁰` rebias multiplies subnormals, a microcode assist per vector;
/// `vpgatherdd` and the F16C route both run the GEMM at half speed).
pub trait Format: sealed::Sealed + 'static {
    /// Storage width in bits.
    const BITS: u32;
    /// Bytes of one resident weight code.
    const RESIDENT_BYTES: usize = (Self::BITS / 8) as usize;
    /// Decodes one stored code to f32.
    fn decode(code: u16) -> f32;
    /// Encodes an f32 to the nearest representable code.
    fn encode(x: f32) -> u16;
    /// The resident code of stored `code` (its low
    /// [`Self::RESIDENT_BYTES`] bytes): [`Self::decode_resident`] and
    /// [`Self::widen`] of it are `decode(code)` bit for bit.
    #[inline]
    fn to_resident(code: u16) -> u16 {
        code
    }
    /// Decodes one resident code to f32 — what the scalar readers of a
    /// resident panel call.
    #[inline]
    fn decode_resident(resident: u16) -> f32 {
        Self::decode(resident)
    }
    /// Widens the eight resident codes at `codes` to eight f32 lanes,
    /// exactly.
    ///
    /// # Safety
    /// The host must support AVX2 and F16C, and `codes` must be valid
    /// for reads of `8 * RESIDENT_BYTES` bytes (any alignment).
    #[cfg(target_arch = "x86_64")]
    unsafe fn widen(codes: *const u8) -> std::arch::x86_64::__m256;
    /// The sixteen-lane twin of [`Self::widen`]: sixteen resident codes
    /// to sixteen f32 lanes, exactly.
    ///
    /// # Safety
    /// The host must support AVX-512F, and `codes` must be valid for
    /// reads of `16 * RESIDENT_BYTES` bytes (any alignment).
    #[cfg(target_arch = "x86_64")]
    unsafe fn widen16(codes: *const u8) -> std::arch::x86_64::__m512;
}

/// IEEE 754 binary16, the engine's native format: the codes are
/// literal [`F16`] values.
pub enum Binary16 {}

impl Format for Binary16 {
    const BITS: u32 = 16;
    #[inline]
    fn decode(code: u16) -> f32 {
        F16::from_bits(code).to_f32()
    }
    #[inline]
    fn encode(x: f32) -> u16 {
        F16::from_f32(x).to_bits()
    }
    /// Every NaN becomes the canonical `0x7e00`, the one NaN code
    /// `vcvtph2ps` widens to `decode`'s `0x7fc0_0000` — so the K loop
    /// needs no blend.
    #[inline]
    fn to_resident(code: u16) -> u16 {
        if code & 0x7fff > 0x7c00 {
            F16::NAN.to_bits()
        } else {
            code
        }
    }
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn widen(codes: *const u8) -> std::arch::x86_64::__m256 {
        use std::arch::x86_64::*;
        // SAFETY: the caller guarantees F16C and 16 readable bytes.
        unsafe { _mm256_cvtph_ps(_mm_loadu_si128(codes.cast())) }
    }
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn widen16(codes: *const u8) -> std::arch::x86_64::__m512 {
        use std::arch::x86_64::*;
        // SAFETY: the caller guarantees AVX-512F and 32 readable bytes.
        unsafe { _mm512_cvtph_ps(_mm256_loadu_si256(codes.cast())) }
    }
}

/// bfloat16: 1 sign, 8 exponent (bias 127), 7 mantissa bits — binary32
/// truncated to its top half, so decode is exact by construction.
pub enum Bf16 {}

impl Format for Bf16 {
    const BITS: u32 = 16;
    #[inline]
    fn decode(code: u16) -> f32 {
        f32::from_bits((code as u32) << 16)
    }
    /// RNE is one addition, `bits + 0x7fff + (lsb of the kept half)`:
    /// mantissa overflow carries into the exponent and on to infinity
    /// exactly as IEEE rounding requires. NaNs canonicalize to the quiet
    /// `0x7fc0` (payload and sign dropped).
    #[inline]
    fn encode(x: f32) -> u16 {
        let bits = x.to_bits();
        if (bits & 0x7fff_ffff) > 0x7f80_0000 {
            return 0x7fc0;
        }
        let rounded = bits + 0x7fff + ((bits >> 16) & 1);
        (rounded >> 16) as u16
    }
    /// A byte shuffle, not a shift: the sixteen bytes are broadcast to
    /// both halves (a pure load) and one `vpshufb` drops code `i` into
    /// the top half of lane `i` over zeros. Neither touches an FMA port,
    /// which a zero-extend-and-shift does twice per vector — enough to
    /// slow a compute-bound register tile by a tenth.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn widen(codes: *const u8) -> std::arch::x86_64::__m256 {
        use std::arch::x86_64::*;
        // SAFETY: the caller guarantees AVX2 and 16 readable bytes.
        unsafe {
            let both = _mm256_broadcastsi128_si256(_mm_loadu_si128(codes.cast()));
            // Per half: lane j takes code 4·half + j; −1 selects zero.
            let top_halves = _mm256_setr_epi8(
                -1, -1, 0, 1, -1, -1, 2, 3, -1, -1, 4, 5, -1, -1, 6, 7, //
                -1, -1, 8, 9, -1, -1, 10, 11, -1, -1, 12, 13, -1, -1, 14, 15,
            );
            _mm256_castsi256_ps(_mm256_shuffle_epi8(both, top_halves))
        }
    }
    /// Zero-extend and shift. One masked `vpermw` is a µop fewer on
    /// paper and measured 4–6 % slower on 128³ tiles (it needs its index
    /// vector and cannot fold the load).
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn widen16(codes: *const u8) -> std::arch::x86_64::__m512 {
        use std::arch::x86_64::*;
        // SAFETY: the caller guarantees AVX-512F and 32 readable bytes.
        unsafe {
            let wide = _mm512_cvtepu16_epi32(_mm256_loadu_si256(codes.cast()));
            _mm512_castsi512_ps(_mm512_slli_epi32::<16>(wide))
        }
    }
}

/// FP8 E4M3FN (OCP): 1 sign, 4 exponent (bias 7), 3 mantissa bits; no
/// infinities, one NaN per sign (`S.1111.111`), max finite
/// `S.1111.110` = ±448, subnormals `m · 2^-9`.
pub enum Fp8E4M3 {}

type E4M3Codec = Minifloat<4, 3, true>;

/// The full FP8 E4M3 → f32 decode table (1 KiB of rodata).
static FP8_E4M3_TO_F32: [f32; 1 << 8] = E4M3Codec::decode_table();

impl Format for Fp8E4M3 {
    const BITS: u32 = 8;
    /// Resident as the bf16 code of the same value (see [`Format`]): at
    /// most three mantissa bits and an exponent inside bf16's range, so
    /// the top half of the decoded binary32 is all of it; both NaN codes
    /// land on bf16's quiet `0x7fc0`.
    const RESIDENT_BYTES: usize = Bf16::RESIDENT_BYTES;
    #[inline]
    fn decode(code: u16) -> f32 {
        FP8_E4M3_TO_F32[(code & 0xff) as usize]
    }
    #[inline]
    fn encode(x: f32) -> u16 {
        E4M3Codec::from_f32(x)
    }
    #[inline]
    fn to_resident(code: u16) -> u16 {
        (Self::decode(code).to_bits() >> 16) as u16
    }
    #[inline]
    fn decode_resident(resident: u16) -> f32 {
        Bf16::decode(resident)
    }
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn widen(codes: *const u8) -> std::arch::x86_64::__m256 {
        // SAFETY: the caller's guarantees are `Bf16::widen`'s.
        unsafe { Bf16::widen(codes) }
    }
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn widen16(codes: *const u8) -> std::arch::x86_64::__m512 {
        // SAFETY: the caller's guarantees are `Bf16::widen16`'s.
        unsafe { Bf16::widen16(codes) }
    }
}

/// Symmetric int8 storage: `value = code · 2^-6`, zero-point 0, codes
/// clamped to ±127 ≈ ±1.984 (the −128 slot is unused, as in
/// TensorRT-style symmetric quantization). The power-of-two scale keeps
/// f32 sums of decoded values exact: the checksum chain has zero
/// rounding error.
pub enum Int8 {}

const INT8_SCALE: f32 = 1.0 / 64.0;
/// `2¹⁷`, the binade whose ulp is [`INT8_SCALE`] (see `Int8::widen`).
const INT8_MAGIC: f32 = 131072.0;
const _: () = assert!(INT8_MAGIC * f32::EPSILON == INT8_SCALE);

impl Format for Int8 {
    const BITS: u32 = 8;
    #[inline]
    fn decode(code: u16) -> f32 {
        (code as u8 as i8) as f32 * INT8_SCALE
    }
    /// `clamp(round_ties_even(x / 2^-6), -127, 127)`: ±∞ saturates, and
    /// NaN — which `clamp` passes through — casts to 0.
    #[inline]
    fn encode(x: f32) -> u16 {
        (x / INT8_SCALE).round_ties_even().clamp(-127.0, 127.0) as i8 as u8 as u16
    }
    /// Zero-extends, flips the sign bit into an offset-binary `u` and
    /// ORs it under the exponent of `2¹⁷` (whose ulp is the scale,
    /// `2⁻⁶`) in one XOR, then subtracts `2¹⁷ + 128·2⁻⁶`: the difference
    /// `(u − 128)·2⁻⁶` is exact, and none of it needs an FMA port.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn widen(codes: *const u8) -> std::arch::x86_64::__m256 {
        use std::arch::x86_64::*;
        // SAFETY: the caller guarantees AVX2 and 8 readable bytes.
        unsafe {
            let wide = _mm256_cvtepu8_epi32(_mm_loadl_epi64(codes.cast()));
            let biased =
                _mm256_xor_si256(wide, _mm256_set1_epi32(INT8_MAGIC.to_bits() as i32 | 0x80));
            _mm256_sub_ps(
                _mm256_castsi256_ps(biased),
                _mm256_set1_ps(INT8_MAGIC + 128.0 * INT8_SCALE),
            )
        }
    }
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn widen16(codes: *const u8) -> std::arch::x86_64::__m512 {
        use std::arch::x86_64::*;
        // SAFETY: the caller guarantees AVX-512F and 16 readable bytes.
        unsafe {
            let wide = _mm512_cvtepu8_epi32(_mm_loadu_si128(codes.cast()));
            let biased =
                _mm512_xor_si512(wide, _mm512_set1_epi32(INT8_MAGIC.to_bits() as i32 | 0x80));
            _mm512_sub_ps(
                _mm512_castsi512_ps(biased),
                _mm512_set1_ps(INT8_MAGIC + 128.0 * INT8_SCALE),
            )
        }
    }
}

/// Runtime storage-format tag. `Matrix`, panels, networks, the planner
/// and the fault campaign all carry one of these; code that loops over
/// elements turns it into a [`Format`] once, through [`with_format!`].
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

/// Evaluates `$body` with the type alias `$F` bound to the [`Format`]
/// of the [`Dtype`] `$dtype` — the one place the runtime tag becomes a
/// type. `$body` is monomorphised per format, so put the loop inside it:
///
/// ```
/// use aiga_dtype::{with_format, Dtype, Format};
/// let widest = |dt: Dtype, codes: &[u16]| -> f32 {
///     with_format!(dt, F => codes.iter().map(|&c| F::decode(c)).fold(0.0, f32::max))
/// };
/// assert_eq!(widest(Dtype::Bf16, &[0x3f80, 0x4000]), 2.0);
/// ```
#[macro_export]
macro_rules! with_format {
    ($dtype:expr, $F:ident => $body:expr) => {
        match $dtype {
            $crate::Dtype::F16 => $crate::with_format!(@as Binary16, $F => $body),
            $crate::Dtype::Bf16 => $crate::with_format!(@as Bf16, $F => $body),
            $crate::Dtype::Fp8E4M3 => $crate::with_format!(@as Fp8E4M3, $F => $body),
            $crate::Dtype::Int8 => $crate::with_format!(@as Int8, $F => $body),
        }
    };
    (@as $format:ident, $F:ident => $body:expr) => {{
        type $F = $crate::$format;
        $body
    }};
}

impl Dtype {
    /// Every supported format, in display order.
    pub const ALL: [Dtype; 4] = [Dtype::F16, Dtype::Bf16, Dtype::Fp8E4M3, Dtype::Int8];

    /// Storage width in bits.
    pub const fn bits(self) -> u32 {
        with_format!(self, F => F::BITS)
    }

    /// Storage bytes per element — what DRAM-traffic and arithmetic-
    /// intensity models price.
    pub const fn bytes(self) -> u64 {
        (self.bits() / 8) as u64
    }

    /// Decodes one stored code (low byte for 8-bit formats) to f32.
    #[inline]
    pub fn decode(self, code: u16) -> f32 {
        with_format!(self, F => F::decode(code))
    }

    /// Encodes an f32 to the nearest representable code (RNE).
    #[inline]
    pub fn encode(self, x: f32) -> u16 {
        with_format!(self, F => F::encode(x))
    }

    /// Decodes `src` into `dst` (equal lengths), bit for bit what
    /// [`Self::decode`] gives per element, with the format dispatch
    /// outside the loop: fp16 widens eight codes per `vcvtph2ps` on F16C
    /// hosts, otherwise each format runs its scalar codec monomorphised.
    pub fn decode_slice(self, src: &[F16], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "codec slices must match");
        #[cfg(target_arch = "x86_64")]
        if self == Dtype::F16 && f16c_active() {
            // SAFETY: f16c_active verified AVX and F16C on this host.
            return unsafe { f16c::decode(src, dst) };
        }
        with_format!(self, F => decode_with::<F>(src, dst))
    }

    /// Encodes `src` into `dst` (equal lengths), bit for bit what
    /// [`Self::encode`] gives per element. fp16 narrows eight values per
    /// `vcvtps2ph` on F16C hosts; bf16's shift-and-round body is
    /// branch-free, so the compiler vectorises its loop.
    pub fn encode_slice(self, src: &[f32], dst: &mut [F16]) {
        assert_eq!(src.len(), dst.len(), "codec slices must match");
        #[cfg(target_arch = "x86_64")]
        if self == Dtype::F16 && f16c_active() {
            // SAFETY: f16c_active verified AVX and F16C on this host.
            return unsafe { f16c::encode(src, dst) };
        }
        with_format!(self, F => encode_with::<F>(src, dst))
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

fn decode_with<D: Format>(src: &[F16], dst: &mut [f32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = D::decode(s.to_bits());
    }
}

fn encode_with<D: Format>(src: &[f32], dst: &mut [F16]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = F16::from_bits(D::encode(*s));
    }
}

/// The F16C bodies of the fp16 slice codecs. The hardware rounds and
/// widens as the scalar codec does except that it keeps NaN payloads,
/// so a vector holding a NaN goes through the scalar codec instead.
#[cfg(target_arch = "x86_64")]
mod f16c {
    use super::{decode_with, encode_with, Binary16, F16};
    use std::arch::x86_64::*;

    /// # Safety
    /// The host must support AVX and F16C.
    #[target_feature(enable = "avx,f16c")]
    pub(super) unsafe fn decode(src: &[F16], dst: &mut [f32]) {
        let (mut s, mut d) = (src.chunks_exact(8), dst.chunks_exact_mut(8));
        for (s, d) in (&mut s).zip(&mut d) {
            // SAFETY: both chunks are exactly eight elements long.
            let v = _mm256_cvtph_ps(_mm_loadu_si128(s.as_ptr().cast()));
            if _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_UNORD_Q>(v, v)) == 0 {
                _mm256_storeu_ps(d.as_mut_ptr(), v);
            } else {
                decode_with::<Binary16>(s, d);
            }
        }
        decode_with::<Binary16>(s.remainder(), d.into_remainder());
    }

    /// # Safety
    /// The host must support AVX and F16C.
    #[target_feature(enable = "avx,f16c")]
    pub(super) unsafe fn encode(src: &[f32], dst: &mut [F16]) {
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
                encode_with::<Binary16>(s, d);
            }
        }
        encode_with::<Binary16>(s.remainder(), d.into_remainder());
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
    use crate::minifloat::oracle::{by_magnitude, Reference};

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
        // The format is a transparent view of the value type: every
        // pattern decodes through its table and encodes back to itself
        // (NaN payloads canonicalize to the quiet 0x7e00).
        for bits in 0..=u16::MAX {
            let got = Dtype::F16.decode(bits);
            let want = F16::from_bits(bits).to_f32();
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
    fn int8_saturates_and_rounds_ties_to_even() {
        let q = |x: f32| Dtype::Int8.encode(x) as u8 as i8;
        // Saturation at both rails; NaN quantizes to zero.
        assert_eq!(q(10.0), 127);
        assert_eq!(q(-10.0), -127);
        assert_eq!(q(f32::INFINITY), 127);
        assert_eq!(q(f32::NEG_INFINITY), -127);
        assert_eq!(q(f32::NAN), 0);
        assert_eq!(q(-f32::NAN), 0);
        // Ties to even on the 2^-6 grid: half a quantum rounds to even.
        assert_eq!(q(1.5 / 64.0), 2);
        assert_eq!(q(2.5 / 64.0), 2);
        assert_eq!(q(-1.5 / 64.0), -2);
        assert_eq!(q(126.5 / 64.0), 126);
        assert_eq!(q(127.5 / 64.0), 127); // the rail, not the even 128
    }

    /// The f32 patterns the encoders are swept over: a dense stride
    /// (every 2^16-th pattern and its neighbours — all exponents, both signs, f32 subnormals, every
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

    type Encoder = fn(f32) -> u16;

    /// Every float format as the table-walk encode oracle sees it,
    /// built on the arithmetic decode references, with its scalar
    /// encoder: binary16; bf16 (`2^128` on the ∞ code, one unsigned
    /// NaN); E4M3 (saturating at 448, NaNs keep their sign).
    fn references() -> [(Reference, Encoder); 3] {
        let bf16 = Reference {
            values: (0..0x7f80)
                .map(|c| bf16_ref_decode(c) as f64)
                .chain([2.0f64.powi(128)])
                .collect(),
            sign: 0x8000,
            nan: |_| 0x7fc0,
        };
        let e4m3 = Reference {
            values: (0..=0x7e).map(fp8_ref_decode).collect(),
            sign: 0x80,
            nan: |negative| if negative { 0xff } else { 0x7f },
        };
        [
            (half::oracle::reference(), Binary16::encode),
            (bf16, Bf16::encode),
            (e4m3, Fp8E4M3::encode),
        ]
    }

    #[test]
    fn encoders_match_the_table_walk_on_the_sweep() {
        let sweep = by_magnitude(encode_sweep());
        for (reference, encode) in references() {
            reference.check(sweep.iter().copied(), encode);
        }
        // bf16's add-and-shift is the generic codec's answer wherever
        // the two policies agree (they differ on NaN sign alone).
        for x in sweep.into_iter().filter(|x| !x.is_nan()) {
            assert_eq!(
                Bf16::encode(x),
                Minifloat::<8, 7, false>::from_f32(x),
                "{x:e}"
            );
        }
    }

    /// All 2^32 `f32` patterns against the table walk — tens of seconds
    /// per format in release; CI runs `--release -- --ignored exhaustive`.
    #[test]
    #[ignore = "2^32 patterns per format: run in release"]
    fn exhaustive_f16_bf16_and_fp8e4m3_encoders_match_the_table_walk() {
        std::thread::scope(|s| {
            for (reference, encode) in references() {
                s.spawn(move || reference.check_every_f32(encode));
            }
        });
    }

    #[test]
    fn slice_codecs_match_the_scalar_codec_bit_for_bit() {
        // Runs natively and, in the scalar-oracle CI job, once more under
        // AIGA_FORCE_SCALAR=1 (where both sides are the scalar codec and
        // the sweep pins the generic slice bodies alone).
        let values = encode_sweep();
        let codes: Vec<F16> = (0..=u16::MAX).map(F16::from_bits).collect();
        for dt in Dtype::ALL {
            let mut enc = vec![F16::ZERO; values.len()];
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
                        let mut enc = vec![F16::from_bits(0xdead); off + len + 1];
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

    /// A vector widen under test: its lane count, and the body run over
    /// that many resident codes.
    type Widen = (u32, unsafe fn(&[u8]) -> Vec<f32>);

    /// `F::widen` over one vector of resident codes, as the engine's
    /// microkernel calls it (inlined into an AVX2+F16C function).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,f16c")]
    unsafe fn widen_lanes<F: Format>(resident: &[u8]) -> Vec<f32> {
        assert_eq!(resident.len(), 8 * F::RESIDENT_BYTES);
        let mut lanes = vec![0.0f32; 8];
        // SAFETY: the caller checked AVX2+F16C; the slice holds the
        // eight codes and `lanes` the eight floats.
        unsafe {
            std::arch::x86_64::_mm256_storeu_ps(lanes.as_mut_ptr(), F::widen(resident.as_ptr()));
        }
        lanes
    }

    /// `F::widen16`, as [`widen_lanes`] (inlined into an AVX-512 function).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn widen16_lanes<F: Format>(resident: &[u8]) -> Vec<f32> {
        assert_eq!(resident.len(), 16 * F::RESIDENT_BYTES);
        let mut lanes = vec![0.0f32; 16];
        // SAFETY: the caller checked AVX-512F; the slice holds the
        // sixteen codes and `lanes` the sixteen floats.
        unsafe {
            std::arch::x86_64::_mm512_storeu_ps(lanes.as_mut_ptr(), F::widen16(resident.as_ptr()));
        }
        lanes
    }

    /// Every code of `F` through the resident form: the scalar reader
    /// and each vector widen in `widens` (lane count, body) must give
    /// `decode(code)` bit for bit — NaN payloads and signs, −0, every
    /// subnormal. Lanes are filled with consecutive codes so each code
    /// also sits in each lane position across the sweep's phases.
    fn resident_forms_match_decode<F: Format>(name: &str, widens: &[Widen]) {
        let codes = 1u32 << F::BITS;
        for code in 0..codes as u16 {
            let resident = F::to_resident(code);
            assert!(u32::from(resident) < 1 << (8 * F::RESIDENT_BYTES));
            assert_eq!(
                F::decode_resident(resident).to_bits(),
                F::decode(code).to_bits(),
                "{name} resident decode at {code:#06x}"
            );
        }
        for &(width, widen) in widens {
            for phase in 0..width {
                for base in (0..codes).step_by(width as usize) {
                    let lane_code = |i: u32| ((base + i + phase) % codes) as u16;
                    let bytes: Vec<u8> = (0..width)
                        .flat_map(|i| {
                            F::to_resident(lane_code(i)).to_le_bytes()[..F::RESIDENT_BYTES].to_vec()
                        })
                        .collect();
                    // SAFETY: the caller lists a widen only where the
                    // host has its instructions.
                    let lanes = unsafe { widen(&bytes) };
                    for (i, got) in lanes.iter().enumerate() {
                        let code = lane_code(i as u32);
                        assert_eq!(
                            got.to_bits(),
                            F::decode(code).to_bits(),
                            "{name} {width}-lane widen at {code:#06x} (lane {i})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn widen_matches_decode_on_every_code_of_every_format() {
        #[cfg(target_arch = "x86_64")]
        let (avx2, avx512) = (
            is_x86_feature_detected!("avx2") && is_x86_feature_detected!("f16c"),
            is_x86_feature_detected!("avx512f"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, avx512) = (false, false);
        if !avx2 {
            eprintln!("host has no AVX2+F16C: checking the scalar resident decode only");
        } else if !avx512 {
            eprintln!("host has no AVX-512F: skipping the 16-lane widen");
        }
        for dt in Dtype::ALL {
            with_format!(dt, F => {
                let mut widens: Vec<Widen> = Vec::new();
                #[cfg(target_arch = "x86_64")]
                {
                    if avx2 {
                        widens.push((8, widen_lanes::<F>));
                    }
                    if avx2 && avx512 {
                        widens.push((16, widen16_lanes::<F>));
                    }
                }
                resident_forms_match_decode::<F>(dt.name(), &widens)
            });
        }
        // fp16 is resident with its NaNs canonicalised (the one change
        // `to_resident` makes to a storage-width format); bf16 and int8
        // are resident verbatim, E4M3 as its two-byte bf16 image.
        for code in 0..=u16::MAX {
            let want = if F16::from_bits(code).is_nan() {
                0x7e00
            } else {
                code
            };
            assert_eq!(Binary16::to_resident(code), want);
            assert_eq!(Bf16::to_resident(code), code);
        }
        assert_eq!(Int8::to_resident(0x81), 0x81);
        assert_eq!(
            (Int8::RESIDENT_BYTES, Fp8E4M3::RESIDENT_BYTES),
            (1, Bf16::RESIDENT_BYTES)
        );
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
