//! One lane type for every SIMD kernel, and one seam to enter them.
//!
//! [`Lanes`] is what the engine's vector bodies need of an f32 register
//! — the conv A staging, the tile walk and its magnitude pass, one-sided
//! ABFT's row checks, the write-back transpose, the max-pool row —
//! implemented once for ymm
//! ([`GemmPath::Avx2Fma`]) and once for zmm ([`GemmPath::Avx512`]). Each
//! body is written once, generic over `L: Lanes`, as a [`Kernel`], and
//! [`on_path`] compiles and enters it at the path's width through one of
//! two `#[target_feature]` functions, [`on_avx2`] and [`on_avx512`], into
//! which the whole body inlines. On the scalar path [`on_path`] hands
//! the kernel back, and its caller runs the scalar body — the oracle the
//! vector body matches byte for byte.

use super::simd::{Block, GemmPath};
#[cfg(target_arch = "x86_64")]
use super::simd::{GROUP, STRIPE_ROWS};
#[cfg(target_arch = "x86_64")]
use super::MICRO_MR;
use aiga_dtype::{Format, F16};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// An f32 SIMD register as every vector body of the engine uses it.
/// Every method needs the host to support the width's instructions, and
/// F16C for the fp16 ones — which [`Kernel::run`]'s caller guarantees —
/// and each pointer to be valid for what its method says it reads or
/// writes.
pub(crate) trait Lanes: Copy {
    /// f32 lanes.
    const LANES: usize;
    /// Whether a multi-row tile takes two strips per B load while two
    /// remain: that is 16 accumulators, so 32 registers.
    const PAIRS_STRIPS: bool;
    unsafe fn splat(x: f32) -> Self;
    /// The first `min(live, LANES)` lanes from `at`, zeros beyond:
    /// nothing past those lanes is read, so `live` may exceed `LANES`.
    unsafe fn load(at: *const f32, live: usize) -> Self;
    /// The first `min(live, LANES)` lanes to `at`: nothing past them is
    /// written.
    unsafe fn store(self, at: *mut f32, live: usize);
    /// `a · b + c`, fused.
    unsafe fn fma(a: Self, b: Self, c: Self) -> Self;
    unsafe fn sub(a: Self, b: Self) -> Self;
    unsafe fn abs(self) -> Self;
    /// Bit `i` set where lane `i` of `a` is not `<=` that of `b` (a NaN
    /// sets it).
    unsafe fn not_le(a: Self, b: Self) -> u32;
    /// The sums of a strip's four rows over `LANES / 4` column groups of
    /// [`MICRO_NR`](super::MICRO_NR) from `at` (rows `stride` apart):
    /// lane `4g + r` holds row `r`'s group `g`, each a pairwise tree —
    /// columns `j` and `j + w` added for `w` = 8, 4, 2, 1.
    unsafe fn group_sums(at: *const f32, stride: usize) -> Self;
    /// Lanes `4i..4i + 4` hold `at[2i + odd]`, for each `i < LANES / 4`:
    /// one float of each pair of the `LANES / 2` from `at`, four times.
    /// It reads no float past those.
    unsafe fn spread_pairs(at: *const f32, odd: bool) -> Self;
    /// [`super::relu`] per lane: `v >= 0 ? v : +0.0`.
    unsafe fn relu(self) -> Self;
    /// [`super::pool::max_fold`] per lane: `tap > o ? tap : o`.
    unsafe fn max_fold(o: Self, tap: Self) -> Self;
    unsafe fn has_nan(self) -> bool;
    /// [`Self::LANES`] resident codes at `codes`, widened exactly
    /// (`F::widen` on ymm, `F::widen16` on zmm).
    unsafe fn widen<F: Format>(codes: *const u8) -> Self;
    /// Widens the fp16 codes at `codes`, `stride` (1 or 2) apart, into
    /// `run`, NaNs canonicalised as the scalar decode does; `codes` must
    /// be valid for reads of `run.len() · stride` codes.
    unsafe fn widen_f16(codes: *const F16, stride: usize, run: &mut [f32]);
    /// All lanes narrowed to fp16 codes at `at` (round to nearest even,
    /// as the scalar encoder for every non-NaN value).
    unsafe fn narrow_f16(self, at: *mut F16);
    /// Lanes `0, 2, 4, ..` of the `2·LANES` values `lo ++ hi`.
    unsafe fn evens(lo: Self, hi: Self) -> Self;
    /// Lanes `1, 3, 5, ..` of them.
    unsafe fn odds(lo: Self, hi: Self) -> Self;
    /// Transposes the `LANES × LANES` square held in `rows[..LANES]`.
    unsafe fn transpose(rows: &mut [Self; 16]);
    /// Lays the block's first `strips` strips into `pack` — strip `t`'s
    /// [`super::simd::GROUP`] columns at `t·MR·k`, as `Panels::a_pack`
    /// lays them — and, unless `sums` is empty, each column's pair at
    /// `t·2k` in `sums`, `(v0+v1)+(v2+v3)` as `stage_a` sums.
    unsafe fn lay(block: &Block, strips: usize, pack: &mut [f32], sums: &mut [f32], k: usize);
}

/// A vector body, generic over the lanes it runs at: what [`on_path`]
/// enters.
pub(crate) trait Kernel {
    type Out;
    /// # Safety
    /// The host must support `L`'s instructions and F16C; the rest is
    /// the kernel's own contract.
    unsafe fn run<L: Lanes>(self) -> Self::Out;
}

/// Runs `kernel` at `path`'s width — ymm on [`GemmPath::Avx2Fma`], zmm
/// on [`GemmPath::Avx512`] — or hands it back on the scalar path, whose
/// body the caller runs instead.
///
/// # Safety
/// `path` must be one the host runs (`simd::supported_paths`; the
/// dispatcher and `force_path` admit no other); the rest is `kernel`'s.
#[inline(always)]
pub(crate) unsafe fn on_path<K: Kernel>(path: GemmPath, kernel: K) -> Result<K::Out, K> {
    // SAFETY (both arms): the caller's guarantees, which a SIMD path's
    // features are.
    match path {
        #[cfg(target_arch = "x86_64")]
        GemmPath::Avx512 => Ok(unsafe { on_avx512(kernel) }),
        #[cfg(target_arch = "x86_64")]
        GemmPath::Avx2Fma => Ok(unsafe { on_avx2(kernel) }),
        _ => Err(kernel),
    }
}

/// `kernel` on ymm.
///
/// # Safety
/// The host must support AVX2, FMA and F16C; the rest is `kernel`'s.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,f16c")]
unsafe fn on_avx2<K: Kernel>(kernel: K) -> K::Out {
    // SAFETY: the caller's guarantees.
    unsafe { kernel.run::<__m256>() }
}

/// `kernel` on zmm.
///
/// # Safety
/// As [`on_avx2`], and the host must support AVX-512 F and VL.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,f16c,avx512f,avx512vl")]
unsafe fn on_avx512<K: Kernel>(kernel: K) -> K::Out {
    // SAFETY: the caller's guarantees.
    unsafe { kernel.run::<__m512>() }
}

/// The ymm lane mask of the first `live` lanes (`live < 8`).
///
/// # Safety
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn first_lanes(live: usize) -> __m256i {
    unsafe {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(live as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }
}

/// Asserts what [`Lanes::lay`]'s bodies store through.
#[cfg(target_arch = "x86_64")]
fn assert_lay_bounds(strips: usize, pack: &[f32], sums: &[f32], k: usize) {
    assert!(strips * MICRO_MR <= STRIPE_ROWS && GROUP <= k);
    let last = strips.saturating_sub(1);
    assert!(pack.len() >= last * MICRO_MR * k + GROUP * MICRO_MR);
    assert!(sums.is_empty() || sums.len() >= last * 2 * k + GROUP * 2);
}

#[cfg(target_arch = "x86_64")]
impl Lanes for __m256 {
    const LANES: usize = 8;
    const PAIRS_STRIPS: bool = false;
    // SAFETY (each body): the caller's guarantees are the intrinsics'.
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        unsafe { _mm256_set1_ps(x) }
    }
    #[inline(always)]
    unsafe fn load(at: *const f32, live: usize) -> Self {
        unsafe {
            if live >= 8 {
                return _mm256_loadu_ps(at);
            }
            _mm256_maskload_ps(at, first_lanes(live))
        }
    }
    #[inline(always)]
    unsafe fn store(self, at: *mut f32, live: usize) {
        unsafe {
            if live >= 8 {
                return _mm256_storeu_ps(at, self);
            }
            _mm256_maskstore_ps(at, first_lanes(live), self)
        }
    }
    #[inline(always)]
    unsafe fn fma(a: Self, b: Self, c: Self) -> Self {
        unsafe { _mm256_fmadd_ps(a, b, c) }
    }
    #[inline(always)]
    unsafe fn sub(a: Self, b: Self) -> Self {
        unsafe { _mm256_sub_ps(a, b) }
    }
    #[inline(always)]
    unsafe fn not_le(a: Self, b: Self) -> u32 {
        unsafe { _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_NLE_UQ>(a, b)) as u32 }
    }

    /// Per row and group the two halves added (`w` = 8), then the
    /// eight partial vectors — row `r`, group `g` at `2r + g` — folded
    /// in three rounds of two shuffles and an add: round `w` adds lanes
    /// `w` apart within each row-group's partials while pairing vectors,
    /// which leaves row-group `2r + g`'s sum in lane `4g + r`.
    #[inline(always)]
    unsafe fn group_sums(at: *const f32, stride: usize) -> Self {
        // Plain loops, not closures: a closure's body would not be
        // compiled with the caller's target features.
        unsafe {
            let mut u = [_mm256_setzero_ps(); 8];
            for (i, u) in u.iter_mut().enumerate() {
                let row = at.add(i / 2 * stride + i % 2 * 16);
                *u = _mm256_add_ps(_mm256_loadu_ps(row), _mm256_loadu_ps(row.add(8)));
            }
            // w = 4: [x.lo, y.lo] + [x.hi, y.hi].
            let mut v = [_mm256_setzero_ps(); 4];
            for (i, v) in v.iter_mut().enumerate() {
                let (x, y) = (u[2 * i], u[2 * i + 1]);
                *v = _mm256_add_ps(
                    _mm256_permute2f128_ps::<0x20>(x, y),
                    _mm256_permute2f128_ps::<0x31>(x, y),
                );
            }
            // w = 2, then w = 1, within 128-bit lanes.
            let mut w = [_mm256_setzero_ps(); 2];
            for (i, w) in w.iter_mut().enumerate() {
                let (x, y) = (v[2 * i], v[2 * i + 1]);
                *w = _mm256_add_ps(
                    _mm256_shuffle_ps::<0b01_00_01_00>(x, y),
                    _mm256_shuffle_ps::<0b11_10_11_10>(x, y),
                );
            }
            _mm256_add_ps(
                _mm256_shuffle_ps::<0b10_00_10_00>(w[0], w[1]),
                _mm256_shuffle_ps::<0b11_01_11_01>(w[0], w[1]),
            )
        }
    }

    #[inline(always)]
    unsafe fn spread_pairs(at: *const f32, odd: bool) -> Self {
        unsafe {
            let pairs = _mm256_castps128_ps256(_mm_loadu_ps(at));
            let at = _mm256_setr_epi32(0, 0, 0, 0, 2, 2, 2, 2);
            let at = _mm256_add_epi32(at, _mm256_set1_epi32(i32::from(odd)));
            _mm256_permutevar8x32_ps(pairs, at)
        }
    }
    #[inline(always)]
    unsafe fn abs(self) -> Self {
        unsafe { _mm256_andnot_ps(_mm256_set1_ps(-0.0), self) }
    }
    #[inline(always)]
    unsafe fn relu(self) -> Self {
        unsafe { _mm256_and_ps(self, _mm256_cmp_ps::<_CMP_GE_OQ>(self, _mm256_setzero_ps())) }
    }
    #[inline(always)]
    unsafe fn max_fold(o: Self, tap: Self) -> Self {
        // `vmaxps` returns its second operand unless the first is greater.
        unsafe { _mm256_max_ps(tap, o) }
    }
    #[inline(always)]
    unsafe fn has_nan(self) -> bool {
        unsafe { _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_UNORD_Q>(self, self)) != 0 }
    }
    #[inline(always)]
    unsafe fn widen<F: Format>(codes: *const u8) -> Self {
        unsafe { F::widen(codes) }
    }

    /// Eight codes a step (a stride-2 step keeps the even codes of
    /// sixteen), the last step overlapping the one before it; a run
    /// shorter than a step decodes code by code.
    #[inline(always)]
    unsafe fn widen_f16(codes: *const F16, stride: usize, run: &mut [f32]) {
        let n = run.len();
        if n < 8 {
            for (j, v) in run.iter_mut().enumerate() {
                // SAFETY: `j·stride` is inside the caller's bound.
                *v = unsafe { *codes.add(j * stride) }.to_f32();
            }
            return;
        }
        let mut j = 0;
        loop {
            // SAFETY: `j + 8 <= n`, so the reads end inside the caller's
            // bound and the store inside `run`.
            unsafe {
                let h = match stride {
                    1 => _mm_loadu_si128(codes.add(j).cast()),
                    _ => {
                        let even = _mm256_setr_epi8(
                            0, 1, 4, 5, 8, 9, 12, 13, -1, -1, -1, -1, -1, -1, -1, -1, 0, 1, 4, 5,
                            8, 9, 12, 13, -1, -1, -1, -1, -1, -1, -1, -1,
                        );
                        let x =
                            _mm256_shuffle_epi8(_mm256_loadu_si256(codes.add(2 * j).cast()), even);
                        _mm256_castsi256_si128(_mm256_permute4x64_epi64::<0b10_00>(x))
                    }
                };
                let v = _mm256_cvtph_ps(h);
                let v = _mm256_blendv_ps(
                    v,
                    _mm256_set1_ps(f32::NAN),
                    _mm256_cmp_ps::<_CMP_UNORD_Q>(v, v),
                );
                _mm256_storeu_ps(run.as_mut_ptr().add(j), v);
            }
            if j + 8 == n {
                break;
            }
            j = (j + 8).min(n - 8);
        }
    }

    #[inline(always)]
    unsafe fn narrow_f16(self, at: *mut F16) {
        unsafe {
            let codes = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(self);
            _mm_storeu_si128(at.cast(), codes)
        }
    }
    #[inline(always)]
    unsafe fn evens(lo: Self, hi: Self) -> Self {
        // Per 128-bit lane `lo0 lo2 hi0 hi2`, then the middle quarters
        // swapped.
        unsafe {
            let mixed = _mm256_castps_pd(_mm256_shuffle_ps::<0x88>(lo, hi));
            _mm256_castpd_ps(_mm256_permute4x64_pd::<0xd8>(mixed))
        }
    }
    #[inline(always)]
    unsafe fn odds(lo: Self, hi: Self) -> Self {
        unsafe {
            let mixed = _mm256_castps_pd(_mm256_shuffle_ps::<0xdd>(lo, hi));
            _mm256_castpd_ps(_mm256_permute4x64_pd::<0xd8>(mixed))
        }
    }
    #[inline(always)]
    unsafe fn transpose(r: &mut [Self; 16]) {
        unsafe {
            let mut t = [_mm256_setzero_ps(); 8];
            for i in 0..4 {
                t[2 * i] = _mm256_unpacklo_ps(r[2 * i], r[2 * i + 1]);
                t[2 * i + 1] = _mm256_unpackhi_ps(r[2 * i], r[2 * i + 1]);
            }
            // `u[4i + j]`, 128-bit lane `l`: column `4l + j`, rows
            // `4i..4i + 4`.
            let mut u = [_mm256_setzero_ps(); 8];
            for i in 0..2 {
                u[4 * i] = _mm256_shuffle_ps::<0x44>(t[4 * i], t[4 * i + 2]);
                u[4 * i + 1] = _mm256_shuffle_ps::<0xee>(t[4 * i], t[4 * i + 2]);
                u[4 * i + 2] = _mm256_shuffle_ps::<0x44>(t[4 * i + 1], t[4 * i + 3]);
                u[4 * i + 3] = _mm256_shuffle_ps::<0xee>(t[4 * i + 1], t[4 * i + 3]);
            }
            for j in 0..4 {
                r[j] = _mm256_permute2f128_ps::<0x20>(u[j], u[4 + j]);
                r[4 + j] = _mm256_permute2f128_ps::<0x31>(u[j], u[4 + j]);
            }
        }
    }

    /// Two strips a vector: each strip's four columns are two ymm.
    #[inline(always)]
    unsafe fn lay(block: &Block, strips: usize, pack: &mut [f32], sums: &mut [f32], k: usize) {
        assert_lay_bounds(strips, pack, sums, k);
        // The `(Σ, Σ|·|)` pair of each 128-bit lane's four values — one
        // column of a strip — in its low two floats, `(v0+v1)+(v2+v3)`.
        let pair_sums = |s: __m256| unsafe {
            let abs = _mm256_andnot_ps(_mm256_set1_ps(-0.0), s);
            // [v0, |v0|, v2, |v2|] + [v1, |v1|, v3, |v3|]
            let left = _mm256_blend_ps::<0b1010_1010>(s, _mm256_moveldup_ps(abs));
            let right = _mm256_blend_ps::<0b1010_1010>(_mm256_movehdup_ps(s), abs);
            let pairs = _mm256_add_ps(left, right);
            _mm256_castps_pd(_mm256_add_ps(
                pairs,
                _mm256_permute_ps::<0b11_10_11_10>(pairs),
            ))
        };
        for u in 0..strips.div_ceil(2) {
            // SAFETY: rows `8u..8u+8` are inside the block; the stores
            // are inside the bounds asserted above.
            unsafe {
                let x: [__m256; GROUP] =
                    std::array::from_fn(|c| _mm256_loadu_ps(block[c][8 * u..].as_ptr()));
                let halves = [
                    [
                        _mm256_permute2f128_ps::<0x20>(x[0], x[1]),
                        _mm256_permute2f128_ps::<0x20>(x[2], x[3]),
                    ],
                    [
                        _mm256_permute2f128_ps::<0x31>(x[0], x[1]),
                        _mm256_permute2f128_ps::<0x31>(x[2], x[3]),
                    ],
                ];
                for (t, [lo, hi]) in (2 * u..strips).zip(halves) {
                    let at = pack.as_mut_ptr().add(t * MICRO_MR * k);
                    _mm256_storeu_ps(at, lo);
                    _mm256_storeu_ps(at.add(8), hi);
                    if !sums.is_empty() {
                        let pairs = _mm256_unpacklo_pd(pair_sums(lo), pair_sums(hi));
                        let pairs = _mm256_permute4x64_pd::<0b11_01_10_00>(pairs);
                        _mm256_storeu_pd(sums.as_mut_ptr().add(t * 2 * k).cast(), pairs);
                    }
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes for __m512 {
    const LANES: usize = 16;
    const PAIRS_STRIPS: bool = true;
    // SAFETY (each body): the caller's guarantees are the intrinsics'.
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        unsafe { _mm512_set1_ps(x) }
    }
    #[inline(always)]
    unsafe fn load(at: *const f32, live: usize) -> Self {
        unsafe {
            if live >= 16 {
                return _mm512_loadu_ps(at);
            }
            _mm512_maskz_loadu_ps(((1u32 << live) - 1) as u16, at)
        }
    }
    #[inline(always)]
    unsafe fn store(self, at: *mut f32, live: usize) {
        unsafe {
            if live >= 16 {
                return _mm512_storeu_ps(at, self);
            }
            _mm512_mask_storeu_ps(at, ((1u32 << live) - 1) as u16, self)
        }
    }
    #[inline(always)]
    unsafe fn fma(a: Self, b: Self, c: Self) -> Self {
        unsafe { _mm512_fmadd_ps(a, b, c) }
    }
    #[inline(always)]
    unsafe fn sub(a: Self, b: Self) -> Self {
        unsafe { _mm512_sub_ps(a, b) }
    }
    #[inline(always)]
    unsafe fn not_le(a: Self, b: Self) -> u32 {
        unsafe { _mm512_cmp_ps_mask::<_CMP_NLE_UQ>(a, b) as u32 }
    }

    /// The sixteen row-groups — row `r`, group `g` at `4r + g` — folded
    /// in four rounds of two shuffles and an add: round `w` adds lanes
    /// `w` apart within each row-group's partials while pairing vectors,
    /// which leaves row-group `4r + g`'s sum in lane `4g + r`.
    #[inline(always)]
    unsafe fn group_sums(at: *const f32, stride: usize) -> Self {
        // Plain loops, not closures (see the ymm body).
        unsafe {
            let mut u = [_mm512_setzero_ps(); 16];
            for (i, u) in u.iter_mut().enumerate() {
                *u = _mm512_loadu_ps(at.add(i / 4 * stride + i % 4 * 16));
            }
            // w = 8: 256-bit halves.
            let mut v = [_mm512_setzero_ps(); 8];
            for (i, v) in v.iter_mut().enumerate() {
                let (x, y) = (u[2 * i], u[2 * i + 1]);
                *v = _mm512_add_ps(
                    _mm512_shuffle_f32x4::<0b01_00_01_00>(x, y),
                    _mm512_shuffle_f32x4::<0b11_10_11_10>(x, y),
                );
            }
            // w = 4: 128-bit quarters.
            let mut w = [_mm512_setzero_ps(); 4];
            for (i, w) in w.iter_mut().enumerate() {
                let (x, y) = (v[2 * i], v[2 * i + 1]);
                *w = _mm512_add_ps(
                    _mm512_shuffle_f32x4::<0b10_00_10_00>(x, y),
                    _mm512_shuffle_f32x4::<0b11_01_11_01>(x, y),
                );
            }
            // w = 2, then w = 1, within 128-bit lanes.
            let mut x = [_mm512_setzero_ps(); 2];
            for (i, x) in x.iter_mut().enumerate() {
                let (p, q) = (w[2 * i], w[2 * i + 1]);
                *x = _mm512_add_ps(
                    _mm512_shuffle_ps::<0b01_00_01_00>(p, q),
                    _mm512_shuffle_ps::<0b11_10_11_10>(p, q),
                );
            }
            _mm512_add_ps(
                _mm512_shuffle_ps::<0b10_00_10_00>(x[0], x[1]),
                _mm512_shuffle_ps::<0b11_01_11_01>(x[0], x[1]),
            )
        }
    }

    #[inline(always)]
    unsafe fn spread_pairs(at: *const f32, odd: bool) -> Self {
        unsafe {
            let pairs = _mm512_castps256_ps512(_mm256_loadu_ps(at));
            let at = _mm512_setr_epi32(0, 0, 0, 0, 2, 2, 2, 2, 4, 4, 4, 4, 6, 6, 6, 6);
            let at = _mm512_add_epi32(at, _mm512_set1_epi32(i32::from(odd)));
            _mm512_permutexvar_ps(at, pairs)
        }
    }
    #[inline(always)]
    unsafe fn abs(self) -> Self {
        unsafe { _mm512_abs_ps(self) }
    }
    #[inline(always)]
    unsafe fn relu(self) -> Self {
        unsafe {
            let keep = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(self, _mm512_setzero_ps());
            _mm512_maskz_mov_ps(keep, self)
        }
    }
    #[inline(always)]
    unsafe fn max_fold(o: Self, tap: Self) -> Self {
        // `vmaxps` returns its second operand unless the first is greater.
        unsafe { _mm512_max_ps(tap, o) }
    }
    #[inline(always)]
    unsafe fn has_nan(self) -> bool {
        unsafe { _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(self, self) != 0 }
    }
    #[inline(always)]
    unsafe fn widen<F: Format>(codes: *const u8) -> Self {
        unsafe { F::widen16(codes) }
    }

    /// Sixteen codes a step (a stride-2 step keeps each dword's low code
    /// by `vpmovdw`), the last step overlapping the one before it; a
    /// run shorter than a step takes the ymm body.
    #[inline(always)]
    unsafe fn widen_f16(codes: *const F16, stride: usize, run: &mut [f32]) {
        let n = run.len();
        if n < 16 {
            // SAFETY: the caller's guarantees, which cover AVX2.
            return unsafe { __m256::widen_f16(codes, stride, run) };
        }
        let mut j = 0;
        loop {
            // SAFETY: `j + 16 <= n`, so the reads end inside the caller's
            // bound and the store inside `run`.
            unsafe {
                let h = match stride {
                    1 => _mm256_loadu_si256(codes.add(j).cast()),
                    _ => _mm512_cvtepi32_epi16(_mm512_loadu_si512(codes.add(2 * j).cast())),
                };
                let v = _mm512_cvtph_ps(h);
                let nan = _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(v, v);
                let v = _mm512_mask_mov_ps(v, nan, _mm512_set1_ps(f32::NAN));
                _mm512_storeu_ps(run.as_mut_ptr().add(j), v);
            }
            if j + 16 == n {
                break;
            }
            j = (j + 16).min(n - 16);
        }
    }

    #[inline(always)]
    unsafe fn narrow_f16(self, at: *mut F16) {
        unsafe {
            let codes = _mm512_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(self);
            _mm256_storeu_si256(at.cast(), codes)
        }
    }
    #[inline(always)]
    unsafe fn evens(lo: Self, hi: Self) -> Self {
        unsafe {
            let at = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
            _mm512_permutex2var_ps(lo, at, hi)
        }
    }
    #[inline(always)]
    unsafe fn odds(lo: Self, hi: Self) -> Self {
        unsafe {
            let at = _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31);
            _mm512_permutex2var_ps(lo, at, hi)
        }
    }
    #[inline(always)]
    unsafe fn transpose(r: &mut [Self; 16]) {
        unsafe {
            let mut t = [_mm512_setzero_ps(); 16];
            for i in 0..8 {
                t[2 * i] = _mm512_unpacklo_ps(r[2 * i], r[2 * i + 1]);
                t[2 * i + 1] = _mm512_unpackhi_ps(r[2 * i], r[2 * i + 1]);
            }
            // `u[4i + j]`, 128-bit lane `l`: column `4l + j`, rows
            // `4i..4i + 4`.
            let mut u = [_mm512_setzero_ps(); 16];
            for i in 0..4 {
                u[4 * i] = _mm512_shuffle_ps::<0x44>(t[4 * i], t[4 * i + 2]);
                u[4 * i + 1] = _mm512_shuffle_ps::<0xee>(t[4 * i], t[4 * i + 2]);
                u[4 * i + 2] = _mm512_shuffle_ps::<0x44>(t[4 * i + 1], t[4 * i + 3]);
                u[4 * i + 3] = _mm512_shuffle_ps::<0xee>(t[4 * i + 1], t[4 * i + 3]);
            }
            // Lanes of rows 0–7 (`v[j]`, `v[4 + j]`) and 8–15
            // (`v[8 + j]`, `v[12 + j]`): even lanes of the columns
            // `4l + j` in the first, odd in the second.
            let mut v = [_mm512_setzero_ps(); 16];
            for j in 0..4 {
                v[j] = _mm512_shuffle_f32x4::<0x88>(u[j], u[4 + j]);
                v[4 + j] = _mm512_shuffle_f32x4::<0xdd>(u[j], u[4 + j]);
                v[8 + j] = _mm512_shuffle_f32x4::<0x88>(u[8 + j], u[12 + j]);
                v[12 + j] = _mm512_shuffle_f32x4::<0xdd>(u[8 + j], u[12 + j]);
            }
            for j in 0..4 {
                r[j] = _mm512_shuffle_f32x4::<0x88>(v[j], v[8 + j]);
                r[8 + j] = _mm512_shuffle_f32x4::<0xdd>(v[j], v[8 + j]);
                r[4 + j] = _mm512_shuffle_f32x4::<0x88>(v[4 + j], v[12 + j]);
                r[12 + j] = _mm512_shuffle_f32x4::<0xdd>(v[4 + j], v[12 + j]);
            }
        }
    }

    /// Four strips a vector, laid by a 4×4 transpose of 128-bit lanes:
    /// one 64-byte store per strip.
    #[inline(always)]
    unsafe fn lay(block: &Block, strips: usize, pack: &mut [f32], sums: &mut [f32], k: usize) {
        assert_lay_bounds(strips, pack, sums, k);
        for u in 0..strips.div_ceil(4) {
            // SAFETY: rows `16u..16u+16` are inside the block; the stores
            // are inside the bounds asserted above.
            unsafe {
                let x: [__m512; GROUP] =
                    std::array::from_fn(|c| _mm512_loadu_ps(block[c][16 * u..].as_ptr()));
                // [x0.0, x0.1, x1.0, x1.1], [x0.2, x0.3, x1.2, x1.3], and
                // the same of x2 and x3.
                let lo01 = _mm512_shuffle_f32x4::<0b01_00_01_00>(x[0], x[1]);
                let hi01 = _mm512_shuffle_f32x4::<0b11_10_11_10>(x[0], x[1]);
                let lo23 = _mm512_shuffle_f32x4::<0b01_00_01_00>(x[2], x[3]);
                let hi23 = _mm512_shuffle_f32x4::<0b11_10_11_10>(x[2], x[3]);
                let lanes = [
                    _mm512_shuffle_f32x4::<0b10_00_10_00>(lo01, lo23),
                    _mm512_shuffle_f32x4::<0b11_01_11_01>(lo01, lo23),
                    _mm512_shuffle_f32x4::<0b10_00_10_00>(hi01, hi23),
                    _mm512_shuffle_f32x4::<0b11_01_11_01>(hi01, hi23),
                ];
                for (t, s) in (4 * u..strips).zip(lanes) {
                    _mm512_storeu_ps(pack.as_mut_ptr().add(t * MICRO_MR * k), s);
                    if !sums.is_empty() {
                        let abs = _mm512_abs_ps(s);
                        // [v0, |v0|, v2, |v2|] + [v1, |v1|, v3, |v3|]
                        let left = _mm512_mask_moveldup_ps(s, 0xaaaa, abs);
                        let right = _mm512_mask_movehdup_ps(abs, 0x5555, s);
                        let pairs = _mm512_add_ps(left, right);
                        let pairs = _mm512_add_ps(pairs, _mm512_permute_ps::<0b11_10_11_10>(pairs));
                        let low = _mm512_setr_epi64(0, 2, 4, 6, 0, 2, 4, 6);
                        let pairs = _mm512_permutexvar_pd(low, _mm512_castps_pd(pairs));
                        let at = sums.as_mut_ptr().add(t * 2 * k);
                        _mm256_storeu_pd(at.cast(), _mm512_castpd512_pd256(pairs));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::simd::on_each_path;
    use super::*;

    /// Masked loads and stores at `live` ∈ {0, 1, L−1, L, L+1, 2L+3}:
    /// a load takes the first `min(live, L)` lanes and zeros the rest —
    /// the values past them are never the source's — and a store leaves
    /// every sentinel past its lanes as it was.
    struct Edges;

    impl Kernel for Edges {
        type Out = usize;
        unsafe fn run<L: Lanes>(self) -> usize {
            let n = L::LANES;
            let src: Vec<f32> = (0..3 * n).map(|i| i as f32 + 1.0).collect();
            for live in [0, 1, n - 1, n, n + 1, 2 * n + 3] {
                let lanes = live.min(n);
                let mut got = vec![f32::NAN; 3 * n];
                // SAFETY: the caller's guarantees; `src` and `got` hold
                // more than `live` floats.
                unsafe { L::load(src.as_ptr(), live).store(got.as_mut_ptr(), n) };
                for (i, &v) in got[..n].iter().enumerate() {
                    let want = if i < lanes { src[i] } else { 0.0 };
                    assert_eq!(v.to_bits(), want.to_bits(), "load lane {i} of {live}");
                }
                let sentinel = -7.5f32;
                let mut dst = vec![sentinel; 3 * n];
                // SAFETY: as above.
                unsafe { L::load(src.as_ptr(), n).store(dst.as_mut_ptr(), live) };
                for (i, &v) in dst.iter().enumerate() {
                    let want = if i < lanes { src[i] } else { sentinel };
                    assert_eq!(v.to_bits(), want.to_bits(), "store lane {i} of {live}");
                }
            }
            n
        }
    }

    #[test]
    fn masked_loads_and_stores_touch_only_their_lanes() {
        let widths = on_each_path(|path| {
            // SAFETY: `on_each_path` forces only the paths the host runs.
            unsafe { on_path(path, Edges) }.ok()
        });
        eprintln!("lane widths checked: {widths:?}");
        assert_eq!(widths.len(), super::super::simd::supported_paths().len());
    }
}
