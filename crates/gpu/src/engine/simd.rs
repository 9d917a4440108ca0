//! SIMD register-tiled GEMM microkernels and their runtime dispatch.
//!
//! The arithmetic that fills a block tile is plain FP32 math, so it runs
//! on whatever the host does fastest, in the same
//! pack→microkernel→epilogue decomposition real GEMM libraries use:
//!
//! - B arrives packed ([`PackedWeights`], built once when a scheme is
//!   bound to a layer); `stage_a` gathers, decodes and lays the
//!   request's rows into microkernel strips, with the checksum rows a
//!   thread-level ABFT scheme multiplies, in one pass (once per run, in
//!   `Panels::stage`, over the request's live rows only);
//! - `fill_block_tile` computes the live register tiles of one
//!   block tile — and, when the run's scheme asks for them, their
//!   checksum and magnitude lanes — through either the AVX2+FMA
//!   register-tiled microkernel or the scalar oracle;
//! - [`active_path`] picks between them at runtime
//!   (`is_x86_feature_detected!`), honouring the `AIGA_FORCE_SCALAR=1`
//!   override so CI can exercise the oracle on any machine.
//!
//! # The canonical accumulation-order contract
//!
//! Every output element is produced by **one** FP32 accumulator updated
//! by a fused multiply-add per K element, in K order:
//!
//! ```text
//! acc = 0;  for kk in 0..k { acc = fma(a[row][kk], b[kk][col], acc) }
//! ```
//!
//! `fma` is the correctly-rounded fused multiply-add (`f32::mul_add` /
//! `vfmadd`), so the sequence is a pure function of the operands — not
//! of how it is compiled. The AVX2 microkernel gets its parallelism from
//! computing [`MICRO_MR`]`×`[`MICRO_NR`] *independent* chains at once,
//! never from splitting one chain, which is why the SIMD path, the
//! scalar oracle, the targeted-recompute repair path, and the faulted
//! cold walk are all byte-identical by construction. The golden tests in
//! `crates/core/tests/engine_golden.rs` pin this contract.
//!
//! Checksum and magnitude lanes obey the same contract: each is one
//! more in-order FMA chain (`chk = fma(s[kk], b[kk][col], chk)`,
//! `mag = fma(s_abs[kk], |b[kk][col]|, mag)`, and the two-sided corner
//! `fma(s[kk], t[kk], corner)`), mirrored operation for operation by
//! `chk_dot`/`corner_dot` on the scalar path — so residuals and
//! thresholds, not just outputs, are byte-identical across paths.

use super::matrix::{MatrixLayout, MatrixView};
use super::panels::{PackedWeights, Panels};
use super::scheme::Redundancy;
use super::{MICRO_MR, MICRO_NR, MICRO_PANEL};
use aiga_dtype::{with_format, Dtype, Format, F16};

// The main microkernel drives two B panels at once.
const _: () = assert!(MICRO_NR == 2 * MICRO_PANEL);
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which GEMM substrate fills block tiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GemmPath {
    /// Register-tiled `MICRO_MR × MICRO_NR` microkernel using AVX2+FMA
    /// intrinsics over packed panels.
    Avx2Fma,
    /// The per-element scalar walk over the same operands — the
    /// bit-exact oracle (it may still use the hardware scalar FMA
    /// instruction; the contract fixes the *operation sequence*, and
    /// every correctly-rounded FMA computes the same bytes).
    Scalar,
}

impl GemmPath {
    /// True for vectorized paths.
    pub fn is_simd(self) -> bool {
        matches!(self, GemmPath::Avx2Fma)
    }

    /// Stable label for logs and bench records.
    pub fn as_str(self) -> &'static str {
        match self {
            GemmPath::Avx2Fma => "avx2+fma",
            GemmPath::Scalar => "scalar",
        }
    }
}

/// Test/bench override: 0 = none, 1 = Avx2Fma, 2 = Scalar.
static FORCED: AtomicU8 = AtomicU8::new(0);
static DETECTED: OnceLock<GemmPath> = OnceLock::new();

/// The best path this host supports, ignoring every override.
pub fn detect_path() -> GemmPath {
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                return GemmPath::Avx2Fma;
            }
        }
        GemmPath::Scalar
    })
}

/// The path the engine dispatches to: a [`force_path`] override if one
/// is set, else `AIGA_FORCE_SCALAR=1` (checked once per process), else
/// [`detect_path`].
pub fn active_path() -> GemmPath {
    match FORCED.load(Ordering::Relaxed) {
        1 => return GemmPath::Avx2Fma,
        2 => return GemmPath::Scalar,
        _ => {}
    }
    if aiga_dtype::scalar_forced() {
        GemmPath::Scalar
    } else {
        detect_path()
    }
}

/// Process-global dispatch override for tests and benches (`None`
/// restores normal dispatch). Forcing [`GemmPath::Avx2Fma`] on a host
/// where [`detect_path`] reports scalar is illegal (the microkernel
/// would execute unsupported instructions).
pub fn force_path(path: Option<GemmPath>) {
    let v = match path {
        None => 0,
        Some(GemmPath::Avx2Fma) => {
            assert!(
                detect_path().is_simd(),
                "cannot force the AVX2 path on a host without AVX2+FMA"
            );
            1
        }
        Some(GemmPath::Scalar) => 2,
    };
    FORCED.store(v, Ordering::Relaxed);
}

/// Stages the activation operand `a` into `p` (sized by
/// [`Panels::stage`]) in one pass over its codes: each [`MICRO_MR`]-row
/// strip is gathered, decoded to f32 and written straight into the
/// strip layout, K steps past the operand zero-filled, and — when
/// `a_chk` is non-empty — each step's `(Σ_i a[i][kk], Σ_i |a[i][kk]|)`
/// is taken from the same four values, pairwise in f32. The second is
/// the *sum of magnitudes*, not the magnitude of the sum: the error
/// bound it feeds must cover the data accumulators' rounding even where
/// the strip's values cancel.
///
/// An NCHW source is already K-major: where a strip's rows are
/// consecutive pixels of one output row with their windows inside the
/// image, each K step is [`MICRO_MR`] contiguous codes. Any other strip
/// (fc rows, image edges, strided convs, the ragged last strip) gathers
/// its rows through [`MatrixView::row_codes`] and walks them in
/// lockstep. The format dispatch is outside every loop.
pub(crate) fn stage_a(path: GemmPath, a: MatrixView<'_>, p: &mut Panels) {
    #[cfg(target_arch = "x86_64")]
    if path.is_simd() && a.dtype == Dtype::F16 && aiga_dtype::f16c_active() {
        // SAFETY: the SIMD path implies AVX2+FMA; F16C was just checked.
        return unsafe { stage_strips_f16c(a, p) };
    }
    with_format!(a.dtype, F => stage_strips(a, p, |c, pack, sums| {
        let v = c.map(|c| F::decode(c.to_bits()));
        pack.copy_from_slice(&v);
        if let Some(sums) = sums {
            sums[0] = (v[0] + v[1]) + (v[2] + v[3]);
            sums[1] = (v[0].abs() + v[1].abs()) + (v[2].abs() + v[3].abs());
        }
    }))
}

/// [`stage_strips`] with each step widened by `vcvtph2ps` (NaNs
/// canonicalised as the scalar decode does) and summed by two
/// horizontal adds — `(v0+v1)+(v2+v3)`, the scalar body's order.
///
/// # Safety
/// The host must support AVX2, FMA and F16C.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma", enable = "f16c")]
unsafe fn stage_strips_f16c(a: MatrixView<'_>, p: &mut Panels) {
    use std::arch::x86_64::*;
    const _: () = assert!(MICRO_MR == 4);
    stage_strips(a, p, |c, pack, sums| {
        assert!(pack.len() == 4 && sums.as_ref().is_none_or(|s| s.len() == 2));
        // SAFETY: `F16` is a transparent `u16`, so four of them are the
        // eight bytes `vcvtph2ps` widens from the low half of an xmm;
        // the stores cover the four and two floats asserted above.
        unsafe {
            let v = _mm_cvtph_ps(_mm_cvtsi64_si128(std::mem::transmute::<[F16; 4], i64>(c)));
            let v = _mm_blendv_ps(v, _mm_set1_ps(f32::NAN), _mm_cmpunord_ps(v, v));
            _mm_storeu_ps(pack.as_mut_ptr(), v);
            if let Some(sums) = sums {
                let pairs = _mm_hadd_ps(v, _mm_andnot_ps(_mm_set1_ps(-0.0), v));
                _mm_storel_pd(
                    sums.as_mut_ptr().cast(),
                    _mm_castps_pd(_mm_hadd_ps(pairs, pairs)),
                );
            }
        }
    })
}

/// The body of [`stage_a`], generic over `put`: decode one step's codes
/// into its strip slot and, when given one, its checksum pair.
#[inline(always)]
fn stage_strips(
    a: MatrixView<'_>,
    p: &mut Panels,
    put: impl Fn([F16; MICRO_MR], &mut [f32], Option<&mut [f32]>),
) {
    let (k, cols) = (p.k, a.cols);
    // Without checksum lanes `a_chk` is empty and every pair is `None`.
    let mut chk = p.a_chk.chunks_exact_mut(2 * k);
    for (s, strip) in p.a_pack.chunks_exact_mut(MICRO_MR * k).enumerate() {
        let r0 = s * MICRO_MR;
        let (pack, pad) = strip.split_at_mut(MICRO_MR * cols);
        pad.fill(0.0);
        let sums = chk.next().unwrap_or_default();
        let (sums, pad) = sums.split_at_mut(sums.len().min(2 * cols));
        pad.fill(0.0);
        let (mut pack, mut sums) = (pack.chunks_exact_mut(MICRO_MR), sums.chunks_exact_mut(2));
        let mut put = |c| put(c, pack.next().expect("one slot per K step"), sums.next());
        let window = match a.layout {
            MatrixLayout::Im2col(v) => Some(v).zip(v.contiguous_window(r0, MICRO_MR)),
            MatrixLayout::RowMajor => None,
        };
        if let Some((v, tap0)) = window {
            for plane_row in (0..v.channels * v.height).step_by(v.height) {
                for ky in 0..v.kernel {
                    let taps = &a.data[tap0 + (plane_row + ky) * v.width..];
                    for step in taps[..v.kernel - 1 + MICRO_MR].windows(MICRO_MR) {
                        put(step.try_into().expect("MICRO_MR-wide window"));
                    }
                }
            }
        } else {
            let live = (a.rows - r0).min(MICRO_MR);
            let mut scratch = p.rows.chunks_exact_mut(cols.max(1));
            let lane: [&[F16]; MICRO_MR] = std::array::from_fn(|i| {
                let scratch = scratch.next().expect("one scratch row per strip row");
                if i < live {
                    a.row_codes(r0 + i, scratch)
                } else {
                    scratch.fill(F16::ZERO);
                    &*scratch
                }
            });
            let [l0, l1, l2, l3] = lane;
            for (((&a, &b), &c), &d) in l0.iter().zip(l1).zip(l2).zip(l3) {
                put([a, b, c, d]);
            }
        }
    }
}

/// The canonical dot product: one FMA per K element, in order (see the
/// module docs), of one decoded A row against one B column's K walk
/// ([`PackedWeights::col`]). This is the scalar oracle's inner loop and
/// the shared primitive behind targeted recompute.
#[inline]
pub(crate) fn dot(a: impl Iterator<Item = f32>, b: impl Iterator<Item = f32>) -> f32 {
    #[cfg(target_arch = "x86_64")]
    {
        if detect_path().is_simd() {
            // SAFETY: FMA support was verified by detect_path.
            return unsafe { dot_fma(a, b) };
        }
    }
    dot_generic(a, b)
}

/// `dot_generic` compiled with the FMA target feature, so `mul_add`
/// lowers to the hardware instruction instead of a libm call. Bytes are
/// identical either way — both are correctly rounded.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn dot_fma(a: impl Iterator<Item = f32>, b: impl Iterator<Item = f32>) -> f32 {
    dot_generic(a, b)
}

#[inline(always)]
fn dot_generic(a: impl Iterator<Item = f32>, b: impl Iterator<Item = f32>) -> f32 {
    let mut s = 0.0f32;
    for (x, y) in a.zip(b) {
        s = x.mul_add(y, s);
    }
    s
}

/// The scalar mirror of one column's checksum and magnitude lanes
/// ([`Redundancy::ColumnChecksum`]): `a_chk` is one strip's
/// checksum row ([`stage_a`]), `b` one output column's K walk.
#[inline(always)]
fn chk_dot(a_chk: &[f32], b: impl Iterator<Item = f32>) -> (f32, f32) {
    let (mut chk, mut mag) = (0.0f32, 0.0f32);
    for (s, v) in a_chk.chunks_exact(2).zip(b) {
        chk = s[0].mul_add(v, chk);
        mag = s[1].mul_add(v.abs(), mag);
    }
    (chk, mag)
}

/// The scalar mirror of one register tile's corner chain and its
/// magnitude ([`Redundancy::TileChecksum`]): `a_chk` is the strip's
/// checksum row ([`stage_a`]), `b_chk` the column group's checksum columns
/// (packed with the weights).
#[inline(always)]
fn corner_dot(a_chk: &[f32], b_chk: &[f32]) -> (f32, f32) {
    let (mut chk, mut mag) = (0.0f32, 0.0f32);
    for (s, t) in a_chk.chunks_exact(2).zip(b_chk.chunks_exact(2)) {
        chk = s[0].mul_add(t[0], chk);
        mag = s[1].mul_add(t[1], mag);
    }
    (chk, mag)
}

/// Fills the live part of one block tile — `strips` register-tile rows
/// by `groups` register-tile columns from global origin `(row0, col0)`,
/// the ones that cover a row of the request or a column of the weights
/// — through the dispatched microkernel, leaving the data in `tile`
/// (row stride `bn`, the block width) and — for the two ABFT lane
/// kinds — every live register tile's checksum and magnitude lanes in
/// `chk`/`mag` (laid out as `BlockScratch` documents). Cells of `tile`
/// outside the live extent are left as they were. Within a live
/// register tile, rows and columns past the operands' edges are zero in
/// the panels, so computing them is harmless and branch-free. Any other
/// `lanes` runs the plain kernel — the replication kinds call this
/// twice, once per copy.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill_block_tile(
    path: GemmPath,
    a: &Panels,
    b: &PackedWeights,
    lanes: Redundancy,
    row0: usize,
    col0: usize,
    strips: usize,
    groups: usize,
    bn: usize,
    tile: &mut [f32],
    chk: &mut [f32],
    mag: &mut [f32],
) {
    assert!(row0.is_multiple_of(MICRO_MR) && col0.is_multiple_of(MICRO_NR));
    assert!(groups * MICRO_NR <= bn && tile.len() >= strips * MICRO_MR * bn);
    let lane_len = lanes.lane_len(strips * MICRO_MR, bn);
    assert!(chk.len() >= lane_len && mag.len() >= lane_len);
    assert_eq!(a.k, b.k(), "operands staged for different K");
    match path {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the dispatcher only selects Avx2Fma when AVX2 and FMA
        // are present (detect_path / force_path enforce it); the asserts
        // above and in the callee bound every pointer offset.
        GemmPath::Avx2Fma => unsafe {
            match lanes {
                Redundancy::ColumnChecksum => {
                    fill_avx2::<LANES_COLUMN>(a, b, row0, col0, strips, groups, bn, tile, chk, mag)
                }
                Redundancy::TileChecksum => {
                    fill_avx2::<LANES_TILE>(a, b, row0, col0, strips, groups, bn, tile, chk, mag)
                }
                _ => fill_avx2::<LANES_NONE>(a, b, row0, col0, strips, groups, bn, tile, chk, mag),
            }
        },
        #[cfg(not(target_arch = "x86_64"))]
        GemmPath::Avx2Fma => unreachable!("AVX2 path dispatched on non-x86_64"),
        GemmPath::Scalar => {
            #[cfg(target_arch = "x86_64")]
            if detect_path().is_simd() {
                // SAFETY: FMA support was verified by detect_path.
                return unsafe {
                    fill_scalar_fma(a, b, lanes, row0, col0, strips, groups, bn, tile, chk, mag)
                };
            }
            fill_scalar(a, b, lanes, row0, col0, strips, groups, bn, tile, chk, mag)
        }
    }
}

/// [`fill_scalar`] compiled with the FMA target feature (see
/// [`dot_fma`]) — same bytes, hardware `mul_add`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn fill_scalar_fma(
    a: &Panels,
    b: &PackedWeights,
    lanes: Redundancy,
    row0: usize,
    col0: usize,
    strips: usize,
    groups: usize,
    bn: usize,
    tile: &mut [f32],
    chk: &mut [f32],
    mag: &mut [f32],
) {
    fill_scalar(a, b, lanes, row0, col0, strips, groups, bn, tile, chk, mag)
}

/// The scalar oracle: every data cell and every lane is its own
/// in-order FMA chain over the same operands the microkernel streams —
/// the decoded A rows and, one lane at a time, the packed B panels.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn fill_scalar(
    a: &Panels,
    b: &PackedWeights,
    lanes: Redundancy,
    row0: usize,
    col0: usize,
    strips: usize,
    groups: usize,
    bn: usize,
    tile: &mut [f32],
    chk: &mut [f32],
    mag: &mut [f32],
) {
    let k = a.k;
    let cols = groups * MICRO_NR;
    for lr in 0..strips * MICRO_MR {
        for (lc, out) in tile[lr * bn..][..cols].iter_mut().enumerate() {
            *out = dot_generic(a.row(row0 + lr), b.col(col0 + lc));
        }
    }
    let a_chk = |s: usize| &a.a_chk[(row0 / MICRO_MR + s) * k * 2..][..k * 2];
    match lanes {
        Redundancy::ColumnChecksum => {
            for s in 0..strips {
                for lc in 0..cols {
                    (chk[s * bn + lc], mag[s * bn + lc]) = chk_dot(a_chk(s), b.col(col0 + lc));
                }
            }
        }
        Redundancy::TileChecksum => {
            let per_row = bn / MICRO_NR;
            for s in 0..strips {
                for g in 0..groups {
                    let b_chk = &b.b_chk()[(col0 / MICRO_NR + g) * k * 2..][..k * 2];
                    (chk[s * per_row + g], mag[s * per_row + g]) = corner_dot(a_chk(s), b_chk);
                }
            }
        }
        _ => {}
    }
}

#[cfg(target_arch = "x86_64")]
const LANES_NONE: u8 = 0;
#[cfg(target_arch = "x86_64")]
const LANES_COLUMN: u8 = 1;
#[cfg(target_arch = "x86_64")]
const LANES_TILE: u8 = 2;

/// The AVX2+FMA register-tiled microkernel: walks the block tile in
/// `MICRO_MR × MICRO_NR` register tiles. Each register tile keeps 8 ymm
/// data accumulators live (4 broadcast rows × 2 column vectors) across
/// the *entire* K extent — accumulators never spill, so each output
/// element is one in-order FMA chain, exactly the canonical order. Per
/// K step: 2 vector loads of B, 4 broadcasts of A, 8 FMAs.
///
/// `LANES_COLUMN` adds, on the two B vectors already loaded, a checksum
/// accumulator pair fed by the strip's column sum and a magnitude pair
/// fed by its magnitude sum and `|b|` (2 broadcasts, 2 `andnot`, 4 FMAs
/// — 12 of 16 ymm live). `LANES_TILE` adds one xmm FMA whose low two
/// lanes are the tile's corner chain and its magnitude (two 8-byte
/// loads). Neither touches memory the data walk does not already
/// stream except those few floats per step. Only the `strips × groups`
/// live register tiles are walked.
///
/// # Safety
/// The host must support AVX2 and FMA. Every pointer offset is bounded
/// by the asserts below and in [`fill_block_tile`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn fill_avx2<const LANES: u8>(
    a: &Panels,
    b: &PackedWeights,
    row0: usize,
    col0: usize,
    strips: usize,
    groups: usize,
    bn: usize,
    tile: &mut [f32],
    chk: &mut [f32],
    mag: &mut [f32],
) {
    use std::arch::x86_64::*;
    let k = a.k;
    let per_row = bn / MICRO_NR;
    let s0 = row0 / MICRO_MR;
    let g0 = col0 / MICRO_NR;
    assert!(a.a_pack.len() >= (s0 + strips) * MICRO_MR * k);
    assert!(b.panels().len() >= (g0 + groups) * MICRO_NR * k);
    assert!(LANES == LANES_NONE || a.a_chk.len() >= (s0 + strips) * k * 2);
    assert!(LANES != LANES_TILE || b.b_chk().len() >= (g0 + groups) * k * 2);
    let a_pack = a.a_pack.as_ptr();
    let b_pack = b.panels().as_ptr();
    let a_chk = a.a_chk.as_ptr();
    let b_chk = b.b_chk().as_ptr();
    let tile = tile.as_mut_ptr();
    let sign = _mm256_set1_ps(-0.0);

    for s in 0..strips {
        let a_strip = a_pack.add((s0 + s) * MICRO_MR * k);
        let a_sum = a_chk.wrapping_add((s0 + s) * k * 2);
        for g in 0..groups {
            let b_lo = b_pack.add((g0 + g) * MICRO_NR * k);
            let b_hi = b_lo.add(MICRO_PANEL * k);
            let b_sum = b_chk.wrapping_add((g0 + g) * k * 2);
            let mut acc0l = _mm256_setzero_ps();
            let mut acc0h = _mm256_setzero_ps();
            let mut acc1l = _mm256_setzero_ps();
            let mut acc1h = _mm256_setzero_ps();
            let mut acc2l = _mm256_setzero_ps();
            let mut acc2h = _mm256_setzero_ps();
            let mut acc3l = _mm256_setzero_ps();
            let mut acc3h = _mm256_setzero_ps();
            let mut chk_l = _mm256_setzero_ps();
            let mut chk_h = _mm256_setzero_ps();
            let mut mag_l = _mm256_setzero_ps();
            let mut mag_h = _mm256_setzero_ps();
            let mut corner = _mm_setzero_ps();
            for kk in 0..k {
                let vb_lo = _mm256_loadu_ps(b_lo.add(kk * MICRO_PANEL));
                let vb_hi = _mm256_loadu_ps(b_hi.add(kk * MICRO_PANEL));
                let a_step = a_strip.add(kk * MICRO_MR);
                let va0 = _mm256_set1_ps(*a_step);
                acc0l = _mm256_fmadd_ps(va0, vb_lo, acc0l);
                acc0h = _mm256_fmadd_ps(va0, vb_hi, acc0h);
                let va1 = _mm256_set1_ps(*a_step.add(1));
                acc1l = _mm256_fmadd_ps(va1, vb_lo, acc1l);
                acc1h = _mm256_fmadd_ps(va1, vb_hi, acc1h);
                let va2 = _mm256_set1_ps(*a_step.add(2));
                acc2l = _mm256_fmadd_ps(va2, vb_lo, acc2l);
                acc2h = _mm256_fmadd_ps(va2, vb_hi, acc2h);
                let va3 = _mm256_set1_ps(*a_step.add(3));
                acc3l = _mm256_fmadd_ps(va3, vb_lo, acc3l);
                acc3h = _mm256_fmadd_ps(va3, vb_hi, acc3h);
                if LANES == LANES_COLUMN {
                    let vs = _mm256_set1_ps(*a_sum.add(kk * 2));
                    chk_l = _mm256_fmadd_ps(vs, vb_lo, chk_l);
                    chk_h = _mm256_fmadd_ps(vs, vb_hi, chk_h);
                    let vm = _mm256_set1_ps(*a_sum.add(kk * 2 + 1));
                    mag_l = _mm256_fmadd_ps(vm, _mm256_andnot_ps(sign, vb_lo), mag_l);
                    mag_h = _mm256_fmadd_ps(vm, _mm256_andnot_ps(sign, vb_hi), mag_h);
                }
                if LANES == LANES_TILE {
                    // (sum, magnitude) pairs in the low two lanes; the
                    // upper lanes stay 0·0 + 0.
                    let st = _mm_castpd_ps(_mm_load_sd(a_sum.add(kk * 2) as *const f64));
                    let tt = _mm_castpd_ps(_mm_load_sd(b_sum.add(kk * 2) as *const f64));
                    corner = _mm_fmadd_ps(st, tt, corner);
                }
            }
            let col = g * MICRO_NR;
            let t0 = tile.add((s * MICRO_MR) * bn + col);
            _mm256_storeu_ps(t0, acc0l);
            _mm256_storeu_ps(t0.add(MICRO_PANEL), acc0h);
            let t1 = tile.add((s * MICRO_MR + 1) * bn + col);
            _mm256_storeu_ps(t1, acc1l);
            _mm256_storeu_ps(t1.add(MICRO_PANEL), acc1h);
            let t2 = tile.add((s * MICRO_MR + 2) * bn + col);
            _mm256_storeu_ps(t2, acc2l);
            _mm256_storeu_ps(t2.add(MICRO_PANEL), acc2h);
            let t3 = tile.add((s * MICRO_MR + 3) * bn + col);
            _mm256_storeu_ps(t3, acc3l);
            _mm256_storeu_ps(t3.add(MICRO_PANEL), acc3h);
            if LANES == LANES_COLUMN {
                let c = chk.as_mut_ptr().add(s * bn + col);
                _mm256_storeu_ps(c, chk_l);
                _mm256_storeu_ps(c.add(MICRO_PANEL), chk_h);
                let m = mag.as_mut_ptr().add(s * bn + col);
                _mm256_storeu_ps(m, mag_l);
                _mm256_storeu_ps(m.add(MICRO_PANEL), mag_h);
            }
            if LANES == LANES_TILE {
                let mut pair = [0.0f32; 4];
                _mm_storeu_ps(pair.as_mut_ptr(), corner);
                chk[s * per_row + g] = pair[0];
                mag[s * per_row + g] = pair[1];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::matrix::Matrix;
    use super::super::{BLOCK_M, BLOCK_N};
    use super::*;

    fn staged(
        m: usize,
        n: usize,
        k: usize,
        seed: u64,
        lanes: Redundancy,
    ) -> (Panels, PackedWeights, Matrix, Matrix) {
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 1);
        let mut p = Panels::default();
        p.stage(a.view(), lanes, detect_path(), k.next_multiple_of(8));
        (p, PackedWeights::pack(&b, lanes), a, b)
    }

    #[test]
    fn packed_layouts_round_trip_the_panels() {
        // Ragged on purpose: 3 dead rows in the last strip, K padded by
        // 6, a partial panel and a partial register tile on the right.
        let (m, n, k) = (13, 27, 10);
        let (p, w, a, b) = staged(m, n, k, 42, Redundancy::TileChecksum);
        let kp = w.k();
        assert_eq!((kp, w.rows(), w.cols()), (16, k, n));
        // Every activation sits at its strip address; dead rows and K
        // padding are zero; `row` walks one lane.
        let a_at = |r: usize, kk: usize| {
            if r < m && kk < k {
                a.get_f32(r, kk)
            } else {
                0.0
            }
        };
        assert_eq!(p.a_pack.len(), m.next_multiple_of(MICRO_MR) * kp);
        for r in 0..m.next_multiple_of(MICRO_MR) {
            let walk: Vec<f32> = p.row(r).collect();
            assert_eq!(walk.len(), kp);
            for (kk, &got) in walk.iter().enumerate() {
                assert_eq!(got.to_bits(), a_at(r, kk).to_bits(), "({r},{kk})");
                let at = (r / MICRO_MR * kp + kk) * MICRO_MR + r % MICRO_MR;
                assert_eq!(p.a_pack[at].to_bits(), got.to_bits());
            }
        }
        // Every source weight sits at its panel address; K and N padding
        // is zero; `col` walks one lane.
        let n_pad = n.next_multiple_of(MICRO_NR);
        assert_eq!(w.panels().len(), n_pad * kp);
        for c in 0..n_pad {
            let walk: Vec<f32> = w.col(c).collect();
            assert_eq!(walk.len(), kp);
            for (kk, &got) in walk.iter().enumerate() {
                let want = if c < n && kk < k {
                    b.get_f32(kk, c)
                } else {
                    0.0
                };
                assert_eq!(got.to_bits(), want.to_bits(), "({kk},{c})");
                let at = (c / MICRO_PANEL * kp + kk) * MICRO_PANEL + c % MICRO_PANEL;
                assert_eq!(w.panels()[at].to_bits(), want.to_bits());
            }
        }
        // Checksum rows: plain sums and sums of magnitudes, pairwise in
        // f32, per strip and per register-tile column group.
        for s in 0..m.div_ceil(MICRO_MR) {
            for kk in 0..kp {
                let v: [f32; MICRO_MR] = std::array::from_fn(|i| a_at(s * MICRO_MR + i, kk));
                let want = (v[0] + v[1]) + (v[2] + v[3]);
                let want_abs = (v[0].abs() + v[1].abs()) + (v[2].abs() + v[3].abs());
                assert_eq!(p.a_chk[(s * kp + kk) * 2].to_bits(), want.to_bits());
                assert_eq!(p.a_chk[(s * kp + kk) * 2 + 1].to_bits(), want_abs.to_bits());
            }
        }
        for g in 0..n_pad / MICRO_NR {
            for kk in 0..kp {
                // In column order, in f32, from zero — the bytes the
                // corner chain has always multiplied.
                let (mut want, mut want_abs) = (0.0f32, 0.0f32);
                for v in (0..MICRO_NR).map(|j| w.col(g * MICRO_NR + j).nth(kk).unwrap()) {
                    want += v;
                    want_abs += v.abs();
                }
                assert_eq!(w.b_chk()[(g * kp + kk) * 2].to_bits(), want.to_bits());
                assert_eq!(
                    w.b_chk()[(g * kp + kk) * 2 + 1].to_bits(),
                    want_abs.to_bits()
                );
            }
        }
        // Only two-sided ABFT pays for the checksum columns.
        let plain = PackedWeights::pack(&b, Redundancy::ColumnChecksum);
        assert!(w.has_tile_checksums() && !plain.has_tile_checksums());
        assert_eq!(plain.panels(), w.panels());
    }

    #[test]
    fn dot_is_the_in_order_fma_chain() {
        let a: Vec<f32> = (0..33).map(|i| (i as f32) * 0.37 - 3.0).collect();
        let b: Vec<f32> = (0..33).map(|i| 1.5 - (i as f32) * 0.21).collect();
        let mut want = 0.0f32;
        for (x, y) in a.iter().zip(&b) {
            want = x.mul_add(*y, want);
        }
        assert_eq!(
            dot(a.iter().copied(), b.iter().copied()).to_bits(),
            want.to_bits()
        );
    }

    #[test]
    fn microkernel_matches_the_scalar_oracle_bit_for_bit() {
        if !detect_path().is_simd() {
            return; // nothing to compare on this host
        }
        // Data tile, checksum lanes and magnitude lanes, under every
        // lane kind, at a block origin away from zero, with the live
        // extent both filling the block and stopping short of it.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for lanes in [
            Redundancy::None,
            Redundancy::ColumnChecksum,
            Redundancy::TileChecksum,
        ] {
            for &(bm, bn, k, live) in &[
                (16usize, 16usize, 32usize, (4, 1)),
                (32, 48, 56, (8, 3)),
                (32, 48, 56, (1, 2)),
                (8, 32, 10, (2, 2)),
                // The engine's own block, every register tile live.
                (
                    BLOCK_M,
                    BLOCK_N,
                    24,
                    (BLOCK_M / MICRO_MR, BLOCK_N / MICRO_NR),
                ),
            ] {
                let (row0, col0) = (MICRO_MR * 2, MICRO_NR);
                let (strips, groups) = live;
                let (m, n) = (row0 + strips * MICRO_MR, col0 + groups * MICRO_NR);
                let (p, w, ..) = staged(m, n, k, 7 + (bm + bn + k) as u64, lanes);
                let run = |path| {
                    let mut tile = vec![f32::NAN; bm * bn];
                    let mut chk = vec![f32::NAN; lanes.lane_len(bm, bn)];
                    let mut mag = chk.clone();
                    fill_block_tile(
                        path, &p, &w, lanes, row0, col0, strips, groups, bn, &mut tile, &mut chk,
                        &mut mag,
                    );
                    // Dead cells are never written.
                    for (i, v) in tile.iter().enumerate() {
                        let live = i / bn < strips * MICRO_MR && i % bn < groups * MICRO_NR;
                        assert_eq!(v.is_nan(), !live, "cell {i}");
                    }
                    (bits(&tile), bits(&chk), bits(&mag))
                };
                assert_eq!(
                    run(GemmPath::Avx2Fma),
                    run(GemmPath::Scalar),
                    "{lanes:?} bm={bm} bn={bn} k={k} live={live:?}"
                );
            }
        }
    }

    #[test]
    fn dispatch_honours_the_forced_override() {
        force_path(Some(GemmPath::Scalar));
        assert_eq!(active_path(), GemmPath::Scalar);
        force_path(None);
        // Ambient dispatch (env or detection) — just has to be callable.
        let _ = active_path();
    }
}
