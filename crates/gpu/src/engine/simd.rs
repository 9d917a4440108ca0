//! SIMD register-tiled GEMM microkernels and their runtime dispatch.
//!
//! The arithmetic that fills a block tile is plain FP32 math, so it runs
//! on whatever the host does fastest, in the same
//! pack→microkernel→epilogue decomposition real GEMM libraries use:
//!
//! - B arrives packed ([`PackedWeights`], built once when a scheme is
//!   bound to a layer) as the format's resident codes, and is widened
//!   to f32 in the microkernel's B load (`Format::widen`/`widen16`) — a
//!   weight is read at its resident width every pass; `stage_a` gathers,
//!   decodes and lays a run of the request's rows into microkernel
//!   strips, with the column sums two-sided ABFT's corners multiply
//!   and global ABFT's fold adds up, in one pass (once per block-row stripe, by the team
//!   member about to walk it, in `Panels::stage`). A conv lowering is
//!   staged by one body for every geometry, generic over the lanes
//!   like the tile bodies: the stripe's rows split into segments on one
//!   output row, so a lowered column is one strided run of codes per
//!   segment, widened sixteen fp16 codes at a time on zmm and laid
//!   into the strips by a 4×4 lane transpose; fc rows are walked a strip
//!   at a time;
//! - `fill_block_tile` computes the live register tiles of one
//!   block tile — and, when the run's scheme asks for them, their
//!   checksum lanes — through the register-tiled microkernel at the
//!   host's vector width or the scalar oracle; `row_checks` takes
//!   one-sided ABFT's row checks of the wide strips against the weights'
//!   column-group sums, and their magnitudes where a compare needs them,
//!   `group_magnitudes` a one-row strip's column magnitudes;
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
//! of how it is compiled. The microkernel gets its parallelism from
//! computing *independent* chains at once, never from splitting one
//! chain, which is why every SIMD path, the scalar oracle, the
//! targeted-recompute repair path, and the faulted cold walk are all
//! byte-identical by construction. The golden tests in
//! `crates/core/tests/engine_golden.rs` pin this contract.
//!
//! The register tile's shape — a tile family times a vector width —
//! decides which chains share a loop, never a chain. Each family is one
//! body generic over the lanes, the format's B widening and the lane
//! kind. The lanes are the engine's one lane type (`Lanes`, ymm on
//! [`GemmPath::Avx2Fma`], zmm on [`GemmPath::Avx512`]): every SIMD body
//! of the engine — the conv staging, the tile walk, the row checks, the
//! magnitude pass, the write-back transpose, the max-pool row, the tile check — is
//! written once over it and entered through one dispatch seam, which
//! compiles it under each path's target features.
//!
//! - A strip with several live rows runs the multi-row `tile`:
//!   [`MICRO_MR`] broadcast rows per strip against two B vectors — 4×16
//!   on ymm (one column group), 4×32 on zmm (two). With thirty-two
//!   registers the zmm tile takes **two strips per B load** (8×32, 16
//!   accumulators) while two whole strips remain: widening a zmm of
//!   codes (`vcvtph2ps`) costs as many 512-bit port slots as two FMAs,
//!   so a 4×32 tile spends a third of its issue on the widen, and the
//!   second strip's eight FMAs ride the same two widened vectors for
//!   free. An odd strip runs 4×32, an odd last column group the ymm
//!   instance.
//! - A strip with **one** live row — a batch-1 request, or the ragged
//!   last strip of an `m ≡ 1 (mod 4)` layer — runs the one-row
//!   `tile_1xn`: one broadcast against four B vectors (1×32 on ymm,
//!   1×64 on zmm), then two, then the ymm pair over an odd last group:
//!   the same chains for that row, none for the three dead rows, which
//!   are stored as the `+0.0` their chains of `0·b` would have left.
//!
//! Checksums and magnitudes obey the same contract: each is a fixed
//! sequence of correctly-rounded operations, mirrored operation for
//! operation on the scalar path — so residuals and thresholds, not just
//! outputs, are byte-identical across paths. Two-sided ABFT's corner
//! `fma(s[kk], t[kk], corner)` and its magnitude ride the tile (mirror:
//! `corner_dot`). One-sided ABFT checks the paper's way round: a strip
//! of two or more live rows walks clean, and `row_checks` then takes
//! each row's `Σ_k a[i][kk]·t_g[kk]` against the weights' column-group
//! sums `t_g` in four sub-chains by `kk mod 4`, joined as
//! `(c0 + c1) + (c2 + c3)` (mirror: `row_check`), one FMA per K step
//! for a strip's four rows against a vector's groups. A strip with one
//! live row keeps a checksum chain per column in the one-row tile,
//! `fma(a[kk], b[kk][col], chk)` fed by the row itself (mirror:
//! `dot_generic`). No magnitude is carried: `|chk|` bounds it from
//! below, so the epilogue takes it only where a compare depends on it —
//! `row_checks` over `|a|` and `Σ|b|`, or `group_magnitudes` for a
//! one-row strip's columns (see `walk`).

use super::lanes::{on_path, Kernel, Lanes};
use super::matrix::{Im2colView, MatrixLayout, MatrixView};
use super::panels::{PackedWeights, Panels};
use super::scheme::Redundancy;
use super::{BLOCK_M, MICRO_MR, MICRO_NR};
use aiga_dtype::{with_format, Dtype, Format, F16};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// Which GEMM substrate fills block tiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GemmPath {
    /// The per-element scalar walk over the same operands — the
    /// bit-exact oracle (it may still use the hardware scalar FMA
    /// instruction; the contract fixes the *operation sequence*, and
    /// every correctly-rounded FMA computes the same bytes).
    Scalar,
    /// Register-tiled microkernel using AVX2+FMA (and F16C)
    /// intrinsics over packed panels.
    Avx2Fma,
    /// The same microkernel on 512-bit vectors (AVX-512 F and VL on top
    /// of [`Self::Avx2Fma`]'s set), two strips per B load.
    Avx512,
}

impl GemmPath {
    /// Every path, scalar first, widest last; each runs wherever the
    /// one after it does.
    const ALL: [GemmPath; 3] = [GemmPath::Scalar, GemmPath::Avx2Fma, GemmPath::Avx512];

    /// True for the vectorized paths — which is also where the engine
    /// knows the hardware FMA is present (`dot`, `column_magnitude` and
    /// the scalar oracle compile their `mul_add` to it there).
    pub fn is_simd(self) -> bool {
        self != GemmPath::Scalar
    }

    /// Stable label for logs and bench records.
    pub fn as_str(self) -> &'static str {
        match self {
            GemmPath::Scalar => "scalar",
            GemmPath::Avx2Fma => "avx2+fma",
            GemmPath::Avx512 => "avx512",
        }
    }
}

/// Test/bench override: 0 = none, else 1 + the path's index in
/// [`GemmPath::ALL`].
static FORCED: AtomicU8 = AtomicU8::new(0);

/// The CPU features dispatch asks for that this host has — what
/// [`detect_path`] chose from, for bench provenance.
pub fn cpu_features() -> &'static [&'static str] {
    static FOUND: OnceLock<Vec<&'static str>> = OnceLock::new();
    FOUND.get_or_init(|| {
        #[allow(unused_mut)]
        let mut found = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            macro_rules! probe {
                ($($feature:tt)*) => { $(if is_x86_feature_detected!($feature) { found.push($feature); })* };
            }
            probe!("avx2" "fma" "f16c" "avx512f" "avx512vl");
        }
        found
    })
}

/// The best path this host supports, ignoring every override.
///
/// Chosen from feature bits alone: that AVX-512 beats AVX2 is measured
/// only on a host with two 512-bit FMA ports and no licence downclock
/// worth the name; on a one-port or downclocking part it is unverified
/// (`BENCH_engine.json`'s per-path rows, recorded there, are the check).
pub fn detect_path() -> GemmPath {
    static DETECTED: OnceLock<GemmPath> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        let has = |features: &[&str]| features.iter().all(|f| cpu_features().contains(f));
        // F16C rides along for the fp16 B load; every AVX2 part has it,
        // and without it the scalar path runs. AVX-512 needs VL beside F
        // because the zmm walk runs ymm instances (an odd column group)
        // that count on thirty-two registers.
        match (has(&["avx2", "fma", "f16c"]), has(&["avx512f", "avx512vl"])) {
            (true, true) => GemmPath::Avx512,
            (true, false) => GemmPath::Avx2Fma,
            (false, _) => GemmPath::Scalar,
        }
    })
}

/// The paths this host can run, scalar first, [`detect_path`] last —
/// what a path sweep iterates and [`force_path`] accepts.
pub fn supported_paths() -> &'static [GemmPath] {
    let widest = GemmPath::ALL.iter().position(|&p| p == detect_path());
    &GemmPath::ALL[..=widest.expect("every path is listed")]
}

/// The path the engine dispatches to: a [`force_path`] override if one
/// is set, else `AIGA_FORCE_SCALAR=1` (checked once per process), else
/// [`detect_path`].
pub fn active_path() -> GemmPath {
    match FORCED.load(Ordering::Relaxed) {
        0 if aiga_dtype::scalar_forced() => GemmPath::Scalar,
        0 => detect_path(),
        forced => GemmPath::ALL[forced as usize - 1],
    }
}

/// Process-global dispatch override for tests and benches (`None`
/// restores normal dispatch). Forcing a path outside
/// [`supported_paths`] is illegal (the microkernel would execute
/// unsupported instructions).
pub fn force_path(path: Option<GemmPath>) {
    let forced = path.map_or(0, |path| {
        let at = supported_paths().iter().position(|&p| p == path);
        let at = at.unwrap_or_else(|| panic!("this host cannot run the {} path", path.as_str()));
        at as u8 + 1
    });
    FORCED.store(forced, Ordering::Relaxed);
}

/// Runs `f` once per [`supported_paths`] entry with the override set,
/// returning the results in that order — the one path sweep of the
/// tests and benches. Sweeps are serialised process-wide, so no leg runs
/// on a path another sweep forced, and the paths the host lacks are
/// logged, not silently passed.
pub fn on_each_path<T>(mut f: impl FnMut(GemmPath) -> T) -> Vec<T> {
    static SWEEP: Mutex<()> = Mutex::new(());
    /// Lifts the override when the sweep ends, by a leg's panic too.
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            force_path(None);
        }
    }
    // A panicking leg poisons nothing the next sweep reads; the override
    // is lifted (declared last, dropped first) before the lock is released.
    let _guard = SWEEP.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = Restore;
    for skipped in &GemmPath::ALL[supported_paths().len()..] {
        eprintln!("host cannot run the {} path: leg skipped", skipped.as_str());
    }
    let legs = supported_paths().iter().map(|&path| {
        force_path(Some(path));
        f(path)
    });
    legs.collect()
}

/// Stages strips `strips` of the activation operand `a` into `p`
/// (sized by [`Panels::stage`]; the first staged strip lands at the
/// start of its buffers) in one pass over their codes: each
/// [`MICRO_MR`]-row strip's values are decoded to f32 and written
/// straight into the strip layout, K steps past the operand
/// zero-filled, and — when `p.sums` — each step's
/// `(Σ_i a[i][kk], Σ_i |a[i][kk]|)` is taken from the same four values,
/// pairwise in f32: `(v0+v1)+(v2+v3)`. The second is the *sum of
/// magnitudes*, not the magnitude of the sum: the error bound it feeds
/// must cover the data accumulators' rounding even where the strip's
/// values cancel.
///
/// A conv lowering is staged by one body for every geometry,
/// [`stage_stripes`], up to a block-row stripe at a time: the stripe's
/// rows split into segments (pixels of one output row of one image), so
/// each lowered column is one run of codes per segment at the conv's
/// stride, and four columns decoded into a block are laid into the
/// strips by a 4×4 lane transpose. Row-major rows (fc) are gathered a
/// strip at a time and walked in lockstep. The format dispatch is
/// outside every loop.
pub(crate) fn stage_a(
    path: GemmPath,
    a: MatrixView<'_>,
    p: &mut Panels,
    strips: std::ops::Range<usize>,
) {
    if let MatrixLayout::Im2col(view) = a.layout {
        let f16c = a.dtype == Dtype::F16 && aiga_dtype::f16c_active();
        let stripes = Stripes {
            a,
            view,
            p,
            strips,
            f16c,
        };
        // SAFETY: the path is one the host runs, and F16C is only used
        // where it was checked.
        if let Err(stripes) = unsafe { on_path(path, stripes) } {
            let widen = None::<fn(&[F16], usize, &mut [f32])>;
            stage_stripes(stripes, widen, lay_plain);
        }
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if path.is_simd() && a.dtype == Dtype::F16 && aiga_dtype::f16c_active() {
        // SAFETY: the SIMD path implies AVX2+FMA; F16C was just checked.
        return unsafe { stage_strips_f16c(a, p, strips) };
    }
    with_format!(a.dtype, F => stage_strips(a, p, strips, |c, pack, sums| {
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
unsafe fn stage_strips_f16c(a: MatrixView<'_>, p: &mut Panels, strips: std::ops::Range<usize>) {
    use std::arch::x86_64::*;
    const _: () = assert!(MICRO_MR == 4);
    stage_strips(a, p, strips, |c, pack, sums| {
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

/// The row-major body of [`stage_a`], generic over `put`: decode one
/// step's codes into its strip slot and, when given one, its checksum
/// pair. Each strip gathers its rows through [`MatrixView::row_codes`]
/// and walks them in lockstep.
#[inline(always)]
fn stage_strips(
    a: MatrixView<'_>,
    p: &mut Panels,
    strips: std::ops::Range<usize>,
    put: impl Fn([F16; MICRO_MR], &mut [f32], Option<&mut [f32]>),
) {
    let (k, cols) = (p.k, a.cols);
    // Without checksum lanes no strip has sums and every pair is `None`.
    let sums = &mut p.a_chk[..strips.len() * 2 * k * p.sums as usize];
    let mut chk = sums.chunks_exact_mut(2 * k);
    let pack = p.a_pack[..strips.len() * MICRO_MR * k].chunks_exact_mut(MICRO_MR * k);
    for (s, strip) in strips.zip(pack) {
        let r0 = s * MICRO_MR;
        let (pack, pad) = strip.split_at_mut(MICRO_MR * cols);
        pad.fill(0.0);
        let sums = chk.next().unwrap_or_default();
        let (sums, pad) = sums.split_at_mut(sums.len().min(2 * cols));
        pad.fill(0.0);
        let (mut pack, mut sums) = (pack.chunks_exact_mut(MICRO_MR), sums.chunks_exact_mut(2));
        let mut put = |c| put(c, pack.next().expect("one slot per K step"), sums.next());
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

/// Rows the conv body stages at once: a block-row stripe, what a team
/// member stages before it walks.
pub(super) const STRIPE_ROWS: usize = BLOCK_M;

/// Lowered columns the conv body decodes before it lays them: with a
/// strip's [`MICRO_MR`] rows, one 4×4 lane transpose — one zmm per strip.
pub(super) const GROUP: usize = 4;

/// [`GROUP`] lowered columns of a stripe, decoded: column `c`'s row `r`
/// (counted from the stripe's first) at `[c][r]`.
pub(super) type Block = [[f32; STRIPE_ROWS]; GROUP];

/// A maximal run of a stripe's rows on one output row of one image
/// ([`Im2colView::segments`]).
#[derive(Clone, Copy, Default)]
struct Segment {
    /// The first row, counted from the stripe's first.
    row: usize,
    /// Pixels.
    len: usize,
    /// The first pixel's origin, as [`Im2colView::tap_run`] takes it.
    origin: (usize, isize, isize),
}

/// A conv lowering's [`stage_a`] operands, and [`stage_stripes`] as a
/// [`Kernel`]: its fp16 runs widened where `f16c` (F16C, where the host's
/// slice codecs use it: [`aiga_dtype::f16c_active`]) and its blocks laid
/// by the lanes it runs at.
struct Stripes<'a> {
    a: MatrixView<'a>,
    view: Im2colView,
    p: &'a mut Panels,
    strips: std::ops::Range<usize>,
    /// Whether fp16 runs widen by F16C.
    f16c: bool,
}

impl Kernel for Stripes<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<L: Lanes>(self) {
        // SAFETY (both closures): the caller's guarantees; `decode_run`
        // hands `widen` the codes it reads.
        let widen = self
            .f16c
            .then_some(|codes: &[F16], stride, run: &mut [f32]| unsafe {
                L::widen_f16(codes.as_ptr(), stride, run)
            });
        stage_stripes(self, widen, |block, n, pack, sums, k| unsafe {
            L::lay(block, n, pack, sums, k)
        });
    }
}

/// The conv body of [`stage_a`], one for every geometry, format and
/// path (on the scalar path with [`lay_plain`] and every run through its
/// format). Up to a stripe at a time: the stripe's live rows are split into
/// segments; [`GROUP`] columns at a time, each column's run in each
/// segment — stride 1 or the conv's, padding taps zero — is decoded into
/// the block ([`decode_run`], through `widen` where given), and the block
/// is laid into the strips with their sums by `lay` ([`Lanes::lay`], or
/// [`lay_plain`]). Rows past the request stay zero in the block, and K
/// steps past the operand are zero-filled.
#[inline(always)]
fn stage_stripes(
    stripes: Stripes<'_>,
    widen: Option<impl Fn(&[F16], usize, &mut [f32])>,
    lay: impl Fn(&Block, usize, &mut [f32], &mut [f32], usize),
) {
    let Stripes {
        a, view, p, strips, ..
    } = stripes;
    const _: () = assert!(MICRO_MR == 4 && STRIPE_ROWS.is_multiple_of(16));
    let (k, cols, per_stripe) = (p.k, a.cols, STRIPE_ROWS / MICRO_MR);
    let pack = &mut p.a_pack[..strips.len() * MICRO_MR * k];
    let sums = &mut p.a_chk[..strips.len() * 2 * k * p.sums as usize];
    let mut segments = [Segment::default(); STRIPE_ROWS];
    let mut block: Block = [[0.0; STRIPE_ROWS]; GROUP];
    for first in strips.clone().step_by(per_stripe) {
        let (at, count) = (first - strips.start, per_stripe.min(strips.end - first));
        let r0 = first * MICRO_MR;
        let live = a.rows.min(r0 + count * MICRO_MR) - r0;
        let mut n = 0;
        view.segments(r0..r0 + live, |r, len, origin| {
            segments[n] = Segment {
                row: r - r0,
                len,
                origin,
            };
            n += 1;
        });
        // No run writes a row past the request.
        block.iter_mut().for_each(|col| col[live..].fill(0.0));
        let pack = &mut pack[at * MICRO_MR * k..][..count * MICRO_MR * k];
        let sums = match p.sums {
            true => &mut sums[at * 2 * k..][..count * 2 * k],
            false => &mut [][..],
        };
        for kk0 in (0..cols).step_by(GROUP) {
            for (c, col) in (kk0..).zip(&mut block) {
                if c >= cols {
                    col[..live].fill(0.0);
                    continue;
                }
                let tap = view.filter_tap(c);
                for seg in &segments[..n] {
                    let (src, lo, hi) = view.tap_run(seg.origin, seg.len, tap);
                    let run = &mut col[seg.row..][..seg.len];
                    // Most runs have no padding tap: no fill call.
                    if lo > 0 {
                        run[..lo].fill(0.0);
                    }
                    if hi < seg.len {
                        run[hi..].fill(0.0);
                    }
                    let run = &mut run[lo..hi];
                    decode_run(a.data, a.dtype, src, view.stride, run, widen.as_ref());
                }
            }
            let sums = sums.get_mut(kk0 * 2..).unwrap_or_default();
            lay(&block, count, &mut pack[kk0 * MICRO_MR..], sums, k);
        }
        let tail = cols.next_multiple_of(GROUP);
        for strip in pack.chunks_exact_mut(MICRO_MR * k) {
            strip[tail * MICRO_MR..].fill(0.0);
        }
        for strip in sums.chunks_exact_mut(2 * k) {
            strip[tail * 2..].fill(0.0);
        }
    }
}

/// Decodes the `dtype` codes at `at`, `at + stride`, … into `run`:
/// widened by `widen` (fp16, F16C) where it is given and the stride is 1
/// or 2, handed the codes it reads; through the format's slice codec
/// where the run is contiguous, code by code otherwise.
#[inline(always)]
fn decode_run(
    codes: &[F16],
    dtype: Dtype,
    at: usize,
    stride: usize,
    run: &mut [f32],
    widen: Option<&impl Fn(&[F16], usize, &mut [f32])>,
) {
    // A stride-2 vector also reads the code after the run's last one.
    let reach = run.len() * stride;
    match widen {
        Some(widen) if stride <= 2 && at + reach <= codes.len() => {
            widen(&codes[at..][..reach], stride, run)
        }
        _ => decode_codes(codes, dtype, at, stride, run),
    }
}

/// The runs [`decode_run`] widens no vector of: a contiguous one through
/// the format's slice codec, a strided one code by code. Out of line, so
/// the fp16 widening's loop stays small.
#[inline(never)]
fn decode_codes(codes: &[F16], dtype: Dtype, at: usize, stride: usize, run: &mut [f32]) {
    match stride {
        1 => dtype.decode_slice(&codes[at..][..run.len()], run),
        _ => {
            let codes = codes[at..].iter().step_by(stride);
            run.iter_mut()
                .zip(codes)
                .for_each(|(v, c)| *v = dtype.decode(c.to_bits()));
        }
    }
}

/// The scalar path's [`Lanes::lay`]: one value at a time.
fn lay_plain(block: &Block, strips: usize, pack: &mut [f32], sums: &mut [f32], k: usize) {
    for t in 0..strips {
        for (c, col) in block.iter().enumerate() {
            let v = &col[t * MICRO_MR..][..MICRO_MR];
            pack[t * MICRO_MR * k + c * MICRO_MR..][..MICRO_MR].copy_from_slice(v);
            if !sums.is_empty() {
                let pair = &mut sums[t * 2 * k + c * 2..][..2];
                pair[0] = (v[0] + v[1]) + (v[2] + v[3]);
                pair[1] = (v[0].abs() + v[1].abs()) + (v[2].abs() + v[3].abs());
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

/// The magnitude of staged strip `strip`'s one live row at global
/// column `col` under [`Redundancy::ColumnChecksum`]: the chain
/// `fma(|a[kk]|, |b[kk][col]|, mag)` in K order over the strip's first
/// row — the scalar mirror [`group_magnitudes`] matches bit for bit.
pub(crate) fn column_magnitude(a: &Panels, b: &PackedWeights, strip: usize, col: usize) -> f32 {
    let a_abs = a.row(strip * MICRO_MR).map(f32::abs);
    dot(a_abs, b.col(col).map(f32::abs))
}

/// The magnitudes of the staged one-live-row strips' column groups
/// `opened`, each a `(strip, group)` pair with groups counted from
/// global column `col0`,
/// into `mag` (strip `s`'s column `col0 + j` at `s·bn + j`): each column
/// [`column_magnitude`] bit for bit. A SIMD path runs the opened groups
/// four at a time in one pass over K ([`Magnitudes`]), so their
/// independent chains hide the FMA latency; the scalar path is the
/// mirror itself.
pub(crate) fn group_magnitudes(
    path: GemmPath,
    a: &Panels,
    b: &PackedWeights,
    col0: usize,
    bn: usize,
    opened: &[(usize, usize)],
    mag: &mut [f32],
) {
    let groups = b.cols().div_ceil(MICRO_NR) - col0 / MICRO_NR;
    assert!(col0.is_multiple_of(MICRO_NR) && bn.is_multiple_of(MICRO_NR));
    for &(s, g) in opened {
        assert!(g < groups && (g + 1) * MICRO_NR <= bn && (s + 1) * bn <= mag.len());
        assert!(a.a_pack.len() >= (s + 1) * a.k * MICRO_MR);
    }
    assert_eq!(a.k, b.k(), "operands staged for different K");
    // SAFETY: the path is one the host runs; the asserts above bound
    // every pointer offset.
    let pass = with_format!(b.dtype(), F => unsafe {
        let pass = Magnitudes::<F> { a, b, col0, bn, opened, mag: &mut *mag, format: PhantomData };
        on_path(path, pass).is_ok()
    });
    if pass {
        return;
    }
    for &(s, g) in opened {
        for j in g * MICRO_NR..(g + 1) * MICRO_NR {
            mag[s * bn + j] = column_magnitude(a, b, s, col0 + j);
        }
    }
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

/// The sub-chains one-sided ABFT's row check splits its K walk into:
/// sub-chain `q` takes the steps `kk ≡ q (mod ROW_CHAINS)` in order,
/// and the check is `(c0 + c1) + (c2 + c3)` — so a block with one or two
/// strips still has chains enough to hide the FMA latency. Padded K is
/// a multiple of 8, so every sub-chain has as many steps.
const ROW_CHAINS: usize = 4;

/// One-sided ABFT's row check of staged strip `strip`'s row `r` against
/// global column group `g` — `Σ_k a[r][kk]·t_g[kk]` over the weights'
/// group sums `sums` (`PackedWeights::b_chk`) in [`ROW_CHAINS`]
/// sub-chains — or, with `abs`, its magnitude `Σ_k |a[r][kk]|·t_abs_g[kk]`
/// in the same order: the scalar mirror of [`row_checks`], bit for bit.
#[inline(always)]
fn row_check(a: &Panels, sums: &[f32], strip: usize, r: usize, g: usize, abs: bool) -> f32 {
    let k = a.k;
    let mut acc = [0.0f32; ROW_CHAINS];
    let t = sums[g * k * 2 + usize::from(abs)..].iter().step_by(2);
    for (kk, (v, &t)) in a.row(strip * MICRO_MR + r).zip(t).enumerate() {
        let v = if abs { v.abs() } else { v };
        acc[kk % ROW_CHAINS] = v.mul_add(t, acc[kk % ROW_CHAINS]);
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// One-sided ABFT's row checks ([`row_check`]) — or, with `abs`, their
/// magnitudes — of staged strips `s0 + s` for each `s` in `strips`, all
/// `MICRO_MR` rows of each, against the `groups` column groups from
/// global group `g0`, into `out`: strip `s`'s row `r` against group
/// `g0 + g` at `s·bn + g·MR + r`. A SIMD path runs [`RowChecks`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn row_checks(
    path: GemmPath,
    a: &Panels,
    b: &PackedWeights,
    s0: usize,
    strips: &[usize],
    g0: usize,
    groups: usize,
    bn: usize,
    abs: bool,
    out: &mut [f32],
) {
    let sums = b.b_chk();
    assert_eq!(a.k, b.k(), "operands staged for different K");
    assert!(a.k.is_multiple_of(ROW_CHAINS) && sums.len() >= (g0 + groups) * a.k * 2);
    for &s in strips {
        assert!(a.a_pack.len() >= (s0 + s + 1) * a.k * MICRO_MR);
        assert!(groups * MICRO_MR <= bn && (s + 1) * bn <= out.len());
    }
    #[rustfmt::skip]
    let pass = RowChecks { a, sums, s0, strips, g0, groups, bn, abs, out: &mut *out };
    // SAFETY: the path is one the host runs; the asserts above bound
    // every pointer offset.
    if unsafe { on_path(path, pass) }.is_ok() {
        return;
    }
    row_checks_scalar(a, sums, s0, strips, g0, groups, bn, abs, out)
}

/// The scalar path's [`row_checks`]: [`row_check`] per (strip, group,
/// row).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn row_checks_scalar(
    a: &Panels,
    sums: &[f32],
    s0: usize,
    strips: &[usize],
    g0: usize,
    groups: usize,
    bn: usize,
    abs: bool,
    out: &mut [f32],
) {
    for &s in strips {
        for g in 0..groups {
            for r in 0..MICRO_MR {
                out[s * bn + g * MICRO_MR + r] = row_check(a, sums, s0 + s, r, g0 + g, abs);
            }
        }
    }
}

/// [`row_checks`]' operands, bounded by its asserts.
struct RowChecks<'a> {
    a: &'a Panels,
    sums: &'a [f32],
    s0: usize,
    strips: &'a [usize],
    g0: usize,
    groups: usize,
    bn: usize,
    abs: bool,
    out: &'a mut [f32],
}

impl Kernel for RowChecks<'_> {
    type Out = ();

    /// A vector's lanes are `L::LANES / MR` consecutive K steps × a
    /// strip's `MR` rows (`q·MR + r`) — the strip's staged values as they
    /// lie, so the A operand is a plain load — against one column group's
    /// sums, each spread over four lanes. The lanes of step `kk` belong to
    /// sub-chain `kk mod 4`, so each (strip, group) keeps its
    /// [`ROW_CHAINS`] chains in `4·MR / L::LANES` accumulators, joined
    /// once at the end. Up to four strips by four groups run together
    /// (two by two on ymm).
    #[inline(always)]
    unsafe fn run<L: Lanes>(self) {
        #[rustfmt::skip]
        let RowChecks { a, sums, s0, strips, g0, groups, bn, abs, out } = self;
        let k = a.k;
        let wide = if L::PAIRS_STRIPS { 4 } else { 2 };
        // SAFETY: `row_checks` asserted every strip, every group's sums
        // and every `out` cell in bounds.
        unsafe {
            for gw in (0..groups).step_by(wide) {
                let live = (groups - gw).min(wide);
                // Pointers past the live groups are never read.
                let t: [*const f32; 4] = std::array::from_fn(|g| {
                    let g = g0 + gw + g.min(live - 1);
                    sums.as_ptr().add(g * k * 2)
                });
                let p = RowPass {
                    k,
                    a: a.a_pack.as_ptr().add(s0 * k * MICRO_MR),
                    t,
                    abs,
                    out: out.as_mut_ptr().add(gw * MICRO_MR),
                    bn,
                };
                for chunk in strips.chunks(wide) {
                    match live {
                        1 => strips_pass::<L, 1>(p, chunk),
                        2 => strips_pass::<L, 2>(p, chunk),
                        3 => strips_pass::<L, 3>(p, chunk),
                        _ => strips_pass::<L, 4>(p, chunk),
                    }
                }
            }
        }
    }
}

/// Where one window of column groups of a [`RowChecks`] pass reads and
/// writes.
#[derive(Clone, Copy)]
struct RowPass {
    k: usize,
    /// The block's first staged strip.
    a: *const f32,
    /// Each group's first pair of sums: the sum, then the magnitude sum.
    t: [*const f32; 4],
    abs: bool,
    /// The window's first cell of strip 0, row 0.
    out: *mut f32,
    bn: usize,
}

/// [`row_pass`] over one chunk of strips, at its length.
///
/// # Safety
/// As [`row_pass`]'s.
#[inline(always)]
unsafe fn strips_pass<L: Lanes, const G: usize>(p: RowPass, chunk: &[usize]) {
    // SAFETY: the caller's guarantees.
    unsafe {
        match *chunk {
            [s0, s1, s2, s3] => row_pass::<L, 4, G>(p, [s0, s1, s2, s3]),
            [s0, s1, s2] => row_pass::<L, 3, G>(p, [s0, s1, s2]),
            [s0, s1] => row_pass::<L, 2, G>(p, [s0, s1]),
            [s0] => row_pass::<L, 1, G>(p, [s0]),
            _ => unreachable!("chunks of one to four strips"),
        }
    }
}

/// `N` strips' row checks against a window of `G` live column groups, in
/// one walk over K, [`ROW_CHAINS`] steps at a time.
///
/// # Safety
/// As [`RowChecks`]', which built `p`; the host supports `L`.
#[inline(always)]
unsafe fn row_pass<L: Lanes, const N: usize, const G: usize>(p: RowPass, strips: [usize; N]) {
    // Vectors a strip's four steps span: one zmm, two ymm.
    const { assert!(G <= 4) };
    let per = ROW_CHAINS * MICRO_MR / L::LANES;
    let steps = L::LANES / MICRO_MR;
    let mut acc = [[[L::splat(0.0); 2]; G]; N];
    // SAFETY: see `RowChecks`.
    unsafe {
        for kk0 in (0..p.k).step_by(ROW_CHAINS) {
            let mut t = [[L::splat(0.0); 2]; G];
            for (g, t) in t.iter_mut().enumerate() {
                for (v, t) in t.iter_mut().enumerate().take(per) {
                    *t = L::spread_pairs(p.t[g].add((kk0 + v * steps) * 2), p.abs);
                }
            }
            for (acc, &s) in acc.iter_mut().zip(&strips) {
                for v in 0..per {
                    let at = p.a.add((s * p.k + kk0) * MICRO_MR + v * L::LANES);
                    let va = L::load(at, L::LANES);
                    let va = if p.abs { va.abs() } else { va };
                    for (acc, t) in acc.iter_mut().zip(&t) {
                        acc[v] = L::fma(va, t[v], acc[v]);
                    }
                }
            }
        }
        for (acc, &s) in acc.iter().zip(&strips) {
            for (g, acc) in acc.iter().enumerate() {
                // Lane `q·MR + r` of the four steps: chain `q`, row `r`.
                let mut lanes = [0.0f32; ROW_CHAINS * MICRO_MR];
                for (v, acc) in acc.iter().enumerate().take(per) {
                    acc.store(lanes.as_mut_ptr().add(v * L::LANES), L::LANES);
                }
                let out = p.out.add(s * p.bn + g * MICRO_MR);
                for r in 0..MICRO_MR {
                    let c = |q: usize| lanes[q * MICRO_MR + r];
                    *out.add(r) = (c(0) + c(1)) + (c(2) + c(3));
                }
            }
        }
    }
}

/// Whether strip `strip` of a block with `rows` live rows holds exactly
/// one of them — the strips every path runs as one-row tiles.
#[inline(always)]
fn one_live_row(rows: usize, strip: usize) -> bool {
    rows - strip * MICRO_MR == 1
}

/// Fills the live part of one block tile — the strips covering its
/// `rows` live rows by `groups` register-tile columns from global origin
/// `(row0, col0)`, the ones that cover a row of the request or a column
/// of the weights — through the dispatched microkernel, leaving the data
/// in `tile` (row stride `bn`, the block width) and the checks the run's
/// lanes ask for in `chk` — and, under [`Redundancy::TileChecksum`],
/// each corner's magnitude in `mag` — laid out as `BlockScratch`
/// documents. Under [`Redundancy::ColumnChecksum`] a strip with
/// [`one_live_row`] carries its column chains through the walk, and the
/// wider strips walk clean and take their row checks after it
/// ([`row_checks`]); no magnitude is carried ([`group_magnitudes`] and
/// [`row_checks`] take them on demand). Cells of `tile` outside the live
/// extent are left as they were. Within a live register tile, rows and
/// columns past the operands' edges are zero in the panels, so computing
/// them is harmless and branch-free — except in a strip with
/// [`one_live_row`], whose three dead rows are not computed but stored
/// as `+0.0`. Any other `lanes` runs the plain kernel — the replication
/// kinds call this twice, once per copy.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill_block_tile(
    path: GemmPath,
    a: &Panels,
    b: &PackedWeights,
    lanes: Redundancy,
    row0: usize,
    col0: usize,
    rows: usize,
    groups: usize,
    bn: usize,
    tile: &mut [f32],
    chk: &mut [f32],
    mag: &mut [f32],
) {
    let strips = rows.div_ceil(MICRO_MR);
    assert!(row0.is_multiple_of(MICRO_MR) && col0.is_multiple_of(MICRO_NR));
    assert!(groups * MICRO_NR <= bn && tile.len() >= strips * MICRO_MR * bn);
    let lane_len = lanes.lane_len(strips * MICRO_MR, bn);
    assert!(chk.len() >= lane_len && mag.len() >= lane_len);
    assert_eq!(a.k, b.k(), "operands staged for different K");
    if lanes == Redundancy::ColumnChecksum {
        // Only the last strip can have one live row; the others are
        // checked by rows.
        let wide = strips - usize::from(strips > 0 && one_live_row(rows, strips - 1));
        if wide > 0 {
            let list: [usize; BLOCK_M / MICRO_MR] = std::array::from_fn(|s| s);
            let (s0, g0) = (row0 / MICRO_MR, col0 / MICRO_NR);
            row_checks(path, a, b, s0, &list[..wide], g0, groups, bn, false, chk);
        }
    }
    #[rustfmt::skip]
    let f = Fill { a, b, row0, col0, rows, groups, bn, tile, chk, mag };
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the path is one the host runs (detect_path / force_path
    // enforce it); the asserts above and in the walk bound every pointer
    // offset.
    let Err(f) = with_format!(b.dtype(), F => unsafe {
        use Redundancy::{ColumnChecksum, TileChecksum};
        match lanes {
            ColumnChecksum => on_path(path, Walk::<F, LANES_COLUMN>(f, PhantomData)).map_err(|w| w.0),
            TileChecksum => on_path(path, Walk::<F, LANES_TILE>(f, PhantomData)).map_err(|w| w.0),
            _ => on_path(path, Walk::<F, LANES_NONE>(f, PhantomData)).map_err(|w| w.0),
        }
    }) else {
        return;
    };
    #[cfg(target_arch = "x86_64")]
    if detect_path().is_simd() {
        // SAFETY: FMA support was verified by detect_path.
        return unsafe { fill_scalar_fma(f, lanes) };
    }
    fill_scalar(f, lanes)
}

/// [`fill_scalar`] compiled with the FMA target feature (see
/// [`dot_fma`]) — same bytes, hardware `mul_add`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn fill_scalar_fma(f: Fill<'_>, lanes: Redundancy) {
    fill_scalar(f, lanes)
}

/// The scalar oracle: every data cell and every lane is its own
/// in-order FMA chain over the same operands the microkernel streams —
/// the decoded A rows and, one lane at a time, the packed B panels,
/// decoded code by code. It makes the same exception the microkernel
/// does for a strip with one live row.
#[inline(always)]
fn fill_scalar(f: Fill<'_>, lanes: Redundancy) {
    #[rustfmt::skip]
    let Fill { a, b, row0, col0, rows, groups, bn, tile, chk, mag } = f;
    let k = a.k;
    let cols = groups * MICRO_NR;
    let per_row = bn / MICRO_NR;
    for s in 0..rows.div_ceil(MICRO_MR) {
        let one_row = one_live_row(rows, s);
        for lr in s * MICRO_MR..(s + 1) * MICRO_MR {
            let out = &mut tile[lr * bn..][..cols];
            if one_row && lr > s * MICRO_MR {
                out.fill(0.0);
                continue;
            }
            for (lc, out) in out.iter_mut().enumerate() {
                *out = dot_generic(a.row(row0 + lr), b.col(col0 + lc));
            }
        }
        match lanes {
            // The one-row strip's column chains; `row_checks` took the
            // wider strips'.
            Redundancy::ColumnChecksum if one_row => {
                for lc in 0..cols {
                    let row = a.row(row0 + s * MICRO_MR);
                    chk[s * bn + lc] = dot_generic(row, b.col(col0 + lc));
                }
            }
            Redundancy::TileChecksum => {
                let a_chk = &a.a_chk[(row0 / MICRO_MR + s) * k * 2..][..k * 2];
                for g in 0..groups {
                    let b_chk = &b.b_chk()[(col0 / MICRO_NR + g) * k * 2..][..k * 2];
                    (chk[s * per_row + g], mag[s * per_row + g]) = corner_dot(a_chk, b_chk);
                }
            }
            _ => {}
        }
    }
}
#[cfg(target_arch = "x86_64")]
const LANES_NONE: u8 = 0;
#[cfg(target_arch = "x86_64")]
const LANES_COLUMN: u8 = 1;
#[cfg(target_arch = "x86_64")]
const LANES_TILE: u8 = 2;

/// [`fill_block_tile`]'s parameters, as it hands them to the walk.
struct Fill<'a> {
    a: &'a Panels,
    b: &'a PackedWeights,
    row0: usize,
    col0: usize,
    rows: usize,
    groups: usize,
    bn: usize,
    tile: &'a mut [f32],
    chk: &'a mut [f32],
    mag: &'a mut [f32],
}

/// The register-tiled microkernel walk over a [`Fill`], for format `F`
/// and lane kind `LANES`.
#[cfg(target_arch = "x86_64")]
struct Walk<'a, F, const LANES: u8>(Fill<'a>, PhantomData<F>);

/// Where one register tile reads its operands and leaves its results:
/// what [`Walk`] hands the tile bodies. A tile's strips are consecutive
/// in every buffer, and so are its column groups.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct TileArgs {
    /// The shared inner dimension.
    k: usize,
    /// The first strip's A values, `MICRO_MR` per K step.
    a_strip: *const f32,
    /// The first strip's `(sum, magnitude sum)` pairs, one per K step.
    a_sum: *const f32,
    /// The first of the tile's B panels (resident codes).
    b_panels: *const u8,
    /// The first of the tile's column groups' `(sum, magnitude sum)`
    /// pairs, `2·k` floats per group.
    b_sum: *const f32,
    /// The tile's first cell in the block tile, row stride `bn`.
    out: *mut f32,
    bn: usize,
    /// The tile's first checksum lane — per column of a one-row strip
    /// under `LANES_COLUMN`, per column group under `LANES_TILE`, where
    /// the corner's magnitude beside it is the only magnitude lane — and
    /// the distance to the next strip's.
    chk: *mut f32,
    mag: *mut f32,
    lane_row: usize,
}

#[cfg(target_arch = "x86_64")]
impl TileArgs {
    /// Step `kk` of the tile's column `col` in the panels: group
    /// `col / NR`, code `col % NR` of its 16.
    ///
    /// # Safety
    /// As [`Walk`]'s, which built `self`.
    #[inline(always)]
    unsafe fn b_at<F: Format>(&self, col: usize, kk: usize) -> *const u8 {
        let code = (col / MICRO_NR * self.k + kk) * MICRO_NR + col % MICRO_NR;
        // SAFETY: inside the tile's panels.
        unsafe { self.b_panels.add(code * F::RESIDENT_BYTES) }
    }
}

/// The register-tiled microkernel walk at lane width `L`: covers the
/// block tile's live register tiles with the widest tile that fits what
/// is left, widening B from its resident codes in the load (`L::widen`
/// — the one line that differs between formats). Strips with several
/// live rows run [`tile`] — two at once where [`Lanes::PAIRS_STRIPS`]
/// and two remain — over as many column groups as two vectors span; a
/// strip with [`one_live_row`] runs [`tile_1xn`] over four vectors'
/// groups, then two, and has `+0.0` stored in its dead rows. An odd last
/// column group runs the ymm instance of the same body.
///
/// Every pointer offset is bounded by the asserts below and in
/// [`fill_block_tile`].
#[cfg(target_arch = "x86_64")]
impl<F: Format, const LANES: u8> Kernel for Walk<'_, F, LANES> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<L: Lanes>(self) {
        use std::arch::x86_64::__m256;
        #[rustfmt::skip]
        let Fill { a, b, row0, col0, rows, groups, bn, tile: block, chk, mag } = self.0;
        let k = a.k;
        let strips = rows.div_ceil(MICRO_MR);
        let (s0, g0) = (row0 / MICRO_MR, col0 / MICRO_NR);
        let group_bytes = MICRO_NR * k * F::RESIDENT_BYTES;
        assert!(a.a_pack.len() >= (s0 + strips) * MICRO_MR * k);
        assert!(b.panels().len() >= (g0 + groups) * group_bytes);
        assert!(LANES != LANES_TILE || a.a_chk.len() >= (s0 + strips) * k * 2);
        // Only a two-sided tile reads the group sums in the walk.
        let b_chk = if LANES == LANES_TILE { b.b_chk() } else { &[] };
        assert!(LANES != LANES_TILE || b_chk.len() >= (g0 + groups) * k * 2);
        // One lane per column under LANES_COLUMN, per group under LANES_TILE.
        let (lane_row, lane_group) = match LANES {
            LANES_COLUMN => (bn, MICRO_NR),
            _ => (bn / MICRO_NR, 1),
        };
        // Column groups under two vectors of `L`.
        let wide = 2 * L::LANES / MICRO_NR;
        let mut s = 0;
        while s < strips {
            let one_row = one_live_row(rows, s);
            let pair = L::PAIRS_STRIPS && s + 1 < strips && !one_live_row(rows, s + 1);
            let mut g = 0;
            while g < groups {
                let left = groups - g;
                // SAFETY: the asserts above and in `fill_block_tile` keep
                // every offset inside its buffer (the lane and sum pointers
                // are formed with wrapping arithmetic and only dereferenced
                // under the `LANES` that sized them).
                unsafe {
                    let t = TileArgs {
                        k,
                        a_strip: a.a_pack.as_ptr().add((s0 + s) * MICRO_MR * k),
                        a_sum: a.a_chk.as_ptr().wrapping_add((s0 + s) * k * 2),
                        b_panels: b.panels().as_ptr().add((g0 + g) * group_bytes),
                        b_sum: b_chk.as_ptr().wrapping_add((g0 + g) * k * 2),
                        out: block.as_mut_ptr().add(s * MICRO_MR * bn + g * MICRO_NR),
                        bn,
                        chk: chk.as_mut_ptr().wrapping_add(s * lane_row + g * lane_group),
                        mag: mag.as_mut_ptr().wrapping_add(s * lane_row + g * lane_group),
                        lane_row,
                    };
                    g += match (one_row, pair) {
                        (true, _) if left >= 2 * wide => {
                            tile_1xn::<L, F, LANES, 4>(t);
                            2 * wide
                        }
                        (true, _) if left >= wide => {
                            tile_1xn::<L, F, LANES, 2>(t);
                            wide
                        }
                        (true, _) => {
                            tile_1xn::<__m256, F, LANES, 2>(t);
                            1
                        }
                        (false, true) if left >= wide => {
                            tile::<L, F, LANES, 2>(t);
                            wide
                        }
                        (false, false) if left >= wide => {
                            tile::<L, F, LANES, 1>(t);
                            wide
                        }
                        (false, true) => {
                            tile::<__m256, F, LANES, 2>(t);
                            1
                        }
                        (false, false) => {
                            tile::<__m256, F, LANES, 1>(t);
                            1
                        }
                    };
                }
            }
            if one_row {
                for dead in s * MICRO_MR + 1..(s + 1) * MICRO_MR {
                    block[dead * bn..][..groups * MICRO_NR].fill(0.0);
                }
            }
            s += 1 + usize::from(pair);
        }
    }
}

/// Stores a corner chain and its magnitude (`corner`'s low two lanes).
///
/// # Safety
/// The host must support SSE; `chk` and `mag` must be valid for writes.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn store_pair(corner: std::arch::x86_64::__m128, chk: *mut f32, mag: *mut f32) {
    let mut pair = [0.0f32; 4];
    // SAFETY: the caller's guarantees; `pair` holds the four lanes.
    unsafe {
        std::arch::x86_64::_mm_storeu_ps(pair.as_mut_ptr(), corner);
        *chk = pair[0];
        *mag = pair[1];
    }
}

/// The multi-row register tile: `S` strips of [`MICRO_MR`] broadcast
/// rows against two B vectors of `L` — `8·S` data accumulators live
/// across the *entire* K extent. Accumulators never spill, so each
/// output element is one in-order FMA chain, exactly the canonical
/// order. Per K step: 2 widening loads of B, `4·S` broadcasts of A,
/// `8·S` FMAs. Vector `j` covers the tile's columns `j·L::LANES ..`:
/// the two halves of one column group on ymm, two groups on zmm.
///
/// `LANES_TILE` adds one xmm FMA per (strip, column group) whose low two
/// lanes are that 4×16 tile's corner chain and its magnitude (two 8-byte
/// loads), touching no memory the data walk does not already stream
/// but those few floats per step. Under `LANES_COLUMN` the tile is the
/// clean walk: its strips are checked by rows after it
/// ([`row_checks`]).
///
/// # Safety
/// As [`Walk`]'s, which built `t`; the host supports `L`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn tile<L: Lanes, F: Format, const LANES: u8, const S: usize>(t: TileArgs) {
    use std::arch::x86_64::*;
    let groups = 2 * L::LANES / MICRO_NR;
    // SAFETY: see `Walk`.
    unsafe {
        // A `(sum, magnitude sum)` pair in the low two lanes of an xmm;
        // the upper lanes of a corner chain stay `0·0 + 0`.
        let pair = |at: *const f32| _mm_castpd_ps(_mm_load_sd(at.cast()));
        let mut acc = [[[L::splat(0.0); 2]; MICRO_MR]; S];
        let mut corner = [[_mm_setzero_ps(); 2]; S];
        for kk in 0..t.k {
            let vb: [L; 2] = [0, 1].map(|j| L::widen::<F>(t.b_at::<F>(j * L::LANES, kk)));
            for s in 0..S {
                let a_step = t.a_strip.add((s * t.k + kk) * MICRO_MR);
                for (i, acc) in acc[s].iter_mut().enumerate() {
                    let va = L::splat(*a_step.add(i));
                    acc[0] = L::fma(va, vb[0], acc[0]);
                    acc[1] = L::fma(va, vb[1], acc[1]);
                }
                if LANES == LANES_TILE {
                    let st = pair(t.a_sum.add((s * t.k + kk) * 2));
                    for (g, corner) in corner[s].iter_mut().enumerate().take(groups) {
                        let tt = pair(t.b_sum.add((g * t.k + kk) * 2));
                        *corner = _mm_fmadd_ps(st, tt, *corner);
                    }
                }
            }
        }
        for s in 0..S {
            for (i, acc) in acc[s].iter().enumerate() {
                let row = t.out.add((s * MICRO_MR + i) * t.bn);
                acc[0].store(row, L::LANES);
                acc[1].store(row.add(L::LANES), L::LANES);
            }
            let chk_at = t.chk.wrapping_add(s * t.lane_row);
            let mag_at = t.mag.wrapping_add(s * t.lane_row);
            if LANES == LANES_TILE {
                for (g, &corner) in corner[s].iter().enumerate().take(groups) {
                    store_pair(corner, chk_at.add(g), mag_at.add(g));
                }
            }
        }
    }
}

/// The register tile of a strip with one live row: that row against
/// `NV` B vectors of `L` (`NV·L::LANES / 16` column groups) — per K
/// step one broadcast of A, `NV` widening loads of B, `NV` FMAs, each
/// accumulator one in-order chain over the whole K extent as in
/// [`tile`]. This is the shape of a batch-1 layer, whose time is its
/// weight stream: four B vectors in flight keep the loads ahead of the
/// FMAs, and no FMA is spent on the strip's three rows of zeros.
///
/// `LANES_COLUMN` adds `NV` checksum chains on the same B vectors, fed
/// by the live row itself: a second, independent run of the data chains
/// that the epilogue compares column by column. At batch 1 a check
/// against the weights' group sums would stream those sums — 8 bytes a
/// K step per 16-column group beside the group's 32 bytes of f16
/// codes, 12.5 % more for the 4-byte sum alone — through a layer whose
/// time is its weight stream, while these FMAs ride loads the tile
/// makes anyway: the check stays on the side that streams nothing, as
/// in the paper. `LANES_TILE` adds each column group's xmm corner
/// chain, as [`tile`] does.
///
/// # Safety
/// As [`Walk`]'s, which built `t`; the host supports `L`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn tile_1xn<L: Lanes, F: Format, const LANES: u8, const NV: usize>(t: TileArgs) {
    use std::arch::x86_64::*;
    let groups = NV * L::LANES / MICRO_NR;
    // SAFETY: see `Walk`.
    unsafe {
        let pair = |at: *const f32| _mm_castpd_ps(_mm_load_sd(at.cast()));
        let mut acc = [L::splat(0.0); NV];
        let mut chk = [L::splat(0.0); NV];
        let mut corner = [_mm_setzero_ps(); NV];
        for kk in 0..t.k {
            let mut vb = [L::splat(0.0); NV];
            for (j, vb) in vb.iter_mut().enumerate() {
                *vb = L::widen::<F>(t.b_at::<F>(j * L::LANES, kk));
            }
            let va = L::splat(*t.a_strip.add(kk * MICRO_MR));
            for j in 0..NV {
                acc[j] = L::fma(va, vb[j], acc[j]);
            }
            if LANES == LANES_COLUMN {
                for j in 0..NV {
                    chk[j] = L::fma(va, vb[j], chk[j]);
                }
            }
            if LANES == LANES_TILE {
                let st = pair(t.a_sum.add(kk * 2));
                for (g, corner) in corner.iter_mut().enumerate().take(groups) {
                    let tt = pair(t.b_sum.add((g * t.k + kk) * 2));
                    *corner = _mm_fmadd_ps(st, tt, *corner);
                }
            }
        }
        for j in 0..NV {
            acc[j].store(t.out.add(j * L::LANES), L::LANES);
            if LANES == LANES_COLUMN {
                chk[j].store(t.chk.add(j * L::LANES), L::LANES);
            }
        }
        if LANES == LANES_TILE {
            for (g, &corner) in corner.iter().enumerate().take(groups) {
                store_pair(corner, t.chk.add(g), t.mag.add(g));
            }
        }
    }
}

/// [`group_magnitudes`]' operands, bounded by its asserts, for format
/// `F`: up to four opened groups a [`magnitude_pass`].
struct Magnitudes<'a, F> {
    a: &'a Panels,
    b: &'a PackedWeights,
    col0: usize,
    bn: usize,
    opened: &'a [(usize, usize)],
    mag: &'a mut [f32],
    format: PhantomData<F>,
}

impl<F: Format> Kernel for Magnitudes<'_, F> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<L: Lanes>(self) {
        let Magnitudes {
            a,
            b,
            col0,
            bn,
            opened,
            mag,
            ..
        } = self;
        let k = a.k;
        let group_bytes = MICRO_NR * k * F::RESIDENT_BYTES;
        // SAFETY: `group_magnitudes` asserted every strip, every group's
        // panel and every `mag` cell in bounds.
        unsafe {
            let mag = mag.as_mut_ptr();
            let chain = |(s, g): (usize, usize)| Chain {
                a_row: a.a_pack.as_ptr().add(s * k * MICRO_MR),
                b_panel: b.panels().as_ptr().add((col0 / MICRO_NR + g) * group_bytes),
                mag: mag.add(s * bn + g * MICRO_NR),
            };
            for pass in opened.chunks(4) {
                match *pass {
                    [p] => magnitude_pass::<L, F, 1>(k, [p].map(&chain)),
                    [p, q] => magnitude_pass::<L, F, 2>(k, [p, q].map(&chain)),
                    [p, q, r] => magnitude_pass::<L, F, 3>(k, [p, q, r].map(&chain)),
                    [p, q, r, t] => magnitude_pass::<L, F, 4>(k, [p, q, r, t].map(&chain)),
                    _ => unreachable!("passes of one to four groups"),
                }
            }
        }
    }
}

/// Where one opened column group's magnitude chains read and write.
#[derive(Clone, Copy)]
struct Chain {
    /// The strip's live row; one value every `MICRO_MR` floats.
    a_row: *const f32,
    /// The group's B panel (resident codes).
    b_panel: *const u8,
    /// The group's first magnitude cell.
    mag: *mut f32,
}

/// `N` opened groups' magnitudes in one walk over K: each group
/// `MICRO_NR / L::LANES` accumulators, each lane the chain
/// `fma(|a|, |b|, mag)` per K step on the widened B vector.
///
/// # Safety
/// As [`Magnitudes`]', which built `chains`; the host supports `L`.
#[inline(always)]
unsafe fn magnitude_pass<L: Lanes, F: Format, const N: usize>(k: usize, chains: [Chain; N]) {
    let per_group = MICRO_NR / L::LANES;
    let mut acc = [[L::splat(0.0); 2]; N];
    // SAFETY: see `Magnitudes`.
    unsafe {
        for kk in 0..k {
            for (c, acc) in chains.iter().zip(&mut acc) {
                let vm = L::splat((*c.a_row.add(kk * MICRO_MR)).abs());
                for (h, acc) in acc.iter_mut().enumerate().take(per_group) {
                    let code = kk * MICRO_NR + h * L::LANES;
                    let vb = L::widen::<F>(c.b_panel.add(code * F::RESIDENT_BYTES));
                    *acc = L::fma(vm, vb.abs(), *acc);
                }
            }
        }
        for (c, acc) in chains.iter().zip(&acc) {
            for (h, acc) in acc.iter().enumerate().take(per_group) {
                acc.store(c.mag.add(h * L::LANES), L::LANES);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::matrix::Matrix;
    use super::super::panels::resident_code;
    use super::super::{BLOCK_M, BLOCK_N};
    use super::*;

    fn staged(
        m: usize,
        n: usize,
        k: usize,
        seed: u64,
        lanes: Redundancy,
        dtype: Dtype,
    ) -> (Panels, PackedWeights, Matrix, Matrix) {
        let a = Matrix::random_dtype(m, k, seed, dtype);
        let b = Matrix::random_dtype(k, n, seed + 1, dtype);
        let mut p = Panels::default();
        let strips = 0..m.div_ceil(MICRO_MR);
        p.stage(
            a.view(),
            lanes,
            detect_path(),
            k.next_multiple_of(8),
            strips,
        );
        (p, PackedWeights::pack(&b), a, b)
    }

    #[test]
    fn packed_layouts_round_trip_the_panels() {
        // Ragged on purpose: 3 dead rows in the last strip, K padded by
        // 6, a partial panel and a partial register tile on the right.
        let (m, n, k) = (13, 27, 10);
        for dtype in Dtype::ALL {
            let (p, w, a, mut b) = staged(m, n, k, 42, Redundancy::TileChecksum, dtype);
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
            // Every source weight's resident code sits at its panel
            // address, at the format's resident width — no f32 image; K
            // and N padding is code 0; `col` walks one lane and decodes
            // it to the source value.
            let (width, resident) = with_format!(dtype, F => {
                (F::RESIDENT_BYTES, F::to_resident as fn(u16) -> u16)
            });
            let n_pad = n.next_multiple_of(MICRO_NR);
            assert_eq!(w.panels().len(), n_pad * kp * width, "{dtype}");
            for c in 0..n_pad {
                let walk: Vec<f32> = w.col(c).collect();
                assert_eq!(walk.len(), kp);
                for (kk, &got) in walk.iter().enumerate() {
                    let live = c < n && kk < k;
                    let want = if live { b.get_f32(kk, c) } else { 0.0 };
                    assert_eq!(got.to_bits(), want.to_bits(), "{dtype} ({kk},{c})");
                    let code = if live {
                        resident(b.get(kk, c).to_bits())
                    } else {
                        0
                    };
                    let at = (c / MICRO_NR * kp + kk) * MICRO_NR + c % MICRO_NR;
                    let stored = resident_code(&w.panels()[at * width..][..width]);
                    assert_eq!(stored, code, "{dtype} ({kk},{c})");
                }
            }
            // Row by row, a block of rows at a time: the same values, in
            // source order, the last block ragged.
            let mut kk = 0;
            w.for_each_row(|row| {
                let want: Vec<u32> = (0..n).map(|c| b.get_f32(kk, c).to_bits()).collect();
                let got: Vec<u32> = row.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "{dtype} row {kk}");
                kk += 1;
            });
            assert_eq!(kk, k);
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
                    // In column order, in f32, from zero, over the
                    // source's decoded values — the bytes the corner
                    // chain has always multiplied.
                    let (mut want, mut want_abs) = (0.0f32, 0.0f32);
                    for c in g * MICRO_NR..(g + 1) * MICRO_NR {
                        let v = if c < n && kk < k {
                            b.get_f32(kk, c)
                        } else {
                            0.0
                        };
                        want += v;
                        want_abs += v.abs();
                    }
                    let at = (g * kp + kk) * 2;
                    assert_eq!(w.b_chk()[at].to_bits(), want.to_bits());
                    assert_eq!(w.b_chk()[at + 1].to_bits(), want_abs.to_bits());
                }
            }
            // A NaN weight of any payload or sign reads back as the
            // decode's NaN (fp16 keeps one NaN code resident).
            if dtype.decode(dtype.encode(f32::NAN)).is_nan() {
                let nan = dtype.encode(f32::NAN);
                for (c, code) in [nan, nan | 1, nan | 0x8000].into_iter().enumerate() {
                    b.set(3, c, F16::from_bits(code));
                }
                let w = PackedWeights::pack(&b);
                let mut row3 = Vec::new();
                let mut kk = 0;
                w.for_each_row(|row| {
                    if kk == 3 {
                        row3 = row.to_vec();
                    }
                    kk += 1;
                });
                for (c, from_row) in row3[..3].iter().enumerate() {
                    let want = b.get_f32(3, c).to_bits();
                    let got = w.col(c).nth(3).expect("k > 3");
                    assert_eq!(got.to_bits(), want, "{dtype} NaN {c}");
                    assert_eq!(from_row.to_bits(), want, "{dtype} NaN {c}");
                }
            }
        }
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
        // Data tile, checksum lanes and magnitude lanes, under every
        // lane kind and storage format, on every path the host runs, at
        // a block origin away from zero, with the live extent both
        // filling the block and stopping short of it. The named shapes
        // are the AVX2 walk's cases (a whole strip, and one, two and
        // three live rows into the last one); the sweep after them
        // takes the zmm walk through every branch: one to four whole
        // strips (a lone strip, a pair, a pair and an odd strip, two
        // pairs), each with and without a one-live-row strip after it,
        // by one to five column groups (the 4×32 pair tile and the ymm
        // instance over an odd last group; 1×64, 1×32 and 1×16 on the
        // one-row tile).
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let mut shapes = vec![
            (16usize, 16usize, 32usize, (16usize, 1usize)),
            (32, 48, 56, (32, 3)),
            (32, 48, 56, (4, 2)),
            (32, 48, 56, (1, 3)),
            (32, 64, 24, (5, 4)),
            (32, 64, 24, (13, 1)),
            (8, 32, 10, (6, 2)),
            (8, 32, 10, (7, 2)),
            // The engine's own block, every register tile live.
            (BLOCK_M, BLOCK_N, 24, (BLOCK_M, BLOCK_N / MICRO_NR)),
        ];
        for rows in [4, 8, 9, 12, 13, 16, 17] {
            shapes.extend((1..=5).map(|groups| (20, 80, 16, (rows, groups))));
        }
        let paths = &supported_paths()[1..];
        let skipped = &GemmPath::ALL[supported_paths().len()..];
        eprintln!("comparing {paths:?} with the scalar oracle; the host cannot run {skipped:?}");
        for dtype in Dtype::ALL {
            for lanes in [
                Redundancy::None,
                Redundancy::ColumnChecksum,
                Redundancy::TileChecksum,
            ] {
                for &(bm, bn, k, live) in &shapes {
                    let (row0, col0) = (MICRO_MR * 2, MICRO_NR);
                    let (rows, groups) = live;
                    let strips = rows.div_ceil(MICRO_MR);
                    let (m, n) = (row0 + rows, col0 + groups * MICRO_NR);
                    let (p, w, ..) = staged(m, n, k, 7 + (bm + bn + k) as u64, lanes, dtype);
                    let run = |path| {
                        let mut tile = vec![f32::NAN; bm * bn];
                        let mut chk = vec![f32::NAN; lanes.lane_len(bm, bn)];
                        let mut mag = chk.clone();
                        fill_block_tile(
                            path, &p, &w, lanes, row0, col0, rows, groups, bn, &mut tile, &mut chk,
                            &mut mag,
                        );
                        // Dead cells are never written; the dead rows of
                        // a one-live-row strip are written as +0.0.
                        for (i, v) in tile.iter().enumerate() {
                            let live = i / bn < strips * MICRO_MR && i % bn < groups * MICRO_NR;
                            assert_eq!(v.is_nan(), !live, "cell {i}");
                            if live && rows % MICRO_MR == 1 && i / bn > rows - 1 {
                                assert_eq!(v.to_bits(), 0, "dead row cell {i}");
                            }
                        }
                        (bits(&tile), bits(&chk), bits(&mag))
                    };
                    let want = run(GemmPath::Scalar);
                    for &path in paths {
                        assert_eq!(
                            run(path),
                            want,
                            "{path:?} {dtype} {lanes:?} bm={bm} bn={bn} k={k} live={live:?}"
                        );
                    }
                }
            }
        }
    }

    /// `m × k` activations and `k × n` weights in `dtype` with a fifth of
    /// their cells replaced by the format's finite specials — ±0, its
    /// smallest subnormal, its largest value — and about one cell in
    /// `2k` of a column by ±Inf where the format has it, staged for
    /// one-sided ABFT.
    fn staged_specials(
        m: usize,
        n: usize,
        k: usize,
        seed: u64,
        dtype: Dtype,
    ) -> (Panels, PackedWeights) {
        let values = (0..1u32 << dtype.bits()).map(|c| dtype.decode(c as u16));
        let finite = values.filter(|v| v.is_finite() && *v > 0.0);
        let (tiny, huge) = finite.fold((f32::MAX, 0.0f32), |(lo, hi), v| (lo.min(v), hi.max(v)));
        let specials = [0.0, -0.0, tiny, -tiny, huge, -huge];
        let mut rng = aiga_util::Rng64::seed_from_u64(seed);
        let mut spice = |mut x: Matrix| {
            for r in 0..x.rows {
                for c in 0..x.cols {
                    let v = if rng.gen_bool(0.5 / (2 * k) as f64) {
                        f32::INFINITY * [1.0, -1.0][rng.range_usize(0, 2)]
                    } else if rng.gen_bool(0.2) {
                        specials[rng.range_usize(0, specials.len())]
                    } else {
                        continue;
                    };
                    x.set(r, c, F16(dtype.encode(v)));
                }
            }
            x
        };
        let a = spice(Matrix::random_dtype(m, k, seed, dtype));
        let b = spice(Matrix::random_dtype(k, n, seed + 1, dtype));
        let mut p = Panels::default();
        let (lanes, kp) = (Redundancy::ColumnChecksum, k.next_multiple_of(8));
        p.stage(a.view(), lanes, detect_path(), kp, 0..m.div_ceil(MICRO_MR));
        (p, PackedWeights::pack(&b))
    }

    #[test]
    fn a_columns_checksum_never_exceeds_its_magnitude() {
        // The lemma the one-sided epilogue skips magnitudes by, for both
        // checks: the one-row strip's column chain the microkernel
        // carries and a wider strip's row checks are bounded bit for bit
        // by their magnitude chains, `|chk| <= mag` wherever `mag` is a
        // number, and — over weights whose group magnitude sums did not
        // overflow — a NaN magnitude comes with a NaN checksum. Over
        // specials and overflow to ±Inf, at every K the engine walks in
        // one step, a few, or many; 13 rows are three wide strips and a
        // one-row strip.
        let (m, n) = (13, 48);
        let groups = n / MICRO_NR;
        for dtype in Dtype::ALL {
            for k in [0, 1, 7, 64, 1152] {
                let (p, w) = staged_specials(m, n, k, 11 + k as u64, dtype);
                let (mut tile, mut chk) = (vec![0.0; 16 * n], vec![0.0; 4 * n]);
                let mut mag = chk.clone();
                fill_block_tile(
                    detect_path(),
                    &p,
                    &w,
                    Redundancy::ColumnChecksum,
                    0,
                    0,
                    m,
                    groups,
                    n,
                    &mut tile,
                    &mut chk,
                    &mut mag,
                );
                row_checks(
                    detect_path(),
                    &p,
                    &w,
                    0,
                    &[0, 1, 2],
                    0,
                    groups,
                    n,
                    true,
                    &mut mag,
                );
                let overflowed = w.b_chk_overflowed();
                let mut bounded = 0;
                let mut pairs = vec![(
                    chk[3 * n..].to_vec(),
                    (0..n).map(|col| column_magnitude(&p, &w, 3, col)).collect(),
                )];
                pairs.extend((0..3).map(|s| {
                    (
                        chk[s * n..][..groups * MICRO_MR].to_vec(),
                        mag[s * n..][..groups * MICRO_MR].to_vec(),
                    )
                }));
                for (s, (chk, mag)) in pairs.into_iter().enumerate() {
                    for (i, (&chk, &mag)) in chk.iter().zip(&mag).enumerate() {
                        let ctx = format!("{dtype} k={k} check {s}/{i}: {chk} vs {mag}");
                        let finite = s == 0 || !overflowed;
                        assert!(!finite || !mag.is_nan() || chk.is_nan(), "{ctx}");
                        assert!(chk.is_nan() || mag.is_nan() || chk.abs() <= mag, "{ctx}");
                        bounded += !chk.is_nan() as usize;
                    }
                }
                assert!(bounded > 0, "{dtype} k={k}: every checksum was NaN");
            }
        }
    }

    #[test]
    fn a_rows_check_never_exceeds_its_magnitude() {
        // The row check's lemma at its edges, on every path: a `-0.0`
        // activation, and a bf16 weight group whose `Σ|b|` overflows to
        // `+∞` while `Σ b` cancels — the weights report it once, and a
        // zero activation over it makes the magnitude `0·∞ = NaN` beside
        // a finite check, which is why such a layer opens every row: an
        // engine run flags exactly those rows, against NaN thresholds.
        let (m, n, k) = (8, 32, 16);
        let dtype = Dtype::Bf16;
        let mut a = Matrix::random_dtype(m, k, 5, dtype);
        let mut b = Matrix::random_dtype(k, n, 6, dtype);
        let huge = f32::from_bits(0x7f7f_0000);
        for (col, v) in [huge, -huge, huge, -huge].into_iter().enumerate() {
            b.set(3, col, F16(dtype.encode(v)));
        }
        a.set(2, 3, F16(dtype.encode(-0.0)));
        a.set(5, 3, F16(dtype.encode(0.0)));
        let w = PackedWeights::pack(&b);
        let clean = PackedWeights::pack(&Matrix::random_dtype(k, n, 6, dtype));
        assert!(w.b_chk_overflowed() && !clean.b_chk_overflowed());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let mut want = None;
        for &path in supported_paths() {
            let mut p = Panels::default();
            p.stage(a.view(), Redundancy::ColumnChecksum, path, k, 0..2);
            let (mut chk, mut mag) = (vec![0.0; 2 * n], vec![0.0; 2 * n]);
            row_checks(path, &p, &w, 0, &[0, 1], 0, 2, n, false, &mut chk);
            row_checks(path, &p, &w, 0, &[0, 1], 0, 2, n, true, &mut mag);
            for s in 0..2 {
                for g in 0..2 {
                    for r in 0..MICRO_MR {
                        let at = s * n + g * MICRO_MR + r;
                        let (c, mg) = (chk[at], mag[at]);
                        let sums = w.b_chk();
                        assert_eq!(c.to_bits(), row_check(&p, sums, s, r, g, false).to_bits());
                        assert_eq!(mg.to_bits(), row_check(&p, sums, s, r, g, true).to_bits());
                        assert!(
                            mg.is_nan() || c.abs() <= mg,
                            "{path:?} {s}/{g}/{r}: {c} vs {mg}"
                        );
                        // Only the overflowed group meets `0·∞`.
                        let zero = s * MICRO_MR + r == 2 || s * MICRO_MR + r == 5;
                        assert_eq!(mg.is_nan(), zero && g == 0, "{path:?} {s}/{g}/{r}");
                        assert!(c.is_finite(), "{path:?} {s}/{g}/{r}");
                    }
                }
            }
            let got = (bits(&chk), bits(&mag));
            assert_eq!(want.get_or_insert(got.clone()), &got, "{path:?}");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn row_checks_read_no_sum_past_the_last_group() {
        // The layer's group sums copied to end where a page the process
        // may not read begins: a load one float past them faults. Both
        // passes, every path, the last group in every window position.
        extern "C" {
            fn mmap(at: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
            fn mprotect(at: *mut u8, len: usize, prot: i32) -> i32;
            fn munmap(at: *mut u8, len: usize) -> i32;
        }
        const GUARD: usize = 1 << 16; // a multiple of any page size
        const READ_WRITE: i32 = 3;
        const PRIVATE_ANONYMOUS: i32 = 0x22;
        for (n, k) in [(16, 8), (48, 16), (64, 24), (112, 40)] {
            let (p, w, _, _) = staged(8, n, k, 61, Redundancy::None, Dtype::F16);
            let sums = w.b_chk();
            let groups = n / MICRO_NR;
            assert_eq!(sums.len(), groups * w.k() * 2);
            let bytes = std::mem::size_of_val(sums).next_multiple_of(GUARD);
            // SAFETY: a fresh private mapping, its last `GUARD` bytes made
            // unreadable; `guarded` ends where they begin and is unmapped
            // after its last use.
            unsafe {
                let base = mmap(
                    std::ptr::null_mut(),
                    bytes + GUARD,
                    READ_WRITE,
                    PRIVATE_ANONYMOUS,
                    -1,
                    0,
                );
                assert!(!base.is_null() && base as isize != -1, "mmap");
                assert_eq!(mprotect(base.add(bytes), GUARD, 0), 0, "mprotect");
                let at = base.add(bytes - std::mem::size_of_val(sums)) as *mut f32;
                let guarded = std::slice::from_raw_parts_mut(at, sums.len());
                guarded.copy_from_slice(sums);
                for g0 in 0..groups {
                    for abs in [false, true] {
                        let mut want = vec![0.0f32; 2 * n];
                        row_checks_scalar(
                            &p,
                            guarded,
                            0,
                            &[0, 1],
                            g0,
                            groups - g0,
                            n,
                            abs,
                            &mut want,
                        );
                        for &path in supported_paths() {
                            let mut out = vec![0.0f32; 2 * n];
                            #[rustfmt::skip]
                            let pass = RowChecks { a: &p, sums: guarded, s0: 0, strips: &[0, 1], g0, groups: groups - g0, bn: n, abs, out: &mut out };
                            if on_path(path, pass).is_ok() {
                                let bits =
                                    |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                                assert_eq!(bits(&out), bits(&want), "{path:?} {n}x{k} from {g0}");
                            }
                        }
                    }
                }
                assert_eq!(munmap(base, bytes + GUARD), 0, "munmap");
            }
        }
    }

    #[test]
    fn group_magnitudes_match_the_scalar_mirror_on_every_path() {
        // The magnitude-only pass against `column_magnitude`, bit for
        // bit, on every path the host runs: one to six opened groups (a
        // pass of four, then one to two), strips with one to four live
        // rows, a block origin away from column zero, specials in both
        // operands. Cells of groups not opened are not written.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let (m, n, bn, col0) = (13, 112, 96, 16);
        let pairs: Vec<(usize, usize)> = (0..4).flat_map(|s| (0..6).map(move |g| (s, g))).collect();
        for dtype in Dtype::ALL {
            for k in [0, 1, 7, 64, 300] {
                let (p, w) = staged_specials(m, n, k, 29 + k as u64, dtype);
                for count in 1..=6 {
                    // A spread of opened sets: every strip, every group.
                    let opened: Vec<_> = pairs
                        .iter()
                        .copied()
                        .skip(count * 3)
                        .step_by(count)
                        .take(count)
                        .collect();
                    let mut want = vec![f32::NAN; 4 * bn];
                    for &(s, g) in &opened {
                        for j in g * MICRO_NR..(g + 1) * MICRO_NR {
                            want[s * bn + j] = column_magnitude(&p, &w, s, col0 + j);
                        }
                    }
                    for &path in supported_paths() {
                        let mut got = vec![f32::NAN; 4 * bn];
                        group_magnitudes(path, &p, &w, col0, bn, &opened, &mut got);
                        assert_eq!(bits(&got), bits(&want), "{path:?} {dtype} k={k} {opened:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn dispatch_honours_the_forced_override() {
        let paths = on_each_path(|path| {
            assert_eq!(active_path(), path);
            path
        });
        assert_eq!(paths, supported_paths());
        assert_eq!(
            (paths[0], paths.last()),
            (GemmPath::Scalar, Some(&detect_path()))
        );
        // Ambient dispatch (env or detection) — just has to be callable.
        let _ = active_path();
    }
}
