//! Max-pooling in registers: the rows of a pooling stage whose windows
//! lie wholly inside the plane, one vector of outputs at a time.
//!
//! A vector of outputs takes every tap of its `k × k` windows in
//! registers — a stride-1 tap is one load, a stride-2 tap two loads
//! de-interleaved by a permute — and is stored once; the last vector of
//! a row is masked. The body is written once over the engine's lane
//! type, ymm on AVX2 and zmm on AVX-512. The fold is `(ky, kx)`-ordered from `−∞`, each step
//! [`max_fold`], so every path gives the bytes of a per-output scalar
//! loop: a NaN tap is skipped and, among equal values (`−0.0` and
//! `+0.0`), the first tap wins. The caller pools the windows that cross
//! the plane's edge, and average pooling, a window at a time
//! (`aiga-core`'s `pool_planes`).

use super::lanes::{on_path, Kernel, Lanes};
use super::simd::{self, GemmPath};
use std::ops::Range;

/// One step of the max fold: `tap` where it is greater than `o`, else
/// `o` — so a NaN tap leaves `o`, and of two equal taps the first
/// stays. Spelled out rather than `o.max(tap)`, whose sign at `±0.0`
/// Rust leaves unspecified; it is `vmaxps(tap, o)` lane for lane.
#[inline(always)]
pub fn max_fold(o: f32, tap: f32) -> f32 {
    if tap > o {
        tap
    } else {
        o
    }
}

/// Max-pools one output row's full windows: `out[j]` is the [`max_fold`]
/// from `−∞` over input rows `rows` (outer) and taps `0..kernel` (inner)
/// of `plane[iy·w + x0 + j·stride + kx]` — where `plane` holds rows `w`
/// wide and every tap lies inside its row. Strides 1 and 2 run in
/// vectors on a SIMD `path` (ymm on AVX2, zmm on AVX-512); other strides
/// and the scalar path a window at a time.
pub fn max_row(
    path: GemmPath,
    plane: &[f32],
    w: usize,
    rows: Range<usize>,
    (kernel, stride): (usize, usize),
    x0: usize,
    out: &mut [f32],
) {
    assert!(
        simd::supported_paths().contains(&path),
        "this host cannot run the {} path",
        path.as_str()
    );
    if out.is_empty() {
        return;
    }
    assert!(
        x0 + (out.len() - 1) * stride + kernel <= w,
        "every tap inside its row"
    );
    assert!(rows.end * w <= plane.len(), "every row inside the plane");
    let row = Row {
        plane,
        w,
        rows: rows.clone(),
        kernel,
        x0,
        out: &mut *out,
    };
    // SAFETY: the path is one the host runs (`simd::force_path` admits
    // no other), and every tap is in bounds (asserted above).
    let vector = unsafe {
        match stride {
            1 => on_path(path, Strided::<1>(row)).is_ok(),
            2 => on_path(path, Strided::<2>(row)).is_ok(),
            _ => false,
        }
    };
    if vector {
        return;
    }
    for (j, o) in out.iter_mut().enumerate() {
        *o = f32::NEG_INFINITY;
        for iy in rows.clone() {
            let taps = &plane[iy * w + x0 + j * stride..][..kernel];
            *o = taps.iter().fold(*o, |o, &tap| max_fold(o, tap));
        }
    }
}

/// [`max_row`]'s operands.
struct Row<'a> {
    plane: &'a [f32],
    w: usize,
    rows: Range<usize>,
    kernel: usize,
    x0: usize,
    out: &'a mut [f32],
}

/// [`max_row`] in vectors at stride `STRIDE` (1 or 2): each vector of
/// outputs folds its windows' taps in registers and is stored once. A
/// load near the plane's end is masked to the plane, so nothing past it
/// is read. Every tap of every output lies inside the plane, as
/// [`max_row`] asserts.
struct Strided<'a, const STRIDE: usize>(Row<'a>);

impl<const STRIDE: usize> Kernel for Strided<'_, STRIDE> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<L: Lanes>(self) {
        let Row {
            plane,
            w,
            rows,
            kernel,
            x0,
            out,
        } = self.0;
        let lanes = L::LANES;
        // The furthest a row's loads reach past its first tap.
        let reach = kernel + (STRIDE - 1) * lanes + lanes;
        for j in (0..out.len()).step_by(lanes) {
            let live = lanes.min(out.len() - j);
            // SAFETY (the block): the host's instructions are the caller's
            // guarantee; a load is whole only where all of it is inside the
            // plane, else masked to it; the store covers `out[j..j + live]`.
            unsafe {
                let mut o = L::splat(f32::NEG_INFINITY);
                for iy in rows.clone() {
                    let at = iy * w + x0 + j * STRIDE;
                    let first = plane.as_ptr().add(at);
                    // Each row folds from −∞ on its own chain, and the rows'
                    // maxima fold in row order: the first of equal values
                    // still wins, NaN is still skipped, and the chains
                    // overlap.
                    let row = L::splat(f32::NEG_INFINITY);
                    let row = if at + reach <= plane.len() {
                        fold_row::<L, STRIDE>(row, kernel, |d| L::load(first.add(d), lanes))
                    } else {
                        fold_row::<L, STRIDE>(row, kernel, |d| match plane.len() - at {
                            left if left > d => L::load(first.add(d), left - d),
                            _ => L::splat(0.0),
                        })
                    };
                    o = L::max_fold(o, row);
                }
                o.store(out[j..].as_mut_ptr(), live);
            }
        }
    }
}

/// Folds one input row's `kernel` taps into `o`, in order, for a
/// vector of outputs whose first tap is at offset 0 of `load(offset)`:
/// at stride 1 tap `kx` is the vector at `kx`; at stride 2 taps `kx`
/// and `kx + 1` are the evens and the odds of the pair of vectors at
/// `kx`, loaded once for both.
///
/// # Safety
/// The host must support `L`'s instructions, and `load` must be safe to
/// call at every offset below `kernel + LANES` (`2·LANES` at stride 2).
#[inline(always)]
unsafe fn fold_row<L: Lanes, const STRIDE: usize>(
    mut o: L,
    kernel: usize,
    load: impl Fn(usize) -> L,
) -> L {
    // SAFETY: the caller's guarantees.
    unsafe {
        if STRIDE == 1 {
            for kx in 0..kernel {
                o = L::max_fold(o, load(kx));
            }
            return o;
        }
        for kx in (0..kernel).step_by(2) {
            let (lo, hi) = (load(kx), load(kx + L::LANES));
            o = L::max_fold(o, L::evens(lo, hi));
            if kx + 1 < kernel {
                o = L::max_fold(o, L::odds(lo, hi));
            }
        }
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simd::on_each_path;

    #[test]
    fn the_fold_and_the_relu_pin_signed_zeros_infinities_and_nan() {
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        let bits = |v: f32| v.to_bits();
        // The ReLU keeps −0.0 and sends NaN to +0.0.
        let relu = crate::engine::emit::relu;
        for (v, want) in [
            (-0.0, -0.0),
            (0.0, 0.0),
            (inf, inf),
            (-inf, 0.0),
            (nan, 0.0),
            (-nan, 0.0),
        ] {
            assert_eq!(bits(relu(v)), bits(want), "relu({v})");
        }
        // The fold keeps the first of equal values and skips NaN taps.
        for (o, tap, want) in [
            (-0.0, 0.0, -0.0),
            (0.0, -0.0, 0.0),
            (-inf, -0.0, -0.0),
            (-inf, nan, -inf),
            (-0.0, nan, -0.0),
            (inf, nan, inf),
            (-inf, -inf, -inf),
            (0.0, inf, inf),
            (inf, -inf, inf),
        ] {
            assert_eq!(bits(max_fold(o, tap)), bits(want), "max_fold({o}, {tap})");
        }
    }

    #[test]
    fn vector_rows_fold_as_the_scalar_row() {
        // Planes of specials and ordinary values; strides 1, 2 and 3;
        // rows whose output count leaves a masked last vector on both
        // widths, windows that end on the plane's last element.
        let specials = [
            0.0,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        for (w, h) in [(13usize, 5usize), (111, 4), (40, 3)] {
            let plane: Vec<f32> = (0..w * h)
                .map(|i| match i % 7 {
                    0 | 3 => specials[(i / 7) % specials.len()],
                    _ => ((i * 37) % 23) as f32 - 11.0,
                })
                .collect();
            for (kernel, stride) in [(3usize, 2usize), (3, 1), (2, 2), (1, 1), (3, 3)] {
                for rows in [0..h, 1..h, h - 1..h, 0..0] {
                    let outs = (w - kernel) / stride + 1;
                    for (x0, n) in [(0, outs), (stride, outs - 1), (0, 1)] {
                        let results = on_each_path(|path| {
                            let mut out = vec![1.5f32; n + 1];
                            max_row(
                                path,
                                &plane,
                                w,
                                rows.clone(),
                                (kernel, stride),
                                x0,
                                &mut out[..n],
                            );
                            assert_eq!(out[n], 1.5, "past the row");
                            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                        });
                        for (path, got) in results.iter().enumerate() {
                            assert_eq!(
                                got, &results[0],
                                "path {path} w {w} k {kernel} s {stride} rows {rows:?} x0 {x0}"
                            );
                        }
                    }
                }
            }
        }
    }
}
