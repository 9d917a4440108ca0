//! Engine-level unit tests: reference agreement, padding/cropping,
//! counters, fault landing, the oracle conversion walk, and
//! workspace-path equivalence.

use super::*;
use aiga_dtype::F16;

const ALL_LANES: [Redundancy; 5] = [
    Redundancy::None,
    Redundancy::ColumnChecksum,
    Redundancy::TileChecksum,
    Redundancy::ShadowExact,
    Redundancy::ShadowSum,
];

/// `lanes` under a threshold no rounding noise reaches and every
/// injected test fault exceeds (`aiga-core` owns the real derivation).
fn loose(lanes: Redundancy) -> TileScheme {
    TileScheme {
        lanes,
        slope: 1e-4,
        floor: 1e-6,
    }
}

#[test]
fn matches_f64_reference_within_fp32_accumulation_error() {
    let (m, n, k) = (48, 40, 64);
    let a = Matrix::random(m, k, 1);
    let b = Matrix::random(k, n, 2);
    let out = gemm(&a, &b, TileScheme::NONE, &[]);
    let reference = gemm_reference_f64(&a, &b);
    for (i, (&got, &want)) in out.c.iter().zip(&reference).enumerate() {
        let err = (got as f64 - want).abs();
        // K=64 FP32 accumulations of exact products: error well under
        // K * eps32 * |terms|.
        assert!(err < 1e-3, "element {i}: {got} vs {want}");
    }
}

#[test]
fn identity_multiplication_is_exact() {
    let n = 32;
    let ident = Matrix::from_fn(n, n, |r, c| if r == c { F16::ONE } else { F16::ZERO });
    let b = Matrix::random(n, n, 3);
    let out = gemm(&ident, &b, TileScheme::NONE, &[]);
    for r in 0..n {
        for c in 0..n {
            assert_eq!(out.get(r, c), b.get(r, c).to_f32());
        }
    }
}

#[test]
fn unaligned_shapes_are_padded_and_cropped() {
    let (m, n, k) = (17, 9, 11);
    let a = Matrix::random(m, k, 4);
    let b = Matrix::random(k, n, 5);
    let out = gemm(&a, &b, TileScheme::NONE, &[]);
    assert_eq!((out.m, out.n), (m, n));
    let reference = gemm_reference_f64(&a, &b);
    for (&got, &want) in out.c.iter().zip(&reference) {
        assert!((got as f64 - want).abs() < 1e-3);
    }
}

#[test]
fn every_output_element_is_written_exactly_once() {
    // A product of all-ones matrices has every element equal to K —
    // if fragment ownership double-wrote or missed elements the
    // block-tile assembly would show it.
    let (m, n, k) = (64, 64, 32);
    let ones = Matrix::from_fn(m, k, |_, _| F16::ONE);
    let ones_b = Matrix::from_fn(k, n, |_, _| F16::ONE);
    let out = gemm(&ones, &ones_b, TileScheme::NONE, &[]);
    assert!(out.c.iter().all(|&v| v == k as f32));
}

#[test]
fn counters_match_tiling_formulas() {
    // Host work, not simulated GPU work: the live register tiles,
    // MR·NR data FMAs per tile per K element, and the scheme's
    // redundant FMAs on top.
    let a = Matrix::random(64, 64, 6);
    let b = Matrix::random(64, 64, 7);
    let tiles = (64 / MICRO_MR * (64 / MICRO_NR)) as u64;
    for (lanes, share) in [
        (Redundancy::None, 0.0),
        (Redundancy::ColumnChecksum, 0.25),
        (Redundancy::TileChecksum, 1.0 / 64.0),
        (Redundancy::ShadowExact, 1.0),
    ] {
        let out = gemm(&a, &b, loose(lanes), &[]);
        assert_eq!(out.counters.tiles, tiles);
        assert_eq!(out.counters.data_fmas, 64 * 64 * 64);
        assert_eq!(
            out.counters.checksum_fmas as f64 / out.counters.data_fmas as f64,
            share,
            "{lanes:?}"
        );
    }
    // A batch-1 request pays for one strip of its block, and a
    // 40-column layer for three of the block's four column groups.
    let out = gemm(
        &Matrix::random(1, 64, 8),
        &Matrix::random(64, 40, 9),
        TileScheme::NONE,
        &[],
    );
    assert_eq!(out.counters.tiles, 3);
    assert_eq!(
        out.counters.data_fmas,
        3 * (MICRO_MR * MICRO_NR * 64) as u64
    );
}

#[test]
fn injected_fault_corrupts_exactly_one_element() {
    let (m, n, k) = (32, 32, 32);
    let a = Matrix::random(m, k, 8);
    let b = Matrix::random(k, n, 9);
    let clean = gemm(&a, &b, TileScheme::NONE, &[]);
    let fault = FaultPlan {
        row: 5,
        col: 7,
        after_step: u64::MAX,
        kind: FaultKind::AddValue(100.0),
    };
    let dirty = gemm(&a, &b, TileScheme::NONE, &[fault]);
    let mut diffs = 0;
    for i in 0..m * n {
        if clean.c[i] != dirty.c[i] {
            diffs += 1;
            assert_eq!(i, 5 * n + 7);
            assert!((dirty.c[i] - clean.c[i] - 100.0).abs() < 1e-3);
        }
    }
    assert_eq!(diffs, 1);
    // The unprotected kernel never detects anything.
    assert!(!dirty.fault_detected());
}

#[test]
fn mid_kernel_fault_still_lands() {
    let (m, n, k) = (16, 16, 64);
    let a = Matrix::random(m, k, 10);
    let b = Matrix::random(k, n, 11);
    let clean = gemm(&a, &b, TileScheme::NONE, &[]);
    let fault = FaultPlan {
        row: 0,
        col: 0,
        after_step: 3,
        kind: FaultKind::SetValue(1e4),
    };
    let dirty = gemm(&a, &b, TileScheme::NONE, &[fault]);
    // The corrupted accumulator keeps accumulating afterwards, so the
    // output differs from clean but is not exactly 1e4.
    assert_ne!(clean.get(0, 0), dirty.get(0, 0));
    assert!(dirty.get(0, 0) > 5e3);
}

#[test]
fn output_is_byte_identical_to_an_oracle_conversion_walk() {
    // Replays every accumulator's exact operation sequence — the
    // canonical order: one correctly-rounded FMA per K element, in K
    // order — but converts the FP16 operands through the pre-table
    // arithmetic formulation instead of the decode table /
    // pre-decoded panels. Byte equality proves panel pre-decoding
    // changed no result bit.
    fn oracle_f32(h: F16) -> f32 {
        let bits = h.to_bits();
        let sign = if bits & 0x8000 != 0 { -1.0f64 } else { 1.0 };
        let exp = ((bits & 0x7c00) >> 10) as i32;
        let frac = (bits & 0x03ff) as f64;
        let wide = match exp {
            0 => sign * frac * 2.0_f64.powi(-24),
            31 => {
                if frac == 0.0 {
                    sign * f64::INFINITY
                } else {
                    f64::NAN
                }
            }
            _ => sign * (1024.0 + frac) * 2.0_f64.powi(exp - 25),
        };
        wide as f32
    }
    for &(m, n, k, seed) in &[(17usize, 9usize, 11usize, 90u64), (48, 40, 64, 91)] {
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 1);
        let out = gemm(&a, &b, TileScheme::NONE, &[]);
        let kp = k.next_multiple_of(8); // padded K (zeros beyond k)
        let at = |r: usize, c: usize| {
            if c < k {
                oracle_f32(a.get(r, c))
            } else {
                0.0
            }
        };
        let bt = |r: usize, c: usize| {
            if r < k {
                oracle_f32(b.get(r, c))
            } else {
                0.0
            }
        };
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for k0 in 0..kp {
                    acc = at(i, k0).mul_add(bt(k0, j), acc);
                }
                assert_eq!(
                    out.get(i, j).to_bits(),
                    acc.to_bits(),
                    "element ({i},{j}) of {m}x{n}x{k}"
                );
            }
        }
    }
}

#[test]
fn workspace_path_is_byte_identical_to_the_allocating_path() {
    // One workspace reused across shapes and schemes — the pooled
    // serving regime — must reproduce a fresh workspace's bytes
    // exactly, clean and faulted, under every lane kind.
    let mut ws = Workspace::new();
    for &(m, n, k, seed) in &[
        (17usize, 9usize, 11usize, 40u64),
        (64, 64, 64, 41),
        (33, 65, 40, 42),
    ] {
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 1);
        let fault = FaultPlan {
            row: m / 2,
            col: n / 2,
            after_step: 2,
            kind: FaultKind::AddValue(32.0),
        };
        for faults in [&[][..], &[fault][..]] {
            for lanes in ALL_LANES {
                let alloc = gemm(&a, &b, loose(lanes), faults);
                let packed = PackedWeights::pack(&b, lanes);
                let into = gemm_into(&a, &packed, loose(lanes), faults, &mut ws);
                assert_eq!(alloc.c, into.c);
                assert_eq!(alloc.detections, into.detections);
                assert_eq!(alloc.counters, into.counters);
            }
        }
    }
}

#[test]
fn block_parallel_stripes_are_byte_identical_to_sequential() {
    // Just past BLOCK_PAR_MIN_FLOPS, where the regime would follow
    // `effective_workers`; force the worker count instead — 1 for the
    // sequential baseline, then 3 over 5 stripes (deliberately uneven)
    // — to exercise both arms deterministically. Five block rows by
    // four block columns, the last of each ragged: 270 rows end two
    // live rows into a strip, 250 columns ten into a register tile. A
    // threshold below any residual makes every tile column flag,
    // covering the merge ordering; the faulted run covers the cold
    // recompute path.
    let flag_all = TileScheme {
        lanes: Redundancy::ColumnChecksum,
        slope: 0.0,
        floor: -1.0,
    };
    let (m, n, k) = (270usize, 250usize, 256usize);
    assert!(m.div_ceil(BLOCK_M) == 5 && n.div_ceil(BLOCK_N) == 4);
    let a = Matrix::random(m, k, 70);
    let b = Matrix::random(k, n, 71);
    let faults = [FaultPlan {
        row: 269,
        col: 249,
        after_step: 5,
        kind: FaultKind::AddValue(96.0),
    }];
    super::FORCE_WORKERS.store(1, std::sync::atomic::Ordering::Relaxed);
    let seq_clean = gemm(&a, &b, flag_all, &[]);
    // Padding columns of the last register tile carry lanes too.
    assert_eq!(
        seq_clean.detections.len(),
        m.div_ceil(MICRO_MR) * n.next_multiple_of(MICRO_NR)
    );
    let seq_fault = gemm(&a, &b, loose(Redundancy::ColumnChecksum), &faults);
    assert_eq!(seq_fault.detections.len(), 1);
    let mut ws = Workspace::new();
    let b = PackedWeights::pack(&b, Redundancy::ColumnChecksum);
    super::FORCE_WORKERS.store(3, std::sync::atomic::Ordering::Relaxed);
    {
        let par = gemm_into(&a, &b, flag_all, &[], &mut ws);
        assert_eq!(seq_clean.c, par.c);
        assert_eq!(seq_clean.detections, par.detections);
        assert_eq!(seq_clean.counters, par.counters);
    }
    {
        let par = gemm_into(&a, &b, loose(Redundancy::ColumnChecksum), &faults, &mut ws);
        assert_eq!(seq_fault.c, par.c);
        assert_eq!(seq_fault.detections, par.detections);
    }
    super::FORCE_WORKERS.store(0, std::sync::atomic::Ordering::Relaxed);
}

#[test]
fn random_dtype_f16_is_byte_identical_to_random() {
    let plain = Matrix::random(9, 13, 123);
    let tagged = Matrix::random_dtype(9, 13, 123, Dtype::F16);
    assert_eq!(plain.data, tagged.data);
    assert_eq!(tagged.dtype, Dtype::F16);
}

#[test]
fn every_dtype_runs_the_engine_against_its_f64_reference() {
    // Decoded-f32 panels are the common currency: each storage format's
    // GEMM must match the dtype-aware f64 reference to FP32-accumulation
    // error, on both an aligned and a padded shape.
    for dtype in Dtype::ALL {
        for &(m, n, k, seed) in &[(32usize, 32usize, 32usize, 60u64), (17, 9, 11, 61)] {
            let a = Matrix::random_dtype(m, k, seed, dtype);
            let b = Matrix::random_dtype(k, n, seed + 1, dtype);
            let out = gemm(&a, &b, TileScheme::NONE, &[]);
            let reference = gemm_reference_f64(&a, &b);
            for (i, (&got, &want)) in out.c.iter().zip(&reference).enumerate() {
                assert!(
                    (got as f64 - want).abs() < 1e-3,
                    "{dtype} element {i}: {got} vs {want}"
                );
            }
        }
    }
}

#[test]
fn mixed_dtype_operands_are_rejected() {
    let a = Matrix::random_dtype(16, 16, 1, Dtype::Bf16);
    let b = Matrix::random_dtype(16, 16, 2, Dtype::Fp8E4M3);
    let res = std::panic::catch_unwind(|| gemm(&a, &b, TileScheme::NONE, &[]));
    assert!(res.is_err(), "mismatched operand dtypes must panic");
}

#[test]
fn workspace_take_output_leaves_a_reusable_workspace() {
    let a = Matrix::random(16, 16, 50);
    let b = PackedWeights::pack(&Matrix::random(16, 16, 51), Redundancy::None);
    let mut ws = Workspace::new();
    gemm_into(&a, &b, TileScheme::NONE, &[], &mut ws);
    let first = ws.take_output();
    assert_eq!((first.m, first.n), (16, 16));
    let second = gemm_into(&a, &b, TileScheme::NONE, &[], &mut ws);
    assert_eq!(first.c, second.c);
}

/// The three-pass staging the one-pass strip staging replaced — decode
/// to padded row-major f32 (`MatrixView::decode_padded_into`, kept in
/// `matrix.rs`'s tests), re-lay into strips, then sum the checksum rows
/// — as the oracle for `Panels::stage`'s bits.
fn stage_oracle(a: MatrixView<'_>, k: usize) -> (Vec<f32>, Vec<f32>) {
    let live_m = a.rows.next_multiple_of(MICRO_MR);
    let mut decoded = Vec::new();
    a.decode_padded_into(live_m, k, &mut decoded);
    let mut a_pack = vec![f32::NAN; live_m * k];
    let mut a_chk = vec![f32::NAN; live_m / MICRO_MR * k * 2];
    for s in 0..live_m / MICRO_MR {
        for kk in 0..k {
            let v: [f32; MICRO_MR] = std::array::from_fn(|i| decoded[(s * MICRO_MR + i) * k + kk]);
            a_pack[(s * k + kk) * MICRO_MR..][..MICRO_MR].copy_from_slice(&v);
            a_chk[(s * k + kk) * 2] = (v[0] + v[1]) + (v[2] + v[3]);
            a_chk[(s * k + kk) * 2 + 1] = (v[0].abs() + v[1].abs()) + (v[2].abs() + v[3].abs());
        }
    }
    (a_pack, a_chk)
}

#[test]
fn one_pass_staging_matches_the_three_pass_oracle_bit_for_bit() {
    use crate::engine::panels::Panels;
    // (kernel, stride, padding, h, w): pointwise, 3×3 s1 p1, 3×3 s2 p0
    // with a ceil-mode edge (the last window hangs past the image),
    // 7×7 s2 p3 — widths divisible by neither 4 nor 8, so strips
    // straddle output rows and images.
    let geometries = [
        (1, 1, 0, 5, 7),
        (3, 1, 1, 9, 11),
        (3, 2, 0, 10, 13),
        (7, 2, 3, 13, 9),
    ];
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    for dtype in Dtype::ALL {
        for (kernel, stride, padding, h, w) in geometries {
            for images in [1usize, 2] {
                let channels = 3;
                let mut tensor = Matrix::random_dtype(1, images * channels * h * w, 31, dtype);
                // −0.0 and (where the format has one) NaN among the taps.
                for (i, v) in [-0.0f32, f32::NAN, -f32::NAN].into_iter().enumerate() {
                    tensor.data[7 + 13 * i] = F16::from_bits(dtype.encode(v));
                }
                let ceil = |x: usize| (x + 2 * padding - kernel).div_ceil(stride) + 1;
                let geom = Im2colView {
                    channels,
                    height: h,
                    width: w,
                    kernel,
                    stride,
                    padding,
                    out_h: ceil(h),
                    out_w: ceil(w),
                };
                let mut views = vec![MatrixView::im2col_lowered(
                    images,
                    geom,
                    &tensor.data,
                    dtype,
                )];
                if kernel == 1 {
                    views.push(MatrixView::nchw_lowered(
                        images,
                        channels,
                        h * w,
                        &tensor.data,
                        dtype,
                    ));
                    views.push(MatrixView {
                        rows: images * 5,
                        cols: channels * h * w / 5,
                        ..tensor.view()
                    });
                }
                for view in views {
                    let k = view.cols.next_multiple_of(8);
                    let (want_pack, want_chk) = stage_oracle(view, k);
                    for path in [simd::detect_path(), GemmPath::Scalar] {
                        // Stale contents must be fully overwritten.
                        let mut p = Panels::default();
                        p.a_pack.resize(want_pack.len() + 5, f32::NAN);
                        p.a_chk.resize(want_chk.len() + 5, f32::NAN);
                        p.stage(view, Redundancy::ColumnChecksum, path, k);
                        let what = format!(
                            "{dtype} k{kernel}s{stride}p{padding} x{images} {:?} {path:?}",
                            view.layout
                        );
                        assert_eq!(bits(&p.a_pack), bits(&want_pack), "a_pack {what}");
                        assert_eq!(bits(&p.a_chk), bits(&want_chk), "a_chk {what}");
                        p.stage(view, Redundancy::None, path, k);
                        assert_eq!(
                            bits(&p.a_pack),
                            bits(&want_pack),
                            "a_pack (no lanes) {what}"
                        );
                        assert!(p.a_chk.is_empty());
                    }
                }
            }
        }
    }
}
